"""Circuit breaker: stop hammering a failing backend, probe for recovery.

The serving stack runs the compiled engine by default and keeps the
eager ``no_grad`` forward as a functional twin.  When the compiled
backend fails repeatedly (a corrupted plan, an arena allocation
failure), retrying it forever turns one bad component into a dead
server.  The breaker converts *K consecutive failures* into an **open**
state that routes traffic to the fallback, then **half-opens** after a
cooldown to let exactly one probe test whether the primary recovered —
success re-closes the breaker, failure re-opens it for another
cooldown.
"""

from __future__ import annotations

import threading
import time

from .. import obs

__all__ = ["CLOSED", "HALF_OPEN", "OPEN", "CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker with half-open recovery probes.

    Thread-safe; shared by every worker of an
    :class:`~repro.serve.InferenceServer`.

    Parameters
    ----------
    threshold:
        Consecutive primary failures that trip the breaker open.
    cooldown_s:
        How long the breaker stays open before half-opening.
    name:
        Label used in the obs counters (``serve/breaker_*``).
    clock:
        Injectable monotonic clock (tests use a fake one).
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown_s: float = 0.25,
        name: str = "breaker",
        clock=time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.opened_count = 0  # lifetime trips, for health/benchmarks

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow_primary(self) -> bool:
        """May this caller run the primary backend right now?

        Open: no (until the cooldown elapses, which half-opens and
        grants this caller the single probe slot).  Half-open: only the
        probe holder.  Closed: yes.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at < self.cooldown_s:
                    return False
                self._state = HALF_OPEN
                self._probing = True
                obs.inc("serve/breaker_half_open")
                obs.event("serve/breaker_half_open", breaker=self.name)
                return True
            # HALF_OPEN: one probe in flight at a time
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        """A primary call succeeded: reset failures, close if probing."""
        with self._lock:
            self._failures = 0
            self._probing = False
            if self._state != CLOSED:
                self._state = CLOSED
                obs.inc("serve/breaker_closed")
                obs.event("serve/breaker_closed", breaker=self.name)

    def record_failure(self) -> None:
        """A primary call failed: count it; trip when over threshold or
        when a half-open probe fails."""
        with self._lock:
            self._failures += 1
            tripped = (
                self._state == HALF_OPEN
                or (self._state == CLOSED
                    and self._failures >= self.threshold)
            )
            self._probing = False
            if tripped and self._state != OPEN:
                self._state = OPEN
                self._opened_at = self._clock()
                self.opened_count += 1
                obs.inc("serve/breaker_open")
                obs.event("serve/breaker_open", breaker=self.name,
                          failures=self._failures)

    def snapshot(self) -> dict:
        """State summary for :meth:`InferenceServer.health`."""
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "opened_count": self.opened_count,
                "threshold": self.threshold,
                "cooldown_s": self.cooldown_s,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CircuitBreaker({self.name}, state={self.state!r}, "
                f"threshold={self.threshold})")

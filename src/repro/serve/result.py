"""Request/response value objects of the inference server.

Every submitted request resolves its future with a :class:`ServeResult`
— never an exception and never silence — so a caller can always
``future.result(timeout=...)`` and branch on ``status``.  Statuses map
onto the HTTP codes an RPC front-end would emit: a shed request is a
503 (the bounded queue is the overload breaker), an expired deadline is
a 504, a worker crash is a 500.  :class:`Counters` is the lock-protected
accounting that servers and streams keep of those outcomes, and the one
place each outcome is named: every bump also feeds the :mod:`repro.obs`
counter ``<PREFIX>/<field>``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .. import obs

__all__ = [
    "Counters",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_SHED",
    "STATUS_SHUTDOWN",
    "STATUS_TIMEOUT",
    "ServeResult",
]

STATUS_OK = "ok"
STATUS_SHED = "shed"          # queue full at submit -> 503
STATUS_TIMEOUT = "timeout"    # deadline expired in queue -> 504
STATUS_ERROR = "error"        # runner raised -> 500
STATUS_SHUTDOWN = "shutdown"  # server stopped before the request ran

_CODES = {
    STATUS_OK: 200,
    STATUS_ERROR: 500,
    STATUS_SHED: 503,
    STATUS_SHUTDOWN: 503,
    STATUS_TIMEOUT: 504,
}


@dataclass
class ServeResult:
    """Outcome of one served request.

    Attributes
    ----------
    status:
        One of the ``STATUS_*`` constants.
    value:
        The model output for this request (``None`` unless ``ok``).
    code:
        HTTP-style status code derived from ``status``.
    error:
        Stringified worker exception for ``error`` results.
    latency_ms:
        Submit-to-resolve wall time.
    batch_size:
        Size of the dynamic batch this request ran in (0 if it never
        ran).
    request_id:
        The request id assigned at :meth:`InferenceServer.submit` —
        the same id stamped on every span the request touched, so a
        caller can join its result to the trace.
    """

    status: str
    value: np.ndarray | None = None
    error: str | None = None
    latency_ms: float = 0.0
    batch_size: int = 0
    request_id: str | None = None

    def __post_init__(self) -> None:
        if self.status not in _CODES:
            raise ValueError(f"unknown result status {self.status!r}")

    @property
    def code(self) -> int:
        return _CODES[self.status]

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class Counters:
    """Thread-safe integer counters named by the subclass's ``FIELDS``.

    Every bump is also published as the :mod:`repro.obs` counter
    ``<PREFIX>/<field>`` (a no-op when nothing is recording), so the
    stats snapshot, Prometheus and the JSONL trace count one outcome
    under one name.

    Counters that move together must be written through one
    :meth:`add_many` call: separate :meth:`add` calls would let a
    concurrent :meth:`snapshot` observe a *torn* state (a request
    completed but its batch not yet counted, a frame accepted but
    neither processed nor dropped).
    """

    PREFIX = ""
    FIELDS: tuple[str, ...] = ()

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._names = {f: f"{self.PREFIX}/{f}" for f in self.FIELDS}
        for field in self.FIELDS:
            setattr(self, field, 0)

    def add(self, field: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)
        if amount:
            obs.inc(self._names[field], amount)

    def add_many(self, **fields: int) -> None:
        """Bump several counters atomically (one lock acquisition)."""
        with self._lock:
            for field, amount in fields.items():
                setattr(self, field, getattr(self, field) + amount)
        for field, amount in fields.items():
            if amount:
                obs.inc(self._names[field], amount)

    def snapshot(self) -> dict:
        """A consistent point-in-time copy of every counter."""
        with self._lock:
            return {field: getattr(self, field) for field in self.FIELDS}

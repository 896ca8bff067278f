"""Retry backoff: exponential, capped, with bounded seeded jitter.

A transient fault (a worker hiccup, an injected crash) should cost one
short pause, not a failed request; a *persistent* fault should not see
every retrier hammer the same instant.  Exponential backoff handles the
first, jitter the second.  Jitter is drawn from a caller-supplied
generator so tests and benchmarks stay deterministic.
"""

from __future__ import annotations

import numpy as np

__all__ = ["retry_delay_ms"]

#: Backoff before the first retry; it doubles per attempt ...
BACKOFF_MS = 5.0
#: ... up to this cap.
MAX_BACKOFF_MS = 1000.0
#: Each delay is scaled by a uniform factor in ``[1 - JITTER, 1 + JITTER]``.
JITTER = 0.5


def retry_delay_ms(
    attempt: int, rng: np.random.Generator | None = None
) -> float:
    """Backoff before retry ``attempt`` (0-based):
    ``BACKOFF_MS * 2**attempt`` capped at ``MAX_BACKOFF_MS``, jittered
    when ``rng`` is given."""
    if attempt < 0:
        raise ValueError("attempt must be >= 0")
    delay = min(BACKOFF_MS * 2.0 ** attempt, MAX_BACKOFF_MS)
    if rng is not None:
        delay *= 1.0 + JITTER * (2.0 * rng.random() - 1.0)
    return delay

"""Request-scoped tracing: a request's identity is its id string.

Serving telemetry is only useful when a measurement can be *attributed*:
"this kernel ran 4.1 ms" means little, "this kernel ran 4.1 ms inside
request ``skynet-000017`` which missed its deadline" is actionable.
The attribution is the request id (:func:`new_request_id`).

Propagation is ambient: :func:`use_context` makes an id the current one
for the block, and every span opened by :class:`repro.obs.Tracer`
while it is active is stamped with it (see
:meth:`~repro.obs.trace.Tracer.span`).  The slot is thread-local, so a
server worker executing request A cannot leak A's id into a neighbour
thread running request B; handing an id *across* threads (submit
thread -> worker thread) is explicit — the server carries it on the
queued request and re-enters it around the batch forward.

A batch coalesces several requests into one forward, so the spans under
it belong to *all* of them: the server enters the member ids joined
with commas (``req-3,req-4``).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager

__all__ = [
    "current_context",
    "use_context",
    "new_request_id",
    "request_scope",
]

_SEQ = itertools.count(1)
_LOCAL = threading.local()


def new_request_id(prefix: str = "req") -> str:
    """A process-unique request id, e.g. ``skynet-000017``."""
    return f"{prefix}-{next(_SEQ):06d}"


def current_context() -> str | None:
    """The request id active on this thread, or ``None``."""
    return getattr(_LOCAL, "request_id", None)


@contextmanager
def use_context(request_id: str | None):
    """Make ``request_id`` the ambient id for the block (``None`` =
    no-op).

    Nestable; the previous id is restored on exit even when the block
    raises.
    """
    if request_id is None:
        yield None
        return
    previous = current_context()
    _LOCAL.request_id = request_id
    try:
        yield request_id
    finally:
        _LOCAL.request_id = previous


@contextmanager
def request_scope(prefix: str = "req"):
    """Ensure *some* request id is active: reuse the ambient one, or
    open a fresh request for the block.

    This is what :meth:`Session.run <repro.runtime.Session.run>` calls —
    a bare ``run`` becomes its own request, while a ``run`` issued under
    a server batch keeps the batch's attribution.
    """
    request_id = current_context()
    if request_id is not None:
        yield request_id
        return
    with use_context(new_request_id(prefix)) as request_id:
        yield request_id

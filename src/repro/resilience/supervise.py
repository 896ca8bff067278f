"""In-place supervision: a crashed thread body recovers in its own thread.

A serving thread that crashes holds work (a batch, a frame) that must
not be lost.  :func:`run_supervised` recovers where the failure
happens: the thread catches its own crash, hands the work back through
``on_crash`` and runs its body again.  No thread polls for dead ones,
and liveness checks never see the crashed thread dead.
"""

from __future__ import annotations

import threading
import traceback
from collections.abc import Callable

from .faults import InjectedFault

__all__ = ["CRASH_PAUSE_S", "run_supervised"]

#: Pause between a crash and the next run of the body, so a body that
#: crashes on every pass cannot spin a core.
CRASH_PAUSE_S = 0.01


def run_supervised(
    body: Callable[[], None],
    on_crash: Callable[[Exception], None],
    stopping: threading.Event,
) -> None:
    """Run ``body()`` until it returns or ``stopping`` is set.

    Meant as a thread target.  When ``body()`` raises an
    :class:`Exception`, ``on_crash(exc)`` runs (requeue what the body
    held, count the restart), then, after :data:`CRASH_PAUSE_S` or as
    soon as ``stopping`` is set, ``body()`` runs again in this thread.
    The traceback of a crash that was not injected goes to stderr, as
    it would from a thread that died of it.
    """
    while not stopping.is_set():
        try:
            body()
            return
        except Exception as exc:
            if not isinstance(exc, InjectedFault):
                traceback.print_exception(exc)
            on_crash(exc)
            stopping.wait(CRASH_PAUSE_S)

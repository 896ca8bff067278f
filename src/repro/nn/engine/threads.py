"""OpenBLAS's thread count, owned by the engine.

Each :class:`~repro.nn.engine.CompiledNet` forward sets the
process-wide count (:func:`forward_threads`): one thread at batch 1,
OpenBLAS's default at batch > 1, and one thread while forwards overlap
in this process, where the other workers supply the parallelism.  A
server worker thread or process-pool child, serving mixed batch sizes,
keeps the default at every batch (:func:`keep_default_threads`):
switching there sometimes stalled a forward ~0.5 s (EXPERIMENTS.md,
"BLAS threads per batch").  Without NumPy's ``scipy_openblas_*64_``
symbols every function here is a no-op.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager

__all__ = ["blas_info", "forward_threads", "get_threads",
           "keep_default_threads", "set_threads"]


def _lookup():
    """NumPy's OpenBLAS, when it exports the thread-count symbols."""
    try:
        from numpy._core import _multiarray_umath as umath

        lib = ctypes.CDLL(umath.__file__)
        setter = lib.scipy_openblas_set_num_threads64_
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter = lib.scipy_openblas_get_num_threads64_
        getter.argtypes, getter.restype = [], ctypes.c_int
        config = lib.scipy_openblas_get_config64_
        config.argtypes, config.restype = [], ctypes.c_char_p
    except (ImportError, OSError, AttributeError):
        return None
    return lib


_lib = _lookup()
#: OpenBLAS's own count at import, before the engine set anything.
DEFAULT = None if _lib is None else _lib.scipy_openblas_get_num_threads64_()
_current = DEFAULT
_thread = threading.local()  # .single: a lone batch-1 forward's count
_lock = threading.RLock()  # forward_threads calls set_threads under it
_in_flight: list[int | None] = []  # the count each running forward wants


def set_threads(n: int | None) -> int | None:
    """Set the count, calling the library only on a change; returns the
    count in force."""
    global _current
    if _lib is None:
        return None
    with _lock:
        if n != _current:
            _lib.scipy_openblas_set_num_threads64_(n)
            _current = n
    return n


def get_threads() -> int | None:
    """The count OpenBLAS reports."""
    return None if _lib is None else _lib.scipy_openblas_get_num_threads64_()


def blas_info() -> dict:
    """The BLAS library and its current thread count, for health dumps."""
    library = None if _lib is None else _lib.scipy_openblas_get_config64_()
    return {"library": library and library.decode(), "threads": get_threads()}


def keep_default_threads() -> None:
    """Run the calling thread's later lone forwards on the default."""
    _thread.single = DEFAULT


def _apply() -> int | None:
    return set_threads(_in_flight[0] if len(_in_flight) == 1 else 1)


@contextmanager
def forward_threads(batch: int):
    """Run one forward of ``batch`` samples under the rule; yields the
    count set as it enters.  A forward that another one overlaps later
    runs on at one thread from then on."""
    want = DEFAULT if batch > 1 else getattr(_thread, "single", 1)
    with _lock:
        _in_flight.append(want)
        n = _apply()
    try:
        yield n
    finally:
        with _lock:
            _in_flight.remove(want)
            if _in_flight:
                _apply()

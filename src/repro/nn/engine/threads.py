"""One OpenBLAS thread per forward; batches split across the cores.

OpenBLAS's second thread spins through every non-GEMM pass of a
forward (depthwise taps, im2col, epilogues), doubling CPU for a
7-13 % wall gain, and switching its count per batch stalled forwards
for ~0.5 s (EXPERIMENTS.md, "BLAS threads per batch").  So the count
is pinned to one thread when this module is imported and never
changes.  Parallelism comes from the samples instead:
:class:`~repro.nn.engine.CompiledNet` runs a batch > 1 as
``min(batch, cores())`` sample slices, the caller running the first
and :data:`slice_pool` the rest.  Without NumPy's
``scipy_openblas_*64_`` symbols the pin is a no-op.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["blas_info", "cores", "get_threads", "slice_pool"]


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
if _lib is not None:
    _lib.scipy_openblas_set_num_threads64_(1)


def get_threads() -> int | None:
    """The count OpenBLAS reports."""
    return None if _lib is None else _lib.scipy_openblas_get_num_threads64_()


def blas_info() -> dict:
    """The BLAS library and its thread count, for health dumps."""
    library = None if _lib is None else _lib.scipy_openblas_get_config64_()
    return {"library": library and library.decode(), "threads": get_threads()}


def cores() -> int:
    """The cores this process may run on: the most slices a batch
    splits into."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _new_pool() -> None:
    global slice_pool
    slice_pool = ThreadPoolExecutor(max(1, cores() - 1),
                                    thread_name_prefix="repro-slice")


#: Runs every slice of a forward but the first.  Its threads start on
#: first use, at most ``cores() - 1``; overlapping forwards share them.
slice_pool: ThreadPoolExecutor
_new_pool()
# A forked child inherits the pool but none of its threads.
os.register_at_fork(after_in_child=_new_pool)

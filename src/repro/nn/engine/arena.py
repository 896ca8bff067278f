"""Shape-keyed buffer arena for the compiled inference engine.

On the embedded deployments the input resolution is fixed (160x320 on
both TX2 and Ultra96), so every intermediate array of the forward path —
im2col column matrices, activation maps, padded inputs — has a static
shape from frame to frame.  The arena exploits that: each kernel asks
for its scratch/output buffers by a stable key and gets the *same*
ndarray back on every call, so steady-state inference allocates nothing.

Keys include the requested shape *and dtype*, so an engine serving two
input geometries (e.g. a Siamese tracker's exemplar and search crops)
keeps one buffer per geometry instead of thrashing a single slot, and
the quantized backend's int8/int16/float buffers never alias the fp32
ones.
"""

from __future__ import annotations

import numpy as np

from ... import obs
from ...resilience import faults

__all__ = ["BufferArena"]


class BufferArena:
    """Pool of reusable ndarrays keyed by ``(owner, tag, shape, dtype)``.

    Buffers are created on first request (a *miss*) and returned
    unchanged afterwards (a *hit*).  Contents are undefined on hits —
    callers must fully overwrite what they read — except for buffers
    requested with ``zero=True``, which are zero-filled once at
    allocation (used for padded inputs whose border must stay zero).
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def get(
        self,
        owner: object,
        tag: str,
        shape: tuple[int, ...],
        dtype=np.float32,
        zero: bool = False,
    ) -> np.ndarray:
        """Return the pooled buffer for ``(owner, tag)`` at this shape."""
        key = (owner, tag, shape, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None:
            spec = faults.trigger("arena.alloc")
            if spec is not None and spec.kind == "alloc":
                raise MemoryError(
                    f"injected allocation failure: {tag} {shape} "
                    f"({int(np.prod(shape)) * np.dtype(dtype).itemsize} "
                    f"bytes)"
                )
            buf = (np.zeros(shape, dtype) if zero
                   else np.empty(shape, dtype))
            self._buffers[key] = buf
            self.misses += 1
            if obs.enabled():
                obs.set_gauge("engine/arena/pooled_bytes", self.nbytes())
        else:
            self.hits += 1
        return buf

    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(b.nbytes for b in self._buffers.values())

    def __len__(self) -> int:
        return len(self._buffers)

    def clear(self) -> None:
        """Drop every pooled buffer (and reset the hit/miss counters)."""
        self._buffers.clear()
        self.hits = 0
        self.misses = 0
        if obs.enabled():
            obs.set_gauge("engine/arena/pooled_bytes", 0)

"""Liveness-planned buffer arena for the compiled inference engine.

On the embedded deployments the input resolution is fixed (160x320 on
both TX2 and Ultra96), so every intermediate array of the forward path —
im2col column matrices, activation maps, accumulators — has a static
shape and a static lifetime from frame to frame.  SkyNet's Ultra96
design runs the whole network through a small, fixed set of on-chip
feature buffers and reuses each one as soon as its value is dead
(paper §6.4); the arena does the same with host memory.

The first forward at an input shape *plans* it: every buffer a kernel
asks for is bound to a shared slab that no live value occupies.  A
step's output stays live until its last reader (the final output until
the forward returns), a register that is a view of another keeps that
register's slab live, and a step's scratch dies when the step ends.
Buffers whose lifetimes do not overlap share a slab, which grows to the
largest of them.  The binding is then frozen, together with the
forward's *program*: the NumPy calls each step makes, recorded with
their argument views already bound to the slabs.  Later forwards at
that shape replay the program and ask the arena for nothing.  Every
input shape has its own plan over the one set of slabs: an engine
serving two geometries (a Siamese tracker's exemplar and search crops,
or server batches of several sizes) holds the largest plan, not their
sum.  Planning a new shape can grow a slab that an older plan binds;
that plan's program then holds views of the old slab, so it is dropped
and recorded again, against the same bindings, on its next forward.

Buffers requested with ``zero=True`` (padded inputs whose border must
stay zero) are private, so their border is zeroed once at allocation.
"""

from __future__ import annotations

import numpy as np

from ...resilience import faults

__all__ = ["BufferArena"]


class _Liveness:
    """The planning pass of one input shape: which slabs hold a live
    value, so a new request can take one that does not."""

    def __init__(self, arena: "BufferArena", shape: tuple) -> None:
        self.arena = arena
        self.shape = shape
        self.refs: dict[int, int] = {}  # slab -> live registers in it
        self.scratch: set[int] = set()  # slabs bound during this step

    def free(self) -> list[int]:
        return [j for j in range(len(self.arena._slabs))
                if j not in self.scratch and not self.refs.get(j)]

    def _slab_of(self, a: np.ndarray) -> int | None:
        base = a if a.base is None else a.base
        for j, slab in enumerate(self.arena._slabs):
            if slab is base:
                return j
        return None

    def step_done(self, out: np.ndarray, dead: list[np.ndarray]) -> None:
        """A step wrote ``out``; ``dead`` are the registers it read for
        the last time.  Its scratch and the dead values' slabs free up."""
        j = self._slab_of(out)
        if j is not None:
            self.refs[j] = self.refs.get(j, 0) + 1
        for a in dead:
            j = self._slab_of(a)
            if j is not None:
                self.refs[j] -= 1
        self.scratch.clear()


class _Plan:
    """One input shape's frozen plan: the slab each buffer is bound to,
    and the program recorded against those buffers (``None`` until
    recorded, or once a slab it binds has grown)."""

    def __init__(self) -> None:
        self.bind: dict[tuple, int] = {}
        self.program = None


class BufferArena:
    """Reusable ndarrays carved from shared slabs, planned by liveness.

    Kernels ask for a buffer by ``(owner, tag, shape, dtype)``.  The
    first request at an input shape (a *miss*) binds it to a slab; later
    requests (*hits*) get a view of the same memory.  Contents are
    undefined on hits — callers must fully overwrite what they read —
    except for ``zero=True`` buffers, which are zero-filled once at
    allocation.

    A forward records its steps between :meth:`begin` and :meth:`freeze`
    and, on a planning pass, reports each step to the recorder
    :meth:`begin` returns; later forwards at that shape replay the
    frozen :meth:`program` and request nothing.  Requests outside a
    forward never share a slab with each other; they stay valid until
    the next forward on this arena.
    """

    def __init__(self) -> None:
        self._slabs: list[np.ndarray] = []  # raw bytes, shared by plans
        self._plans: dict[tuple, _Plan] = {}  # input shape -> plan
        self._pass: tuple[tuple, _Plan] = ((), _Plan())  # shape, plan
        self._bind = self._pass[1].bind  # key -> slab, of this pass
        self._zeroed: dict[tuple, np.ndarray] = {}
        self._live: _Liveness | None = None
        #: A slab this pass bound grew under it, so the calls it recorded
        #: hold views of the old memory.
        self.stale = False
        self.hits = 0
        self.misses = 0

    def program(self, shape: tuple):
        """The program recorded at input ``shape``, or ``None`` when the
        next forward at that shape has to record it."""
        plan = self._plans.get(shape)
        return None if plan is None else plan.program

    def begin(self, shape: tuple) -> _Liveness | None:
        """Start recording a forward at input ``shape``.  Returns the
        recorder to report steps to when this pass plans the shape, else
        ``None`` (the shape is planned; the pass re-binds its views)."""
        plan = self._plans.get(shape)
        self._live = _Liveness(self, shape) if plan is None else None
        self._pass = (shape, plan or _Plan())
        self._bind = self._pass[1].bind
        self.stale = False
        return self._live

    def freeze(self, program) -> None:
        """End the pass :meth:`begin` started: freeze the shape's
        bindings and keep ``program`` as its replay, unless a slab the
        pass bound grew during it (:attr:`stale`)."""
        shape, plan = self._pass
        self._plans[shape] = plan
        self._live = None
        if not self.stale:
            plan.program = program

    def get(
        self,
        owner: object,
        tag: str,
        shape: tuple[int, ...],
        dtype=np.float32,
        zero: bool = False,
    ) -> np.ndarray:
        """Return a view of the buffer bound to ``(owner, tag)`` at this
        shape."""
        dtype = np.dtype(dtype)
        key = (owner, tag, shape, dtype)
        if zero:
            buf = self._zeroed.get(key)
            if buf is None:
                self._fault(tag, shape, dtype)
                buf = self._zeroed[key] = np.zeros(shape, dtype)
                self.misses += 1
            else:
                self.hits += 1
            return buf
        nbytes = int(np.prod(shape)) * dtype.itemsize
        j = self._bind.get(key)
        if j is None:
            j = self._bind[key] = self._assign(tag, shape, dtype, nbytes)
            self.misses += 1
        else:
            self.hits += 1
        if self._live is not None:
            self._live.scratch.add(j)
        return self._slabs[j][:nbytes].view(dtype).reshape(shape)

    def _fault(self, tag: str, shape: tuple, dtype: np.dtype) -> None:
        spec = faults.trigger("arena.alloc")
        if spec is not None and spec.kind == "alloc":
            raise MemoryError(
                f"injected allocation failure: {tag} {shape} "
                f"({int(np.prod(shape)) * dtype.itemsize} bytes)")

    def _assign(self, tag: str, shape: tuple, dtype: np.dtype,
                nbytes: int) -> int:
        """A slab no live value holds: the smallest that fits, else the
        largest grown to fit, else a new one.  Outside a planning pass
        every slab counts as live."""
        free = [] if self._live is None else self._live.free()
        sizes = [self._slabs[j].nbytes for j in free]
        fits = [(size, j) for size, j in zip(sizes, free) if size >= nbytes]
        if fits:
            return min(fits)[1]
        self._fault(tag, shape, dtype)
        slab = np.empty(nbytes, np.uint8)
        if not free:
            self._slabs.append(slab)
            return len(self._slabs) - 1
        j = max(zip(sizes, free))[1]
        self._slabs[j] = slab
        # Programs recorded against the old slab are stale: each plan
        # that binds it records again on its next forward.
        for plan in self._plans.values():
            if j in plan.bind.values():
                plan.program = None
        self.stale = self.stale or j in self._bind.values()
        return j

    def nbytes(self) -> int:
        """Total bytes held: the slabs plus the zeroed buffers."""
        return (sum(s.nbytes for s in self._slabs)
                + sum(b.nbytes for b in self._zeroed.values()))

    def __len__(self) -> int:
        return len(self._slabs) + len(self._zeroed)

    def clear(self) -> None:
        """Drop every slab and plan (and reset the hit/miss counters)."""
        self.__init__()

"""Reverse-mode automatic differentiation over NumPy arrays.

This module provides the :class:`Tensor` class, the foundation of the
``repro.nn`` deep-learning substrate.  A ``Tensor`` wraps a ``numpy.ndarray``
and records the operations applied to it so that gradients can later be
propagated with :meth:`Tensor.backward`.

Design notes
------------
* Data layout for images is NCHW throughout the library.
* The graph is built eagerly: each op returns a new ``Tensor`` holding a
  closure that knows how to push gradients to its parents.
* Broadcasting is supported for elementwise ops; gradients are summed back
  to the parent shape by :func:`unbroadcast`.
* Heavy ops (convolution, pooling) live in :mod:`repro.nn.functional` as
  primitives with hand-written backward passes built on im2col.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "Traced", "no_grad", "unbroadcast", "as_tensor"]


_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction.

    Used during evaluation and inference so that forward passes do not
    accumulate autograd metadata.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc: object) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    Parameters
    ----------
    grad:
        Gradient of the broadcasted result.
    shape:
        Shape of the original (pre-broadcast) operand.
    """
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64``/``float32`` ndarray
        (dtype is preserved if already floating).
    requires_grad:
        If ``True``, gradients w.r.t. this tensor are accumulated into
        :attr:`grad` during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = "") -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but severed from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helper
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a graph node if any parent requires grad."""
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` (allocating on first use)."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    # ------------------------------------------------------------------ #
    # backward
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient; defaults to ones (only valid for scalars when
            omitted on a multi-element tensor it still uses ones, matching
            the common "sum of outputs" convention used in tests).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order via iterative DFS (graphs can be deep).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            node._accumulate(g)
            if node._backward is None:
                continue
            parent_grads = node._backward(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg

    # ------------------------------------------------------------------ #
    # elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data + other.data

        def backward(g: np.ndarray):
            return (unbroadcast(g, self.shape), unbroadcast(g, other.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray):
            return (-g,)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data - other.data

        def backward(g: np.ndarray):
            return (unbroadcast(g, self.shape), unbroadcast(-g, other.shape))

        return Tensor._make(data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data * other.data
        a, b = self, other

        def backward(g: np.ndarray):
            return (
                unbroadcast(g * b.data, a.shape),
                unbroadcast(g * a.data, b.shape),
            )

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data / other.data
        a, b = self, other

        def backward(g: np.ndarray):
            return (
                unbroadcast(g / b.data, a.shape),
                unbroadcast(-g * a.data / (b.data**2), b.shape),
            )

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        data = self.data**exponent

        def backward(g: np.ndarray):
            return (g * exponent * self.data ** (exponent - 1),)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # unary math
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(g: np.ndarray):
            return (g * data,)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(g: np.ndarray):
            return (g / self.data,)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(g: np.ndarray):
            return (g / (2.0 * data),)

        return Tensor._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        def backward(g: np.ndarray):
            return (g * np.sign(self.data),)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g: np.ndarray):
            return (g * data * (1.0 - data),)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(g: np.ndarray):
            return (g * (1.0 - data**2),)

        return Tensor._make(data, (self,), backward)

    def clip(self, lo: float, hi: float) -> "Tensor":
        """Clamp values to ``[lo, hi]``; gradient is passed inside the range."""
        data = np.clip(self.data, lo, hi)
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(g: np.ndarray):
            return (g * mask,)

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(g: np.ndarray):
            return (g * mask,)

        return Tensor._make(self.data * mask, (self,), backward)

    def relu6(self) -> "Tensor":
        """ReLU clipped to [0, 6] (Sandler et al. 2018), used by SkyNet."""
        return self.clip(0.0, 6.0)

    def leaky_relu(self, slope: float = 0.1) -> "Tensor":
        mask = self.data > 0
        coef = np.where(mask, 1.0, slope)

        def backward(g: np.ndarray):
            return (g * coef,)

        return Tensor._make(self.data * coef, (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        in_shape = self.shape

        def backward(g: np.ndarray):
            if axis is None:
                return (np.broadcast_to(g, in_shape).copy(),)
            axes = axis if isinstance(axis, tuple) else (axis,)
            if not keepdims:
                g = np.expand_dims(g, axes)
            return (np.broadcast_to(g, in_shape).copy(),)

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        n = self.size if axis is None else np.prod(
            [self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray):
            if axis is None:
                full = data
                gg = g
            else:
                axes = axis if isinstance(axis, tuple) else (axis,)
                full = data if keepdims else np.expand_dims(data, axes)
                gg = g if keepdims else np.expand_dims(g, axes)
            mask = self.data == full
            # distribute evenly across ties
            counts = mask.sum(
                axis=axis if axis is not None else None, keepdims=True
            )
            return (mask * gg / counts,)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # shape ops
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        in_shape = self.shape
        data = self.data.reshape(shape)

        def backward(g: np.ndarray):
            return (g.reshape(in_shape),)

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inv = np.argsort(axes)

        def backward(g: np.ndarray):
            return (g.transpose(inv),)

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, idx) -> "Tensor":
        data = self.data[idx]
        in_shape = self.shape
        dtype = self.data.dtype

        def backward(g: np.ndarray):
            full = np.zeros(in_shape, dtype=dtype)
            np.add.at(full, idx, g)
            return (full,)

        return Tensor._make(data, (self,), backward)

    def pad2d(self, pad: int) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions by ``pad`` on each side."""
        if pad == 0:
            return self
        width = [(0, 0)] * (self.ndim - 2) + [(pad, pad), (pad, pad)]
        data = np.pad(self.data, width)

        def backward(g: np.ndarray):
            sl = tuple(
                [slice(None)] * (self.ndim - 2)
                + [slice(pad, -pad), slice(pad, -pad)]
            )
            return (g[sl],)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # linear algebra
    # ------------------------------------------------------------------ #
    def matmul(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data @ other.data
        a, b = self, other

        def backward(g: np.ndarray):
            ga = g @ np.swapaxes(b.data, -1, -2)
            gb = np.swapaxes(a.data, -1, -2) @ g
            return (unbroadcast(ga, a.shape), unbroadcast(gb, b.shape))

        return Tensor._make(data, (self, other), backward)

    __matmul__ = matmul

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape, requires_grad: bool = False, dtype=np.float32) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False, dtype=np.float32) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def concat(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = list(tensors)
        if tensors and isinstance(tensors[0], Traced):
            return tensors[0].planner.concat(tensors, axis)
        tensors = [as_tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def backward(g: np.ndarray):
            return tuple(np.split(g, splits, axis=axis))

        return Tensor._make(data, tensors, backward)


class Traced:
    """A register of a plan being traced: what a module's ``forward``
    sees while :func:`repro.nn.engine.compiler.trace` plans it.

    ``Module.__call__`` and :meth:`Tensor.concat` hand a ``Traced``
    argument to its planner, ``+`` records an ``add`` and ``x[:, a:b]``
    a channel ``slice``; any other operation on it fails, which the
    planner reports as a ``CompileError``.
    """

    __slots__ = ("planner", "reg")

    def __init__(self, planner, reg: int) -> None:
        self.planner = planner
        self.reg = reg

    def __add__(self, other) -> "Traced":
        return self.planner.add(self, other)

    def __getitem__(self, idx) -> "Traced":
        return self.planner.slice(self, idx)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)

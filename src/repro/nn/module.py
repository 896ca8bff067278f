"""Module base class: parameter management, train/eval mode, state dicts."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from .tensor import Tensor, Traced

__all__ = ["Parameter", "Module", "Sequential", "ModuleList"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a learnable parameter."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and ``Module`` instances as
    attributes; they are discovered automatically for ``parameters()``,
    ``state_dict()`` and mode switching.  Buffers (non-learnable state such
    as batch-norm running statistics) are registered via
    :meth:`register_buffer`.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mname, m in self._modules.items():
            yield from m.named_parameters(prefix=f"{prefix}{mname}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield (f"{prefix}{name}", getattr(self, name))
        for mname, m in self._modules.items():
            yield from m.named_buffers(prefix=f"{prefix}{mname}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for m in self._modules.values():
            yield from m.modules()

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(dotted_name, module)`` pairs, the root first as ``''``."""
        yield prefix, self
        for name, m in self._modules.items():
            child = f"{prefix}.{name}" if prefix else name
            yield from m.named_modules(prefix=child)

    def num_parameters(self) -> int:
        """Total learnable parameter count."""
        return sum(p.size for p in self.parameters())

    def parameter_bytes(self, bytes_per_element: int = 4) -> int:
        """Model size in bytes at the given precision (default fp32)."""
        return self.num_parameters() * bytes_per_element

    # ------------------------------------------------------------------ #
    # mode
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            object.__setattr__(m, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # ------------------------------------------------------------------ #
    # state dict
    # ------------------------------------------------------------------ #
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        state: OrderedDict[str, np.ndarray] = OrderedDict()
        for name, p in self.named_parameters():
            state[name] = p.data
        for name, b in self.named_buffers():
            state[name] = b
        return state

    def load_state_dict(self, state: dict) -> None:
        own = dict(self.named_parameters())
        missing = []
        for name, p in own.items():
            if name not in state:
                missing.append(name)
                continue
            arr = np.asarray(state[name])
            if arr.shape != p.shape:
                raise ValueError(
                    f"shape mismatch for {name}: saved {arr.shape}, "
                    f"model {p.shape}"
                )
            p.data = arr.astype(p.data.dtype, copy=True)
        for name, buf in self.named_buffers():
            if name in state:
                np.copyto(buf, np.asarray(state[name]))
        if missing:
            raise KeyError(f"missing parameters in state dict: {missing}")

    # ------------------------------------------------------------------ #
    # call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        if args and isinstance(args[0], Traced):  # being compiled
            return args[0].planner.call(self, *args, **kwargs)
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Chain modules, feeding each output to the next module's input."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._seq: list[Module] = []
        for i, m in enumerate(modules):
            self.add_module(str(i), m)
            self._seq.append(m)

    def append(self, module: Module) -> "Sequential":
        self.add_module(str(len(self._seq)), module)
        self._seq.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._seq)

    def __len__(self) -> int:
        return len(self._seq)

    def __getitem__(self, idx: int) -> Module:
        return self._seq[idx]

    def forward(self, x):
        for m in self._seq:
            x = m(x)
        return x


class ModuleList(Module):
    """A list of modules whose parameters are registered."""

    def __init__(self, modules=()) -> None:
        super().__init__()
        self._items: list[Module] = []
        for m in modules:
            self.append(m)

    def append(self, module: Module) -> "ModuleList":
        self.add_module(str(len(self._items)), module)
        self._items.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, idx: int) -> Module:
        return self._items[idx]

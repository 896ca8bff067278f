"""Ahead-of-time compiler: Module tree -> flat plan of inference kernels.

``compile_net`` traces a trained :class:`~repro.nn.module.Module`'s own
``forward`` (:func:`trace`: each layer with a rule becomes one node,
each composite runs its forward on a register placeholder) and emits a
:class:`CompiledNet` — a register machine whose steps are the
raw-ndarray kernels of :mod:`repro.nn.engine.kernels`.  Every plan, fp32
or integer, comes from the same trace and the same four passes
(:data:`PASSES`):

1. **fold** — eval-mode BatchNorm becomes a per-channel affine and is
   folded into the preceding conv/depthwise weights (weights are copied;
   the source module is never mutated).
2. **fuse-act** — element-wise activations are absorbed into the
   producing conv/affine step and applied by its epilogue.
3. **fuse-bundle** — every depthwise -> PWConv1x1 pair (the SkyNet
   Bundle after folding) collapses into one :class:`FusedBundleKernel`.
4. **fold-pool** — a max-pool whose only input is a conv or bundle
   output runs inside that kernel, before its epilogue.

Precision enters after the passes: an integer plan (``quant=``) goes
through :func:`repro.nn.engine.quant.calibrate`, which gives the conv,
depthwise and bundle nodes integer weights and an integer epilogue and
inserts quantize / requant / dequantize steps at domain boundaries.
Both plans then lower through the same kernel constructors.

The compiled plan always implements the *eval-mode* forward (BN running
statistics, dropout off) and snapshots the weights at compile time:
retrain the module, recompile the engine.
"""

from __future__ import annotations

import copy
import time
from concurrent.futures import wait
from dataclasses import dataclass, field

import numpy as np

from ... import obs
from ..layers.activation import LeakyReLU, ReLU, ReLU6, Sigmoid, Tanh
from ..layers.conv import Conv2d, DWConv3x3
from ..layers.dropout import Dropout
from ..layers.linear import Flatten, Linear
from ..layers.norm import BatchNorm2d
from ..layers.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from ..layers.reorg import Reorg, UpsampleNearest
from ..module import Module
from ..tensor import Traced
from .arena import BufferArena
from . import kernels as K
from . import threads

__all__ = ["CompileError", "CompiledNet", "compile_net", "trace"]


class CompileError(TypeError):
    """Raised when a module (sub)tree has no compilation rule."""


# --------------------------------------------------------------------- #
# intermediate representation
# --------------------------------------------------------------------- #
@dataclass(eq=False)
class _Node:
    """One planned op: ``kind`` + parameters, reading/writing registers.

    ``eq=False`` keeps identity comparison — attrs hold ndarrays, which
    do not support value equality, and the fusion passes only ever need
    to find *this* node again.
    """

    kind: str
    inputs: list[int]
    out: int
    attrs: dict = field(default_factory=dict)
    name: str = ""  # dotted path of the module that emitted it


_ACT_SPECS: dict[type, tuple] = {
    ReLU: ("relu",),
    ReLU6: ("relu6",),
    Sigmoid: ("sigmoid",),
    Tanh: ("tanh",),
}


class _Planner:
    """Emits the linear op plan of a module's forward."""

    def __init__(self, names: dict[int, str]) -> None:
        self.nodes: list[_Node] = []
        self.n_regs = 1  # register 0 is the network input
        self.names = names  # id(module) -> dotted path
        self.scope: list[str] = []  # paths of the modules being emitted

    def _new_reg(self) -> int:
        self.n_regs += 1
        return self.n_regs - 1

    def _push(self, kind: str, inputs: list[int], **attrs) -> int:
        out = self._new_reg()
        self.nodes.append(_Node(kind, inputs, out, attrs, self.scope[-1]))
        return out

    # ------------------------------------------------------------------ #
    def emit(self, m: Module, reg: int) -> int:
        """Plan ``m``'s eval-mode forward; returns the output register.

        A layer with a rule becomes one node; a composite (a module with
        children) is planned by running its own ``forward`` on a
        :class:`Traced` register.
        """
        self.scope.append(self.names.get(id(m), type(m).__name__))
        try:
            return self._emit(m, reg)
        finally:
            self.scope.pop()

    def _emit(self, m: Module, reg: int) -> int:
        if isinstance(m, DWConv3x3):
            return self._push(
                "dw", [reg],
                weight=m.weight.data,
                bias=None if m.bias is None else m.bias.data,
                stride=m.stride, pad=m.pad, act=None,
            )
        if isinstance(m, Conv2d):  # covers PWConv1x1
            return self._push(
                "conv", [reg],
                weight=m.weight.data,
                bias=None if m.bias is None else m.bias.data,
                stride=m.stride, pad=m.pad, act=None,
            )
        if isinstance(m, BatchNorm2d):
            scale, shift = m.fold_scale_shift()
            return self._push("affine", [reg], scale=scale, bias=shift,
                              act=None)
        if type(m) in _ACT_SPECS:
            return self._push("act", [reg], act=_ACT_SPECS[type(m)])
        if isinstance(m, LeakyReLU):
            return self._push("act", [reg], act=("leaky_relu", m.slope))
        if isinstance(m, MaxPool2d):
            return self._push("maxpool", [reg], kernel=m.kernel,
                              stride=m.stride)
        if isinstance(m, AvgPool2d):
            return self._push("avgpool", [reg], kernel=m.kernel,
                              stride=m.stride)
        if isinstance(m, GlobalAvgPool2d):
            return self._push("gap", [reg])
        if isinstance(m, Reorg):
            return self._push("reorg", [reg], stride=m.stride)
        if isinstance(m, UpsampleNearest):
            return self._push("upsample", [reg], scale=m.scale)
        if isinstance(m, Linear):
            return self._push(
                "linear", [reg],
                weight=m.weight.data,
                bias=None if m.bias is None else m.bias.data,
                act=None,
            )
        if isinstance(m, Flatten):
            return self._push("flatten", [reg])
        if isinstance(m, Dropout):
            return reg  # identity in eval mode
        name = f"{type(m).__module__}.{type(m).__qualname__}"
        if not m._modules:
            raise CompileError(
                f"no compilation rule for {name}; supported layers: "
                "conv/dw/grouped conv, batch norm, activations, pooling, "
                "reorg, upsample, linear/flatten/dropout, and any module "
                "whose forward composes these with Tensor.concat"
            )
        try:
            out = m.forward(Traced(self, reg))
        except CompileError:
            raise
        except (TypeError, AttributeError) as exc:
            raise CompileError(
                f"cannot trace {name}.forward: an op other than a "
                f"submodule call, Tensor.concat, + or a channel slice "
                f"({exc})"
            ) from exc
        if not isinstance(out, Traced):
            raise CompileError(f"{name}.forward must return one tensor")
        return out.reg

    # -- what a Traced register hands back ------------------------------ #
    def call(self, m: Module, *args, **kwargs) -> Traced:
        if len(args) != 1 or kwargs:
            raise CompileError(
                f"cannot trace a call of {type(m).__qualname__} with "
                f"{len(args)} positional and {len(kwargs)} keyword inputs")
        return Traced(self, self.emit(m, args[0].reg))

    def concat(self, items: list, axis: int) -> Traced:
        if axis != 1 or not all(isinstance(t, Traced) for t in items):
            raise CompileError("only a channel concat of traced tensors "
                               "compiles")
        return Traced(self, self._push("concat", [t.reg for t in items]))

    def add(self, a: Traced, b) -> Traced:
        if not isinstance(b, Traced):
            raise CompileError("only the sum of two traced tensors compiles")
        return Traced(self, self._push("add", [a.reg, b.reg]))

    def slice(self, x: Traced, idx) -> Traced:
        if not (isinstance(idx, tuple) and len(idx) == 2
                and idx[0] == slice(None) and isinstance(idx[1], slice)
                and idx[1].step is None):
            raise CompileError("only a channel slice x[:, a:b] of a traced "
                               "tensor compiles")
        return Traced(self, self._push("slice", [x.reg], start=idx[1].start,
                                       stop=idx[1].stop))

    def shuffle(self, x: Traced, groups: int) -> Traced:
        return Traced(self, self._push("shuffle", [x.reg], groups=groups))


def trace(module: Module) -> tuple[list[_Node], int, int]:
    """Plan ``module``'s eval-mode forward one node per op, before any
    pass: returns ``(nodes, n_regs, out_reg)``, register 0 being the
    input.  The compiler and :func:`repro.hardware.descriptor.describe`
    both start from this graph."""
    planner = _Planner({id(m): name for name, m in module.named_modules()})
    out_reg = planner.emit(module, 0)
    return planner.nodes, planner.n_regs, out_reg


# --------------------------------------------------------------------- #
# optimization passes
# --------------------------------------------------------------------- #
def _consumer_counts(nodes: list[_Node], out_reg: int) -> dict[int, int]:
    counts: dict[int, int] = {out_reg: 1}  # the final output is always live
    for node in nodes:
        for r in node.inputs:
            counts[r] = counts.get(r, 0) + 1
    return counts


def _remap(nodes: list[_Node], alias: dict[int, int], out_reg: int) -> int:
    """Rewrite register references through the alias map."""

    def resolve(r: int) -> int:
        while r in alias:
            r = alias[r]
        return r

    for node in nodes:
        node.inputs = [resolve(r) for r in node.inputs]
    return resolve(out_reg)


def _absorb(nodes: list[_Node], out_reg: int, kind: str, into: tuple,
            absorb) -> tuple[list[_Node], int]:
    """Fold each ``kind`` node into its producer when that is one of
    ``into`` with no activation and no other consumer;
    ``absorb(producer, node)`` moves the node's work into the producer."""
    producer = {n.out: n for n in nodes}
    counts = _consumer_counts(nodes, out_reg)
    alias: dict[int, int] = {}
    kept: list[_Node] = []
    for node in nodes:
        prev = producer.get(node.inputs[0]) if node.kind == kind else None
        if (prev is not None and prev.kind in into
                and prev.attrs["act"] is None and counts[prev.out] == 1):
            absorb(prev, node)
            alias[node.out] = prev.out
        else:
            kept.append(node)
    return kept, _remap(kept, alias, out_reg)


def _fold_batchnorm(nodes: list[_Node], out_reg: int) -> tuple[list[_Node], int]:
    """Fold ``conv/dw -> affine`` pairs into the conv weights."""

    def absorb(prev: _Node, node: _Node) -> None:
        scale = np.asarray(node.attrs["scale"], dtype=np.float32)
        shift = np.asarray(node.attrs["bias"], dtype=np.float32)
        w = np.asarray(prev.attrs["weight"], dtype=np.float32)
        prev.attrs["weight"] = w * scale[:, None, None, None]
        bias = prev.attrs["bias"]
        bias = 0.0 if bias is None else np.asarray(bias, np.float32)
        prev.attrs["bias"] = scale * bias + shift

    return _absorb(nodes, out_reg, "affine", ("conv", "dw"), absorb)


def _fuse_activations(nodes: list[_Node], out_reg: int) -> tuple[list[_Node], int]:
    """Absorb act steps into the producing conv/dw/affine/linear step."""
    return _absorb(nodes, out_reg, "act", ("conv", "dw", "affine", "linear"),
                   lambda prev, node: prev.attrs.update(act=node.attrs["act"]))


def _fuse_bundles(nodes: list[_Node], out_reg: int) -> tuple[list[_Node], int]:
    """Collapse ``dw -> pw(1x1)`` chains into single bundle nodes."""
    producer = {n.out: n for n in nodes}
    counts = _consumer_counts(nodes, out_reg)
    kept: list[_Node] = []
    for node in nodes:
        if node.kind == "conv":
            w = node.attrs["weight"]
            is_pw = (
                w.shape[2] == 1 and w.shape[3] == 1
                and node.attrs["stride"] == 1 and node.attrs["pad"] == 0
            )
            prev = producer.get(node.inputs[0])
            if (
                is_pw
                and prev is not None
                and prev.kind == "dw"
                and counts[prev.out] == 1
            ):
                kept.remove(prev)
                kept.append(
                    _Node("bundle", list(prev.inputs), node.out,
                          {"dw": prev.attrs, "pw": node.attrs})
                )
                continue
        kept.append(node)
    return kept, out_reg


def _monotone(act) -> bool:
    """Is the activation monotone non-decreasing (so an epilogue applying
    it commutes with a max-pool run before it)?"""
    return act is None or act[0] != "leaky_relu" or act[1] >= 0


def _fold_pools(nodes: list[_Node], out_reg: int) -> tuple[list[_Node], int]:
    """Fold ``conv/bundle -> maxpool`` into the producer.

    The kernel pools its raw accumulator and runs the epilogue on the
    pooled map; the epilogue is monotone, so the result is identical to
    the standalone pool step while the epilogue touches a fraction of
    the elements and each row block is pooled while it is still
    cache-resident.
    """
    producer = {n.out: n for n in nodes}
    counts = _consumer_counts(nodes, out_reg)
    kept: list[_Node] = []
    for node in nodes:
        if node.kind == "maxpool":
            prev = producer.get(node.inputs[0])
            tail = None if prev is None else (
                prev.attrs["pw"] if prev.kind == "bundle" else prev.attrs)
            if (
                prev is not None
                and prev.kind in ("conv", "bundle")
                and "pool" not in prev.attrs
                and _monotone(tail["act"])
                and counts[prev.out] == 1
            ):
                prev.attrs["pool"] = (node.attrs["kernel"],
                                      node.attrs["stride"])
                prev.out = node.out
                continue
        kept.append(node)
    return kept, out_reg


#: The pass list every plan runs, fp32 and integer alike.
PASSES = (_fold_batchnorm, _fuse_activations, _fuse_bundles, _fold_pools)


def _epilogue(a: dict) -> K.Epilogue:
    """The node's epilogue: set by calibration on integer nodes, else the
    float bias + activation."""
    return a.get("epilogue") or K.Epilogue(a.get("bias"), a["act"])


def _lower_node(node: _Node, key) -> K.Kernel:
    """Build the kernel for one optimized-plan node."""
    a = node.attrs
    kind = node.kind
    if kind == "conv":
        return K.ConvKernel(key, a["weight"], _epilogue(a), a["stride"],
                            a["pad"], a.get("pool"))
    if kind == "dw":
        return K.DWConvKernel(key, a["weight"], _epilogue(a), a["stride"],
                              a["pad"])
    if kind == "bundle":
        dw, pw = a["dw"], a["pw"]
        return K.FusedBundleKernel(
            key,
            K.DWConvKernel((key, "dw"), dw["weight"], _epilogue(dw),
                           dw["stride"], dw["pad"]),
            K.ConvKernel((key, "pw"), pw["weight"], _epilogue(pw),
                         pw["stride"], pw["pad"], a.get("pool")),
        )
    if kind in ("affine", "act"):
        return K.AffineKernel(key, a.get("scale"), _epilogue(a))
    if kind == "maxpool":
        return K.MaxPoolKernel(key, a["kernel"], a["stride"])
    if kind == "avgpool":
        return K.AvgPoolKernel(key, a["kernel"], a["stride"],
                               a.get("epilogue"))
    if kind == "gap":
        return K.GlobalAvgPoolKernel(key)
    if kind == "reorg":
        return K.ReorgKernel(key, a["stride"])
    if kind == "upsample":
        return K.UpsampleKernel(key, a["scale"])
    if kind == "concat":
        return K.ConcatKernel(key)
    if kind == "slice":
        return K.SliceChannelsKernel(key, a["start"], a["stop"])
    if kind == "linear":
        return K.LinearKernel(key, a["weight"], _epilogue(a))
    if kind == "flatten":
        return K.FlattenKernel(key)
    if kind in ("quantize", "dequantize"):
        from .quant import boundary_kernel

        return boundary_kernel(node, key)
    # ``add`` (a residual sum) and ``shuffle`` (a channel shuffle) have
    # no kernel: such nets run eagerly.
    raise CompileError(f"cannot lower op kind {kind!r}")


def _lower(nodes: list[_Node]) -> list[tuple[K.Kernel, tuple[int, ...], int]]:
    """Turn the optimized plan into executable kernel steps."""
    return [(_lower_node(node, i), tuple(node.inputs), node.out)
            for i, node in enumerate(nodes)]


# --------------------------------------------------------------------- #
# the compiled engine
# --------------------------------------------------------------------- #
class CompiledNet:
    """A flat, fused, allocation-free inference plan.

    Call it with an ``(N, C, H, W)`` ndarray to get the network output as
    an ndarray.  All intermediate buffers live in a liveness-planned
    :class:`BufferArena`, so after the first call at a given input shape
    the forward path performs no heap allocation beyond the output copy.
    """

    def __init__(
        self,
        steps: list[tuple[K.Kernel, tuple[int, ...], int]],
        n_regs: int,
        out_reg: int,
        name: str = "net",
        quant=None,
        quant_stats: dict | None = None,
    ) -> None:
        self.steps = steps
        self.n_regs = n_regs
        self.out_reg = out_reg
        self.name = name
        self.arena = BufferArena()
        self.quant = quant  # QuantConfig when integer-domain, else None
        self.quant_stats = quant_stats
        self._clones: list[CompiledNet] = []  # _split's, never self
        # The registers each step reads for the last time; the final
        # output is never released.
        last = {}
        for i, (_, ins, out) in enumerate(steps):
            last[out] = i
            last.update((r, i) for r in ins)
        last.pop(out_reg, None)
        self._dies: list[list[int]] = [[] for _ in steps]
        for r, i in last.items():
            self._dies[i].append(r)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        k = max(1, min(len(x), threads.cores()))
        with obs.span("engine/forward", engine=self.name, batch=len(x),
                      slices=k):
            if k > 1:
                return self._split(x, k)
            # Copy out of the arena so the caller can hold the result
            # across frames without the next call overwriting it.
            return np.array(self._forward(x), copy=True)

    def _forward(self, x: np.ndarray, observe=None) -> np.ndarray:
        """Run the plan on this net's arena; returns an arena view.

        ``x`` is first copied into the arena's input buffer, so no
        recorded call keeps a view of a caller's array.  Each step then
        replays the NumPy calls :meth:`_record` recorded at this input
        shape.  ``observe(step, out, seconds)``, when given, sees every
        step's output and kernel time (the profiler's hook).
        """
        program = self.arena.program(x.shape)
        if program is None:
            return self._record(x, observe)
        x_in, steps, out = program
        np.copyto(x_in, x)
        for i, ((kern, _, _), (calls, step_out)) in enumerate(
                zip(self.steps, steps)):
            with obs.span("engine/kernel", kernel=kern.label):
                t0 = time.perf_counter()
                calls.run()
                if observe is not None:
                    observe(i, step_out, time.perf_counter() - t0)
        return out

    def _record(self, x: np.ndarray, observe=None) -> np.ndarray:
        """:meth:`_forward` at an input shape that has no program yet:
        run each step as it records its calls, and freeze the program.

        The first forward at a shape also plans the arena: it reports
        each step's output and the registers that die with it.  A slab
        that grows during that pass leaves stale views in the calls
        recorded before it grew; the pass drops them at once, so the old
        memory goes, and the next forward records against the finished
        bindings, where nothing grows.
        """
        arena = self.arena
        live = arena.begin(x.shape)
        regs: list[np.ndarray | None] = [None] * self.n_regs
        regs[0] = arena.get("input", "x", x.shape, np.float32)
        np.copyto(regs[0], x)
        if live is not None:
            live.step_done(regs[0], [])
        steps = []
        for i, (kern, ins, out) in enumerate(self.steps):
            with obs.span("engine/kernel", kernel=kern.label):
                t0 = time.perf_counter()
                calls = K.Calls()
                regs[out] = kern.record([regs[r] for r in ins], arena, calls)
                calls.run()
                if observe is not None:
                    observe(i, regs[out], time.perf_counter() - t0)
            steps.append((calls, regs[out]))
            if live is not None:
                live.step_done(regs[out], [regs[r] for r in self._dies[i]])
            if arena.stale:
                steps.clear()
        arena.freeze((regs[0], steps, regs[self.out_reg]))
        return regs[self.out_reg]

    def _split(self, x: np.ndarray, k: int) -> np.ndarray:
        """Run ``k`` contiguous sample slices at once: the first here,
        the others on :data:`~repro.nn.engine.threads.slice_pool`, each
        on a cached clone with its own arena.  A sample's result does
        not depend on its batch, so this equals the unsplit forward bit
        for bit."""
        while len(self._clones) < k - 1:
            self._clones.append(copy.copy(self))
        bounds = [i * len(x) // k for i in range(k + 1)]
        request = obs.current_context()
        futures = [threads.slice_pool.submit(clone._slice, x[lo:hi], request)
                   for clone, lo, hi in zip(self._clones, bounds[1:-1],
                                            bounds[2:])]
        try:
            first = self._forward(x[:bounds[1]])
        finally:
            # No slice may still write into an arena once this returns.
            wait(futures)
        return np.concatenate([first, *(f.result() for f in futures)])

    def _slice(self, x: np.ndarray, request: str | None) -> np.ndarray:
        with obs.use_context(request):
            return self._forward(x)

    def warmup(self, shape: tuple[int, ...], dtype=np.float32) -> int:
        """Dry-run a zeros batch so the first real request allocates nothing.

        One pass at the steady-state ``(N, C, H, W)`` shape plans every
        arena the forward runs on — this net's and its slice clones' —
        and publishes ``engine/arena/pooled_bytes``.  Returns
        :meth:`nbytes`.
        """
        self(np.zeros(shape, dtype))
        nbytes = self.nbytes()
        if obs.enabled():
            obs.set_gauge("engine/arena/pooled_bytes", nbytes)
        return nbytes

    def nbytes(self) -> int:
        """Bytes the plan's buffers hold: this net's arena plus its
        slice clones' arenas."""
        return sum(net.arena.nbytes() for net in [self, *self._clones])

    def profile(self, x: np.ndarray, reps: int = 10, warmup: int = 2):
        """Per-step timing of this plan (see
        :func:`repro.obs.profile.profile_net`): wall time, dtype, FLOP
        estimate, and achieved GFLOP/s for every kernel — the
        decomposition behind ``repro profile --engine``."""
        from ...obs.profile import profile_net

        return profile_net(self, x, reps=reps, warmup=warmup)

    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        # Copies and pickles are fresh clones: the plan without the
        # arena's slabs (SkyNet-C at 160x320, batch 1: 15 MB of slabs
        # against 1.8 MB of weights) and without slice clones.  Kernels and weights are immutable
        # at run time and shared; an arena is per thread, so
        # ``copy.copy(net)`` is the clone each serving thread runs.
        return dict(self.__dict__, arena=None, _clones=None)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, arena=BufferArena(), _clones=[])

    def __len__(self) -> int:
        return len(self.steps)

    def summary(self) -> str:
        """Human-readable plan: one row per kernel."""
        from ...utils.tables import format_table

        rows = [[i, kern.label, str(ins), out]
                for i, (kern, ins, out) in enumerate(self.steps)]
        quant = "" if self.quant is None else f" [quant {self.quant.label}]"
        return format_table(
            ["step", "kernel", "reads", "writes"], rows,
            title=f"CompiledNet({self.name}){quant}: {len(self.steps)} "
                  f"kernels, arena {self.nbytes() / 1e6:.2f} MB",
        )


def compile_net(
    module: Module,
    name: str | None = None,
    quant=None,
    calibration: np.ndarray | None = None,
) -> CompiledNet:
    """Compile a trained module's eval-mode forward into a
    :class:`CompiledNet`.

    Pass ``quant`` (a :class:`~repro.nn.engine.quant.QuantConfig`) plus
    ``calibration`` samples (an ``(N, C, H, W)`` batch representative of
    inference inputs) to run the plan in the integer domain: weights are
    quantized onto ``w_bits`` grids, feature maps flow between kernels
    as int8/int16, and per-tensor power-of-two scales are frozen from
    the calibration batch.

    Raises :class:`CompileError` for module types without a rule, and
    when ``quant`` is given without ``calibration``.
    """
    if name is None:
        name = type(module).__name__
    if quant is not None and calibration is None:
        raise CompileError(
            "quantized compilation needs calibration samples: "
            "compile_net(net, quant=..., calibration=batch)"
        )
    with obs.span("engine/compile", model=name,
                  quant=None if quant is None else quant.label):
        nodes, n_regs, out_reg = trace(module)
        for fuse in PASSES:
            nodes, out_reg = fuse(nodes, out_reg)
        stats = None
        if quant is not None:
            from .quant import calibrate, kernel_dtypes

            t0 = time.perf_counter()
            nodes, n_regs, out_reg, stats = calibrate(
                nodes, n_regs, out_reg, quant, calibration, name)
        steps = _lower(nodes)
        if quant is not None:
            stats["kernels"] = [kernel_dtypes(k) for k, _, _ in steps]
            obs.set_gauge(f"engine/{name}/quant/compile_ms",
                          (time.perf_counter() - t0) * 1e3)
            for dtype in ("int8", "int16", "float32", "float64"):
                count = sum(1 for k in stats["kernels"]
                            if k["storage"] == dtype or k["carrier"] == dtype)
                if count:
                    obs.set_gauge(f"engine/{name}/quant/kernels_{dtype}",
                                  count)
        obs.set_gauge(f"engine/{name}/kernels", len(steps))
    return CompiledNet(steps, n_regs, out_reg, name, quant=quant,
                       quant_stats=stats)

"""Layer-level network descriptors consumed by the hardware models.

The FPGA and GPU performance models do not execute NumPy code — they
reason about a network's *structure*: per-layer MACs, parameter counts,
and feature-map sizes.  :func:`describe` reads a :class:`NetDescriptor`,
a flat list of :class:`LayerDesc` records, off the same trace of the
module's forward that the inference compiler plans
(:func:`repro.nn.engine.compiler.trace`), so the graph the models cost
is the graph that runs.  It is the only writer of a network's layer
geometry, MACs and parameter counts: backbones, detectors, Bundles and
NAS candidates are all described by tracing the module that runs.

This mirrors how the paper's own flow works: FPGA latency during the
bottom-up search is estimated from per-IP models over the layer graph
(Section 4.2, "Latency estimation"), not from running the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..nn.engine.compiler import trace
from ..nn.im2col import conv_out_size

__all__ = ["LayerDesc", "NetDescriptor", "compare_networks", "describe"]

_COMPUTE_KINDS = {"conv", "dwconv", "pwconv", "linear"}
_WINDOW_KINDS = {"conv", "dwconv", "pwconv", "pool"}
_KNOWN_KINDS = _COMPUTE_KINDS | {"pool", "bn", "act", "reorg", "concat", "add", "gap"}


@dataclass(frozen=True)
class LayerDesc:
    """Structural description of one layer.

    Spatial sizes refer to the layer *input*; ``out_h``/``out_w`` are
    derived.  ``kernel``, ``stride`` and ``pad`` follow conv semantics
    (pooling uses ``kernel`` as window), and convs and pools size their
    output with :func:`~repro.nn.im2col.conv_out_size`, the arithmetic
    the kernels run (0 when a window does not fit).  :func:`describe`
    copies each conv's and pool's padding from the trace; a hand-built
    row left at ``pad=None`` pads a conv by ``kernel // 2`` ('same' for
    an odd kernel) and a pool by 0.
    """

    kind: str
    in_ch: int
    out_ch: int
    in_h: int
    in_w: int
    kernel: int = 1
    stride: int = 1
    pad: int | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KNOWN_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if min(self.in_ch, self.out_ch, self.in_h, self.in_w) <= 0:
            raise ValueError(f"non-positive dimension in {self!r}")

    # ------------------------------------------------------------------ #
    # derived geometry
    # ------------------------------------------------------------------ #
    def _out_size(self, size: int) -> int:
        if self.kind in _WINDOW_KINDS:
            pad = self.pad
            if pad is None:
                pad = 0 if self.kind == "pool" else self.kernel // 2
            return max(0, conv_out_size(size, self.kernel, self.stride, pad))
        if self.kind == "reorg":
            return size // self.stride
        if self.kind in ("linear", "gap"):
            return 1
        return size

    @property
    def out_h(self) -> int:
        return self._out_size(self.in_h)

    @property
    def out_w(self) -> int:
        return self._out_size(self.in_w)

    # ------------------------------------------------------------------ #
    # cost model
    # ------------------------------------------------------------------ #
    @property
    def macs(self) -> int:
        """Multiply-accumulate operations for one inference."""
        pix = self.out_h * self.out_w
        if self.kind == "conv":
            return pix * self.out_ch * self.in_ch * self.kernel**2
        if self.kind == "dwconv":
            return pix * self.in_ch * self.kernel**2
        if self.kind == "pwconv":
            return pix * self.out_ch * self.in_ch
        if self.kind == "linear":
            return self.in_ch * self.out_ch
        if self.kind in ("bn", "act", "add"):
            # elementwise: count one op per output element
            return pix * self.out_ch
        if self.kind == "pool":
            return pix * self.out_ch * self.kernel**2
        return 0  # reorg / concat / gap move data, no MACs

    @property
    def params(self) -> int:
        """Learnable parameter count (conv weights + BN affine)."""
        if self.kind == "conv":
            return self.out_ch * self.in_ch * self.kernel**2
        if self.kind == "dwconv":
            return self.in_ch * self.kernel**2
        if self.kind == "pwconv":
            return self.out_ch * self.in_ch
        if self.kind == "linear":
            return self.in_ch * self.out_ch + self.out_ch
        if self.kind == "bn":
            return 2 * self.out_ch
        return 0

    @property
    def is_compute(self) -> bool:
        return self.kind in _COMPUTE_KINDS

    def in_elems(self) -> int:
        return self.in_ch * self.in_h * self.in_w

    def out_elems(self) -> int:
        return self.out_ch * self.out_h * self.out_w


class NetDescriptor:
    """An ordered collection of :class:`LayerDesc` with aggregate stats."""

    def __init__(self, layers: Iterable[LayerDesc], name: str = "net") -> None:
        self.layers: list[LayerDesc] = list(layers)
        self.name = name

    def __iter__(self) -> Iterator[LayerDesc]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def total_macs(self) -> int:
        return sum(l.macs for l in self.layers)

    @property
    def total_params(self) -> int:
        return sum(l.params for l in self.layers)

    @property
    def gmacs(self) -> float:
        return self.total_macs / 1e9

    def param_ratio(self, other: "NetDescriptor") -> float:
        """How many times more parameters ``other`` has than ``self``."""
        if self.total_params == 0:
            raise ValueError(
                f"cannot compute a parameter ratio against network "
                f"{self.name!r}: it has zero parameters (was the "
                f"descriptor built from an empty layer list?)"
            )
        return other.total_params / self.total_params

    @property
    def max_fm_elems(self) -> int:
        """Largest single feature map (drives on-chip buffer sizing)."""
        return max(
            max(l.in_elems(), l.out_elems()) for l in self.layers
        )

    @property
    def total_fm_elems(self) -> int:
        """Sum of all layer output elements (total activation traffic)."""
        return sum(l.out_elems() for l in self.layers)

    def compute_layers(self) -> list[LayerDesc]:
        return [l for l in self.layers if l.is_compute]

    def summary(self) -> str:
        lines = [f"{self.name}: {len(self.layers)} layers, "
                 f"{self.total_macs / 1e6:.1f} MMACs, "
                 f"{self.total_params / 1e6:.3f} M params"]
        for l in self.layers:
            lines.append(
                f"  {l.name or l.kind:24s} {l.kind:7s} "
                f"{l.in_ch:4d}->{l.out_ch:4d} "
                f"{l.in_h}x{l.in_w} k{l.kernel} s{l.stride} "
                f"macs={l.macs / 1e6:.2f}M"
            )
        return "\n".join(lines)


def compare_networks(
    nets: list[NetDescriptor], baseline: int = 0
) -> list[dict[str, float | str]]:
    """Tabulate networks relative to ``nets[baseline]``.

    Returns one row per network with parameter/MAC ratios against the
    baseline — the format of the paper's headline claims ("37.20x
    smaller than ResNet-50", Section 7).
    """
    base = nets[baseline]
    return [
        {
            "name": n.name,
            "params_m": n.total_params / 1e6,
            "param_mb": n.total_params * 4 / 1e6,
            "gmacs": n.gmacs,
            "params_vs_base": (n.total_params / base.total_params
                               if base.total_params else 0.0),
            "macs_vs_base": (n.total_macs / base.total_macs
                             if base.total_macs else 0.0),
        }
        for n in nets
    ]


#: Trace ops whose descriptor keeps the channel count.
_SAME_CHANNELS = {"affine": "bn", "act": "act", "add": "add", "gap": "gap"}


def _width(nodes: list, reg: int) -> int | None:
    """Channels of register ``reg`` as the traced ops reading it know
    them: the input width of the first conv, depthwise or linear op that
    reads it directly or through an open-ended slice ``[start:]``, else
    the widest slice stop."""
    stops = []
    for node in nodes:
        if reg not in node.inputs:
            continue
        a = node.attrs
        if node.kind in ("conv", "dw", "linear"):
            return a["weight"].shape[0 if node.kind == "dw" else 1]
        if node.kind == "slice" and a["stop"] is not None:
            stops.append(a["stop"])
        elif node.kind == "slice" and (rest := _width(nodes, node.out)):
            return (a["start"] or 0) + rest
    return max(stops, default=None)


def describe(module, input_hw: tuple[int, int]) -> NetDescriptor:
    """``module``'s structural descriptor at input size ``input_hw``.

    Walks :func:`~repro.nn.engine.compiler.trace` of the module, one
    :class:`LayerDesc` per op; each layer's input size is its producer's
    ``out_h``/``out_w`` and the input channel count is what the ops
    reading the input know of it (:func:`_width`).  Conv and pool
    geometry (kernel, stride, padding) is the traced layer's own.
    Flatten, channel slice and channel shuffle only reshape, so they
    add no row.
    """
    nodes, _, _ = trace(module)
    in_ch = _width(nodes, 0)
    if in_ch is None:
        raise ValueError(
            f"describe({type(module).__name__}): no weighted layer or "
            "channel slice reads the input, so its channel count is unknown")
    shapes = {0: (in_ch, *input_hw)}  # register -> (channels, h, w)
    layers: list[LayerDesc] = []
    for node in nodes:
        c, h, w = shapes[node.inputs[0]]
        a = node.attrs
        if node.kind == "dw":
            spec = ("dwconv", c, c, h, w, a["weight"].shape[-1], a["stride"],
                    a["pad"])
        elif node.kind == "conv":
            cout, _, k, _ = a["weight"].shape
            spec = ("pwconv" if k == 1 else "conv", c, cout, h, w, k,
                    a["stride"], a["pad"])
        elif node.kind == "linear":
            cout, cin = a["weight"].shape
            spec = ("linear", cin, cout, 1, 1)
        elif node.kind in ("maxpool", "avgpool"):
            spec = ("pool", c, c, h, w, a["kernel"], a["stride"])
        elif node.kind == "reorg":
            s = a["stride"]
            spec = ("reorg", c, c * s * s, h, w, s, s)
        elif node.kind == "concat":
            cat = sum(shapes[r][0] for r in node.inputs)
            spec = ("concat", cat, cat, h, w)
        elif node.kind in _SAME_CHANNELS:
            spec = (_SAME_CHANNELS[node.kind], c, c, h, w)
        elif node.kind == "flatten":
            shapes[node.out] = (c * h * w, 1, 1)
            continue
        elif node.kind == "slice":
            shapes[node.out] = (len(range(c)[a["start"]:a["stop"]]), h, w)
            continue
        elif node.kind == "shuffle":
            shapes[node.out] = (c, h, w)
            continue
        else:
            raise ValueError(f"no layer descriptor for op {node.kind!r}")
        layer = LayerDesc(*spec, name=node.name)
        layers.append(layer)
        shapes[node.out] = (layer.out_ch, layer.out_h, layer.out_w)
    return NetDescriptor(layers, name=type(module).__name__)

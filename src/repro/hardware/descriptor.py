"""Layer-level network descriptors consumed by the hardware models.

The FPGA and GPU performance models (and the profiler) do not execute
NumPy code — they reason about a network's *structure*: per-layer MACs,
parameter counts, and feature-map sizes.  :func:`describe` reads a
:class:`NetDescriptor`, a flat list of :class:`LayerDesc` records, off
the same trace of the module's forward that the inference compiler
plans (:func:`repro.nn.engine.compiler.trace`), so the graph the models
cost is the graph that runs.

This mirrors how the paper's own flow works: FPGA latency during the
bottom-up search is estimated from per-IP models over the layer graph
(Section 4.2, "Latency estimation"), not from running the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..nn.engine.compiler import trace

__all__ = ["LayerDesc", "NetDescriptor", "describe"]

_COMPUTE_KINDS = {"conv", "dwconv", "pwconv", "linear"}
_KNOWN_KINDS = _COMPUTE_KINDS | {"pool", "bn", "act", "reorg", "concat", "add", "gap"}


@dataclass(frozen=True)
class LayerDesc:
    """Structural description of one layer.

    Spatial sizes refer to the layer *input*; ``out_h``/``out_w`` are
    derived.  ``kernel`` and ``stride`` follow conv semantics (pooling
    uses ``kernel`` as window).  Padding is assumed 'same' for convs and
    0 for pooling, matching every architecture in this reproduction.
    """

    kind: str
    in_ch: int
    out_ch: int
    in_h: int
    in_w: int
    kernel: int = 1
    stride: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KNOWN_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if min(self.in_ch, self.out_ch, self.in_h, self.in_w) <= 0:
            raise ValueError(f"non-positive dimension in {self!r}")

    # ------------------------------------------------------------------ #
    # derived geometry
    # ------------------------------------------------------------------ #
    @property
    def out_h(self) -> int:
        if self.kind == "pool":
            return self.in_h // self.stride
        if self.kind == "reorg":
            return self.in_h // self.stride
        if self.kind in ("linear", "gap"):
            return 1
        return (self.in_h + self.stride - 1) // self.stride  # 'same' padding

    @property
    def out_w(self) -> int:
        if self.kind == "pool":
            return self.in_w // self.stride
        if self.kind == "reorg":
            return self.in_w // self.stride
        if self.kind in ("linear", "gap"):
            return 1
        return (self.in_w + self.stride - 1) // self.stride

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

    def param_bytes(self, bytes_per_weight: float = 4.0) -> float:
        return self.total_params * bytes_per_weight

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


#: Trace ops whose descriptor keeps the channel count.
_SAME_CHANNELS = {"affine": "bn", "act": "act", "add": "add", "gap": "gap"}


def describe(module, input_hw: tuple[int, int]) -> NetDescriptor:
    """``module``'s structural descriptor at input size ``input_hw``.

    Walks :func:`~repro.nn.engine.compiler.trace` of the module, one
    :class:`LayerDesc` per op; each layer's input size is its producer's
    ``out_h``/``out_w`` and the input channel count comes from the first
    op's weight.  A module whose forward does not trace (ShuffleNet's
    channel split and shuffle) defines ``layer_descriptors(input_hw)``,
    which is used instead.
    """
    if hasattr(module, "layer_descriptors"):
        return module.layer_descriptors(input_hw)
    nodes, _, _ = trace(module)
    weight = nodes[0].attrs["weight"]
    in_ch = weight.shape[0] if nodes[0].kind == "dw" else weight.shape[1]
    shapes = {0: (in_ch, *input_hw)}  # register -> (channels, h, w)
    layers: list[LayerDesc] = []
    for node in nodes:
        c, h, w = shapes[node.inputs[0]]
        a = node.attrs
        if node.kind == "dw":
            spec = ("dwconv", c, c, h, w, a["weight"].shape[-1], a["stride"])
        elif node.kind == "conv":
            cout, _, k, _ = a["weight"].shape
            spec = ("pwconv" if k == 1 else "conv", c, cout, h, w, k,
                    a["stride"])
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
            shapes[node.out] = (a["stop"] - a["start"], h, w)
            continue
        else:
            raise ValueError(f"no layer descriptor for op {node.kind!r}")
        layer = LayerDesc(*spec, name=node.name)
        layers.append(layer)
        shapes[node.out] = (layer.out_ch, layer.out_h, layer.out_w)
    return NetDescriptor(layers, name=type(module).__name__)

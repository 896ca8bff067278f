"""Bundle abstraction and catalog (Stage 1 of the bottom-up flow).

A *Bundle* is the paper's hardware-aware building block: "From a
software perspective, a Bundle is a set of sequential DNN layers, which
can be repeatedly stacked and construct DNNs.  While from a hardware
perspective, a Bundle is a set of IPs which need to be implemented on
hardware." (Section 4.1)

Stage 1 enumerates candidate Bundles from DNN components (conv, pooling,
activation...), evaluates each for hardware cost and for potential
accuracy (by fast-training a *DNN sketch* with that Bundle stacked in
the middle), and keeps the Pareto-optimal ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import Tensor
from ..nn.layers import (
    BatchNorm2d,
    Conv2d,
    DWConv3x3,
    PWConv1x1,
    make_activation,
)
from ..nn.module import Module, ModuleList
from ..utils.rng import default_rng

__all__ = ["BundleSpec", "BUNDLE_CATALOG", "GenericBundle", "bundle_by_name"]


@dataclass(frozen=True)
class BundleSpec:
    """Recipe for one Bundle type.

    ``ops`` is a sequence of primitive op codes:

    * ``('dw', k)``   — k x k depthwise conv (channels preserved),
    * ``('conv', k)`` — k x k dense conv to the Bundle's output width,
    * ``('pw',)``     — 1 x 1 pointwise conv to the output width.

    Every conv-like op is followed by BN + activation when the Bundle is
    instantiated (the activation choice is a Stage-3 decision, so it is
    a build-time argument, not part of the spec).  A Bundle's hardware
    cost is read off an instance:
    ``describe(GenericBundle(spec, cin, cout), (h, w))``.
    """

    name: str
    ops: tuple[tuple, ...]


class GenericBundle(Module):
    """Executable instance of a :class:`BundleSpec`."""

    def __init__(
        self,
        spec: BundleSpec,
        in_channels: int,
        out_channels: int,
        activation: str = "relu",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = default_rng(rng)
        self.spec = spec
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.activation = activation
        self.ops = ModuleList()
        self.bns = ModuleList()
        self.acts = ModuleList()
        cur = in_channels
        for op in spec.ops:
            if op[0] == "dw":
                layer = DWConv3x3(cur, kernel=op[1], rng=rng)
            elif op[0] == "conv":
                layer = Conv2d(cur, out_channels, op[1], bias=False, rng=rng)
                cur = out_channels
            elif op[0] == "pw":
                layer = PWConv1x1(cur, out_channels, rng=rng)
                cur = out_channels
            else:
                raise ValueError(f"unknown op {op!r} in bundle {spec.name}")
            self.ops.append(layer)
            self.bns.append(BatchNorm2d(cur))
            self.acts.append(make_activation(activation))
        if cur != out_channels:
            raise ValueError(
                f"bundle {spec.name} never reaches {out_channels} channels "
                f"(ends at {cur})"
            )

    def forward(self, x: Tensor) -> Tensor:
        for op, bn, act in zip(self.ops, self.bns, self.acts):
            x = act(bn(op(x)))
        return x


# --------------------------------------------------------------------- #
# The Stage-1 enumeration: combinations of conv primitives.
# BUNDLE_CATALOG[0] is the Bundle the paper ends up selecting
# (DW-Conv3 + PW-Conv1).
# --------------------------------------------------------------------- #
BUNDLE_CATALOG: tuple[BundleSpec, ...] = (
    BundleSpec("dw3-pw", (("dw", 3), ("pw",))),
    BundleSpec("conv3", (("conv", 3),)),
    BundleSpec("pw", (("pw",),)),
    BundleSpec("dw5-pw", (("dw", 5), ("pw",))),
    BundleSpec("conv3-pw", (("conv", 3), ("pw",))),
    BundleSpec("pw-dw3-pw", (("pw",), ("dw", 3), ("pw",))),
    BundleSpec("conv3-conv3", (("conv", 3), ("conv", 3))),
    BundleSpec("dw3-dw3-pw", (("dw", 3), ("dw", 3), ("pw",))),
)


def bundle_by_name(name: str) -> BundleSpec:
    for spec in BUNDLE_CATALOG:
        if spec.name == name:
            return spec
    raise ValueError(
        f"unknown bundle {name!r}; catalog: {[s.name for s in BUNDLE_CATALOG]}"
    )

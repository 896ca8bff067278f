"""Convolution layers: standard, depthwise, and pointwise."""

from __future__ import annotations

import numpy as np

from ...utils.rng import default_rng
from .. import functional as F
from ..init import kaiming_normal
from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["Conv2d", "ConvTranspose2d", "DWConv3x3", "GroupedConv2d", "PWConv1x1"]


class Conv2d(Module):
    """2-D convolution layer.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel:
        Square kernel size.
    stride, pad:
        Convolution stride and symmetric zero padding.
    bias:
        Whether to learn an additive bias (disabled when followed by BN).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        stride: int = 1,
        pad: int | None = None,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = default_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = kernel // 2 if pad is None else pad
        self.weight = Parameter(
            kaiming_normal((out_channels, in_channels, kernel, kernel), rng)
        )
        self.bias = (
            Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.pad)


class DWConv3x3(Module):
    """3x3 depthwise convolution — one half of the SkyNet Bundle.

    Depthwise-separable structure (Howard et al., 2017) reduces MACs by
    roughly ``k^2`` relative to a standard conv of the same shape.
    """

    def __init__(
        self,
        channels: int,
        stride: int = 1,
        kernel: int = 3,
        bias: bool = False,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = default_rng(rng)
        self.channels = channels
        self.kernel = kernel
        self.stride = stride
        self.pad = kernel // 2
        self.weight = Parameter(
            kaiming_normal((channels, 1, kernel, kernel), rng)
        )
        self.bias = Parameter(np.zeros(channels, dtype=np.float32)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.depthwise_conv2d(x, self.weight, self.bias, self.stride, self.pad)


class GroupedConv2d(Module):
    """Grouped convolution (AlexNet's original 2-group trick, ShuffleNet).

    Input and output channels are split into ``groups`` independent
    convolutions; parameters and MACs shrink by the group count.
    Depthwise convolution is the ``groups == channels`` extreme (use
    :class:`DWConv3x3` for that case — it has a faster kernel).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        groups: int = 2,
        stride: int = 1,
        pad: int | None = None,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError(
                f"channels ({in_channels}->{out_channels}) must divide "
                f"evenly into {groups} groups"
            )
        rng = default_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.groups = groups
        self.kernel = kernel
        self.stride = stride
        # Resolve 'same' padding once and hand every per-group Conv2d the
        # resolved value: the sub-convs must never re-derive it, so an
        # explicit ``pad`` (including 0) and ``pad=None`` behave
        # identically at the group level and the layer level.
        self.pad = kernel // 2 if pad is None else pad
        self.convs = []
        for g in range(groups):
            conv = Conv2d(
                in_channels // groups,
                out_channels // groups,
                kernel,
                stride=stride,
                pad=self.pad,
                bias=bias,
                rng=rng,
            )
            self.add_module(f"group{g}", conv)
            self.convs.append(conv)

    def forward(self, x: Tensor) -> Tensor:
        from ..tensor import Tensor as T

        step = self.in_channels // self.groups
        outs = [
            conv(x[:, g * step : (g + 1) * step])
            for g, conv in enumerate(self.convs)
        ]
        return T.concat(outs, axis=1)


class PWConv1x1(Conv2d):
    """1x1 pointwise convolution — the other half of the SkyNet Bundle."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        bias: bool = False,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(
            in_channels, out_channels, kernel=1, stride=1, pad=0, bias=bias, rng=rng
        )


class ConvTranspose2d(Module):
    """Transposed convolution layer (learned upsampling).

    Output spatial size is ``(in - 1) * stride - 2 * pad + kernel``; with
    ``kernel = 2 * stride`` and ``pad = stride // 2`` it doubles the
    resolution cleanly, the configuration the SiamMask-style mask head
    can use instead of nearest-neighbour upsampling.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 4,
        stride: int = 2,
        pad: int = 1,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = default_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.weight = Parameter(
            kaiming_normal((in_channels, out_channels, kernel, kernel), rng)
        )
        self.bias = (
            Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.conv_transpose2d(
            x, self.weight, self.bias, self.stride, self.pad
        )

    def out_size(self, size: int) -> int:
        return (size - 1) * self.stride - 2 * self.pad + self.kernel

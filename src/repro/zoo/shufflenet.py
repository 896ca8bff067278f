"""ShuffleNet-V2-style backbone (Zhang et al., 2018b).

Channel-split units with channel shuffle; the Thinker and XJTU Tripler
contest entries (Table 1) built on ShuffleNet.  Truncated at stride 8.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor
from ..nn.tensor import Traced
from ..nn.layers import BatchNorm2d, Conv2d, DWConv3x3, PWConv1x1, ReLU
from ..nn.module import Module, ModuleList
from ..utils.rng import default_rng

__all__ = ["ShuffleNetBackbone", "shufflenet", "channel_shuffle"]


def channel_shuffle(x: Tensor, groups: int = 2) -> Tensor:
    """Interleave channels across ``groups`` (the ShuffleNet shuffle).

    Traced, it is one ``shuffle`` node: the hardware descriptor counts
    it as a reshape, and the compiler has no kernel for it.
    """
    if isinstance(x, Traced):
        return x.planner.shuffle(x, groups)
    n, c, h, w = x.shape
    if c % groups:
        raise ValueError(f"channels {c} not divisible by groups {groups}")
    return (
        x.reshape(n, groups, c // groups, h, w)
        .transpose(0, 2, 1, 3, 4)
        .reshape(n, c, h, w)
    )


class _ShuffleUnit(Module):
    """Basic (stride-1) ShuffleNet-V2 unit with channel split."""

    def __init__(self, channels: int, rng) -> None:
        super().__init__()
        if channels % 2:
            raise ValueError("ShuffleUnit needs an even channel count")
        half = channels // 2
        self.half = half
        self.pw1 = PWConv1x1(half, half, rng=rng)
        self.bn1 = BatchNorm2d(half)
        self.dw = DWConv3x3(half, rng=rng)
        self.bn2 = BatchNorm2d(half)
        self.pw2 = PWConv1x1(half, half, rng=rng)
        self.bn3 = BatchNorm2d(half)
        self.relu = ReLU()

    def forward(self, x: Tensor) -> Tensor:
        left = x[:, : self.half]
        right = x[:, self.half :]
        right = self.relu(self.bn1(self.pw1(right)))
        right = self.bn2(self.dw(right))
        right = self.relu(self.bn3(self.pw2(right)))
        out = Tensor.concat([left, right], axis=1)
        return channel_shuffle(out, 2)


class _DownUnit(Module):
    """Stride-2 ShuffleNet-V2 unit (both branches downsample)."""

    def __init__(self, in_ch: int, out_ch: int, rng) -> None:
        super().__init__()
        half = out_ch // 2
        self.l_dw = DWConv3x3(in_ch, stride=2, rng=rng)
        self.l_bn1 = BatchNorm2d(in_ch)
        self.l_pw = PWConv1x1(in_ch, half, rng=rng)
        self.l_bn2 = BatchNorm2d(half)
        self.r_pw1 = PWConv1x1(in_ch, half, rng=rng)
        self.r_bn1 = BatchNorm2d(half)
        self.r_dw = DWConv3x3(half, stride=2, rng=rng)
        self.r_bn2 = BatchNorm2d(half)
        self.r_pw2 = PWConv1x1(half, half, rng=rng)
        self.r_bn3 = BatchNorm2d(half)
        self.relu = ReLU()

    def forward(self, x: Tensor) -> Tensor:
        left = self.relu(self.l_bn2(self.l_pw(self.l_bn1(self.l_dw(x)))))
        right = self.relu(self.r_bn1(self.r_pw1(x)))
        right = self.r_bn2(self.r_dw(right))
        right = self.relu(self.r_bn3(self.r_pw2(right)))
        return channel_shuffle(Tensor.concat([left, right], axis=1), 2)


class ShuffleNetBackbone(Module):
    """ShuffleNet-V2 trunk truncated at stride 8."""

    stride = 8

    def __init__(
        self,
        width_mult: float = 1.0,
        in_channels: int = 3,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = default_rng(rng)
        self.width_mult = width_mult
        self.in_channels = in_channels

        def even(c: float) -> int:
            return max(4, 2 * int(round(c * width_mult / 2)))

        stem_ch = even(24)
        s2_ch, s3_ch = even(116), even(232)
        self.stem = Conv2d(in_channels, stem_ch, 3, stride=2, bias=False, rng=rng)
        self.stem_bn = BatchNorm2d(stem_ch)
        self.relu = ReLU()
        self.units = ModuleList()
        cur = stem_ch
        for out_ch, n_units in ((s2_ch, 3), (s3_ch, 3)):
            self.units.append(_DownUnit(cur, out_ch, rng))
            cur = out_ch
            for _ in range(n_units):
                self.units.append(_ShuffleUnit(cur, rng))
        self.out_channels = cur

    def forward(self, x: Tensor) -> Tensor:
        x = self.relu(self.stem_bn(self.stem(x)))
        for unit in self.units:
            x = unit(x)
        return x


def shufflenet(width_mult: float = 1.0, rng=None) -> ShuffleNetBackbone:
    return ShuffleNetBackbone(width_mult, rng=rng)

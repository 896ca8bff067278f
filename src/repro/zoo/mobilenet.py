"""MobileNet-style backbone (Howard et al., 2017).

Depthwise-separable chain; a DAC-SDC winning-entry ingredient (Table 1,
iSmart2 = MobileNet + YOLO head).  Truncated at stride 8 for the shared
detection back-end.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor
from ..nn.layers import BatchNorm2d, Conv2d, DWConv3x3, PWConv1x1, ReLU
from ..nn.module import Module, ModuleList
from ..utils.rng import default_rng

__all__ = ["MobileNetBackbone", "mobilenet"]

# (out_ch, stride) of each depthwise-separable block after the stem.
_BLOCKS = (
    (64, 1),
    (128, 2),  # -> stride 4
    (128, 1),
    (256, 2),  # -> stride 8
    (256, 1),
    (512, 1),
    (512, 1),
    (512, 1),
)


class _DWSeparable(Module):
    def __init__(self, in_ch: int, out_ch: int, stride: int, rng) -> None:
        super().__init__()
        self.dw = DWConv3x3(in_ch, stride=stride, rng=rng)
        self.bn1 = BatchNorm2d(in_ch)
        self.pw = PWConv1x1(in_ch, out_ch, rng=rng)
        self.bn2 = BatchNorm2d(out_ch)
        self.relu = ReLU()

    def forward(self, x: Tensor) -> Tensor:
        x = self.relu(self.bn1(self.dw(x)))
        return self.relu(self.bn2(self.pw(x)))


class MobileNetBackbone(Module):
    """MobileNet-v1-style trunk at stride 8."""

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
        stem_ch = max(4, int(round(32 * width_mult)))
        self.stem = Conv2d(in_channels, stem_ch, 3, stride=2, bias=False, rng=rng)
        self.stem_bn = BatchNorm2d(stem_ch)
        self.relu = ReLU()
        self.blocks = ModuleList()
        cur = stem_ch
        for ch, s in _BLOCKS:
            out = max(4, int(round(ch * width_mult)))
            self.blocks.append(_DWSeparable(cur, out, s, rng))
            cur = out
        self.out_channels = cur

    def forward(self, x: Tensor) -> Tensor:
        x = self.relu(self.stem_bn(self.stem(x)))
        for blk in self.blocks:
            x = blk(x)
        return x


def mobilenet(width_mult: float = 1.0, rng=None) -> MobileNetBackbone:
    return MobileNetBackbone(width_mult, rng=rng)

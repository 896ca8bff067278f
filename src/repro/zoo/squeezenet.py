"""SqueezeNet backbone (Iandola et al., 2016).

Fire modules (squeeze 1x1 -> expand 1x1 + 3x3); the SystemsETHZ
contest entries (Table 1) used SqueezeNet + YOLO.  Truncated at stride 8.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor
from ..nn.layers import Conv2d, MaxPool2d, PWConv1x1, ReLU
from ..nn.module import Module, ModuleList
from ..utils.rng import default_rng

__all__ = ["FireModule", "SqueezeNetBackbone", "squeezenet"]


class FireModule(Module):
    """squeeze(1x1) -> [expand1x1 || expand3x3] -> concat."""

    def __init__(self, in_ch: int, squeeze: int, expand: int, rng) -> None:
        super().__init__()
        self.squeeze = PWConv1x1(in_ch, squeeze, bias=True, rng=rng)
        self.expand1 = PWConv1x1(squeeze, expand, bias=True, rng=rng)
        self.expand3 = Conv2d(squeeze, expand, 3, bias=True, rng=rng)
        self.relu = ReLU()
        self.out_channels = expand * 2

    def forward(self, x: Tensor) -> Tensor:
        s = self.relu(self.squeeze(x))
        return Tensor.concat(
            [self.relu(self.expand1(s)), self.relu(self.expand3(s))], axis=1
        )


# (squeeze, expand) per fire module; pools after stem and fire2.
_FIRES = ((16, 64), (16, 64), (32, 128), (32, 128), (48, 192), (48, 192))


class SqueezeNetBackbone(Module):
    """SqueezeNet-1.1-style trunk truncated at stride 8."""

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

        def scale(c: int) -> int:
            return max(4, int(round(c * width_mult)))

        stem_ch = scale(64)
        self.stem = Conv2d(in_channels, stem_ch, 3, stride=2, rng=rng)
        self.relu = ReLU()
        self.pool = MaxPool2d(2)
        self.fires = ModuleList()
        cur = stem_ch
        for s, e in _FIRES:
            fire = FireModule(cur, scale(s), scale(e), rng)
            self.fires.append(fire)
            cur = fire.out_channels
        self.out_channels = cur

    def forward(self, x: Tensor) -> Tensor:
        x = self.relu(self.stem(x))  # stride 2
        x = self.pool(x)  # stride 4
        x = self.fires[0](x)
        x = self.fires[1](x)
        x = self.pool(x)  # stride 8
        for fire in self.fires[2:]:
            x = fire(x)
        return x


def squeezenet(width_mult: float = 1.0, rng=None) -> SqueezeNetBackbone:
    return SqueezeNetBackbone(width_mult, rng=rng)

"""Tiny-YOLO-style backbone (Redmon & Farhadi, 2017).

The plain conv/pool chain that several DAC-SDC GPU-track winners started
from (Table 1: ICT-CAS, DeepZ, DeepZS).  Truncated at stride 8 for the
shared detection back-end.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor
from ..nn.layers import BatchNorm2d, Conv2d, LeakyReLU, MaxPool2d
from ..nn.module import Module, ModuleList
from ..utils.rng import default_rng

__all__ = ["TinyYoloBackbone", "tinyyolo"]

# (out_ch, pool_after) for the conv chain; three pools -> stride 8.
_PLAN = ((16, True), (32, True), (64, True), (128, False), (256, False))


class TinyYoloBackbone(Module):
    """Tiny-YOLO conv/pool trunk with leaky-ReLU activations."""

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
        self.convs = ModuleList()
        self.bns = ModuleList()
        self.act = LeakyReLU(0.1)
        self.pool = MaxPool2d(2)
        self._pool_after: list[bool] = []
        cur = in_channels
        for ch, pool_after in _PLAN:
            out = max(4, int(round(ch * width_mult)))
            self.convs.append(Conv2d(cur, out, 3, bias=False, rng=rng))
            self.bns.append(BatchNorm2d(out))
            self._pool_after.append(pool_after)
            cur = out
        self.out_channels = cur

    def forward(self, x: Tensor) -> Tensor:
        for conv, bn, pool_after in zip(self.convs, self.bns,
                                        self._pool_after):
            x = self.act(bn(conv(x)))
            if pool_after:
                x = self.pool(x)
        return x


def tinyyolo(width_mult: float = 1.0, rng=None) -> TinyYoloBackbone:
    return TinyYoloBackbone(width_mult, rng=rng)

"""VGG-16 backbone (Simonyan & Zisserman, 2014) — Table 2 baseline.

Thirteen 3x3 convolutions; 14.71 M conv parameters at ``width_mult=1``,
matching Table 2.  The detection variant keeps only the first three
pooling stages (stride 8) so the back-end grid matches the other
backbones; the remaining conv blocks run at full grid resolution.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor
from ..nn.layers import BatchNorm2d, Conv2d, MaxPool2d, ReLU
from ..nn.module import Module, ModuleList
from ..utils.rng import default_rng

__all__ = ["VGGBackbone", "vgg16"]

# (channels, n_convs) per block; 'M' pooling after each block.
_VGG16_BLOCKS = ((64, 2), (128, 2), (256, 3), (512, 3), (512, 3))


class VGGBackbone(Module):
    """VGG-16 conv trunk truncated at stride 8 for detection."""

    stride = 8

    def __init__(
        self,
        width_mult: float = 1.0,
        in_channels: int = 3,
        batch_norm: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = default_rng(rng)
        self.width_mult = width_mult
        self.in_channels = in_channels
        self.batch_norm = batch_norm
        self.convs = ModuleList()
        self.bns = ModuleList() if batch_norm else None
        self.relu = ReLU()
        self._plan: list[str] = []  # 'conv' or 'pool', in order

        cur = in_channels
        for bi, (ch, n) in enumerate(_VGG16_BLOCKS):
            out = max(4, int(round(ch * width_mult)))
            for _ in range(n):
                self.convs.append(Conv2d(cur, out, 3, bias=not batch_norm, rng=rng))
                if batch_norm:
                    self.bns.append(BatchNorm2d(out))
                self._plan.append("conv")
                cur = out
            if bi < 3:  # only three poolings -> stride 8
                self._plan.append("pool")
        self.pool = MaxPool2d(2)
        self.out_channels = cur

    def forward(self, x: Tensor) -> Tensor:
        ci = 0
        for op in self._plan:
            if op == "pool":
                x = self.pool(x)
            else:
                x = self.convs[ci](x)
                if self.batch_norm:
                    x = self.bns[ci](x)
                x = self.relu(x)
                ci += 1
        return x


def vgg16(width_mult: float = 1.0, rng=None) -> VGGBackbone:
    """The original VGG-16 (no batch norm, as in the paper's Table 2)."""
    return VGGBackbone(width_mult, batch_norm=False, rng=rng)

"""ResNet backbones (He et al., 2016) — Table 2 baselines.

ResNet-18/34 use BasicBlocks, ResNet-50 uses Bottlenecks.  Parameter
counts at ``width_mult=1`` match the paper's Table 2 (11.18 M / 21.28 M /
23.51 M — torchvision backbones minus the classifier head).

For the single-object detection task the network is truncated at overall
stride 8 (stem stride 4 + one stride-2 stage); the remaining stages run
at stride 1 so every baseline feeds the same YOLO back-end grid that
SkyNet does.  This preserves depth and parameter count while making the
comparison head-compatible, mirroring the paper's "same back-end" setup.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor
from ..nn.layers import BatchNorm2d, Conv2d, MaxPool2d, ReLU
from ..nn.module import Module, ModuleList
from ..utils.rng import default_rng

__all__ = ["ResNetBackbone", "resnet18", "resnet34", "resnet50"]


class BasicBlock(Module):
    """Two 3x3 convs with identity (or projected) shortcut."""

    expansion = 1

    def __init__(self, in_ch: int, out_ch: int, stride: int, rng) -> None:
        super().__init__()
        self.conv1 = Conv2d(in_ch, out_ch, 3, stride=stride, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(out_ch)
        self.conv2 = Conv2d(out_ch, out_ch, 3, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_ch)
        self.relu = ReLU()
        self.downsample = None
        if stride != 1 or in_ch != out_ch:
            self.downsample = Conv2d(
                in_ch, out_ch, 1, stride=stride, pad=0, bias=False, rng=rng
            )
            self.down_bn = BatchNorm2d(out_ch)

    def forward(self, x: Tensor) -> Tensor:
        identity = x
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        if self.downsample is not None:
            identity = self.down_bn(self.downsample(x))
        return self.relu(out + identity)


class Bottleneck(Module):
    """1x1 reduce → 3x3 → 1x1 expand (x4), as in ResNet-50."""

    expansion = 4

    def __init__(self, in_ch: int, mid_ch: int, stride: int, rng) -> None:
        super().__init__()
        out_ch = mid_ch * self.expansion
        self.conv1 = Conv2d(in_ch, mid_ch, 1, pad=0, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(mid_ch)
        self.conv2 = Conv2d(mid_ch, mid_ch, 3, stride=stride, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(mid_ch)
        self.conv3 = Conv2d(mid_ch, out_ch, 1, pad=0, bias=False, rng=rng)
        self.bn3 = BatchNorm2d(out_ch)
        self.relu = ReLU()
        self.downsample = None
        if stride != 1 or in_ch != out_ch:
            self.downsample = Conv2d(
                in_ch, out_ch, 1, stride=stride, pad=0, bias=False, rng=rng
            )
            self.down_bn = BatchNorm2d(out_ch)

    def forward(self, x: Tensor) -> Tensor:
        identity = x
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.relu(self.bn2(self.conv2(out)))
        out = self.bn3(self.conv3(out))
        if self.downsample is not None:
            identity = self.down_bn(self.downsample(x))
        return self.relu(out + identity)


_CONFIGS = {
    18: (BasicBlock, (2, 2, 2, 2)),
    34: (BasicBlock, (3, 4, 6, 3)),
    50: (Bottleneck, (3, 4, 6, 3)),
}
_STAGE_CHANNELS = (64, 128, 256, 512)


class ResNetBackbone(Module):
    """ResNet feature extractor truncated at stride 8 for detection."""

    stride = 8

    def __init__(
        self,
        depth: int = 18,
        width_mult: float = 1.0,
        in_channels: int = 3,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if depth not in _CONFIGS:
            raise ValueError(f"depth must be one of {sorted(_CONFIGS)}")
        rng = default_rng(rng)
        self.depth = depth
        self.width_mult = width_mult
        self.in_channels = in_channels
        block, stage_sizes = _CONFIGS[depth]
        ch = [max(4, int(round(c * width_mult))) for c in _STAGE_CHANNELS]

        self.stem = Conv2d(in_channels, ch[0], 7, stride=2, pad=3, bias=False, rng=rng)
        self.stem_bn = BatchNorm2d(ch[0])
        self.relu = ReLU()
        self.pool = MaxPool2d(2)

        # strides per stage: stage1 s1 (already at /4), stage2 s2 (-> /8),
        # stages 3-4 s1 to hold the detection grid resolution.
        stage_strides = (1, 2, 1, 1)
        self.stages = ModuleList()
        cur = ch[0]
        for si, (n_blocks, s) in enumerate(zip(stage_sizes, stage_strides)):
            for bi in range(n_blocks):
                stride = s if bi == 0 else 1
                if block is BasicBlock:
                    blk = BasicBlock(cur, ch[si], stride, rng)
                    cur = ch[si]
                else:
                    blk = Bottleneck(cur, ch[si], stride, rng)
                    cur = ch[si] * Bottleneck.expansion
                self.stages.append(blk)
        self.out_channels = cur

    def forward(self, x: Tensor) -> Tensor:
        x = self.pool(self.relu(self.stem_bn(self.stem(x))))
        for blk in self.stages:
            x = blk(x)
        return x


def resnet18(width_mult: float = 1.0, rng=None) -> ResNetBackbone:
    return ResNetBackbone(18, width_mult, rng=rng)


def resnet34(width_mult: float = 1.0, rng=None) -> ResNetBackbone:
    return ResNetBackbone(34, width_mult, rng=rng)


def resnet50(width_mult: float = 1.0, rng=None) -> ResNetBackbone:
    return ResNetBackbone(50, width_mult, rng=rng)

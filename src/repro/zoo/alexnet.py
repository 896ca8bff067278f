"""AlexNet (Krizhevsky et al., 2012).

Used twice in the paper:

* Figure 2(a): the quantization-sensitivity study compresses AlexNet's
  parameters (237.9 MB fp32 -> 10.8 MB fixed point, 22x) and feature
  maps (15.7 MB -> 0.98 MB, 16x) — that needs the *classifier* variant
  with its three FC layers, :class:`AlexNetClassifier`.
* Table 8: AlexNet is a SiamRPN++ backbone on GOT-10K — that needs the
  conv-trunk variant, :class:`AlexNetBackbone`.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor
from ..nn.layers import Conv2d, Dropout, Flatten, Linear, MaxPool2d, ReLU
from ..nn.module import Module
from ..utils.rng import default_rng

__all__ = ["AlexNetBackbone", "AlexNetClassifier", "alexnet_backbone"]

# (out_ch, kernel, stride, pad) of the five conv layers.
_CONVS = (
    (64, 11, 4, 2),
    (192, 5, 1, 2),
    (384, 3, 1, 1),
    (256, 3, 1, 1),
    (256, 3, 1, 1),
)


def _trunk_out_size(size: int) -> int:
    """Spatial size after the conv trunk (conv1 s4/p2 + two 2x2 pools)."""
    s = (size + 2 * 2 - 11) // 4 + 1  # conv1
    s = s // 2  # pool1
    s = s // 2  # pool2 (convs 2-5 are 'same')
    return s


class AlexNetBackbone(Module):
    """AlexNet conv trunk (pool after conv1, conv2, conv5)."""

    stride = 16

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
        ch = [max(4, int(round(c * width_mult))) for c, *_ in _CONVS]
        cur = in_channels
        self.conv1 = Conv2d(cur, ch[0], 11, stride=4, pad=2, rng=rng)
        self.conv2 = Conv2d(ch[0], ch[1], 5, pad=2, rng=rng)
        self.conv3 = Conv2d(ch[1], ch[2], 3, rng=rng)
        self.conv4 = Conv2d(ch[2], ch[3], 3, rng=rng)
        self.conv5 = Conv2d(ch[3], ch[4], 3, rng=rng)
        self.pool = MaxPool2d(2)
        self.relu = ReLU()
        self.out_channels = ch[4]

    def forward(self, x: Tensor) -> Tensor:
        x = self.pool(self.relu(self.conv1(x)))
        x = self.pool(self.relu(self.conv2(x)))
        x = self.relu(self.conv3(x))
        x = self.relu(self.conv4(x))
        x = self.relu(self.conv5(x))
        return x


class AlexNetClassifier(Module):
    """Full AlexNet with the three FC layers (Fig. 2a study).

    At ``width_mult=1`` and 224x224 input the parameter size is ~244 MB
    in fp32, dominated by the first FC layer — which is exactly why the
    paper's parameter-compression bubble (Fig. 2a blue) shrinks 22x while
    accuracy barely moves, but feature-map compression (green) is the
    sensitive direction.
    """

    def __init__(
        self,
        num_classes: int = 1000,
        width_mult: float = 1.0,
        input_hw: tuple[int, int] = (224, 224),
        in_channels: int = 3,
        dropout: float = 0.5,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = default_rng(rng)
        self.features = AlexNetBackbone(width_mult, in_channels, rng=rng)
        self.final_pool = MaxPool2d(2)
        self.flatten = Flatten()
        self.relu = ReLU()
        self.input_hw = input_hw
        # spatial size after conv trunk + the final pool (224 -> 6x6,
        # matching the canonical 9216-input first FC layer)
        fh = _trunk_out_size(input_hw[0]) // 2
        fw = _trunk_out_size(input_hw[1]) // 2
        if fh < 1 or fw < 1:
            raise ValueError(f"input {input_hw} too small for AlexNet")
        feat = self.features.out_channels * fh * fw
        hidden = max(8, int(round(4096 * width_mult)))
        self.drop1 = Dropout(dropout, rng=rng)
        self.fc1 = Linear(feat, hidden, rng=rng)
        self.drop2 = Dropout(dropout, rng=rng)
        self.fc2 = Linear(hidden, hidden, rng=rng)
        self.fc3 = Linear(hidden, num_classes, rng=rng)
        self.num_classes = num_classes

    def forward(self, x: Tensor) -> Tensor:
        x = self.final_pool(self.features(x))
        x = self.flatten(x)
        x = self.relu(self.fc1(self.drop1(x)))
        x = self.relu(self.fc2(self.drop2(x)))
        return self.fc3(x)


def alexnet_backbone(width_mult: float = 1.0, rng=None) -> AlexNetBackbone:
    return AlexNetBackbone(width_mult, rng=rng)

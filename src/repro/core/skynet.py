"""The SkyNet architecture (Table 3 / Fig. 4 of the paper).

SkyNet stacks six replications of a single hardware-friendly *Bundle*
(3x3 depthwise conv → 1x1 pointwise conv, each followed by BN and an
activation), with three 2x2 max-pooling layers interleaved.  Three
configurations are defined:

* **Model A** — plain chain, no bypass.
* **Model B** — the Bundle-3 output is reordered (space-to-depth) and
  concatenated before Bundle 6; the post-concat pointwise conv has 48
  channels.
* **Model C** — like B but with a 96-channel pointwise conv (the
  contest-winning model when paired with ReLU6).

The final 10-channel pointwise conv of Table 3 is the detection head
(two anchors x 5 regression values) and lives in
:class:`repro.detection.head.YoloHead`; this module exposes the backbone
up to (and including) the last activation.

``width_mult`` scales every channel count, which the tests and the
PSO-search experiments use to keep NumPy training fast; ``width_mult=1``
is the paper's architecture (0.44 M parameters including the head).
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor
from ..nn.layers import (
    BatchNorm2d,
    DWConv3x3,
    MaxPool2d,
    PWConv1x1,
    Reorg,
    make_activation,
)
from ..nn.module import Module
from ..utils.rng import default_rng

__all__ = ["SkyNetBundle", "SkyNetBackbone", "SKYNET_CHANNELS", "round_channels"]

# Paper channel plan (Table 3): PW output channels of Bundles 1..5, then
# the post-concat PW width for models B/C.
SKYNET_CHANNELS: tuple[int, ...] = (48, 96, 192, 384, 512)
HEAD_CHANNELS = {"B": 48, "C": 96}


def round_channels(ch: float, divisor: int = 2, minimum: int = 2) -> int:
    """Round a scaled channel count to a friendly multiple."""
    return max(minimum, int(round(ch / divisor)) * divisor)


class SkyNetBundle(Module):
    """One SkyNet Bundle: DW-Conv3 → BN → act → PW-Conv1 → BN → act.

    This is the Bundle selected by the bottom-up flow (Section 5.1): the
    combination of a 3x3 depthwise conv, a 1x1 pointwise conv, batch
    normalization and ReLU6.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        activation: str = "relu6",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = default_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.activation = activation
        self.dw = DWConv3x3(in_channels, rng=rng)
        self.bn1 = BatchNorm2d(in_channels)
        self.act1 = make_activation(activation)
        self.pw = PWConv1x1(in_channels, out_channels, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        self.act2 = make_activation(activation)

    def forward(self, x: Tensor) -> Tensor:
        x = self.act1(self.bn1(self.dw(x)))
        return self.act2(self.bn2(self.pw(x)))


class SkyNetBackbone(Module):
    """SkyNet feature extractor, configurable as model A, B, or C.

    Parameters
    ----------
    config:
        ``'A'``, ``'B'`` or ``'C'`` (Table 3).
    activation:
        ``'relu6'`` (paper default after Stage-3 feature addition) or
        ``'relu'`` (the ablation rows of Table 4).
    width_mult:
        Uniform channel scaling; 1.0 reproduces the paper.
    in_channels:
        Input channels (3 for RGB).

    Notes
    -----
    Output stride is 8 (three 2x2 poolings); an input of 160x320 yields a
    20x40 grid.  For models B and C the Bundle-3 output is carried across
    the last pooling through a :class:`Reorg` (stride 2) and concatenated
    with the Bundle-5 output before the final Bundle.
    """

    stride = 8

    def __init__(
        self,
        config: str = "C",
        activation: str = "relu6",
        width_mult: float = 1.0,
        in_channels: int = 3,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        config = config.upper()
        if config not in ("A", "B", "C"):
            raise ValueError(f"config must be A, B or C, got {config!r}")
        rng = default_rng(rng)
        self.config = config
        self.activation = activation
        self.width_mult = width_mult
        self.in_channels = in_channels

        ch = [round_channels(c * width_mult) for c in SKYNET_CHANNELS]
        self.channels = tuple(ch)

        self.bundle1 = SkyNetBundle(in_channels, ch[0], activation, rng)
        self.pool1 = MaxPool2d(2)
        self.bundle2 = SkyNetBundle(ch[0], ch[1], activation, rng)
        self.pool2 = MaxPool2d(2)
        self.bundle3 = SkyNetBundle(ch[1], ch[2], activation, rng)
        self.pool3 = MaxPool2d(2)
        self.bundle4 = SkyNetBundle(ch[2], ch[3], activation, rng)
        self.bundle5 = SkyNetBundle(ch[3], ch[4], activation, rng)

        if config == "A":
            self.out_channels = ch[4]
        else:
            self.reorg = Reorg(stride=2)
            bypass_ch = ch[2] * 4  # reorg multiplies channels by stride^2
            head_ch = round_channels(HEAD_CHANNELS[config] * width_mult)
            self.bundle6 = SkyNetBundle(
                ch[4] + bypass_ch, head_ch, activation, rng
            )
            self.out_channels = head_ch

    @property
    def has_bypass(self) -> bool:
        return self.config in ("B", "C")

    def forward(self, x: Tensor) -> Tensor:
        x = self.pool1(self.bundle1(x))
        x = self.pool2(self.bundle2(x))
        x = self.bundle3(x)
        if self.has_bypass:
            bypass = self.reorg(x)  # [Bypass Start] FM reordering
        x = self.pool3(x)
        x = self.bundle4(x)
        x = self.bundle5(x)
        if self.has_bypass:
            x = Tensor.concat([x, bypass], axis=1)  # [Bypass End]
            x = self.bundle6(x)
        return x

"""Shared Siamese-tracker machinery.

Siamese trackers "locate the object by the correlation between features
extracted from the exemplar image and search image" (Section 7.1).  This
module provides the two ingredients every such tracker needs:

* :func:`crop_and_resize` — context-padded square crops around a target
  box (the exemplar/search windows),
* :func:`xcorr_depthwise` — depthwise cross-correlation of search
  features with exemplar features (the SiamRPN++ correlation head),
  implemented on the autograd substrate so it is trainable.
"""

from __future__ import annotations

import numpy as np

from ..datasets.augment import resize_bilinear
from ..nn import Tensor
from ..nn import functional as F
from ..nn.layers import BatchNorm2d, PWConv1x1, ReLU
from ..nn.module import Module
from ..utils.rng import default_rng

__all__ = ["crop_and_resize", "xcorr_depthwise", "AdjustLayer",
           "compile_extractor", "EXEMPLAR_CONTEXT", "SEARCH_CONTEXT"]

# Context factors: crop side = context * sqrt(w*h) around the target.
EXEMPLAR_CONTEXT = 2.0
SEARCH_CONTEXT = 4.0


def crop_and_resize(
    image: np.ndarray,
    center_xy: tuple[float, float],
    side: float,
    out_size: int,
) -> tuple[np.ndarray, tuple[float, float, float]]:
    """Crop a square window (normalized coords) and resize it.

    Parameters
    ----------
    image:
        (3, H, W) float image.
    center_xy:
        Window center (cx, cy), normalized.
    side:
        Window side length, normalized to image *height* and *width*
        independently (the window is square in normalized space).
    out_size:
        Output resolution (pixels, square).

    Returns
    -------
    crop:
        (3, out_size, out_size) float32 window, mean-padded outside the
        frame.
    frame:
        (x0, y0, side) of the window in normalized image coordinates —
        needed to map predictions back.
    """
    _, h, w = image.shape
    cx, cy = center_xy
    x0, y0 = cx - side / 2, cy - side / 2
    px0, py0 = int(round(x0 * w)), int(round(y0 * h))
    ps_w, ps_h = max(2, int(round(side * w))), max(2, int(round(side * h)))

    pad_value = image.mean(axis=(1, 2), keepdims=True).astype(image.dtype)
    canvas = np.broadcast_to(pad_value, (3, ps_h, ps_w)).copy()
    sx0, sy0 = max(0, px0), max(0, py0)
    sx1, sy1 = min(w, px0 + ps_w), min(h, py0 + ps_h)
    if sx1 > sx0 and sy1 > sy0:
        canvas[:, sy0 - py0 : sy1 - py0, sx0 - px0 : sx1 - px0] = image[
            :, sy0:sy1, sx0:sx1
        ]
    crop = resize_bilinear(canvas[None], (out_size, out_size))[0]
    return crop.astype(np.float32), (x0, y0, side)


def xcorr_depthwise(x: Tensor, z: Tensor) -> Tensor:
    """Depthwise cross-correlation (per batch item, per channel).

    Parameters
    ----------
    x:
        Search features (N, C, Hx, Wx).
    z:
        Exemplar features (N, C, Hz, Wz) used as the filter bank.

    Returns
    -------
    (N, C, Hx-Hz+1, Wx-Wz+1) response maps.
    """
    n, c, hx, wx = x.shape
    nz, cz, hz, wz = z.shape
    if (n, c) != (nz, cz):
        raise ValueError(f"shape mismatch: x {x.shape} vs z {z.shape}")
    if hz > hx or wz > wx:
        raise ValueError("exemplar features larger than search features")
    xr = x.reshape(1, n * c, hx, wx)
    zr = z.reshape(n * c, 1, hz, wz)
    out = F.depthwise_conv2d(xr, zr, stride=1, pad=0)
    return out.reshape(n, c, hx - hz + 1, wx - wz + 1)


def compile_extractor(model: Module, quant=None, calibration=None):
    """Compile a Siamese model's feature extractor (backbone + adjust).

    Returns a :class:`repro.nn.engine.CompiledNet` equivalent to
    ``model.extract`` in eval mode.  Exemplar and search crops have
    different static shapes, so the arena plans each shape once over
    the same slabs and both paths stay allocation-free after the first
    frame.

    ``quant``/``calibration`` select the integer-domain backend (see
    :func:`repro.nn.engine.compile_net`); calibrate on search-sized
    crops — the scales are per-tensor constants, so exemplar-sized
    inputs reuse them.
    """
    from ..nn.engine import compile_net
    from ..nn.module import Sequential

    was_training = model.training
    model.eval()
    net = compile_net(
        Sequential(model.backbone, model.adjust),
        name=f"{type(model).__name__}.extract",
        quant=quant,
        calibration=calibration,
    )
    if was_training:
        model.train()
    return net


class AdjustLayer(Module):
    """1x1 conv + BN + ReLU mapping backbone channels to tracker width.

    SiamRPN++ inserts exactly this 'neck' so backbones of different
    widths (AlexNet 256, ResNet-50 2048, SkyNet 96) feed an identical
    correlation head.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = default_rng(rng)
        self.conv = PWConv1x1(in_channels, out_channels, rng=rng)
        self.bn = BatchNorm2d(out_channels)
        self.relu = ReLU()
        self.out_channels = out_channels

    def forward(self, x: Tensor) -> Tensor:
        return self.relu(self.bn(self.conv(x)))

"""GOT-10K-protocol evaluation: run a tracker over sequences, score AO/SR.

Also provides the tracker *speed* model behind the FPS columns of
Tables 8/9: per-frame latency = backbone on the search window + head +
framework dispatch + tracking logic, evaluated with the 1080Ti roofline
model.  The dominant term for deep backbones on a fast desktop GPU is
per-layer dispatch overhead, which is why ResNet-50 (~175 kernel
launches at stride 8) tracks ~1.6x slower than SkyNet (~40 launches)
despite the GPU's huge FLOP headroom — exactly the effect the paper
exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..datasets.got10k import TrackingDataset
from ..hardware.descriptor import NetDescriptor, describe
from ..hardware.gpu.latency import GpuLatencyModel
from ..hardware.spec import GTX_1080TI, GpuSpec
from .metrics import TrackingScores, score_tracking

__all__ = ["run_tracker", "evaluate_tracker", "TrackerSpeedModel"]


def run_tracker(tracker, dataset: TrackingDataset) -> list[np.ndarray]:
    """Track every sequence (init on frame 0); returns per-seq boxes."""
    all_pred = []
    for seq in dataset:
        tracker.init(seq.frames[0], seq.boxes[0])
        pred = [seq.boxes[0].copy()]
        for t in range(1, len(seq)):
            pred.append(tracker.track(seq.frames[t]))
        all_pred.append(np.stack(pred))
    return all_pred


def evaluate_tracker(tracker, dataset: TrackingDataset) -> TrackingScores:
    """AO / SR@0.50 / SR@0.75 of ``tracker`` over ``dataset``."""
    pred = run_tracker(tracker, dataset)
    gt = [seq.boxes for seq in dataset]
    return score_tracking(pred, gt)


@dataclass(frozen=True)
class TrackerSpeedModel:
    """Model the FPS of a Siamese tracker on a desktop GPU (Tables 8/9).

    Parameters
    ----------
    spec:
        GPU spec (default 1080Ti, the paper's tracking device).
    search_hw:
        Search-window resolution at deployment (255 x 255 in the paper).
    dispatch_overhead_us:
        Per-layer framework dispatch cost (eager-mode PyTorch on the
        paper's stack), replacing the spec's bare kernel-launch figure.
    logic_overhead_ms:
        Fixed per-frame tracking logic (crop/resize, window penalty,
        box mapping) on the host.
    head_per_cell_us:
        Correlation + RPN head cost per response-map cell — stride-8
        backbones (SkyNet, dilated ResNet-50) correlate 32x32 maps,
        stride-16 AlexNet only 16x16, so head cost follows the feature
        stride.
    mask_base_ms / mask_per_channel_ms:
        Extra cost of the SiamMask branch: fixed part + a part scaling
        with the backbone's output width (the mask head consumes the
        full-width features).
    """

    spec: GpuSpec = GTX_1080TI
    search_hw: tuple[int, int] = (255, 255)
    dispatch_overhead_us: float = 95.0
    logic_overhead_ms: float = 16.0
    head_per_cell_us: float = 5.0
    mask_base_ms: float = 6.0
    mask_per_channel_ms: float = 0.006

    def backbone_ms(self, net: NetDescriptor) -> float:
        spec = replace(self.spec, kernel_overhead_us=self.dispatch_overhead_us)
        return GpuLatencyModel(spec, batch=1).network_latency_ms(net)

    def head_ms(self, backbone) -> float:
        stride = getattr(backbone, "stride", 8)
        cells = (self.search_hw[0] // stride) * (self.search_hw[1] // stride)
        return cells * self.head_per_cell_us / 1e3

    def fps(
        self,
        backbone,
        with_mask: bool = False,
    ) -> float:
        """Frames per second for a tracker built on ``backbone``.

        ``backbone`` is any module :func:`repro.hardware.describe`
        accepts, with ``out_channels`` and ``stride``.
        """
        net = describe(backbone, self.search_hw)
        total = (
            self.backbone_ms(net)
            + self.head_ms(backbone)
            + self.logic_overhead_ms
        )
        if with_mask:
            total += (
                self.mask_base_ms
                + self.mask_per_channel_ms * backbone.out_channels
            )
        return 1e3 / total

"""Sticky single-object track state: an IoU-gated EMA over the best box
of each frame, one per stream of a :class:`~repro.serve.StreamManager`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TrackState"]


class TrackState:
    """Session-affine single-object track state for one stream.

    Lives on the stream object, so track ids stay stable across worker
    crashes.  A detection within ``iou_threshold`` of the current
    (EMA-smoothed) box continues the track; anything else starts a
    fresh track id.  ``smooth`` is the EMA weight of the *old* box when
    a track continues (``0`` = take each detection verbatim).
    """

    IOU_THRESHOLD = 0.3  # default IoU gate
    SMOOTH = 0.6         # default EMA weight of the old box

    def __init__(self, iou_threshold: float = IOU_THRESHOLD,
                 smooth: float = SMOOTH) -> None:
        self.iou_threshold = iou_threshold
        self.smooth = smooth
        self.track_id = 0
        self.box: np.ndarray | None = None
        self.age = 0        # frames since this track started
        self.updates = 0    # lifetime updates across all tracks

    def update(self, box: np.ndarray) -> tuple[str, np.ndarray]:
        """Fold one cxcywh detection in; returns (event kind, box)."""
        from ..detection.boxes import box_iou, cxcywh_to_xyxy

        box = np.asarray(box, dtype=np.float64).reshape(-1)[:4]
        self.updates += 1
        if self.box is not None:
            iou = float(box_iou(cxcywh_to_xyxy(self.box),
                                cxcywh_to_xyxy(box)))
            if iou >= self.iou_threshold:
                self.box = self.smooth * self.box + (1 - self.smooth) * box
                self.age += 1
                return "track_update", self.box
        self.track_id += 1
        self.box = box.copy()
        self.age = 0
        return "track_new", self.box

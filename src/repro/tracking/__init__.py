"""Object tracking: Siamese trackers, GOT-10K evaluation (Section 7), and
the sticky per-stream :class:`TrackState`."""

from .anchors import RpnAnchors
from .evaluator import TrackerSpeedModel, evaluate_tracker, run_tracker
from .metrics import (
    TrackingScores,
    average_overlap,
    score_tracking,
    sequence_ious,
    success_curve,
    success_rate,
)
from .protocol import (
    ExperimentResult,
    load_predictions,
    run_experiment,
    score_experiment,
)
from .siamfc import SiamFC, SiamFCTracker, SiamFCTrainer
from .siamese import (
    EXEMPLAR_CONTEXT,
    SEARCH_CONTEXT,
    AdjustLayer,
    crop_and_resize,
    xcorr_depthwise,
)
from .siammask import MASK_SIZE, SiamMask, SiamMaskTracker, mask_to_box
from .siamrpn import EXEMPLAR_SIZE, SEARCH_SIZE, SiamRPN, SiamRPNTracker
from .track_state import TrackState
from .trainer import PairBatch, SiameseTrainer, TrackTrainConfig, sample_pairs

__all__ = [
    "RpnAnchors",
    "TrackerSpeedModel",
    "evaluate_tracker",
    "run_tracker",
    "TrackingScores",
    "average_overlap",
    "success_rate",
    "success_curve",
    "sequence_ious",
    "score_tracking",
    "AdjustLayer",
    "crop_and_resize",
    "xcorr_depthwise",
    "EXEMPLAR_CONTEXT",
    "SEARCH_CONTEXT",
    "ExperimentResult",
    "run_experiment",
    "score_experiment",
    "load_predictions",
    "SiamFC",
    "SiamFCTracker",
    "SiamFCTrainer",
    "SiamMask",
    "SiamMaskTracker",
    "MASK_SIZE",
    "mask_to_box",
    "SiamRPN",
    "SiamRPNTracker",
    "EXEMPLAR_SIZE",
    "SEARCH_SIZE",
    "TrackState",
    "PairBatch",
    "SiameseTrainer",
    "TrackTrainConfig",
    "sample_pairs",
]

"""Shared infrastructure for the benchmark harness.

Every ``bench_*.py`` file reproduces one table or figure of the paper
(see DESIGN.md's experiment index).  Training-based experiments run at a
laptop budget: small synthetic images, width-scaled models, few epochs —
the *shape* of each result (orderings, ratios, crossovers) is what is
reproduced, not the absolute numbers from the authors' testbed.  The
printed tables mirror the paper's rows; EXPERIMENTS.md records
paper-vs-measured values.

Heavy artifacts (datasets, the trained SkyNet) are cached per process so
benches can share them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core import SkyNetBackbone
from repro.datasets import make_dacsdc_splits, make_got10k, make_youtubevos
from repro.detection import (
    DetectionTrainer,
    Detector,
    TrainConfig,
    YoloHead,
)
from repro.detection.anchors import kmeans_anchors
from repro.hardware.descriptor import NetDescriptor, describe
from repro.utils import print_table  # noqa: F401  (re-export for benches)

# ---- shared budgets ---------------------------------------------------- #
IMAGE_HW = (48, 96)  # miniature of the contest's 160x360 input
CONTEST_HW = (160, 320)  # deployment resolution for the hardware models
TRAIN_N, VAL_N = 256, 64
DET_EPOCHS = 12
WIDTH = 0.25


@lru_cache(maxsize=None)
def detection_data(seed: int = 1):
    """The shared synthetic DAC-SDC split."""
    return make_dacsdc_splits(TRAIN_N, VAL_N, image_hw=IMAGE_HW, seed=seed)


@lru_cache(maxsize=None)
def fitted_anchors(seed: int = 1) -> tuple[tuple[float, float], ...]:
    train, _ = detection_data(seed)
    anchors = kmeans_anchors(
        train.boxes[:, 2:4], k=2, rng=np.random.default_rng(0)
    )
    return tuple(map(tuple, anchors))


def build_detector(backbone, anchors=None, seed: int = 0) -> Detector:
    anchors = np.asarray(anchors if anchors is not None else fitted_anchors())
    return Detector(
        backbone,
        head=YoloHead(backbone.out_channels, anchors,
                      rng=np.random.default_rng(seed + 1)),
    )


def train_detector(
    detector: Detector,
    epochs: int = DET_EPOCHS,
    seed: int = 0,
    augment: bool = False,
):
    """Train under the shared protocol; returns the TrainResult."""
    train, val = detection_data()
    trainer = DetectionTrainer(
        detector,
        TrainConfig(epochs=epochs, batch_size=16, augment=augment,
                    lr=2e-3, seed=seed),
    )
    return trainer.fit(train, val, rng=np.random.default_rng(seed))


@lru_cache(maxsize=None)
def trained_skynet():
    """One trained SkyNet-C (ReLU6) shared by Tables 5/6/7 benches.

    Returns (detector, final_iou).
    """
    bb = SkyNetBackbone("C", width_mult=WIDTH, rng=np.random.default_rng(0))
    det = build_detector(bb)
    result = train_detector(det, epochs=DET_EPOCHS)
    return det, result.final_iou


def contest_descriptor(backbone) -> NetDescriptor:
    """Backbone + head descriptor at deployment resolution."""
    head = YoloHead(backbone.out_channels, rng=np.random.default_rng(0))
    return describe(Detector(backbone, head), CONTEST_HW)


@lru_cache(maxsize=None)
def tracking_data(seed: int = 1):
    train = make_got10k(24, seq_len=10, image_hw=(64, 64), seed=seed)
    test = make_got10k(10, seq_len=10, image_hw=(64, 64), seed=seed + 100)
    return train, test


@lru_cache(maxsize=None)
def tracking_mask_data(seed: int = 2):
    return make_youtubevos(24, seq_len=10, image_hw=(64, 64), seed=seed)

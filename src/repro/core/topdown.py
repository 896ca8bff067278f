"""The conventional *top-down* design flow (Fig. 1) — the baseline.

The paper's motivation chapter describes the flow every previous DAC-SDC
winner followed:

1. select a reference DNN (concentrating on accuracy),
2. software compression — input resizing, pruning, quantization — with
   retraining to regain accuracy,
3. hardware optimization and evaluation on the target device,
4. iterate 2↔3 until both accuracy and performance targets are met
   (the "tedious iterative explorations" of Section 3),
5. deploy.

This module implements that loop faithfully so the bottom-up flow can be
compared against it under an equal budget
(``benchmarks/bench_flow_comparison.py``).  Each iteration tightens the
compression knobs along a schedule until the latency target is met, then
retrains to recover accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datasets.augment import resize_bilinear
from ..datasets.dacsdc import DetectionDataset
from ..detection.head import YoloHead
from ..detection.metrics import evaluate_detector
from ..detection.model import Detector
from ..detection.trainer import DetectionTrainer, TrainConfig
from ..hardware.descriptor import describe
from ..hardware.fpga.latency import FpgaLatencyModel
from ..hardware.pruning import magnitude_prune
from ..hardware.quantization import quantized_inference
from ..hardware.spec import ULTRA96, FpgaSpec
from ..utils.rng import default_rng, spawn

__all__ = ["CompressionState", "TopDownConfig", "TopDownFlow", "TopDownResult"]


@dataclass(frozen=True)
class CompressionState:
    """The software-compression knobs of step 2."""

    resize_factor: float = 1.0
    sparsity: float = 0.0
    w_bits: int | None = None
    fm_bits: int | None = None

    def describe(self) -> str:
        q = (
            "fp32"
            if self.w_bits is None
            else f"W{self.w_bits}/FM{self.fm_bits}"
        )
        return (
            f"resize={self.resize_factor:.2f}, sparsity={self.sparsity:.0%}, "
            f"{q}"
        )


@dataclass(frozen=True)
class TopDownConfig:
    """Budgets and the compression schedule.

    ``schedule`` is the sequence of increasingly aggressive compression
    states tried until the latency requirement is met — the iterative
    exploration of Fig. 1.
    """

    reference: str = "resnet18"
    width_mult: float = 0.25
    initial_epochs: int = 8
    retrain_epochs: int = 3
    latency_target_ms: float = 40.0
    schedule: tuple[CompressionState, ...] = (
        CompressionState(1.0, 0.0, None, None),
        CompressionState(1.0, 0.3, 12, 10),
        CompressionState(0.85, 0.5, 11, 9),
        CompressionState(0.75, 0.7, 10, 9),
        CompressionState(0.65, 0.8, 8, 8),
    )


@dataclass
class TopDownResult:
    """Outcome of the top-down loop."""

    detector: Detector
    state: CompressionState
    iou: float
    latency_ms: float
    iterations: int
    history: list[dict] = field(default_factory=list)
    met_target: bool = False


class TopDownFlow:
    """Run the Fig. 1 loop on a reference backbone.

    Parameters
    ----------
    train, val:
        Detection datasets.
    config:
        Reference DNN choice, budgets and compression schedule.
    fpga:
        Deployment target whose latency gates the loop.
    """

    def __init__(
        self,
        train: DetectionDataset,
        val: DetectionDataset,
        config: TopDownConfig | None = None,
        fpga: FpgaSpec = ULTRA96,
    ) -> None:
        self.train = train
        self.val = val
        self.config = config or TopDownConfig()
        self.fpga = fpga

    # ------------------------------------------------------------------ #
    def _resized(self, dataset: DetectionDataset, factor: float
                 ) -> DetectionDataset:
        if factor >= 0.999:
            return dataset
        h, w = dataset.image_hw
        stride = 8
        nh = max(stride, int(round(h * factor / stride)) * stride)
        nw = max(stride, int(round(w * factor / stride)) * stride)
        return DetectionDataset(
            resize_bilinear(dataset.images, (nh, nw)),
            dataset.boxes.copy(),
            dataset.categories,
            dataset.subcategories,
        )

    def _latency_ms(self, detector: Detector, state: CompressionState
                    ) -> float:
        h, w = self.val.image_hw
        h = max(8, int(round(h * state.resize_factor / 8)) * 8)
        w = max(8, int(round(w * state.resize_factor / 8)) * 8)
        desc = describe(detector.backbone, (h, w))
        model = FpgaLatencyModel(
            self.fpga,
            batch=1,
            w_bits=state.w_bits or 16,
            fm_bits=state.fm_bits or 16,
        )
        latency = model.per_frame_latency_ms(desc)
        # pruned MACs execute as skipped zero-weight lanes: model the
        # idealized linear win (an upper bound on real sparse speedup)
        return latency * (1.0 - 0.5 * state.sparsity)

    def _accuracy(self, detector: Detector, state: CompressionState) -> float:
        val = self._resized(self.val, state.resize_factor)
        with quantized_inference(detector, state.w_bits, state.fm_bits):
            return evaluate_detector(detector, val.images, val.boxes)

    # ------------------------------------------------------------------ #
    def run(self, rng: np.random.Generator | None = None) -> TopDownResult:
        """Execute steps 1-4 of Fig. 1."""
        rng = default_rng(rng)
        cfg = self.config

        # step 1: reference DNN, trained for accuracy
        from ..zoo.registry import build_backbone  # lazy: avoids cycle

        backbone = build_backbone(cfg.reference, width_mult=cfg.width_mult,
                                  rng=spawn(rng))
        detector = Detector(
            backbone, head=YoloHead(backbone.out_channels, rng=spawn(rng))
        )
        DetectionTrainer(
            detector,
            TrainConfig(epochs=cfg.initial_epochs, batch_size=16,
                        augment=False),
        ).fit(self.train, rng=spawn(rng))

        history: list[dict] = []
        best: TopDownResult | None = None
        for i, state in enumerate(cfg.schedule):
            # step 2: software compression (+ retraining to regain acc.)
            if state.sparsity > 0:
                mask = magnitude_prune(detector, state.sparsity)
                train = self._resized(self.train, state.resize_factor)
                trainer = DetectionTrainer(
                    detector,
                    TrainConfig(epochs=cfg.retrain_epochs, batch_size=16,
                                augment=False),
                )
                opt = trainer._make_optimizer()
                masked = mask.wrap_optimizer(opt)
                trainer._make_optimizer = lambda m=masked: m  # type: ignore
                trainer.fit(train, rng=spawn(rng))

            # step 3: hardware evaluation
            latency = self._latency_ms(detector, state)
            iou = self._accuracy(detector, state)
            met = latency <= cfg.latency_target_ms
            history.append(
                {
                    "iteration": i,
                    "state": state.describe(),
                    "iou": iou,
                    "latency_ms": latency,
                    "met_target": met,
                }
            )
            candidate = TopDownResult(
                detector=detector, state=state, iou=iou, latency_ms=latency,
                iterations=i + 1, history=history, met_target=met,
            )
            if met:
                return candidate  # step 4 satisfied -> deploy
            best = candidate

        assert best is not None
        return best  # budget exhausted without meeting the target

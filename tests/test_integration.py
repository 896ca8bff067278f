"""Cross-module integration tests: train → quantize → deploy → score."""

from __future__ import annotations

import numpy as np
import pytest

from repro.contest import GPU_2019, Submission, evaluate_submission, run_track
from repro.core import SkyNetBackbone
from repro.datasets import make_dacsdc_splits
from repro.detection import DetectionTrainer, Detector, TrainConfig, YoloHead
from repro.detection.anchors import kmeans_anchors
from repro.detection.metrics import evaluate_detector
from repro.hardware import TX2, ULTRA96, describe
from repro.hardware.quantization import quantized_inference
from repro.nn import save_model, load_model


@pytest.fixture(scope="module")
def trained_setup():
    """One trained tiny SkyNet shared by the integration tests."""
    train, val = make_dacsdc_splits(160, 32, image_hw=(48, 96), seed=21)
    anchors = kmeans_anchors(train.boxes[:, 2:4], k=2,
                             rng=np.random.default_rng(0))
    bb = SkyNetBackbone("C", width_mult=0.25, rng=np.random.default_rng(0))
    det = Detector(bb, head=YoloHead(bb.out_channels, anchors,
                                     rng=np.random.default_rng(1)))
    trainer = DetectionTrainer(
        det, TrainConfig(epochs=10, batch_size=16, augment=False, lr=2e-3)
    )
    result = trainer.fit(train, val)
    return det, train, val, result


class TestTrainedPipeline:
    def test_training_beats_untrained_baseline(self, trained_setup):
        det, train, val, result = trained_setup
        bb = SkyNetBackbone("C", width_mult=0.25,
                            rng=np.random.default_rng(99))
        untrained = Detector(
            bb, head=YoloHead(bb.out_channels, det.anchors,
                              rng=np.random.default_rng(100))
        )
        base_iou = evaluate_detector(untrained, val.images, val.boxes)
        assert result.final_iou > base_iou + 0.05

    def test_checkpoint_roundtrip_preserves_predictions(
        self, trained_setup, tmp_path
    ):
        det, _, val, _ = trained_setup
        before = det.predict(val.images[:4])
        bb2 = SkyNetBackbone("C", width_mult=0.25,
                             rng=np.random.default_rng(5))
        det2 = Detector(bb2, head=YoloHead(bb2.out_channels, det.anchors,
                                           rng=np.random.default_rng(6)))
        path = str(tmp_path / "skynet.npz")
        save_model(det, path)
        load_model(det2, path)
        after = det2.predict(val.images[:4])
        np.testing.assert_allclose(after, before, atol=1e-5)

    def test_quantization_table7_shape(self, trained_setup):
        """Post-training quantization loses little accuracy at 9/11 bits
        and more at 8/10 — the ordering of Table 7."""
        det, _, val, result = trained_setup
        float_iou = result.final_iou

        def quant_iou(fm_bits, w_bits):
            with quantized_inference(det, w_bits, fm_bits):
                return evaluate_detector(det, val.images, val.boxes)

        high = quant_iou(9, 11)
        low = quant_iou(4, 4)
        assert high > float_iou - 0.08  # small drop at scheme-1 widths
        assert low <= high + 0.02  # aggressive quantization is worse

    def test_contest_submission_flow(self, trained_setup):
        det, _, val, _ = trained_setup
        desc = describe(det, (160, 320))
        sub = evaluate_submission(det, val, desc, TX2, batch=4)
        assert 0.0 <= sub.iou <= 1.0
        assert sub.fps > 0 and sub.power_w > TX2.idle_w
        scored = run_track(sub, list(GPU_2019), "gpu")
        assert len(scored) == 3
        assert any("repro" in s.name for s in scored)

    def test_fpga_submission_flow(self, trained_setup):
        det, _, val, _ = trained_setup
        desc = describe(det.backbone, (160, 320))
        sub = evaluate_submission(
            det, val, desc, ULTRA96, batch=4, name="SkyNet-FPGA"
        )
        assert sub.fps > 0
        assert ULTRA96.idle_w < sub.power_w <= ULTRA96.peak_w


class TestMultiScaleTraining:
    def test_multiscale_path_runs(self):
        train, val = make_dacsdc_splits(24, 8, image_hw=(32, 64), seed=3)
        det = Detector(SkyNetBackbone("A", width_mult=0.125,
                                      rng=np.random.default_rng(0)))
        trainer = DetectionTrainer(
            det,
            TrainConfig(epochs=1, batch_size=8, augment=True,
                        multiscale=True),
        )
        result = trainer.fit(train, val)
        assert np.isfinite(result.losses[0])

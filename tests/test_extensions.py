"""Tests for the extension modules: NMS/postprocess, visualization,
dataset I/O, tracking protocol, ConvTranspose2d, and the CLI."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import SkyNetBackbone
from repro.datasets import (
    load_detection_dataset,
    load_tracking_dataset,
    make_dacsdc,
    make_got10k,
    make_youtubevos,
    save_detection_dataset,
    save_tracking_dataset,
)
from repro.detection import (
    DEFAULT_ANCHORS,
    ascii_scene,
    decode_detections,
    draw_box,
    draw_detections,
    nms,
)
from repro.nn import Tensor, gradcheck
from repro.nn import functional as F
from repro.nn.layers import ConvTranspose2d
from repro.tracking import (
    SiamRPN,
    SiamRPNTracker,
    run_experiment,
    score_experiment,
)


class TestNms:
    def test_keeps_nonoverlapping(self):
        boxes = np.array([[0.2, 0.2, 0.1, 0.1], [0.8, 0.8, 0.1, 0.1]])
        scores = np.array([0.9, 0.8])
        kept = nms(boxes, scores)
        assert set(kept.tolist()) == {0, 1}

    def test_suppresses_duplicates(self):
        boxes = np.array([[0.5, 0.5, 0.2, 0.2],
                          [0.51, 0.5, 0.2, 0.2],
                          [0.5, 0.49, 0.21, 0.2]])
        scores = np.array([0.9, 0.95, 0.5])
        kept = nms(boxes, scores, iou_threshold=0.5)
        assert kept.tolist() == [1]  # highest score survives

    def test_order_by_score(self):
        boxes = np.array([[0.2, 0.2, 0.1, 0.1], [0.8, 0.8, 0.1, 0.1]])
        kept = nms(boxes, np.array([0.3, 0.9]))
        assert kept.tolist() == [1, 0]

    def test_max_detections_cap(self):
        rng = np.random.default_rng(0)
        boxes = np.column_stack([
            rng.uniform(0.1, 0.9, 50), rng.uniform(0.1, 0.9, 50),
            np.full(50, 0.01), np.full(50, 0.01),
        ])
        kept = nms(boxes, rng.uniform(size=50), max_detections=5)
        assert len(kept) == 5

    def test_empty_input(self):
        assert len(nms(np.zeros((0, 4)), np.zeros(0))) == 0

    def test_degenerate_duplicates_suppressed(self):
        """Exact-duplicate zero-area boxes must suppress each other.

        Regression: their union is 0, and an unguarded inter/union IoU is
        0/0 = NaN, which compares false against any threshold — so every
        duplicate survived NMS.
        """
        boxes = np.array([[0.5, 0.5, 0.0, 0.0],
                          [0.5, 0.5, 0.0, 0.0],
                          [0.5, 0.5, 0.0, 0.0]])
        scores = np.array([0.9, 0.8, 0.7])
        kept = nms(boxes, scores, iou_threshold=0.5)
        assert kept.tolist() == [0]

    def test_degenerate_distinct_boxes_kept(self):
        """Zero-area boxes at different points do not overlap."""
        boxes = np.array([[0.2, 0.2, 0.0, 0.0], [0.8, 0.8, 0.0, 0.0]])
        kept = nms(boxes, np.array([0.9, 0.8]), iou_threshold=0.5)
        assert set(kept.tolist()) == {0, 1}

    def test_degenerate_line_overlap(self):
        """A zero-width box on the edge of a duplicate line suppresses
        it (nonempty point/line intersection counts as full overlap)."""
        boxes = np.array([[0.5, 0.5, 0.0, 0.2],   # vertical line
                          [0.5, 0.5, 0.0, 0.2]])  # same line
        kept = nms(boxes, np.array([0.9, 0.8]), iou_threshold=0.5)
        assert kept.tolist() == [0]

    def test_lone_degenerate_box_not_self_suppressed(self):
        """A kept box is retired before overlap scoring, so the
        degenerate full-overlap rule never compares it to itself."""
        boxes = np.array([[0.5, 0.5, 0.0, 0.0]])
        kept = nms(boxes, np.array([0.9]), iou_threshold=0.5)
        assert kept.tolist() == [0]

    def test_mixed_degenerate_and_regular(self):
        """Degenerate boxes inside a kept regular box: zero inter but
        positive union -> IoU 0 -> kept, matching the regular rule."""
        boxes = np.array([[0.5, 0.5, 0.4, 0.4],
                          [0.5, 0.5, 0.0, 0.0]])
        kept = nms(boxes, np.array([0.9, 0.8]), iou_threshold=0.5)
        assert set(kept.tolist()) == {0, 1}

    def test_validates(self):
        with pytest.raises(ValueError):
            nms(np.zeros((2, 4)), np.zeros(3))
        with pytest.raises(ValueError):
            nms(np.zeros((1, 4)), np.zeros(1), iou_threshold=2.0)

    def test_decode_detections_shapes(self, rng):
        raw = rng.normal(size=(2, 10, 4, 4))
        raw[:, 4] = 4.0  # strong objectness on anchor 0
        dets = decode_detections(raw, DEFAULT_ANCHORS, conf_threshold=0.5)
        assert len(dets) == 2
        for img_dets in dets:
            assert len(img_dets) >= 1
            for d in img_dets:
                assert d.box.shape == (4,)
                assert 0.0 < d.score <= 1.0

    def test_decode_respects_threshold(self, rng):
        raw = np.full((1, 10, 4, 4), -10.0)  # all conf ~ 0
        dets = decode_detections(raw, DEFAULT_ANCHORS, conf_threshold=0.5)
        assert dets[0] == []


class TestVisualize:
    def test_draw_box_marks_edges(self):
        img = np.zeros((3, 20, 20), dtype=np.float32)
        out = draw_box(img, np.array([0.5, 0.5, 0.5, 0.5]),
                       color=(1.0, 0.0, 0.0))
        assert out[0].max() == 1.0
        assert img.max() == 0.0  # original untouched

    def test_draw_detections_two_colors(self):
        img = np.zeros((3, 20, 20), dtype=np.float32)
        out = draw_detections(
            img,
            pred_cxcywh=np.array([0.3, 0.3, 0.2, 0.2]),
            gt_cxcywh=np.array([0.7, 0.7, 0.2, 0.2]),
        )
        assert out[0].max() == 1.0  # red prediction
        assert out[1].max() == 1.0  # green ground truth

    def test_ascii_scene_dimensions(self):
        img = np.full((3, 32, 64), 0.5, dtype=np.float32)
        art = ascii_scene(img, width=32)
        lines = art.splitlines()
        assert all(len(l) == 32 for l in lines)

    def test_ascii_scene_marks_corners(self):
        img = np.zeros((3, 32, 32), dtype=np.float32)
        art = ascii_scene(img, box_cxcywh=np.array([0.5, 0.5, 0.4, 0.4]))
        assert art.count("+") >= 3  # corners may collide at low res


class TestDatasetIO:
    def test_detection_roundtrip(self, tmp_path):
        ds = make_dacsdc(6, image_hw=(16, 32), seed=3)
        path = str(tmp_path / "det.npz")
        save_detection_dataset(ds, path)
        loaded = load_detection_dataset(path)
        np.testing.assert_array_equal(loaded.images, ds.images)
        np.testing.assert_array_equal(loaded.boxes, ds.boxes)
        np.testing.assert_array_equal(loaded.categories, ds.categories)

    def test_tracking_roundtrip(self, tmp_path):
        ds = make_got10k(3, seq_len=4, image_hw=(16, 16), seed=3)
        path = str(tmp_path / "trk.npz")
        save_tracking_dataset(ds, path)
        loaded = load_tracking_dataset(path)
        assert len(loaded) == 3
        np.testing.assert_array_equal(loaded[0].frames, ds[0].frames)
        assert loaded[0].masks is None
        assert loaded[1].name == ds[1].name

    def test_tracking_roundtrip_with_masks(self, tmp_path):
        ds = make_youtubevos(2, seq_len=3, image_hw=(16, 16), seed=3)
        path = str(tmp_path / "vos.npz")
        save_tracking_dataset(ds, path)
        loaded = load_tracking_dataset(path)
        np.testing.assert_array_equal(loaded[0].masks, ds[0].masks)


class TestTrackingProtocol:
    @pytest.fixture(scope="class")
    def experiment(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("results"))
        ds = make_got10k(3, seq_len=5, image_hw=(32, 32), seed=4)
        bb = SkyNetBackbone("C", width_mult=0.125,
                            rng=np.random.default_rng(0))
        tracker = SiamRPNTracker(
            SiamRPN(bb, feat_ch=8, rng=np.random.default_rng(1))
        )
        result_dir = run_experiment(tracker, ds, out, "test-tracker")
        return ds, result_dir

    def test_prediction_files_written(self, experiment):
        ds, result_dir = experiment
        files = [f for f in os.listdir(result_dir) if f.endswith(".txt")]
        assert len(files) == len(ds)

    def test_score_experiment(self, experiment):
        ds, result_dir = experiment
        result = score_experiment(ds, result_dir)
        assert 0.0 <= result.scores.ao <= 1.0
        assert result.n_sequences == 3
        report = os.path.join(result_dir, "report.json")
        with open(report) as fh:
            data = json.load(fh)
        assert "AO" in data and "success_curve" in data

    def test_missing_predictions_raise(self, experiment, tmp_path):
        ds, _ = experiment
        with pytest.raises(FileNotFoundError):
            score_experiment(ds, str(tmp_path), write_report=False)


class TestConvTranspose:
    def test_doubles_resolution(self, rng):
        layer = ConvTranspose2d(4, 2, kernel=4, stride=2, pad=1,
                                rng=np.random.default_rng(0))
        out = layer(Tensor(rng.uniform(size=(1, 4, 5, 7)).astype(np.float32)))
        assert out.shape == (1, 2, 10, 14)
        assert layer.out_size(5) == 10

    def test_adjoint_of_conv(self, rng):
        """<conv(x), y> == <x, convT(y)> with shared weights."""
        x = rng.normal(size=(2, 3, 5, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        y = F.conv2d(Tensor(x), Tensor(w), stride=2, pad=1).data
        g = rng.normal(size=y.shape)
        back = F.conv_transpose2d(Tensor(g), Tensor(w), stride=2, pad=1).data
        assert (y * g).sum() == pytest.approx((x * back).sum(), rel=1e-10)

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=True)
        assert gradcheck(
            lambda a, b: F.conv_transpose2d(a, b, stride=2, pad=1), [x, w]
        )

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError):
            F.conv_transpose2d(
                Tensor(rng.normal(size=(1, 3, 4, 4))),
                Tensor(rng.normal(size=(2, 3, 3, 3))),
            )


class TestCli:
    def test_profile(self, capsys):
        assert cli_main(["profile", "skynet", "--width", "0.5",
                         "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "params" in out and "TX2" in out
        assert "pwconv" in out  # --verbose prints every layer
        assert cli_main(["profile", "skynet", "--engine", "--batch", "2",
                         "--width", "0.125", "--height", "32",
                         "--input-width", "64", "--reps", "1"]) == 0
        assert "input (2, 3, 32, 64)" in capsys.readouterr().out

    def test_score(self, capsys):
        assert cli_main(["score", "--track", "fpga"]) == 0
        out = capsys.readouterr().out
        assert "SkyNet" in out and "1.52" in out

    def test_dataset_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "d.npz")
        assert cli_main(["dataset", "--kind", "dacsdc", "--n", "4",
                         "--out", out]) == 0
        assert os.path.exists(out)
        assert len(load_detection_dataset(out)) == 4

    def test_train_then_evaluate(self, tmp_path, capsys):
        from repro.obs import load_trace

        ckpt = str(tmp_path / "m.npz")
        ckpt_dir = str(tmp_path / "ckpts")
        train = ["train", "--images", "32", "--width", "0.125",
                 "--config", "B", "--activation", "relu", "--seed", "3",
                 "--out", ckpt]
        assert cli_main([*train, "--resume"]) == 2  # needs --checkpoint-dir
        trace = str(tmp_path / "train.jsonl")
        assert cli_main([*train, "--epochs", "1", "--checkpoint-dir",
                         ckpt_dir, "--trace", trace]) == 0
        assert os.path.exists(ckpt) and os.path.exists(ckpt + ".json")
        with open(ckpt + ".json") as fh:
            meta = json.load(fh)
        assert (meta["config"], meta["activation"]) == ("B", "relu")
        assert os.path.exists(os.path.join(ckpt_dir, "manifest.json"))
        assert any(r.get("name") == "train/fit" for r in load_trace(trace))
        # --resume restarts from the epoch-0 checkpoint, and says so.
        assert cli_main([*train, "--epochs", "2", "--checkpoint-dir",
                         ckpt_dir, "--resume", "--trace", trace]) == 0
        assert any(r.get("name") == "train/resumed" for r in load_trace(trace))
        assert cli_main(["evaluate", ckpt, "--images", "8",
                         "--seed", "5"]) == 0
        assert cli_main(["evaluate", ckpt, "--images", "8", "--seed", "5",
                         "--quantize", "8,8"]) == 0
        out = capsys.readouterr().out
        assert "IoU (fp32)" in out and "IoU (W8/FM8)" in out

    def test_search(self, capsys):
        assert cli_main(["search", "--images", "32", "--particles", "2",
                         "--iterations", "1", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "winner" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["fly-to-the-moon"])

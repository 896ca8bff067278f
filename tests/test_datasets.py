"""Tests for the synthetic datasets, renderer, stats, and augmentation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    DetectionDataset,
    SceneRenderer,
    augment_batch,
    color_distort,
    cumulative_fraction_below,
    make_dacsdc,
    make_dacsdc_splits,
    make_got10k,
    make_youtubevos,
    multiscale_size,
    random_crop,
    random_flip,
    relative_size_histogram,
    resize_bilinear,
    sample_area_ratio,
)
from repro.datasets.stats import AREA_RATIO_MU, AREA_RATIO_SIGMA


class TestStats:
    def test_fig6_quantiles_reproduced(self, rng):
        """The calibrated distribution must hit the paper's Fig. 6 numbers:
        31% of boxes below 1% of image area, 91% below 9%."""
        ratios = sample_area_ratio(50_000, rng)
        below_1pct = cumulative_fraction_below(ratios, 0.01)
        below_9pct = cumulative_fraction_below(ratios, 0.09)
        assert below_1pct == pytest.approx(0.31, abs=0.02)
        assert below_9pct == pytest.approx(0.91, abs=0.02)

    def test_parameters_solve_quantile_equations(self):
        from scipy.stats import norm

        # P(ln r < ln 0.01) == 0.31 and P(ln r < ln 0.09) == 0.91
        # under N(mu, sigma)
        z = (np.log(0.01) - AREA_RATIO_MU) / AREA_RATIO_SIGMA
        assert norm.cdf(z) == pytest.approx(0.31, abs=1e-6)
        z = (np.log(0.09) - AREA_RATIO_MU) / AREA_RATIO_SIGMA
        assert norm.cdf(z) == pytest.approx(0.91, abs=1e-6)

    def test_samples_clipped_to_plausible_range(self, rng):
        ratios = sample_area_ratio(10_000, rng)
        assert ratios.min() >= 4e-4
        assert ratios.max() <= 0.5

    def test_histogram_output(self, rng):
        ratios = sample_area_ratio(5000, rng)
        edges, frac, cum = relative_size_histogram(ratios)
        assert len(frac) == len(edges) - 1
        assert cum[-1] <= 1.0 + 1e-9
        assert (np.diff(cum) >= -1e-12).all()  # cumulative is monotone


class TestRenderer:
    def test_render_shapes_and_range(self, rng):
        r = SceneRenderer(image_hw=(32, 48))
        img, spec = r.render(rng=rng)
        assert img.shape == (3, 32, 48)
        assert img.dtype == np.float32
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_object_inside_frame(self, rng):
        r = SceneRenderer(image_hw=(48, 48))
        for _ in range(20):
            spec = r.sample_object(rng)
            assert spec.cx - spec.w / 2 >= -1e-9
            assert spec.cx + spec.w / 2 <= 1 + 1e-9
            assert spec.cy - spec.h / 2 >= -1e-9

    def test_object_contrasts_with_background(self, rng):
        """The target must be visually separable from its surroundings."""
        r = SceneRenderer(image_hw=(48, 64), clutter=0)
        diffs = []
        for _ in range(10):
            img, spec = r.render(rng=rng)
            mask = r._shape_mask(spec)
            inside = img[:, mask].mean(axis=1)
            outside = img[:, ~mask].mean(axis=1)
            diffs.append(np.abs(inside - outside).max())
        assert np.mean(diffs) > 0.15

    def test_all_shapes_renderable(self, rng):
        from dataclasses import replace

        r = SceneRenderer(image_hw=(32, 32))
        spec = r.sample_object(rng)
        for shape in ("rect", "ellipse", "cross", "triangle"):
            mask = r._shape_mask(replace(spec, shape=shape))
            assert mask.any()

    def test_unknown_shape_raises(self, rng):
        from dataclasses import replace

        r = SceneRenderer(image_hw=(16, 16))
        spec = replace(r.sample_object(rng), shape="dodecahedron")
        with pytest.raises(ValueError):
            r._shape_mask(spec)


class TestDacSdcDataset:
    def test_generation_shapes(self):
        ds = make_dacsdc(12, image_hw=(32, 64), seed=0)
        assert ds.images.shape == (12, 3, 32, 64)
        assert ds.boxes.shape == (12, 4)
        assert len(ds) == 12
        assert ds.image_hw == (32, 64)

    def test_deterministic_with_seed(self):
        a = make_dacsdc(4, image_hw=(16, 32), seed=42)
        b = make_dacsdc(4, image_hw=(16, 32), seed=42)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.boxes, b.boxes)

    def test_splits_disjoint(self):
        train, val = make_dacsdc_splits(8, 4, image_hw=(16, 32), seed=1)
        assert len(train) == 8 and len(val) == 4
        # different draws: the datasets should not share any image
        assert not np.array_equal(train.images[0], val.images[0])

    def test_boxes_normalized(self):
        ds = make_dacsdc(16, image_hw=(32, 64), seed=3)
        assert (ds.boxes >= 0).all() and (ds.boxes <= 1).all()

    def test_subset(self):
        ds = make_dacsdc(6, image_hw=(16, 32), seed=0)
        sub = ds.subset(np.array([0, 2]))
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.images[1], ds.images[2])

    def test_iter_batches_covers_all(self):
        ds = make_dacsdc(10, image_hw=(16, 32), seed=0)
        total = sum(len(imgs) for imgs, _ in ds.iter_batches(4, shuffle=False))
        assert total == 10

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DetectionDataset(np.zeros((3, 3, 8, 8)), np.zeros((2, 4)))


class TestAugment:
    def test_resize_bilinear_identity(self, rng):
        x = rng.uniform(size=(2, 3, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(resize_bilinear(x, (8, 8)), x)

    def test_resize_bilinear_constant_preserved(self):
        x = np.full((1, 1, 6, 6), 0.37, dtype=np.float32)
        out = resize_bilinear(x, (9, 13))
        np.testing.assert_allclose(out, 0.37, atol=1e-6)

    def test_flip_moves_box(self, rng):
        imgs = rng.uniform(size=(4, 3, 8, 8)).astype(np.float32)
        boxes = np.tile([0.2, 0.5, 0.1, 0.1], (4, 1))
        out_i, out_b = random_flip(imgs, boxes, rng, p=1.0)
        np.testing.assert_allclose(out_b[:, 0], 0.8)
        np.testing.assert_array_equal(out_i, imgs[:, :, :, ::-1])

    def test_flip_never(self, rng):
        imgs = rng.uniform(size=(2, 3, 4, 4)).astype(np.float32)
        boxes = np.tile([0.3, 0.5, 0.1, 0.1], (2, 1))
        out_i, out_b = random_flip(imgs, boxes, rng, p=0.0)
        np.testing.assert_array_equal(out_i, imgs)
        np.testing.assert_array_equal(out_b, boxes)

    def test_color_distort_bounded(self, rng):
        imgs = rng.uniform(size=(3, 3, 8, 8)).astype(np.float32)
        out = color_distort(imgs, rng)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert out.shape == imgs.shape

    def test_random_crop_keeps_box_valid(self, rng):
        imgs = rng.uniform(size=(6, 3, 16, 16)).astype(np.float32)
        boxes = np.tile([0.5, 0.5, 0.2, 0.2], (6, 1))
        out_i, out_b = random_crop(imgs, boxes, rng)
        assert out_i.shape == imgs.shape
        assert (out_b >= 0).all() and (out_b <= 1).all()
        # crop zooms in: box can only stay the same size or grow
        assert (out_b[:, 2] >= 0.2 - 1e-9).all()

    def test_multiscale_divisible(self, rng):
        for _ in range(10):
            h, w = multiscale_size((48, 96), rng, divisor=8)
            assert h % 8 == 0 and w % 8 == 0

    def test_augment_batch_pipeline(self, rng):
        imgs = rng.uniform(size=(4, 3, 16, 16)).astype(np.float32)
        boxes = np.tile([0.5, 0.5, 0.2, 0.2], (4, 1))
        out_i, out_b = augment_batch(imgs, boxes, rng)
        assert out_i.shape == imgs.shape
        assert out_b.shape == boxes.shape


class TestTrackingData:
    def test_sequence_shapes(self):
        ds = make_got10k(3, seq_len=5, image_hw=(32, 32), seed=0)
        assert len(ds) == 3
        seq = ds[0]
        assert seq.frames.shape == (5, 3, 32, 32)
        assert seq.boxes.shape == (5, 4)
        assert seq.masks is None
        assert ds.total_frames() == 15

    def test_trajectory_is_smooth(self):
        ds = make_got10k(2, seq_len=16, image_hw=(32, 32), seed=1)
        for seq in ds:
            steps = np.abs(np.diff(seq.boxes[:, :2], axis=0))
            assert steps.max() < 0.15  # no teleporting

    def test_boxes_stay_in_frame(self):
        ds = make_got10k(3, seq_len=10, image_hw=(32, 32), seed=2)
        for seq in ds:
            assert (seq.boxes >= 0).all() and (seq.boxes <= 1).all()

    def test_youtubevos_has_masks(self):
        ds = make_youtubevos(2, seq_len=4, image_hw=(24, 24), seed=0)
        seq = ds[0]
        assert seq.masks is not None
        assert seq.masks.shape == (4, 24, 24)
        assert seq.masks.dtype == bool

    def test_mask_consistent_with_box(self):
        ds = make_youtubevos(1, seq_len=4, image_hw=(48, 48), seed=3)
        seq = ds[0]
        for t in range(4):
            ys, xs = np.nonzero(seq.masks[t])
            if len(xs) == 0:
                continue
            cx, cy, w, h = seq.boxes[t]
            # mask pixels must lie within (a slightly padded) GT box
            assert xs.min() / 48 >= cx - w / 2 - 0.05
            assert xs.max() / 48 <= cx + w / 2 + 0.05

"""Cross-cutting property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.boxes import box_iou, cxcywh_to_xyxy
from repro.detection.postprocess import nms
from repro.hardware.fpga.resources import bram18_for_buffer, dsp_count
from repro.hardware.quantization import quantize_fixed
from repro.nn import Tensor
from repro.nn import functional as F


class TestTensorProperties:
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_reorg_roundtrips_through_gradient(self, c, h2, w2):
        """reorg is a permutation: grad of sum is exactly ones."""
        x = Tensor(
            np.random.default_rng(0).normal(size=(1, c, 2 * h2, 2 * w2)),
            requires_grad=True,
        )
        F.reorg(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, 1.0)

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=20),
        st.lists(st.floats(-5, 5), min_size=1, max_size=20),
    )
    @settings(max_examples=30, deadline=None)
    def test_add_commutes(self, a, b):
        n = min(len(a), len(b))
        ta, tb = Tensor(np.array(a[:n])), Tensor(np.array(b[:n]))
        np.testing.assert_allclose((ta + tb).data, (tb + ta).data)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_relu6_bounded(self, vals):
        out = Tensor(np.array(vals)).relu6().data
        assert (out >= 0).all() and (out <= 6).all()

    @given(st.integers(2, 5), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_maxpool_dominates_avgpool(self, h2, w2):
        x = Tensor(
            np.random.default_rng(1).normal(size=(1, 2, 2 * h2, 2 * w2))
        )
        mx = F.max_pool2d(x, 2).data
        av = F.avg_pool2d(x, 2).data
        assert (mx >= av - 1e-12).all()


class TestQuantizationProperties:
    @given(
        st.lists(
            st.floats(-100, 100).filter(lambda v: v == 0 or abs(v) > 1e-6),
            min_size=2, max_size=50,
        ),
        st.integers(6, 14),
    )
    @settings(max_examples=40, deadline=None)
    def test_quantization_preserves_sign_of_large_values(self, vals, bits):
        # values well above the LSB keep their sign (at >= 6 bits the
        # top half of the dynamic range is always representable)
        x = np.array(vals)
        q = quantize_fixed(x, bits)
        max_abs = np.abs(x).max()
        if max_abs == 0:
            return
        big = np.abs(x) > max_abs / 2
        assert (np.sign(q[big]) == np.sign(x[big])).all()

    @given(st.integers(4, 16))
    @settings(max_examples=13, deadline=None)
    def test_quantization_idempotent_any_bits(self, bits):
        x = np.random.default_rng(0).normal(size=100)
        q1 = quantize_fixed(x, bits)
        np.testing.assert_allclose(quantize_fixed(q1, bits), q1, atol=1e-12)


class TestHardwareProperties:
    @given(st.integers(1, 512), st.integers(2, 27), st.integers(2, 18))
    @settings(max_examples=50, deadline=None)
    def test_dsp_count_monotone_in_lanes(self, lanes, w, fm):
        assert dsp_count(lanes + 1, w, fm) >= dsp_count(lanes, w, fm)

    @given(st.integers(1, 100_000), st.integers(1, 32))
    @settings(max_examples=50, deadline=None)
    def test_bram_monotone_in_depth(self, depth, bits):
        assert bram18_for_buffer(depth + 1, bits) >= bram18_for_buffer(
            depth, bits
        )

    @given(st.integers(1, 100_000), st.integers(1, 32))
    @settings(max_examples=50, deadline=None)
    def test_pow2_rounding_at_most_doubles(self, depth, bits):
        exact = bram18_for_buffer(depth, bits, pow2_depth=False)
        rounded = bram18_for_buffer(depth, bits, pow2_depth=True)
        assert exact <= rounded <= 2 * exact + 1


class TestNmsProperties:
    @given(st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_kept_boxes_mutually_dissimilar(self, n):
        rng = np.random.default_rng(n)
        boxes = np.column_stack(
            [rng.uniform(0.2, 0.8, n), rng.uniform(0.2, 0.8, n),
             rng.uniform(0.05, 0.3, n), rng.uniform(0.05, 0.3, n)]
        )
        scores = rng.uniform(size=n)
        kept = nms(boxes, scores, iou_threshold=0.5)
        xy = cxcywh_to_xyxy(boxes[kept])
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert box_iou(xy[i], xy[j]) <= 0.5 + 1e-9

    @given(st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_highest_scorer_always_kept(self, n):
        rng = np.random.default_rng(n + 100)
        boxes = np.column_stack(
            [rng.uniform(0.2, 0.8, n), rng.uniform(0.2, 0.8, n),
             rng.uniform(0.05, 0.3, n), rng.uniform(0.05, 0.3, n)]
        )
        scores = rng.uniform(size=n)
        kept = nms(boxes, scores)
        assert int(np.argmax(scores)) in kept.tolist()

"""Tests for the conv/pool/norm/loss primitives, including gradchecks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.im2col import col2im, conv_out_size, im2col

from .conftest import numerical_gradient


class TestIm2col:
    def test_out_size(self):
        assert conv_out_size(5, 3, 1, 1) == 5
        assert conv_out_size(6, 2, 2, 0) == 3
        assert conv_out_size(7, 3, 2, 1) == 4

    def test_im2col_shape(self, rng):
        x = rng.normal(size=(2, 3, 5, 6))
        cols = im2col(x, 3, 3, stride=1, pad=1)
        assert cols.shape == (2, 27, 30)

    def test_im2col_values_match_naive(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        cols = im2col(x, 2, 2, stride=2, pad=0)
        # first window is the top-left 2x2 patch
        np.testing.assert_allclose(
            cols[0, :, 0], x[0, 0, :2, :2].ravel()
        )

    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
        x = rng.normal(size=(2, 3, 6, 6))
        cols = im2col(x, 3, 3, stride=2, pad=1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = col2im(y, x.shape, 3, 3, stride=2, pad=1)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestConv2d:
    def test_matches_naive_convolution(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, pad=1).data
        # naive reference at one output location
        i, j = 2, 2
        patch = x[0, :, i - 1 : i + 2, j - 1 : j + 2]
        for co in range(3):
            assert out[0, co, i, j] == pytest.approx(
                float((patch * w[co]).sum()), rel=1e-5
            )

    def test_stride_and_pad_shapes(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 10)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        assert F.conv2d(x, w, stride=2, pad=1).shape == (2, 4, 4, 5)
        assert F.conv2d(x, w, stride=1, pad=0).shape == (2, 4, 6, 8)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        w = Tensor(rng.normal(size=(2, 4, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv2d(x, w)

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        out = F.conv2d(x, w, b, stride=2, pad=1)
        (out * out).sum().backward()

        def f():
            o = F.conv2d(x.detach(), w.detach(), b.detach(), 2, 1).data
            return float((o * o).sum())

        for t in (x, w, b):
            num = numerical_gradient(f, t.data)
            np.testing.assert_allclose(t.grad, num, atol=1e-4)

    def test_pointwise_fast_path_gradcheck(self, rng):
        """1x1/s1/p0 convs skip im2col; gradients must still be exact."""
        x = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 1, 1)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        out = F.conv2d(x, w, b, stride=1, pad=0)
        (out * out).sum().backward()

        def f():
            o = F.conv2d(x.detach(), w.detach(), b.detach(), 1, 0).data
            return float((o * o).sum())

        for t in (x, w, b):
            num = numerical_gradient(f, t.data)
            np.testing.assert_allclose(t.grad, num, atol=1e-4)

    def test_pointwise_fast_path_matches_einsum(self, rng):
        x = rng.normal(size=(2, 3, 6, 7))
        w = rng.normal(size=(5, 3, 1, 1))
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, pad=0).data
        ref = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
        np.testing.assert_allclose(out, ref, atol=1e-10)


class TestDepthwiseConv:
    def test_each_channel_independent(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        w = np.zeros((2, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0  # identity kernel on channel 0
        out = F.depthwise_conv2d(Tensor(x), Tensor(w), pad=1).data
        np.testing.assert_allclose(out[0, 0], x[0, 0], rtol=1e-6)
        np.testing.assert_allclose(out[0, 1], 0.0, atol=1e-12)

    def test_bad_weight_shape_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        with pytest.raises(ValueError):
            F.depthwise_conv2d(x, Tensor(rng.normal(size=(4, 1, 3, 3))))

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 1, 3, 3)), requires_grad=True)
        (F.depthwise_conv2d(x, w, stride=1, pad=1) ** 2).sum().backward()

        def f():
            o = F.depthwise_conv2d(x.detach(), w.detach(), None, 1, 1).data
            return float((o**2).sum())

        for t in (x, w):
            np.testing.assert_allclose(
                t.grad, numerical_gradient(f, t.data), atol=1e-4
            )

    def test_rectangular_kernel(self, rng):
        """Tracking xcorr relies on non-square depthwise kernels."""
        x = Tensor(rng.normal(size=(1, 2, 6, 8)))
        w = Tensor(rng.normal(size=(2, 1, 3, 5)))
        out = F.depthwise_conv2d(x, w, stride=1, pad=0)
        assert out.shape == (1, 2, 4, 4)


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2).data
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_grad_routes_to_argmax(self):
        x = Tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4),
                   requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        np.testing.assert_allclose(x.grad[0, 0], expected)

    def test_avgpool(self):
        x = np.ones((1, 2, 4, 4))
        out = F.avg_pool2d(Tensor(x), 2).data
        np.testing.assert_allclose(out, np.ones((1, 2, 2, 2)))

    def test_avgpool_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        (F.avg_pool2d(x, 2) ** 2).sum().backward()

        def f():
            return float((F.avg_pool2d(x.detach(), 2).data ** 2).sum())

        np.testing.assert_allclose(
            x.grad, numerical_gradient(f, x.data), atol=1e-5
        )

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        out = F.global_avg_pool2d(Tensor(x)).data
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)), rtol=1e-6)


class TestBatchNorm:
    def _bn_args(self, c):
        return (
            Tensor(np.ones(c), requires_grad=True),
            Tensor(np.zeros(c), requires_grad=True),
            np.zeros(c),
            np.ones(c),
        )

    def test_training_normalizes(self, rng):
        x = Tensor(rng.normal(3.0, 2.0, size=(8, 4, 5, 5)))
        g, b, rm, rv = self._bn_args(4)
        out = F.batch_norm2d(x, g, b, rm, rv, training=True).data
        assert abs(out.mean()) < 1e-6
        assert out.std() == pytest.approx(1.0, abs=1e-3)

    def test_running_stats_updated(self, rng):
        x = Tensor(rng.normal(5.0, 1.0, size=(16, 2, 4, 4)))
        g, b, rm, rv = self._bn_args(2)
        F.batch_norm2d(x, g, b, rm, rv, training=True, momentum=1.0)
        np.testing.assert_allclose(rm, x.data.mean(axis=(0, 2, 3)), rtol=1e-5)

    def test_eval_uses_running_stats(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 3, 3)))
        g, b, rm, rv = self._bn_args(2)
        rm[:] = 1.0
        rv[:] = 4.0
        out = F.batch_norm2d(x, g, b, rm, rv, training=False).data
        expected = (x.data - 1.0) / np.sqrt(4.0 + 1e-5)
        np.testing.assert_allclose(out, expected, rtol=1e-5)

    def test_training_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        g = Tensor(rng.normal(size=2) + 1.0, requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)

        def f():
            rm, rv = np.zeros(2), np.ones(2)
            o = F.batch_norm2d(
                x.detach(), g.detach(), b.detach(), rm, rv, True
            ).data
            return float((o**3).sum())

        rm, rv = np.zeros(2), np.ones(2)
        out = F.batch_norm2d(x, g, b, rm, rv, True)
        (out * out * out).sum().backward()
        for t in (x, g, b):
            np.testing.assert_allclose(
                t.grad, numerical_gradient(f, t.data), atol=1e-3
            )


class TestReorgAndUpsample:
    def test_reorg_shape_and_losslessness(self, rng):
        x = rng.normal(size=(1, 3, 4, 6))
        out = F.reorg(Tensor(x), 2).data
        assert out.shape == (1, 12, 2, 3)
        # every input value must appear exactly once
        np.testing.assert_allclose(
            np.sort(out.ravel()), np.sort(x.ravel())
        )

    def test_reorg_rejects_odd_dims(self):
        with pytest.raises(ValueError):
            F.reorg(Tensor(np.zeros((1, 1, 3, 4))), 2)

    def test_reorg_grad_is_inverse_permutation(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        out = F.reorg(x, 2)
        g = rng.normal(size=out.shape)
        out.backward(g)
        # permutation: gradient values are exactly g's values, rearranged
        np.testing.assert_allclose(
            np.sort(x.grad.ravel()), np.sort(g.ravel())
        )

    def test_upsample_nearest(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), requires_grad=True)
        y = F.upsample_nearest(x, 2)
        assert y.shape == (1, 1, 4, 4)
        assert y.data[0, 0, 0, 1] == 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 2, 2), 4.0))


class TestLosses:
    def test_log_softmax_consistency(self, rng):
        x = rng.normal(size=(3, 5))
        e = np.exp(x)
        np.testing.assert_allclose(
            F.log_softmax(Tensor(x)).data,
            np.log(e / e.sum(axis=1, keepdims=True)), rtol=1e-5
        )

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((2, 4)), requires_grad=True)
        loss = F.cross_entropy(logits, np.array([0, 3]))
        assert loss.item() == pytest.approx(np.log(4.0), rel=1e-6)

    def test_bce_logits_matches_reference(self, rng):
        x = rng.normal(size=(5,))
        t = (rng.uniform(size=5) > 0.5).astype(float)
        loss = F.binary_cross_entropy_with_logits(Tensor(x), t).item()
        p = 1 / (1 + np.exp(-x))
        ref = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
        assert loss == pytest.approx(ref, rel=1e-6)

    def test_bce_logits_stable_at_extremes(self):
        x = Tensor([100.0, -100.0])
        loss = F.binary_cross_entropy_with_logits(x, np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

"""Tests for the layer library (conv, norm, pooling, reorg, activations)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware import describe
from repro.nn import Sequential, Tensor
from repro.nn.init import fan_in_out, kaiming_normal, kaiming_uniform
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    DWConv3x3,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    PWConv1x1,
    ReLU6,
    Reorg,
    UpsampleNearest,
    make_activation,
)
from repro.nn.quant_hooks import set_fm_hook


class TestConvLayers:
    def test_conv2d_same_padding_default(self, rng):
        conv = Conv2d(3, 8, kernel=3, rng=rng)
        out = conv(Tensor(rng.normal(size=(2, 3, 10, 12))))
        assert out.shape == (2, 8, 10, 12)

    def test_conv2d_no_bias(self, rng):
        conv = Conv2d(3, 8, bias=False, rng=rng)
        assert conv.bias is None
        assert len(conv.parameters()) == 1

    def test_conv2d_macs(self):
        conv = Conv2d(3, 8, kernel=3, stride=1)
        assert describe(conv, (10, 10)).total_macs == 10 * 10 * 8 * 3 * 9

    def test_dwconv_shape_and_macs(self, rng):
        dw = DWConv3x3(6, rng=rng)
        out = dw(Tensor(rng.normal(size=(1, 6, 8, 8))))
        assert out.shape == (1, 6, 8, 8)
        assert describe(dw, (8, 8)).total_macs == 8 * 8 * 6 * 9

    def test_dwconv_stride(self, rng):
        dw = DWConv3x3(4, stride=2, rng=rng)
        out = dw(Tensor(rng.normal(size=(1, 4, 8, 8))))
        assert out.shape == (1, 4, 4, 4)

    def test_pwconv_is_1x1(self, rng):
        pw = PWConv1x1(4, 16, rng=rng)
        assert pw.kernel == 1 and pw.pad == 0
        out = pw(Tensor(rng.normal(size=(1, 4, 5, 7))))
        assert out.shape == (1, 16, 5, 7)

    def test_dw_pw_factorization_cheaper_than_dense(self):
        """The Bundle's raison d'etre: DW+PW uses far fewer MACs."""
        dense = Conv2d(64, 128, kernel=3)
        bundle = Sequential(DWConv3x3(64), PWConv1x1(64, 128))
        assert (describe(bundle, (16, 16)).total_macs
                < describe(dense, (16, 16)).total_macs / 5)

    @pytest.mark.parametrize("pad,expect_hw", [
        (None, (10, 12)),  # 'same' for kernel 3
        (1, (10, 12)),     # explicit value of 'same'
        (0, (8, 10)),      # valid convolution
    ])
    def test_grouped_conv_pad_consistency(self, pad, expect_hw, rng):
        """Regression: pad=None ('same') and the equivalent explicit pad
        must produce identical shapes, and pad=0 must not be silently
        promoted to 'same' by any per-group sub-conv."""
        from repro.nn.layers import GroupedConv2d

        conv = GroupedConv2d(6, 8, kernel=3, groups=2, pad=pad, rng=rng)
        resolved = 1 if pad is None else pad
        assert conv.pad == resolved
        assert all(sub.pad == resolved for sub in conv.convs)
        out = conv(Tensor(rng.normal(size=(2, 6, 10, 12))))
        assert out.shape == (2, 8, *expect_hw)

    def test_grouped_conv_same_pad_matches_explicit(self, rng):
        """pad=None and pad=k//2 are byte-identical, not just same-shape."""
        from repro.nn.layers import GroupedConv2d

        a = GroupedConv2d(4, 4, kernel=3, groups=2, pad=None,
                          rng=np.random.default_rng(5))
        b = GroupedConv2d(4, 4, kernel=3, groups=2, pad=1,
                          rng=np.random.default_rng(5))
        x = rng.normal(size=(1, 4, 6, 6))
        np.testing.assert_array_equal(a(Tensor(x)).data, b(Tensor(x)).data)


class TestNormAndPool:
    def test_bn_fold_scale_shift_matches_eval(self, rng):
        bn = BatchNorm2d(3)
        bn.running_mean[:] = rng.normal(size=3)
        bn.running_var[:] = rng.uniform(0.5, 2.0, size=3)
        bn.gamma.data = rng.normal(size=3).astype(np.float32)
        bn.beta.data = rng.normal(size=3).astype(np.float32)
        bn.eval()
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        out = bn(Tensor(x)).data
        scale, shift = bn.fold_scale_shift()
        ref = x * scale.reshape(1, 3, 1, 1) + shift.reshape(1, 3, 1, 1)
        np.testing.assert_allclose(out, ref, rtol=1e-4)

    def test_maxpool_layer(self, rng):
        out = MaxPool2d(2)(Tensor(rng.normal(size=(1, 2, 6, 8))))
        assert out.shape == (1, 2, 3, 4)

    def test_avgpool_layer(self, rng):
        out = AvgPool2d(2)(Tensor(np.ones((1, 2, 4, 4))))
        np.testing.assert_allclose(out.data, np.ones((1, 2, 2, 2)))

    def test_global_avg_pool_layer(self, rng):
        out = GlobalAvgPool2d()(Tensor(rng.normal(size=(3, 5, 2, 2))))
        assert out.shape == (3, 5)


class TestReorgLayer:
    def test_reorg_channel_multiplication(self, rng):
        out = Reorg(2)(Tensor(rng.normal(size=(1, 3, 8, 8))))
        assert out.shape == (1, 12, 4, 4)

    def test_reorg_preserves_information(self, rng):
        """Fig. 5: no information loss, unlike pooling."""
        x = rng.normal(size=(1, 2, 4, 4))
        out = Reorg(2)(Tensor(x)).data
        assert set(np.round(out.ravel(), 6)) == set(np.round(x.ravel(), 6))

    def test_upsample_layer(self):
        out = UpsampleNearest(3)(Tensor(np.ones((1, 1, 2, 2))))
        assert out.shape == (1, 1, 6, 6)


class TestActivations:
    def test_relu6_caps_at_six(self):
        out = ReLU6()(Tensor(np.array([-2.0, 3.0, 100.0])))
        np.testing.assert_allclose(out.data, [0.0, 3.0, 6.0])

    def test_relu6_bounded_range_helps_quantization(self, rng):
        """The Section 5.2 argument: ReLU6 output needs fewer int bits."""
        x = rng.normal(0, 50, size=1000)
        relu6_out = np.clip(x, 0, 6)
        relu_out = np.maximum(x, 0)
        assert relu6_out.max() <= 6.0
        assert relu_out.max() > 6.0

    def test_make_activation(self):
        for name in ("relu", "relu6", "leaky_relu", "sigmoid", "tanh"):
            act = make_activation(name)
            out = act(Tensor(np.array([0.5])))
            assert out.shape == (1,)

    def test_make_activation_unknown(self):
        with pytest.raises(ValueError, match="unknown activation"):
            make_activation("gelu9000")

    def test_fm_hook_applied(self):
        set_fm_hook(lambda a: np.round(a))
        try:
            out = ReLU6()(Tensor(np.array([1.4, 2.6])))
            np.testing.assert_allclose(out.data, [1.0, 3.0])
        finally:
            set_fm_hook(None)

    def test_fm_hook_cleared(self):
        out = ReLU6()(Tensor(np.array([1.4])))
        np.testing.assert_allclose(out.data, [1.4], rtol=1e-6)


class TestLinearAndFlatten:
    def test_linear_shapes(self, rng):
        lin = Linear(6, 3, rng=rng)
        out = lin(Tensor(rng.normal(size=(5, 6))))
        assert out.shape == (5, 3)
        assert describe(lin, (1, 1)).total_macs == 18

    def test_flatten(self, rng):
        out = Flatten()(Tensor(rng.normal(size=(2, 3, 4, 5))))
        assert out.shape == (2, 60)


class TestInit:
    def test_fan_in_out(self):
        assert fan_in_out((8, 4)) == (4, 8)
        assert fan_in_out((16, 8, 3, 3)) == (72, 144)
        with pytest.raises(ValueError):
            fan_in_out((2, 2, 2))

    def test_kaiming_normal_std(self, rng):
        w = kaiming_normal((256, 128, 3, 3), rng)
        expected = np.sqrt(2.0 / (128 * 9))
        assert w.std() == pytest.approx(expected, rel=0.05)

    def test_kaiming_uniform_bound(self, rng):
        w = kaiming_uniform((64, 32), rng)
        bound = np.sqrt(2.0) * np.sqrt(3.0 / 32)
        assert np.abs(w).max() <= bound

    def test_deterministic_given_rng(self):
        w1 = kaiming_normal((4, 4), np.random.default_rng(5))
        w2 = kaiming_normal((4, 4), np.random.default_rng(5))
        np.testing.assert_array_equal(w1, w2)

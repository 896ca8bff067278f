"""Tests for the HLS characterization, TensorRT/fp16 deployment,
grouped conv, and the public gradcheck utility."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SkyNetBackbone
from repro.detection import Detector
from repro.hardware.fpga import (
    DEFAULT_DESIGN_SPACE,
    IPConfig,
    best_configuration,
    characterization_sweep,
    characterize_ip,
)
from repro.hardware.gpu import (
    GpuLatencyModel,
    TrtDeployment,
    fp16_inference,
    simulate_fp16,
)
from repro.hardware import describe
from repro.hardware.spec import PYNQ_Z1, TX2, ULTRA96
from repro.nn import Tensor, gradcheck
from repro.nn import functional as F
from repro.nn.layers import Conv2d, GroupedConv2d


class TestHlsCharacterization:
    def test_report_fields_positive(self):
        report = characterize_ip(IPConfig(16, 8))
        assert report.dsp > 0
        assert report.bram36 > 0
        assert report.lut > 0
        assert report.reference_cycles > 0
        assert report.throughput_gmacs > 0

    def test_throughput_scales_with_lanes(self):
        small = characterize_ip(IPConfig(8, 4))
        large = characterize_ip(IPConfig(32, 16))
        assert large.throughput_gmacs > small.throughput_gmacs
        assert large.dsp > small.dsp

    def test_sweep_covers_design_space(self):
        reports = characterization_sweep()
        assert len(reports) == len(DEFAULT_DESIGN_SPACE)

    def test_best_configuration_fits(self):
        for spec in (ULTRA96, PYNQ_Z1):
            best = best_configuration(spec)
            assert best.fits(spec)

    def test_best_configuration_is_throughput_optimal(self):
        best = best_configuration(ULTRA96)
        for r in characterization_sweep():
            if r.fits(ULTRA96):
                assert best.throughput_gmacs >= r.throughput_gmacs

    def test_bigger_device_no_worse(self):
        assert (
            best_configuration(ULTRA96).throughput_gmacs
            >= best_configuration(PYNQ_Z1).throughput_gmacs
        )

    def test_precision_affects_dsp_budget(self):
        wide = characterize_ip(IPConfig(32, 16, w_bits=16, fm_bits=16))
        narrow = characterize_ip(IPConfig(32, 16, w_bits=11, fm_bits=9))
        assert narrow.dsp < wide.dsp  # packing kicks in


class TestTensorRT:
    def _net(self):
        return describe(SkyNetBackbone("C"), (160, 320))

    def test_fp16_faster_than_fp32(self):
        net = self._net()
        trt = TrtDeployment(TX2, fp16=True, fused=True)
        assert trt.speedup_over_fp32(net) > 1.2

    def test_fusion_alone_helps(self):
        net = self._net()
        fused_only = TrtDeployment(TX2, fp16=False, fused=True)
        assert fused_only.speedup_over_fp32(net) > 1.0

    def test_engine_spec_transforms(self):
        trt = TrtDeployment(TX2, fp16=True, fused=True)
        engine = trt.engine_spec()
        assert engine.peak_gflops == pytest.approx(2 * TX2.peak_gflops)
        assert engine.kernel_overhead_us < TX2.kernel_overhead_us

    def test_latency_model_precision_bytes(self):
        trt = TrtDeployment(TX2, fp16=True)
        assert trt.latency_model().precision_bytes == 2.0
        assert TrtDeployment(TX2, fp16=False).latency_model(
        ).precision_bytes == 4.0

    def test_simulate_fp16_rounding(self):
        x = np.array([1.0 + 2**-12], dtype=np.float32)
        out = simulate_fp16(x)
        assert out[0] == pytest.approx(1.0)  # beyond fp16 mantissa
        assert out.dtype == np.float32

    def test_fp16_inference_restores_weights(self, rng):
        det = Detector(SkyNetBackbone("A", width_mult=0.125, rng=rng))
        before = {n: p.data.copy() for n, p in det.named_parameters()}
        x = rng.uniform(size=(1, 3, 16, 32)).astype(np.float32)
        with fp16_inference(det):
            out = det.predict(x)
        assert out.shape == (1, 4)
        for n, p in det.named_parameters():
            np.testing.assert_array_equal(p.data, before[n])

    def test_fp16_accuracy_nearly_lossless(self, rng):
        """fp16 is the GPU track's 'free' optimization: predictions all
        but coincide with fp32."""
        det = Detector(SkyNetBackbone("A", width_mult=0.25,
                                      rng=np.random.default_rng(3)))
        x = rng.uniform(size=(4, 3, 16, 32)).astype(np.float32)
        clean = det.predict(x)
        with fp16_inference(det):
            half = det.predict(x)
        np.testing.assert_allclose(half, clean, atol=0.02)

    @pytest.mark.parametrize("train_mode", [False, True])
    def test_fp16_inference_pins_the_eager_backend(self, train_mode):
        """The compiled engine skips the feature-map hook (and a cached
        session holds fp32 weights), so inside the context ``predict``
        must run the eager fp16 simulation; afterwards, fp32 again."""
        from repro.runtime import SessionConfig

        det = Detector(SkyNetBackbone("A", width_mult=0.25,
                                      rng=np.random.default_rng(3)))
        det.train(train_mode)
        x = np.random.default_rng(4).uniform(
            size=(4, 3, 16, 32)).astype(np.float32)
        clean = det.predict(x)  # eval mode: caches an engine session
        with fp16_inference(det):
            half = det.predict(x)
            eager = det.predict(x, SessionConfig(backend="eager"))
        np.testing.assert_array_equal(half, eager)
        assert np.abs(half - clean).max() > 0.0
        np.testing.assert_array_equal(det.predict(x), clean)
        assert det.training == train_mode


class TestGroupedConv:
    def test_shapes(self, rng):
        conv = GroupedConv2d(8, 16, kernel=3, groups=2, rng=rng)
        out = conv(Tensor(rng.uniform(size=(2, 8, 6, 6)).astype(np.float32)))
        assert out.shape == (2, 16, 6, 6)

    def test_param_reduction(self):
        dense = Conv2d(16, 32, 3)
        grouped = GroupedConv2d(16, 32, 3, groups=4)
        assert grouped.num_parameters() < dense.num_parameters() / 3

    def test_groups_independent(self, rng):
        conv = GroupedConv2d(4, 4, kernel=1, groups=2, bias=False,
                             rng=np.random.default_rng(0))
        x = np.zeros((1, 4, 2, 2), dtype=np.float32)
        x[0, :2] = 1.0  # only group 0 gets input
        out = conv(Tensor(x)).data
        assert np.abs(out[0, 2:]).max() == 0.0  # group 1 output untouched

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ValueError):
            GroupedConv2d(6, 8, groups=4)

    def test_macs(self):
        grouped = describe(GroupedConv2d(8, 8, kernel=3, groups=2), (4, 4))
        dense = describe(Conv2d(8, 8, kernel=3), (4, 4))
        assert grouped.total_macs == dense.total_macs // 2

    def test_describe_reads_width_off_the_channel_slices(self):
        """The trace starts with the group slices, not a weight."""
        desc = describe(GroupedConv2d(8, 8, groups=2), (4, 4))
        assert [(l.kind, l.in_ch, l.out_ch) for l in desc] == [
            ("conv", 4, 4), ("conv", 4, 4), ("concat", 8, 8)]

    def test_describe_lone_shuffle_unit(self):
        """The open-ended right half ``x[:, half:]`` feeds a 1x1 conv of
        width ``half``, so the input has ``2 * half`` channels."""
        from repro.zoo.shufflenet import _ShuffleUnit

        unit = _ShuffleUnit(8, np.random.default_rng(0))
        desc = describe(unit, (6, 6))
        assert desc.layers[0].in_ch == 4
        assert desc.layers[-1].kind == "concat"
        assert desc.layers[-1].out_ch == 8
        assert desc.total_params == unit.num_parameters()

    def test_describe_without_a_known_width_names_the_module(self):
        from repro.nn.layers import ReLU

        with pytest.raises(ValueError, match=r"describe\(ReLU\)"):
            describe(ReLU(), (4, 4))

    def test_gradients_flow(self, rng):
        conv = GroupedConv2d(4, 4, groups=2, rng=rng)
        x = Tensor(rng.uniform(size=(1, 4, 4, 4)).astype(np.float32),
                   requires_grad=True)
        conv(x).sum().backward()
        assert x.grad is not None
        for p in conv.parameters():
            assert p.grad is not None


class TestGradcheckUtility:
    def test_passes_on_correct_op(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert gradcheck(lambda t: t.tanh(), [x])

    def test_conv_primitive(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        assert gradcheck(lambda a, b: F.conv2d(a, b, pad=1), [x, w])

    def test_detects_wrong_gradient(self, rng):
        from repro.nn.tensor import Tensor as T

        def broken(t):
            # a deliberately wrong backward: scales gradient by 2
            out = T._make(t.data * 1.0, (t,), lambda g: (2.0 * g,))
            return out

        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with pytest.raises(AssertionError, match="gradcheck failed"):
            gradcheck(broken, [x])

    def test_rejects_float32(self, rng):
        x = Tensor(rng.normal(size=(3,)).astype(np.float32),
                   requires_grad=True)
        with pytest.raises(ValueError, match="float64"):
            gradcheck(lambda t: t, [x])

    def test_rejects_no_grad_input(self, rng):
        x = Tensor(rng.normal(size=(3,)))
        with pytest.raises(ValueError, match="does not require grad"):
            gradcheck(lambda t: t, [x])

    def test_nonraising_mode(self, rng):
        from repro.nn.tensor import Tensor as T

        def broken(t):
            return T._make(t.data * 1.0, (t,), lambda g: (3.0 * g,))

        x = Tensor(rng.normal(size=(2,)), requires_grad=True)
        assert gradcheck(broken, [x], raise_on_fail=False) is False

"""Tests for the integer-domain quantized backend
(repro.nn.engine.quant) and its runtime wiring."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import obs
from repro.core import SkyNetBackbone
from repro.detection import Detector
from repro.nn.engine import (
    CompileError,
    QuantConfig,
    compile_net,
)
from repro.nn.layers import BatchNorm2d
from repro.runtime import ServeConfig, Session, SessionConfig
from repro.serve import STATUS_OK


def _randomize_bn_stats(model, rng) -> None:
    for m in model.modules():
        if isinstance(m, BatchNorm2d):
            m.running_mean[:] = rng.normal(0.0, 0.5, m.running_mean.shape)
            m.running_var[:] = rng.uniform(0.5, 2.0, m.running_var.shape)
            m.gamma.data[:] = rng.uniform(0.5, 1.5, m.gamma.shape)
            m.beta.data[:] = rng.normal(0.0, 0.2, m.beta.shape)


def _backbone(rng, config="A"):
    bb = SkyNetBackbone(config, width_mult=0.25, rng=rng)
    _randomize_bn_stats(bb, rng)
    bb.eval()
    return bb


def _detector(rng):
    det = Detector(SkyNetBackbone("A", width_mult=0.25, rng=rng))
    _randomize_bn_stats(det, rng)
    det.eval()
    return det


def _images(rng, n: int) -> np.ndarray:
    return rng.normal(0, 1, (n, 3, 16, 32)).astype(np.float32)


# --------------------------------------------------------------------- #
# config object
# --------------------------------------------------------------------- #
class TestQuantConfig:
    def test_defaults_and_label(self):
        q = QuantConfig()
        assert (q.w_bits, q.fm_bits) == (8, 8)
        assert q.label == "w8/f8"

    def test_storage_dtypes(self):
        assert QuantConfig(8, 8).fm_storage == np.int8
        assert QuantConfig(8, 8).w_storage == np.int8
        assert QuantConfig(11, 9).w_storage == np.int16
        assert QuantConfig(11, 9).fm_storage == np.int16
        assert QuantConfig(16, 16).fm_qmax == 2**15 - 1

    def test_parse(self):
        q = QuantConfig.parse("11,9")
        assert (q.w_bits, q.fm_bits) == (11, 9)

    @pytest.mark.parametrize("spec", ["8", "a,b", "8,8,8", ""])
    def test_parse_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            QuantConfig.parse(spec)

    @pytest.mark.parametrize("bits", [(1, 8), (8, 17), (0, 0)])
    def test_rejects_out_of_range_bits(self, bits):
        with pytest.raises(ValueError):
            QuantConfig(*bits)

    def test_from_scheme(self):
        from repro.hardware.quantization import TABLE7_SCHEMES

        fixed = [s for s in TABLE7_SCHEMES
                 if s.w_bits is not None and s.fm_bits is not None]
        assert fixed  # Table 7 has fully fixed-point rows
        q = QuantConfig.from_scheme(fixed[0])
        assert (q.w_bits, q.fm_bits) == (fixed[0].w_bits, fixed[0].fm_bits)
        float_side = [s for s in TABLE7_SCHEMES
                      if s.w_bits is None or s.fm_bits is None]
        if float_side:
            with pytest.raises(ValueError):
                QuantConfig.from_scheme(float_side[0])


# --------------------------------------------------------------------- #
# numerical equivalence: runtime integer kernels vs the calibration-time
# fake-quant golden reference (computed per sample during lowering, each
# value at its own width: float64 only for float64 carriers and |frac| > 120)
# --------------------------------------------------------------------- #
class TestQuantEquivalence:
    @pytest.mark.parametrize("scheme", [(8, 8), (11, 9), (10, 8),
                                        (4, 6), (16, 16)])
    def test_backbone_reproduces_reference_exactly(self, scheme, rng):
        """The integer plan must be bit-identical to the fake-quant
        reference frozen at calibration, at every Table-7-style
        scheme."""
        bb = _backbone(rng)
        x = _images(rng, 2)
        net = compile_net(bb, quant=QuantConfig(*scheme), calibration=x)
        ref = net.quant_stats["reference_output"]
        np.testing.assert_array_equal(net(x), ref)

    def test_detector_with_head_exact(self, rng):
        det = _detector(rng)
        x = _images(rng, 2)
        net = compile_net(det, quant=QuantConfig(8, 8), calibration=x)
        np.testing.assert_array_equal(net(x), net.quant_stats["reference_output"])

    def test_batch_slices_match_batched_run(self, rng):
        """Scales are frozen per tensor, so batch size never changes a
        sample's output (integer arithmetic is order-exact)."""
        bb = _backbone(rng)
        x = _images(rng, 3)
        net = compile_net(bb, quant=QuantConfig(8, 8), calibration=x[:2])
        batched = net(x)
        for i in range(len(x)):
            np.testing.assert_array_equal(net(x[i : i + 1]), batched[i : i + 1])

    def test_repeat_calls_deterministic(self, rng):
        bb = _backbone(rng)
        x = _images(rng, 1)
        net = compile_net(bb, quant=QuantConfig(8, 8), calibration=x)
        first = net(x)
        np.testing.assert_array_equal(net(x), first)

    def test_more_bits_less_error_vs_fp32(self, rng):
        bb = _backbone(rng)
        x = _images(rng, 2)
        fp32 = compile_net(bb)(x)

        def err(w, f):
            q = compile_net(bb, quant=QuantConfig(w, f), calibration=x)
            return float(np.abs(q(x) - fp32).mean())

        assert err(16, 16) < err(4, 4)
        assert err(16, 16) < 1e-2

    def test_thread_copy_exact(self, rng):
        bb = _backbone(rng)
        x = _images(rng, 2)
        net = compile_net(bb, quant=QuantConfig(8, 8), calibration=x)
        clone = copy.copy(net)
        assert clone.arena is not net.arena
        assert clone.quant is net.quant
        np.testing.assert_array_equal(clone(x), net(x))


# --------------------------------------------------------------------- #
# calibration
# --------------------------------------------------------------------- #
class TestCalibration:
    def test_missing_calibration_raises(self, rng):
        with pytest.raises(CompileError, match="calibration"):
            compile_net(_backbone(rng), quant=QuantConfig(8, 8))

    def test_bad_calibration_shape_raises(self, rng):
        with pytest.raises(ValueError):
            compile_net(_backbone(rng), quant=QuantConfig(8, 8),
                        calibration=np.zeros((3, 16), np.float32))

    def test_single_sample_promoted(self, rng):
        bb = _backbone(rng)
        x = _images(rng, 1)
        net = compile_net(bb, quant=QuantConfig(8, 8), calibration=x[0])
        np.testing.assert_array_equal(net(x), net.quant_stats["reference_output"])

    def test_calibration_deterministic(self, rng):
        """Same net + same samples -> identical scales and outputs."""
        bb = _backbone(rng)
        cal = _images(rng, 2)
        fresh = _images(rng, 2)
        a = compile_net(bb, quant=QuantConfig(8, 8), calibration=cal)
        b = compile_net(bb, quant=QuantConfig(8, 8), calibration=cal)
        assert a.quant_stats["frac_bits"] == b.quant_stats["frac_bits"]
        np.testing.assert_array_equal(a(fresh), b(fresh))

    def test_quant_stats_populated(self, rng):
        bb = _backbone(rng)
        x = _images(rng, 2)
        net = compile_net(bb, quant=QuantConfig(11, 9), calibration=x)
        stats = net.quant_stats
        assert stats["quant"] == QuantConfig(11, 9)
        assert isinstance(stats["input_frac"], int)
        assert isinstance(stats["output_frac"], int)
        assert stats["frac_bits"]  # per-register scale table
        assert any("int16" in str(k.values()) or "int16" in str(k)
                   for k in stats["kernels"])

    def test_summary_shows_scheme(self, rng):
        bb = _backbone(rng)
        x = _images(rng, 1)
        net = compile_net(bb, quant=QuantConfig(8, 8), calibration=x)
        assert "w8/f8" in net.summary()


# --------------------------------------------------------------------- #
# maxpool fusion into the integer conv/bundle tail
# --------------------------------------------------------------------- #
class TestMaxpoolFusion:
    def test_pools_fused_into_bundles(self, rng):
        """SkyNet-A fp32 plan fuses pools into bundles (5 kernels); the
        quantized plan folds every pool into the producing bundle's
        requantize tail: quantize + 5 bundles + dequantize = 7."""
        bb = _backbone(rng)
        x = _images(rng, 1)
        assert len(compile_net(bb)) == 5
        qnet = compile_net(bb, quant=QuantConfig(8, 8), calibration=x)
        assert len(qnet) == 7
        assert "+maxpool2/s2" in qnet.summary()

    def test_fused_pool_exact(self, rng):
        """Max commutes with the monotone clip/round tail, so fusion is
        exact — covered by the reference equality on a pooled net."""
        bb = _backbone(rng)  # has 3 maxpools
        x = _images(rng, 2)
        net = compile_net(bb, quant=QuantConfig(8, 8), calibration=x)
        np.testing.assert_array_equal(net(x), net.quant_stats["reference_output"])


# --------------------------------------------------------------------- #
# the shared kernel variants on the integer plan
# --------------------------------------------------------------------- #
class TestIntegerVariants:
    """The depthwise tap loop and multi-block kernels are what the
    paper-size plan runs; at test size the natural rules pick im2col and
    single blocks.  Compile under those rules (so the reference comes
    from them), then force the other variant and require bit equality."""

    @pytest.mark.parametrize("scheme", [(8, 8), (16, 16)])
    @pytest.mark.parametrize("model", ["skynet", "dw-dw-pw"])
    def test_tap_accumulation_exact(self, scheme, model, rng, monkeypatch):
        """Bundle depthwise halves (carrier output) and a standalone
        depthwise (int8/int16 output) both take the tap loop."""
        from repro.core.bundles import GenericBundle, bundle_by_name
        from repro.nn.engine.kernels import DWConvKernel

        if model == "skynet":
            bb = _backbone(rng, "C")
        else:
            bb = GenericBundle(bundle_by_name("dw3-dw3-pw"), 3, 8, "relu6",
                               rng=rng)
            _randomize_bn_stats(bb, rng)
            bb.eval()
        x = _images(rng, 2)
        net = compile_net(bb, quant=QuantConfig(*scheme), calibration=x)
        monkeypatch.setattr(DWConvKernel, "TAP_MIN_PIXELS", 1)
        np.testing.assert_array_equal(net(x),
                                      net.quant_stats["reference_output"])

    @pytest.mark.parametrize("scheme", [(8, 8), (16, 16)])
    @pytest.mark.parametrize("hw", [(16, 32), (18, 34)])
    def test_cache_blocks_exact(self, scheme, hw, rng, monkeypatch):
        """One-channel depthwise blocks (both variants) and one-window
        pointwise row blocks, ragged on odd maps."""
        from repro.nn.engine.kernels import DWConvKernel, Kernel

        bb = _backbone(rng, "C")
        x = rng.normal(0, 1, (2, 3) + hw).astype(np.float32)
        net = compile_net(bb, quant=QuantConfig(*scheme), calibration=x)
        monkeypatch.setattr(Kernel, "BLOCK_BYTES", 1 << 10)
        ref = net.quant_stats["reference_output"]
        np.testing.assert_array_equal(net(x), ref)
        monkeypatch.setattr(DWConvKernel, "TAP_MIN_PIXELS", 1)
        np.testing.assert_array_equal(net(x), ref)

    def test_natural_thresholds_past_test_size(self, rng, monkeypatch):
        """At 2x160x320 the default rules pick the tap loop and several
        row blocks by themselves; the reference is frozen under im2col
        and single-block rules."""
        from repro.nn.engine.kernels import ConvKernel, DWConvKernel, Kernel

        bb = _backbone(rng)
        x = rng.normal(0, 1, (2, 3, 160, 320)).astype(np.float32)
        with monkeypatch.context() as m:
            m.setattr(DWConvKernel, "TAP_MIN_PIXELS", 1 << 40)
            m.setattr(Kernel, "BLOCK_BYTES", 1 << 40)
            net = compile_net(bb, quant=QuantConfig(8, 8), calibration=x)
        calls = {"taps": 0, "blocks": 0}
        dw_record, matmul = DWConvKernel.record, np.matmul

        def count_taps(self, inputs, arena, recorded):
            out = dw_record(self, inputs, arena, recorded)
            n, _, oh, ow = out.shape
            calls["taps"] += n * oh * ow >= self.TAP_MIN_PIXELS
            return out

        def count_blocks(a, b, out=None):
            # 2-D weights: the conv, pointwise and linear GEMMs; the
            # depthwise kernel's stacked weights are not counted.
            calls["blocks"] += np.ndim(a) == 2
            return matmul(a, b, out=out)

        monkeypatch.setattr(DWConvKernel, "record", count_taps)
        monkeypatch.setattr(np, "matmul", count_blocks)
        np.testing.assert_array_equal(net(x),
                                      net.quant_stats["reference_output"])
        n_pointwise = sum(isinstance(getattr(k, "pw", k), ConvKernel)
                          for k, _, _ in net.steps)
        # One GEMM per sample and pointwise kernel would be a single
        # block; more means some map was split into row blocks.
        assert calls["taps"] > 0
        assert calls["blocks"] > len(x) * n_pointwise

# --------------------------------------------------------------------- #
# non-finite inputs
# --------------------------------------------------------------------- #
class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_poisoned_sample_gives_non_finite_box(self, bad, rng):
        """A NaN/inf pixel has no integer image: that sample's box must
        come out non-finite (as eager and the fp32 engine give), with no
        cast warning, while the other sample stays bit-exact."""
        import warnings

        det = _detector(rng)
        x = rng.normal(0, 1, (2, 3, 32, 64)).astype(np.float32)
        session = Session.load(det, SessionConfig(backend="quant"),
                               calibration=x)
        clean = session.run(x)
        poisoned = x.copy()
        poisoned[1, 0, 5, 7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            boxes = session.run(poisoned)
        assert not np.isfinite(boxes[1]).any()
        np.testing.assert_array_equal(boxes[0], clean[0])


# --------------------------------------------------------------------- #
# Session wiring: backend selection + fallback ladder
# --------------------------------------------------------------------- #
class TestSessionQuant:
    def test_quant_backend_resolves(self, rng):
        det = _detector(rng)
        cal = _images(rng, 2)
        session = Session.load(det, SessionConfig(backend="quant"),
                               calibration=cal)
        assert session.backend == "quant"
        out = session.run(_images(rng, 2))
        assert np.isfinite(out).all()

    def test_quant_matches_direct_compile(self, rng):
        bb = _backbone(rng)
        cal = _images(rng, 2)
        x = _images(rng, 2)
        net = compile_net(bb, quant=QuantConfig(11, 9), calibration=cal)
        session = Session.load(
            bb, SessionConfig(backend="quant", quant_bits=(11, 9)),
            calibration=cal)
        np.testing.assert_array_equal(session.run(x), net(x))

    def test_fallback_to_engine_without_calibration(self, rng):
        """Top rung of the ladder: quant -> engine with one warning and
        one counter tick."""
        det = _detector(rng)
        with obs.recording() as rec:
            with pytest.warns(RuntimeWarning, match="falling back"):
                session = Session.load(det, SessionConfig(backend="quant"))
        assert session.backend == "engine"
        assert rec.metrics.counter("runtime/quant_fallback").value == 1

    def test_no_fallback_raises(self, rng):
        det = _detector(rng)
        with pytest.raises(CompileError):
            Session.load(det, SessionConfig(backend="quant",
                                            fallback=False))

    def test_load_quantized_compiled_net(self, rng):
        bb = _backbone(rng)
        cal = _images(rng, 1)
        net = compile_net(bb, quant=QuantConfig(8, 8), calibration=cal)
        session = Session.load(net)
        assert session.backend == "quant"
        x = _images(rng, 1)
        np.testing.assert_array_equal(session.run(x), net(x))

    def test_eager_pin_overrides_quant(self, rng):
        from repro.runtime import eager_inference

        det = _detector(rng)
        with eager_inference():
            session = Session.load(det, SessionConfig(backend="quant"),
                                   calibration=_images(rng, 1))
        assert session.backend == "eager"

    @pytest.mark.parametrize("bits", [(8,), (1, 8), (8, 17), ("8", "8")])
    def test_config_validates_quant_bits(self, bits):
        with pytest.raises(ValueError):
            SessionConfig(backend="quant", quant_bits=bits)


# --------------------------------------------------------------------- #
# serving: per-worker engine clones with integer buffers
# --------------------------------------------------------------------- #
class TestQuantServing:
    def test_worker_clones_are_exact(self, rng):
        """Two workers on clone arenas must reproduce serial results
        bit-for-bit; a shared int buffer would corrupt them."""
        det = _detector(rng)
        cal = _images(rng, 2)
        x = _images(rng, 12)
        serve = ServeConfig(num_workers=2, max_batch_size=2,
                            max_wait_ms=5.0)
        with Session.load(det, SessionConfig(backend="quant"),
                          serve=serve, calibration=cal) as session:
            assert session.backend == "quant"
            expected = [session.run(x[i]) for i in range(len(x))]
            futures = [session.submit(x[i]) for i in range(len(x))]
            results = [f.result(timeout=30.0) for f in futures]
        assert all(r.status == STATUS_OK for r in results)
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got.value, want)

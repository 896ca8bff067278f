"""Tests for the compiled inference engine (repro.nn.engine)."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import SkyNetBackbone
from repro.detection import Detector
from repro.nn import Sequential, Tensor, no_grad
from repro.nn.engine import (
    BufferArena,
    CompileError,
    compile_net,
)
from repro.nn.layers import BatchNorm2d, Conv2d, ReLU6
from repro.runtime import SessionConfig


def _randomize_bn_stats(model, rng) -> None:
    """Give every BN layer non-trivial running statistics and affine
    parameters, so folding mistakes cannot hide behind identity stats."""
    for m in model.modules():
        if isinstance(m, BatchNorm2d):
            m.running_mean[:] = rng.normal(0.0, 0.5, m.running_mean.shape)
            m.running_var[:] = rng.uniform(0.5, 2.0, m.running_var.shape)
            m.gamma.data[:] = rng.uniform(0.5, 1.5, m.gamma.shape)
            m.beta.data[:] = rng.normal(0.0, 0.2, m.beta.shape)


def _eager(model, x: np.ndarray) -> np.ndarray:
    with no_grad():
        return model(Tensor(x)).data


class TestEquivalence:
    @pytest.mark.parametrize("config", ["A", "B", "C"])
    def test_skynet_matches_eager(self, config, rng):
        bb = SkyNetBackbone(config, width_mult=0.25, rng=rng)
        _randomize_bn_stats(bb, rng)
        bb.eval()
        x = rng.normal(0, 1, (2, 3, 16, 32)).astype(np.float32)
        net = compile_net(bb)
        np.testing.assert_allclose(net(x), _eager(bb, x), atol=1e-5)

    def test_zoo_backbone_matches_eager(self, rng):
        from repro.zoo import build_backbone

        mb = build_backbone("mobilenet", width_mult=0.25, rng=rng)
        _randomize_bn_stats(mb, rng)
        mb.eval()
        x = rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32)
        net = compile_net(mb)
        np.testing.assert_allclose(net(x), _eager(mb, x), atol=1e-5)

    def test_detector_matches_eager(self, rng):
        det = Detector(SkyNetBackbone("C", width_mult=0.25, rng=rng))
        _randomize_bn_stats(det, rng)
        det.eval()
        x = rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32)
        np.testing.assert_allclose(
            compile_net(det)(x), _eager(det, x), atol=1e-5
        )

    def test_bn_folding_single_conv(self, rng):
        """Conv -> BN -> ReLU6 folds into ONE kernel and stays exact."""
        net = Sequential(Conv2d(3, 8, rng=rng), BatchNorm2d(8), ReLU6())
        _randomize_bn_stats(net, rng)
        net.eval()
        x = rng.normal(0, 1, (2, 3, 8, 8)).astype(np.float32)
        compiled = compile_net(net)
        assert len(compiled) == 1  # BN folded, activation fused
        np.testing.assert_allclose(compiled(x), _eager(net, x), atol=1e-5)

    def test_repeat_calls_are_deterministic(self, rng):
        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        net = compile_net(bb)
        x = rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32)
        first = net(x)
        np.testing.assert_array_equal(net(x), first)

    def test_output_survives_next_call(self, rng):
        """The returned array is a copy, not an arena view."""
        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        net = compile_net(bb)
        x1 = rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32)
        x2 = rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32)
        out1 = net(x1)
        saved = out1.copy()
        net(x2)
        np.testing.assert_array_equal(out1, saved)


class TestPlan:
    def test_bundles_fused(self, rng):
        """SkyNet-A = 5 bundles with every maxpool folded into the
        producing bundle's tail -> exactly 5 kernels."""
        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        net = compile_net(bb)
        assert len(net) == 5
        assert sum("+maxpool" in k.label for k, _, _ in net.steps) == 3

    def test_unsupported_module_raises(self):
        from repro.nn.module import Module

        class Exotic(Module):
            def forward(self, x):  # pragma: no cover
                return x

        with pytest.raises(CompileError):
            compile_net(Exotic())

    def test_summary_lists_kernels(self, rng):
        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        net = compile_net(bb)
        text = net.summary()
        assert "bundle" in text and "maxpool" in text


class TestArena:
    def test_buffers_reused_across_frames(self, rng):
        """The second forward allocates nothing, and once a forward has
        recorded its calls the next ones replay them without asking
        the arena for any buffer."""
        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        net = compile_net(bb)
        x = rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32)
        net(x)
        allocated = len(net.arena)
        misses = net.arena.misses
        net(x)
        assert len(net.arena) == allocated  # no new buffers
        assert net.arena.misses == misses
        assert net.arena.program(x.shape) is not None
        hits = net.arena.hits
        net(x)
        assert (net.arena.hits, net.arena.misses) == (hits, misses)

    def test_distinct_shapes_get_distinct_buffers(self):
        """Each request is a fresh view; a repeated one views the same
        memory, a different shape other memory."""
        arena = BufferArena()
        a = arena.get("k", "out", (2, 3), np.float32)
        b = arena.get("k", "out", (4, 3), np.float32)
        assert not np.shares_memory(a, b)
        again = arena.get("k", "out", (2, 3), np.float32)
        assert again.shape == a.shape
        assert (again.__array_interface__["data"]
                == a.__array_interface__["data"])

    def test_zero_buffers_zeroed_once(self):
        arena = BufferArena()
        a = arena.get("k", "pad", (4,), np.float32, zero=True)
        assert not a.any()
        a[:] = 7.0
        # second request returns the same (dirty) buffer: callers own
        # the interior, the kernel re-writes what it uses.
        assert arena.get("k", "pad", (4,), np.float32, zero=True) is a

    def test_nbytes_and_clear(self):
        arena = BufferArena()
        arena.get("k", "out", (8,), np.float32)
        assert arena.nbytes() == 32
        arena.clear()
        assert len(arena) == 0

    def test_pooled_bytes_gauge(self, rng):
        """The gauge reports a whole plan, published by its warm-up: a
        miss in one arena does not overwrite it with that arena's
        bytes."""
        from repro import obs

        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        net = compile_net(bb)
        rec = obs.enable()
        try:
            gauge = rec.metrics.gauge("engine/arena/pooled_bytes")
            nbytes = net.warmup((1, 3, 16, 32))
            assert gauge.value == nbytes > 0
            BufferArena().get("k", "out", (8,), np.float32)
            copy.copy(net)(np.zeros((1, 3, 16, 32), np.float32))
            assert gauge.value == nbytes
        finally:
            obs.disable()

    def test_compiled_net_warmup_allocates_steady_state(self, rng):
        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        net = compile_net(bb)
        nbytes = net.warmup((2, 3, 16, 32))
        assert nbytes > 0
        arenas = [n.arena for n in [net, *net._clones]]
        assert nbytes == sum(a.nbytes() for a in arenas)
        misses = [a.misses for a in arenas]
        x = rng.normal(0, 1, (2, 3, 16, 32)).astype(np.float32)
        net(x)
        # steady state: all hits
        assert [a.misses for a in arenas] == misses

    def test_warmup_publishes_pooled_bytes_gauge(self, rng):
        from repro import obs

        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        net = compile_net(bb)
        rec = obs.enable()
        try:
            net.warmup((1, 3, 16, 32))
            gauge = rec.metrics.gauge("engine/arena/pooled_bytes")
            assert gauge.value == net.arena.nbytes() > 0
        finally:
            obs.disable()

    def test_thread_copy_shares_plan_not_arena(self, rng):
        """``copy.copy`` is the per-thread clone serving makes."""
        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        net = compile_net(bb)
        clone = copy.copy(net)
        assert clone.steps is net.steps  # kernels/plan shared
        assert clone.arena is not net.arena  # buffers are not
        x = rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32)
        np.testing.assert_array_equal(clone(x), net(x))

    def test_clones_are_thread_safe(self, rng):
        """Two threads on per-thread clones reproduce the serial
        results exactly; a shared arena would corrupt them."""
        import threading

        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        _randomize_bn_stats(bb, rng)
        bb.eval()
        net = compile_net(bb)
        inputs = [rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32)
                  for _ in range(16)]
        serial = [net(x) for x in inputs]

        outputs = [None] * len(inputs)

        def worker(start: int) -> None:
            clone = copy.copy(net)
            for i in range(start, len(inputs), 2):
                outputs[i] = clone(inputs[i])

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, want in zip(outputs, serial):
            np.testing.assert_array_equal(got, want)


class TestEnginePools:
    """Pool kernels use tap-accumulation; pin them to the eager ops."""

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 2), (2, 1)])
    def test_maxpool_matches_functional(self, kernel, stride, rng):
        from repro.nn import functional as F
        from repro.nn.engine.kernels import MaxPoolKernel

        x = rng.normal(0, 1, (2, 4, 9, 11)).astype(np.float32)
        ref = F.max_pool2d(Tensor(x), kernel, stride).data
        out = MaxPoolKernel("k", kernel, stride).run([x], BufferArena())
        np.testing.assert_allclose(out, ref, atol=1e-6)

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 2)])
    def test_avgpool_matches_functional(self, kernel, stride, rng):
        from repro.nn import functional as F
        from repro.nn.engine.kernels import AvgPoolKernel

        x = rng.normal(0, 1, (2, 4, 9, 11)).astype(np.float32)
        ref = F.avg_pool2d(Tensor(x), kernel, stride).data
        out = AvgPoolKernel("k", kernel, stride).run([x], BufferArena())
        np.testing.assert_allclose(out, ref, atol=1e-6)


class TestBatchedExecution:
    """Batched im2col GEMM and cache-blocked kernels.

    Every fast path must reproduce the per-sample engine outputs at
    1e-6 — batching is a performance transform, never a numerics one.
    """

    def _net_and_ref(self, rng, hw=(16, 32), config="B"):
        bb = SkyNetBackbone(config, width_mult=0.25, rng=rng)
        _randomize_bn_stats(bb, rng)
        bb.eval()
        net = compile_net(bb)
        x = rng.normal(0, 1, (8, 3) + hw).astype(np.float32)
        singles = np.concatenate([net(x[i:i + 1]) for i in range(len(x))])
        return net, x, singles

    def test_batched_rows_match_single_runs(self, rng):
        net, x, singles = self._net_and_ref(rng)
        np.testing.assert_allclose(net(x), singles, atol=1e-6)

    @pytest.mark.parametrize("hw", [(16, 32), (18, 34)],
                             ids=["even", "odd"])
    def test_cache_blocks_match(self, hw, rng, monkeypatch):
        """A tiny block budget splits every depthwise into one-channel
        blocks and every pointwise (+ pool) into one-window row blocks,
        including a ragged last block on odd maps; the tap loop is
        forced too.  Results must match eager and the per-sample runs."""
        from repro.nn.engine.kernels import DWConvKernel, Kernel

        monkeypatch.setattr(Kernel, "BLOCK_BYTES", 1 << 10)
        monkeypatch.setattr(DWConvKernel, "TAP_MIN_PIXELS", 1)
        net, x, singles = self._net_and_ref(rng, hw=hw)
        out = net(x)
        np.testing.assert_allclose(out, singles, atol=1e-6)
        bb = SkyNetBackbone("B", width_mult=0.25, rng=rng)
        _randomize_bn_stats(bb, rng)
        bb.eval()
        np.testing.assert_allclose(compile_net(bb)(x), _eager(bb, x),
                                   atol=1e-5)


class TestIntegration:
    def test_detector_predict_engines_agree(self, rng):
        det = Detector(SkyNetBackbone("A", width_mult=0.25, rng=rng))
        _randomize_bn_stats(det, rng)
        det.eval()
        images = rng.normal(0, 1, (3, 3, 16, 32)).astype(np.float32)
        engine = SessionConfig(backend="engine")
        assert det.session(engine).backend == "engine"  # really compiled
        np.testing.assert_allclose(
            det.predict(images, engine),
            det.predict(images, SessionConfig(backend="eager")),
            atol=1e-4,
        )

    def test_detector_compile_cache_invalidated_by_train(self, rng):
        det = Detector(SkyNetBackbone("A", width_mult=0.25, rng=rng))
        det.eval()
        first = det.session()
        assert first.backend == "engine"
        assert det.session() is first  # cached
        det.train()
        det.eval()
        assert det.session() is not first  # recompiled after training

    def test_siamfc_tracker_engines_agree(self, rng):
        from repro.tracking.siamfc import SiamFC, SiamFCTracker

        frame = rng.uniform(0, 1, (3, 64, 64)).astype(np.float32)
        box = np.array([0.5, 0.5, 0.3, 0.3])
        boxes = {}
        for backend in ("eager", "engine"):
            model = SiamFC(
                SkyNetBackbone("A", width_mult=0.25,
                               rng=np.random.default_rng(3)),
                rng=np.random.default_rng(4),
            )
            model.eval()
            tracker = SiamFCTracker(
                model, config=SessionConfig(backend=backend))
            tracker.init(frame, box)
            assert tracker.session.backend == backend
            boxes[backend] = tracker.track(frame)
        np.testing.assert_allclose(
            boxes["engine"], boxes["eager"], atol=1e-4
        )

    def test_compile_extractor_matches_extract(self, rng):
        from repro.tracking.siamese import compile_extractor
        from repro.tracking.siamfc import SiamFC

        model = SiamFC(SkyNetBackbone("A", width_mult=0.25, rng=rng),
                       rng=rng)
        _randomize_bn_stats(model, rng)
        model.eval()
        net = compile_extractor(model)
        x = rng.normal(0, 1, (1, 3, 32, 32)).astype(np.float32)
        with no_grad():
            ref = model.extract(Tensor(x)).data
        np.testing.assert_allclose(net(x), ref, atol=1e-5)

    def test_engine_spans_recorded(self, rng, tmp_path):
        from repro import obs

        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        path = tmp_path / "trace.jsonl"
        with obs.recording(str(path)):
            net = compile_net(bb)
            net(rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32))
        records = obs.load_trace(str(path))
        names = {r["name"] for r in records if r.get("type") == "span"}
        assert "engine/compile" in names
        assert "engine/forward" in names
        assert "engine/kernel" in names

"""Tests for one BLAS thread per forward and the sample split
(repro.nn.engine.threads, CompiledNet.__call__).

OpenBLAS runs one thread; a batch > 1 forward runs as ``min(batch,
cores)`` contiguous sample slices at once, each on its own arena.  The
split never changes a result, leaves no reference cycle, travels in no
copy or pickle, and reports a slice's failure only once every slice is
done.
"""

from __future__ import annotations

import copy
import gc
import pickle
import threading
import time
import weakref

import numpy as np
import pytest

from repro import obs
from repro.core import SkyNetBackbone
from repro.detection import Detector, YoloHead
from repro.nn.engine import CompiledNet, QuantConfig, compile_net, threads
from repro.runtime import ServeConfig, Session, SessionConfig
from repro.serve import STATUS_OK

needs_openblas = pytest.mark.skipif(
    threads.get_threads() is None,
    reason="NumPy exports no OpenBLAS thread-count symbol")


def _detector(rng) -> Detector:
    # The head draws from ``rng`` too, not from the shared generator:
    # these tests leave the weights later tests build unchanged.
    bb = SkyNetBackbone("C", width_mult=0.125, rng=rng)
    det = Detector(bb, YoloHead(bb.out_channels, rng=rng))
    det.eval()
    return det


def _images(rng, n: int, hw=(16, 32)) -> np.ndarray:
    return rng.normal(0, 1, (n, 3, *hw)).astype(np.float32)


def _backbone(rng) -> SkyNetBackbone:
    bb = SkyNetBackbone("C", width_mult=0.25, rng=rng)
    bb.eval()
    return bb


def _spans(rec, name: str) -> list[dict]:
    return [r for r in rec.records()
            if r.get("type") == "span" and r["name"] == name]


def _force_cores(monkeypatch, n: int) -> None:
    monkeypatch.setattr(threads, "cores", lambda: n)


class TestBatchRule:
    @needs_openblas
    def test_health_reports_library_and_count(self, rng):
        with Session.load(_detector(rng)) as session:
            session.run(_images(rng, 1))
            info = session.health()["blas"]
        assert info["library"].startswith("OpenBLAS")
        assert info["threads"] == 1

    def test_one_forward_span_per_call_counts_its_slices(self, rng,
                                                         monkeypatch):
        """Batch 1 runs unsplit; the 2x2 tiles of a frame run as one
        batch-4 forward in ``cores`` slices, and every kernel span of
        every slice carries the caller's request id."""
        _force_cores(monkeypatch, 3)
        det = _detector(rng)
        with Session.load(det) as session, obs.recording() as rec:
            session.run(_images(rng, 1))
        assert [f["attrs"]["slices"] for f in
                _spans(rec, "engine/forward")] == [1]
        steps = len(_spans(rec, "engine/kernel"))
        tiled = SessionConfig(tiles=(2, 2), tile_max_detections=8)
        with Session.load(det, tiled) as session, obs.recording() as rec:
            with obs.use_context("req-tiles"):
                session.run(_images(rng, 1, hw=(48, 96)))
        (forward,) = _spans(rec, "engine/forward")
        assert forward["attrs"] == {"engine": forward["attrs"]["engine"],
                                    "batch": 4, "slices": 3}
        kernels = _spans(rec, "engine/kernel")
        assert len(kernels) == 3 * steps
        assert {k["request"] for k in kernels} == {"req-tiles"}
        assert len({k["thread"] for k in kernels}) > 1
        if threads.get_threads() is not None:
            assert threads.get_threads() == 1


class TestSliceSplit:
    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("quant", [None, QuantConfig(8, 8)],
                             ids=["fp32", "w8f8"])
    def test_batch_n_equals_n_batch_one_forwards(self, rng, monkeypatch,
                                                 cores, quant):
        x = _images(rng, 5, hw=(32, 64))
        net = (compile_net(_backbone(rng)) if quant is None else
               compile_net(_backbone(rng), quant=quant, calibration=x))
        _force_cores(monkeypatch, cores)
        singles = [net(x[i:i + 1]) for i in range(len(x))]
        for n in range(2, len(x) + 1):
            np.testing.assert_array_equal(net(x[:n]),
                                          np.concatenate(singles[:n]))
        assert len(net._clones) == cores - 1

    def test_sliced_plan_dies_without_the_cycle_collector(self, rng,
                                                          monkeypatch):
        _force_cores(monkeypatch, 3)
        net = compile_net(_backbone(rng))
        net(_images(rng, 4, hw=(32, 64)))
        plan, clones = weakref.ref(net), [weakref.ref(c)
                                          for c in net._clones]
        gc.disable()
        try:
            del net
            assert plan() is None
            # A pool thread drops its task a moment after the result.
            deadline = time.monotonic() + 5.0
            while any(c() for c in clones) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert all(c() is None for c in clones)
        finally:
            gc.enable()

    def test_warmup_reports_every_slice_arena(self, rng, monkeypatch):
        """A split warm-up returns and publishes the plan's bytes: the
        caller's arena plus its slice clone's, as Session.load and
        summary() do."""
        _force_cores(monkeypatch, 2)
        net = compile_net(_backbone(rng))
        with obs.recording() as rec:
            nbytes = net.warmup((4, 3, 32, 64))
            gauge = rec.metrics.gauge("engine/arena/pooled_bytes").value
        (clone,) = net._clones
        assert clone.arena.nbytes() > 0
        assert nbytes == gauge == (net.arena.nbytes()
                                   + clone.arena.nbytes())
        assert f"arena {nbytes / 1e6:.2f} MB" in net.summary()
        with obs.recording() as rec:
            session = Session.load(net, warmup=(4, 3, 32, 64))
            gauge = rec.metrics.gauge("engine/arena/pooled_bytes").value
        assert gauge == nbytes
        session.close()

    def test_copies_and_pickles_carry_no_clones(self, rng, monkeypatch):
        _force_cores(monkeypatch, 2)
        net = compile_net(_backbone(rng))
        x = _images(rng, 2, hw=(32, 64))
        unsplit = pickle.dumps(net)
        want = net(x)
        assert len(net._clones) == 1
        assert len(pickle.dumps(net)) == len(unsplit)
        for fresh in (copy.copy(net), pickle.loads(pickle.dumps(net))):
            assert fresh._clones == []
            assert fresh.arena.nbytes() == 0
            np.testing.assert_array_equal(fresh(x), want)
            assert len(fresh._clones) == 1
        assert len(net._clones) == 1

    @pytest.mark.parametrize("bad", [0, 1], ids=["caller", "pool"])
    def test_slice_failure_reaches_caller_after_every_slice(
            self, rng, monkeypatch, bad):
        """The slice holding sample ``bad`` fails at once; the other
        slices are slow.  The caller sees the failure only after they
        have finished writing."""
        _force_cores(monkeypatch, 3)
        net = compile_net(_backbone(rng))
        finished = []

        def forward(self, x):
            if x[0, 0, 0, 0] == bad:
                raise RuntimeError(f"slice at sample {bad}")
            time.sleep(0.1)
            finished.append(int(x[0, 0, 0, 0]))
            return x

        monkeypatch.setattr(CompiledNet, "_forward", forward)
        x = np.zeros((3, 3, 8, 8), np.float32)
        x[:, 0, 0, 0] = np.arange(3)
        with pytest.raises(RuntimeError, match=f"sample {bad}"):
            net(x)
        assert sorted(finished) == [i for i in range(3) if i != bad]


@needs_openblas
class TestCountDoesNotChangeResults:
    """The slice count: one slice against the host's own core count."""

    def test_fp32_plan_agrees_at_one_and_default(self, rng, monkeypatch):
        net = compile_net(_backbone(rng))
        x = _images(rng, 2, hw=(64, 128))
        at_default = net(x)
        _force_cores(monkeypatch, 1)
        np.testing.assert_array_equal(net(x), at_default)
        assert threads.get_threads() == 1

    def test_w8f8_plan_bit_exact_at_both_counts(self, rng, monkeypatch):
        x = _images(rng, 2, hw=(64, 128))
        net = compile_net(_backbone(rng), quant=QuantConfig(8, 8),
                          calibration=x)
        ref = net.quant_stats["reference_output"]
        np.testing.assert_array_equal(net(x), ref)
        _force_cores(monkeypatch, 1)
        np.testing.assert_array_equal(net(x), ref)


class TestConcurrentForwards:
    def test_thread_server_mixed_batches_match_run(self, rng, monkeypatch):
        """Two server workers serve a burst of 16 and lone requests at
        once, their batch-4 forwards split in two: outputs equal
        ``Session.run``."""
        _force_cores(monkeypatch, 2)
        det = _detector(rng)
        x = _images(rng, 24, hw=(64, 128))
        serve = ServeConfig(max_batch_size=4, max_wait_ms=5.0,
                            num_workers=2)
        with Session.load(det, serve=serve) as session:
            expected = session.run(x)
            futures = [None] * len(x)

            def bursts() -> None:
                futures[:16] = [session.submit(x[i]) for i in range(16)]

            def singles() -> None:
                for i in range(16, 24):
                    futures[i] = session.submit(x[i])
                    futures[i].result(timeout=30.0)

            clients = [threading.Thread(target=bursts),
                       threading.Thread(target=singles)]
            with obs.recording() as rec:
                for t in clients:
                    t.start()
                for t in clients:
                    t.join()
            results = [f.result(timeout=30.0) for f in futures]
        assert all(r.status == STATUS_OK for r in results)
        for i, r in enumerate(results):
            np.testing.assert_allclose(r.value, expected[i], atol=1e-6)
        forwards = {(f["attrs"]["batch"], f["attrs"]["slices"])
                    for f in _spans(rec, "engine/forward")}
        assert {(1, 1), (4, 2)} <= forwards


class TestWithoutSymbol:
    def test_setter_is_a_noop(self, rng, monkeypatch):
        """Without OpenBLAS's symbols nothing is pinned or reported, and
        batches still split."""
        lib = threads._lib
        monkeypatch.setattr(threads, "_lib", None)
        _force_cores(monkeypatch, 2)
        assert threads.get_threads() is None
        assert threads.blas_info() == {"library": None, "threads": None}
        net = compile_net(_backbone(rng))
        with obs.recording() as rec:
            net(_images(rng, 4, hw=(32, 64)))
        (forward,) = _spans(rec, "engine/forward")
        assert forward["attrs"]["slices"] == 2
        with Session.load(_detector(rng)) as session:
            assert session.health()["blas"] == {"library": None,
                                                "threads": None}
        if lib is not None:  # the pin at import is the only setting
            assert lib.scipy_openblas_get_num_threads64_() == 1

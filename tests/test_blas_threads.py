"""Tests for the engine-owned OpenBLAS thread count (repro.nn.engine.threads).

One thread at batch 1, OpenBLAS's default at batch > 1, one thread
while forwards overlap, the default at every batch in serving threads;
the count never changes a result.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import obs
from repro.core import SkyNetBackbone
from repro.detection import Detector, YoloHead
from repro.nn.engine import QuantConfig, compile_net, threads
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


@needs_openblas
class TestBatchRule:
    def test_batch_one_runs_one_thread_tiles_run_default(self, rng):
        det = _detector(rng)
        with Session.load(det) as session:
            session.run(_images(rng, 1))
            assert threads.get_threads() == 1
        tiled = Session.load(det, SessionConfig(tiles=(2, 2),
                                                tile_max_detections=8))
        with obs.recording() as rec:
            tiled.run(_images(rng, 1, hw=(48, 96)))
        forwards = [r["attrs"] for r in rec.records()
                    if r.get("type") == "span"
                    and r["name"] == "engine/forward"]
        assert forwards == [{"engine": forwards[0]["engine"], "batch": 4,
                             "blas_threads": threads.DEFAULT}]
        assert threads.get_threads() == threads.DEFAULT

    def test_overlapping_forwards_run_one_thread(self, monkeypatch):
        monkeypatch.setattr(threads, "DEFAULT", 2)
        with threads.forward_threads(4) as outer:
            assert outer == threads.get_threads() == 2
            with threads.forward_threads(4) as inner:
                assert inner == threads.get_threads() == 1
            # the remaining forward gets its own count back
            assert threads.get_threads() == 2

    def test_setter_calls_library_only_on_change(self, monkeypatch):
        calls = []
        lib = threads._lib

        class Counting:
            def __getattr__(self, name):
                return getattr(lib, name)

            def scipy_openblas_set_num_threads64_(self, n):
                calls.append(n)
                lib.scipy_openblas_set_num_threads64_(n)

        threads.set_threads(1)
        monkeypatch.setattr(threads, "_lib", Counting())
        for n in (1, 1, 2, 2, 1):
            assert threads.set_threads(n) == n
        threads.set_threads(1)
        assert calls == [2, 1]

    def test_keep_default_applies_to_the_calling_thread_only(self):
        seen = []

        def serving_thread() -> None:
            # as a server worker thread or a process-pool child does
            threads.keep_default_threads()
            with threads.forward_threads(1) as n:
                seen.append((n, threads.get_threads()))

        t = threading.Thread(target=serving_thread)
        t.start()
        t.join()
        assert seen == [(threads.DEFAULT, threads.DEFAULT)]
        with threads.forward_threads(1) as n:
            assert n == threads.get_threads() == 1

    def test_server_worker_keeps_default_while_run_follows_batch(self,
                                                                 rng):
        """A batch-1 request through the thread server runs at the
        default; ``Session.run`` of the same session at one thread."""
        with Session.load(_detector(rng)) as session:
            with obs.recording() as rec:
                served = session.submit(_images(rng, 1)[0]).result(30.0)
                session.run(_images(rng, 1))
        assert served.status == STATUS_OK
        counts = [(r["attrs"]["batch"], r["attrs"]["blas_threads"])
                  for r in rec.records() if r.get("type") == "span"
                  and r["name"] == "engine/forward"]
        assert counts == [(1, threads.DEFAULT), (1, 1)]

    def test_health_reports_library_and_count(self, rng):
        with Session.load(_detector(rng)) as session:
            session.run(_images(rng, 1))
            info = session.health()["blas"]
        assert info["library"].startswith("OpenBLAS")
        assert info["threads"] == 1


@needs_openblas
class TestCountDoesNotChangeResults:
    def test_fp32_plan_agrees_at_one_and_default(self, rng, monkeypatch):
        net = compile_net(_backbone(rng))
        x = _images(rng, 2, hw=(64, 128))
        at_default = net(x)
        monkeypatch.setattr(threads, "DEFAULT", 1)
        at_one = net(x)
        assert threads.get_threads() == 1
        np.testing.assert_allclose(at_one, at_default, atol=1e-6)

    def test_w8f8_plan_bit_exact_at_both_counts(self, rng, monkeypatch):
        x = _images(rng, 2, hw=(64, 128))
        net = compile_net(_backbone(rng), quant=QuantConfig(8, 8),
                          calibration=x)
        ref = net.quant_stats["reference_output"]
        np.testing.assert_array_equal(net(x), ref)
        monkeypatch.setattr(threads, "DEFAULT", 1)
        np.testing.assert_array_equal(net(x), ref)


class TestConcurrentForwards:
    def test_thread_server_mixed_batches_match_run(self, rng, monkeypatch):
        """Two server workers serve a burst of 16 and lone requests at once:
        outputs equal ``Session.run``, and while forwards overlap the
        count is one thread."""
        applied = []
        real_apply = threads._apply

        def recording_apply():
            n = real_apply()
            applied.append((len(threads._in_flight), n))
            return n

        monkeypatch.setattr(threads, "_apply", recording_apply)
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
        batches = {r["attrs"]["batch"] for r in rec.records()
                   if r.get("type") == "span"
                   and r["name"] == "engine/forward"}
        assert {1, 4} <= batches
        if threads.get_threads() is not None:
            assert all(n == 1 for flying, n in applied if flying > 1)


    def test_stress_rule_holds_and_state_stays_consistent(self,
                                                          monkeypatch):
        """More threads than cores enter and leave forwards at batch 1
        and 4 with a tiny switch interval: every count set while
        forwards overlap is 1, a lone forward gets its own count, and
        the cached count matches the library afterwards."""
        import sys

        monkeypatch.setattr(threads, "DEFAULT", 2)
        applied = []
        real_apply = threads._apply

        def recording_apply():
            n = real_apply()
            applied.append((list(threads._in_flight), n))
            return n

        monkeypatch.setattr(threads, "_apply", recording_apply)

        def worker(seed: int) -> None:
            batches = np.random.default_rng(seed).choice([1, 4], 300)
            for batch in batches:
                with threads.forward_threads(int(batch)):
                    pass

        workers = [threading.Thread(target=worker, args=(s,))
                   for s in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert threads._in_flight == []
        assert len(applied) >= 6 * 300
        for flying, n in applied:
            want = flying[0] if len(flying) == 1 else 1
            assert n == (want if threads.get_threads() is not None else None)
        assert threads.get_threads() == threads._current


class TestWithoutSymbol:
    def test_setter_is_a_noop(self, rng, monkeypatch):
        lib = threads._lib
        if lib is not None:
            threads.set_threads(1)
        monkeypatch.setattr(threads, "_lib", None)
        assert threads.set_threads(2) is None
        assert threads.get_threads() is None
        assert threads.blas_info() == {"library": None, "threads": None}
        net = compile_net(_backbone(rng))
        with obs.recording() as rec:
            net(_images(rng, 4, hw=(32, 64)))
        (forward,) = [r for r in rec.records() if r.get("type") == "span"
                      and r["name"] == "engine/forward"]
        assert forward["attrs"]["blas_threads"] is None
        with Session.load(_detector(rng)) as session:
            assert session.health()["blas"] == {"library": None,
                                                "threads": None}
        if lib is not None:  # the library's count was never touched
            assert lib.scipy_openblas_get_num_threads64_() == 1

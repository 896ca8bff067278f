"""Tests for the process-pool worker backend (repro.serve.procpool).

Run under pytest so the multiprocessing ``spawn`` start method has a
real ``__main__`` module to re-import in children.  Every serving test
asserts ``fallback_batches == 0`` and ``spawned >= 1`` — otherwise a
broken backend could "pass" parity via the circuit breaker's eager
fallback while no child process ever served a request.
"""

from __future__ import annotations

import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro import obs
from repro.core import SkyNetBackbone
from repro.detection import Detector
from repro.nn.engine import CompiledNet
from repro.resilience import faults
from repro.runtime import ServeConfig, Session, SessionConfig, eager_inference
from repro.serve import (
    STATUS_OK,
    ProcessPool,
    ProcWorkerDied,
    ProcWorkerError,
    WorkerSpec,
)


def _tiny_detector(rng) -> Detector:
    det = Detector(SkyNetBackbone("C", width_mult=0.125, rng=rng))
    det.eval()
    return det


def _images(rng, n: int) -> np.ndarray:
    return rng.normal(0, 1, (n, 3, 16, 32)).astype(np.float32)


def _quant_config() -> SessionConfig:
    return SessionConfig(backend="quant", quant_bits=(8, 8))


class TestWorkerSpec:
    def test_for_model_pickles_and_names(self, rng):
        det = _tiny_detector(rng)
        spec = WorkerSpec.for_model(det, config=SessionConfig())
        assert spec.name == "Detector"
        # The parent resolved the plan; the spec ships it, not the model.
        assert spec.backend == "engine"
        assert isinstance(spec.runner.forward, CompiledNet)
        assert not hasattr(spec, "model_blob")
        x = _images(rng, 2)
        shipped = pickle.loads(pickle.dumps(spec))
        np.testing.assert_array_equal(shipped.runner(x), spec.runner(x))

    def test_quant_spec_ships_the_calibrated_plan(self, rng):
        det = _tiny_detector(rng)
        cal = _images(rng, 4)
        spec = WorkerSpec.for_model(det, config=_quant_config(),
                                    calibration=cal)
        assert spec.backend == "quant"
        shipped = pickle.loads(pickle.dumps(spec)).runner.forward
        assert shipped.quant is not None
        x = _images(rng, 3)
        np.testing.assert_array_equal(shipped(x), spec.runner.forward(x))

    def test_warmed_plan_pickles_without_arena_bytes(self, rng):
        det = _tiny_detector(rng)
        with Session.load(det, _quant_config(),
                          calibration=_images(rng, 4)) as session:
            fresh = len(pickle.dumps(session.worker_spec((4, 3, 16, 32))))
            session.run(_images(rng, 4))
            assert session._forward.arena.nbytes() > 0
            warmed = len(pickle.dumps(session.worker_spec((4, 3, 16, 32))))
        assert warmed <= fresh

    def test_config_validates_worker_backend(self):
        with pytest.raises(ValueError, match="worker_backend"):
            ServeConfig(worker_backend="greenlet")
        assert ServeConfig(worker_backend="process").worker_backend == (
            "process"
        )


class TestProcessPoolDirect:
    """Drive one child directly (no server) — parity + error protocol."""

    def test_runner_matches_session_and_survives_bad_input(self, rng):
        det = _tiny_detector(rng)
        x = _images(rng, 3)
        with Session.load(det) as ref_session:
            want = ref_session.run(x)
        with ProcessPool(WorkerSpec.for_model(det)) as pool:
            runner = pool.runner_factory()
            got = runner(x)
            np.testing.assert_allclose(got, want, atol=1e-6)
            pid = runner._worker.pid
            # A runner exception inside the child reports ProcWorkerError
            # and the process survives to serve the next request.
            with pytest.raises(ProcWorkerError):
                runner(np.zeros((1, 7, 16, 32), np.float32))
            np.testing.assert_allclose(runner(x), want, atol=1e-6)
            assert runner._worker.pid == pid  # same process throughout
            assert pool.stats()["alive"] == 1
        assert pool.stats()["alive"] == 0  # closed

    def test_killed_child_raises_then_respawns(self, rng):
        det = _tiny_detector(rng)
        x = _images(rng, 2)
        with Session.load(det) as ref_session:
            want = ref_session.run(x)
        with ProcessPool(WorkerSpec.for_model(det)) as pool:
            runner = pool.runner_factory()
            np.testing.assert_allclose(runner(x), want, atol=1e-6)
            first_pid = runner._worker.pid
            os.kill(first_pid, signal.SIGKILL)
            with pytest.raises(ProcWorkerDied):
                runner(x)
            # Next call transparently respawns a fresh child.
            np.testing.assert_allclose(runner(x), want, atol=1e-6)
            assert runner._worker.pid != first_pid
            stats = pool.stats()
            assert stats["respawns"] == 1
            assert stats["spawned"] == 2

    def test_setup_failure_reports_its_cause(self, rng):
        det = _tiny_detector(rng)
        # Warm-up with 7 channels cannot run: the child fails before
        # "ready" and the parent's error must carry the child's cause.
        spec = WorkerSpec.for_model(det, warmup_shape=(1, 7, 16, 32))
        with pytest.raises(Exception) as want:
            spec.runner(np.zeros((1, 7, 16, 32), np.float32))
        cause = f"{type(want.value).__name__}: {want.value}"
        with ProcessPool(spec) as pool:
            runner = pool.runner_factory()
            with pytest.raises(ProcWorkerDied, match="set-up") as err:
                runner(_images(rng, 1))
        assert cause in str(err.value)

    def test_setup_split_in_span_and_stats(self, rng):
        det = _tiny_detector(rng)
        with obs.recording() as rec, \
                ProcessPool(WorkerSpec.for_model(
                    det, warmup_shape=(2, 3, 16, 32))) as pool:
            pool.runner_factory()(_images(rng, 1))
            stats = pool.stats()
        phases = ("imports_s", "load_s", "warmup_s")
        assert set(stats) >= {"workers", "alive", "spawned", "respawns"}
        assert sorted(stats["last_setup_s"]) == sorted(phases)
        assert all(stats["last_setup_s"][k] >= 0 for k in phases)
        spans = [r for r in rec.records() if r.get("type") == "span"
                 and r["name"] == "serve/proc_spawn"]
        assert len(spans) == 1
        span = spans[0]
        assert span["attrs"]["backend"] == "engine"
        # The three phases add up to the span (one clock across processes).
        total = sum(span["attrs"][k] for k in phases)
        assert total == pytest.approx(span["duration_ms"] / 1e3, abs=1e-3)

    def test_quant_pool_is_bit_exact_across_a_respawn(self, rng):
        det = _tiny_detector(rng)
        cal = _images(rng, 4)
        x = _images(rng, 3)
        with Session.load(det, _quant_config(), calibration=cal) as session:
            want = session.run(x)
        spec = WorkerSpec.for_model(det, config=_quant_config(),
                                    calibration=cal,
                                    warmup_shape=(4, 3, 16, 32))
        with ProcessPool(spec) as pool:
            runner = pool.runner_factory()
            np.testing.assert_array_equal(runner(x), want)
            assert runner._worker.backend == "quant"
            os.kill(runner._worker.pid, signal.SIGKILL)
            with pytest.raises(ProcWorkerDied):
                runner(x)
            np.testing.assert_array_equal(runner(x), want)
            assert pool.stats()["respawns"] == 1

    def test_factory_refused_after_close(self, rng):
        pool = ProcessPool(WorkerSpec.for_model(_tiny_detector(rng)))
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.runner_factory()


class TestCliProcessBackend:
    def test_serve_smoke_via_cli(self, capsys):
        """`repro serve --workers 2 --worker-backend process` end to
        end; "health ok" implies live children (a dead pool trips the
        breaker and degrades health).  Both children are spawned by
        the untimed warm-up, so the timed load never waits on one."""
        from repro.cli import main

        rc = main(["serve", "--images", "8", "--batch-size", "2",
                   "--concurrency", "2", "--width", "0.125",
                   "--config", "C", "--workers", "2",
                   "--worker-backend", "process"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "served 8 requests" in out
        assert "2 children spawned before the timed load" in out
        assert "shed 0" in out
        assert "health ok" in out


class TestProcessBackendServing:
    def test_parity_with_thread_backend_and_session_run(self, rng):
        det = _tiny_detector(rng)
        frames = [f for f in _images(rng, 16)]
        with Session.load(det) as session:
            want = [session.run(f) for f in frames]

        def _serve(backend):
            serve = ServeConfig(max_batch_size=4, max_wait_ms=2.0,
                                num_workers=2, worker_backend=backend)
            with Session.load(det, serve=serve) as session:
                futs = [session.submit(f) for f in frames]
                results = [f.result(timeout=120.0) for f in futs]
                assert all(r.status == STATUS_OK for r in results)
                stats = session.server.stats.snapshot()
                health = session.health()
                return results, stats, health

        thread_results, _, _ = _serve("thread")
        with obs.recording() as rec:
            proc_results, stats, health = _serve("process")
        thread_out = [r.value for r in thread_results]
        proc_out = [r.value for r in proc_results]
        # The child processes actually served — not the eager fallback.
        assert stats["fallback_batches"] == 0
        assert health["procpool"]["spawned"] >= 1
        # The spans a child sends back carry the ids of the batch they
        # ran, and every result belongs to one of those batches.
        spans = rec.tracer.spans
        batch_ids = {s.request_id for s in spans if s.name == "serve/batch"}
        proc_runs = [s for s in spans if s.name == "serve/proc_run"]
        assert proc_runs
        assert all(s.request_id in batch_ids for s in proc_runs)
        members = {rid for bid in batch_ids for rid in bid.split(",")}
        assert all(r.request_id in members for r in proc_results)
        for got, via_thread, ref in zip(proc_out, thread_out, want):
            np.testing.assert_allclose(got, ref, atol=1e-6)
            np.testing.assert_allclose(got, via_thread, atol=1e-6)

    def test_child_runs_the_backend_the_parent_resolved(self, rng):
        """A session pinned to eager in the parent serves eager in the
        child too: the pin is thread-local and does not cross spawn, so
        only a shipped runner can carry it."""
        det = _tiny_detector(rng)
        frame = _images(rng, 1)[0]
        serve = ServeConfig(num_workers=1, worker_backend="process")
        with eager_inference():
            session = Session.load(det, serve=serve)
        with session:
            assert session.backend == "eager"
            result = session.submit(frame).result(timeout=120.0)
            assert result.ok
            np.testing.assert_allclose(result.value, session.run(frame),
                                       atol=1e-6)
            worker = session._procpool._runners[0]._worker
            assert worker.backend == session.backend

    def test_tiled_session_through_process_backend(self, rng):
        det = _tiny_detector(rng)
        frames = rng.normal(0, 1, (4, 3, 32, 64)).astype(np.float32)
        config = SessionConfig(tiles=(2, 2), tile_max_detections=8)
        serve = ServeConfig(max_batch_size=2, max_wait_ms=1.0,
                            num_workers=1, worker_backend="process")
        with Session.load(det, config, serve=serve) as session:
            want = session.run(frames)
            results = [session.submit(f).result(timeout=120.0)
                       for f in frames]
            assert all(r.status == STATUS_OK for r in results)
            assert session.server.stats.snapshot()["fallback_batches"] == 0
        got = np.stack([r.value for r in results])
        assert got.shape == (4, 8, 5)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_sigkill_during_serving_loses_no_accepted_request(self, rng):
        det = _tiny_detector(rng)
        frames = [f for f in _images(rng, 12)]
        serve = ServeConfig(queue_depth=64, max_batch_size=2,
                            max_wait_ms=1.0, num_workers=1,
                            worker_backend="process", max_retries=2)
        with Session.load(det) as session:
            want = [session.run(f) for f in frames]
        with Session.load(det, serve=serve) as session:
            # Warm the child up with one request so there is a pid.
            assert session.submit(frames[0]).result(timeout=120.0).ok
            pool = session._procpool
            pid = pool._runners[0]._worker.pid
            futs = [session.submit(f) for f in frames]
            os.kill(pid, signal.SIGKILL)
            results = [f.result(timeout=120.0) for f in futs]
            # Every accepted request resolves OK: the dead child raises
            # ProcWorkerDied, the retry ladder re-runs the batch, and the
            # runner respawns a fresh process.
            assert all(r.status == STATUS_OK for r in results)
            for r, ref in zip(results, want):
                np.testing.assert_allclose(r.value, ref, atol=1e-6)
            assert pool.respawns >= 1
            assert session.health()["procpool"]["spawned"] >= 2

    def test_injected_procworker_crash_loses_no_accepted_request(self, rng):
        """The `serve.procworker` fault site SIGKILLs the real child
        from the parent hot path; the retry ladder + respawn must
        resolve every accepted request OK — zero lost."""
        det = _tiny_detector(rng)
        frames = [f for f in _images(rng, 10)]
        serve = ServeConfig(queue_depth=64, max_batch_size=2,
                            max_wait_ms=1.0, num_workers=1,
                            worker_backend="process", max_retries=2)
        with Session.load(det) as session:
            want = [session.run(f) for f in frames]
        plan = faults.FaultPlan([
            faults.FaultSpec("serve.procworker", "crash", after=2, times=2),
        ], seed=0)
        with Session.load(det, serve=serve) as session, \
                faults.inject(plan):
            futs = [session.submit(f) for f in frames]
            results = [f.result(timeout=120.0) for f in futs]
            assert plan.fired("serve.procworker") == 2
            assert all(r.status == STATUS_OK for r in results)
            for r, ref in zip(results, want):
                np.testing.assert_allclose(r.value, ref, atol=1e-6)
            pool = session._procpool
            assert pool.respawns >= 1
            # The children actually served every batch after recovery —
            # the breaker's eager fallback never masked the dead pool.
            assert session.server.stats.snapshot()["fallback_batches"] == 0

    def test_stop_with_inflight_resolves_everything(self, rng):
        det = _tiny_detector(rng)
        frames = [f for f in _images(rng, 8)]
        serve = ServeConfig(max_batch_size=2, max_wait_ms=1.0,
                            num_workers=1, worker_backend="process")
        session = Session.load(det, serve=serve)
        try:
            futs = [session.submit(f) for f in frames]
            time.sleep(0.05)  # let a batch get in flight
        finally:
            session.close()
        for fut in futs:
            result = fut.result(timeout=10.0)
            assert result.resolved if hasattr(result, "resolved") else True
            assert result.status is not None
        assert session._procpool.stats()["alive"] == 0

"""Tests for the serving stack: repro.runtime (Session/configs) and
repro.serve (dynamic-batching server)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core import SkyNetBackbone
from repro.detection import Detector
from repro.runtime import Session, ServeConfig, SessionConfig
from repro.serve import (
    STATUS_OK,
    STATUS_SHED,
    STATUS_SHUTDOWN,
    STATUS_TIMEOUT,
    InferenceServer,
    ServeResult,
)


def _tiny_detector(rng) -> Detector:
    det = Detector(SkyNetBackbone("C", width_mult=0.25, rng=rng))
    det.eval()
    return det


def _images(rng, n: int) -> np.ndarray:
    return rng.normal(0, 1, (n, 3, 16, 32)).astype(np.float32)


def _echo_runner_factory():
    """A trivial batch runner: returns its input (identity 'model')."""
    return lambda x: x


def _slow_runner_factory(delay_s: float):
    def factory():
        def runner(x):
            time.sleep(delay_s)
            return x

        return runner

    return factory


# --------------------------------------------------------------------- #
# configs
# --------------------------------------------------------------------- #
class TestConfigs:
    def test_session_config_frozen_and_hashable(self):
        cfg = SessionConfig()
        assert cfg.backend == "engine"
        assert hash(cfg) == hash(SessionConfig())
        with pytest.raises(Exception):
            cfg.backend = "eager"  # frozen

    def test_session_config_validates_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            SessionConfig(backend="cuda")

    @pytest.mark.parametrize("kwargs", [
        {"queue_depth": 0},
        {"max_batch_size": 0},
        {"max_wait_ms": -1.0},
        {"deadline_ms": 0.0},
        {"num_workers": 0},
    ])
    def test_serve_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_serve_result_codes(self):
        assert ServeResult("ok").code == 200
        assert ServeResult("ok").ok
        assert ServeResult("shed").code == 503
        assert ServeResult("timeout").code == 504
        assert ServeResult("error").code == 500
        assert not ServeResult("shed").ok
        with pytest.raises(ValueError):
            ServeResult("maybe")


# --------------------------------------------------------------------- #
# dynamic batching mechanics (echo runner: scheduling only)
# --------------------------------------------------------------------- #
class TestBatching:
    def test_flush_on_batch_size(self):
        """A burst of max_batch_size requests flushes as one batch well
        before the (long) wait window expires."""
        config = ServeConfig(max_batch_size=4, max_wait_ms=5_000.0)
        with InferenceServer(_slow_runner_factory(0.05), config) as server:
            futures = [server.submit(np.zeros((1, 4, 4), np.float32))
                       for _ in range(4)]
            results = [f.result(timeout=5.0) for f in futures]
        assert all(r.status == STATUS_OK for r in results)
        assert [r.batch_size for r in results] == [4, 4, 4, 4]
        assert server.stats.snapshot()["batches"] == 1

    def test_flush_on_wait_window(self):
        """A lone request flushes after ~max_wait_ms, not after the full
        batch fills."""
        config = ServeConfig(max_batch_size=64, max_wait_ms=10.0)
        with InferenceServer(_echo_runner_factory, config) as server:
            future = server.submit(np.zeros((1, 4, 4), np.float32))
            result = future.result(timeout=5.0)
        assert result.status == STATUS_OK
        assert result.batch_size == 1

    def test_lone_request_flushes_before_wait_window(self):
        """PR 7: a request that is alone in the system must not sit out
        ``max_wait_ms`` hoping for batchmates — the batcher flushes as
        soon as the queue is empty and no other worker holds a batch."""
        config = ServeConfig(max_batch_size=64, max_wait_ms=500.0,
                             num_workers=2)
        with InferenceServer(_echo_runner_factory, config) as server:
            for _ in range(3):
                t0 = time.perf_counter()
                result = server.submit(
                    np.zeros((1, 4, 4), np.float32)).result(timeout=5.0)
                elapsed = time.perf_counter() - t0
                assert result.status == STATUS_OK
                assert result.batch_size == 1
                # Far below the 500 ms window (generous CI margin).
                assert elapsed < 0.25, f"lone request waited {elapsed:.3f}s"

    def test_set_batch_cap_shrinks_then_restores_batches(self):
        """The brownout ladder's rung 1: a runtime cap splits what
        would be one full batch, and clearing it restores the
        configured limit."""
        config = ServeConfig(max_batch_size=4, max_wait_ms=5_000.0)
        with InferenceServer(_slow_runner_factory(0.05), config) as server:
            server.set_batch_cap(2)
            futures = [server.submit(np.zeros((1, 4, 4), np.float32))
                       for _ in range(4)]
            results = [f.result(timeout=5.0) for f in futures]
            assert all(r.status == STATUS_OK for r in results)
            assert all(r.batch_size <= 2 for r in results)
            assert server.stats.snapshot()["batches"] >= 2

            server.set_batch_cap(None)  # restore: one full batch again
            futures = [server.submit(np.zeros((1, 4, 4), np.float32))
                       for _ in range(4)]
            results = [f.result(timeout=5.0) for f in futures]
            assert [r.batch_size for r in results] == [4, 4, 4, 4]
        with pytest.raises(ValueError):
            server.set_batch_cap(0)

    def test_deadline_expiry_returns_timeout_not_hang(self):
        """Requests queued past their deadline resolve 504, promptly."""
        config = ServeConfig(max_batch_size=1, max_wait_ms=0.0,
                             queue_depth=8, num_workers=1)
        with obs.recording() as rec:
            with InferenceServer(_slow_runner_factory(0.1),
                                 config) as server:
                # first request occupies the worker for 100 ms; the rest
                # wait in queue past their 10 ms deadline
                first = server.submit(np.zeros((1, 4, 4), np.float32))
                rest = [server.submit(np.zeros((1, 4, 4), np.float32),
                                      deadline_ms=10.0)
                        for _ in range(3)]
                assert first.result(timeout=5.0).status == STATUS_OK
                statuses = [f.result(timeout=5.0).status for f in rest]
        assert statuses == [STATUS_TIMEOUT] * 3
        assert server.stats.snapshot()["timeouts"] == 3
        assert rec.metrics.counter("serve/timeouts").value == 3

    def test_full_queue_sheds_immediately(self):
        """Overflow submissions resolve 503 without blocking the caller."""
        config = ServeConfig(queue_depth=2, max_batch_size=1,
                             max_wait_ms=0.0, num_workers=1)
        with obs.recording() as rec:
            with InferenceServer(_slow_runner_factory(0.2),
                                 config) as server:
                t0 = time.perf_counter()
                futures = [server.submit(np.zeros((1, 4, 4), np.float32))
                           for _ in range(12)]
                submit_s = time.perf_counter() - t0
                results = [f.result(timeout=5.0) for f in futures]
        assert submit_s < 0.15  # never blocked on the 200 ms runner
        shed = [r for r in results if r.status == STATUS_SHED]
        ok = [r for r in results if r.status == STATUS_OK]
        assert len(shed) >= 8 and len(ok) >= 1
        assert all(r.code == 503 for r in shed)
        assert server.stats.snapshot()["shed"] == len(shed)
        assert rec.metrics.counter("serve/shed").value == len(shed)

    def test_worker_survives_runner_exception(self):
        """With retries disabled (fail-fast config), a runner exception
        surfaces as a 500-style result and the worker keeps serving."""
        calls = []

        def factory():
            def runner(x):
                calls.append(x.shape[0])
                if len(calls) == 1:
                    raise RuntimeError("transient kaboom")
                return x

            return runner

        config = ServeConfig(max_batch_size=1, max_wait_ms=0.0,
                             max_retries=0)
        with InferenceServer(factory, config) as server:
            bad = server.submit(np.zeros((1, 4, 4), np.float32))
            result = bad.result(timeout=5.0)
            assert result.status == "error" and result.code == 500
            assert "kaboom" in result.error
            good = server.submit(np.zeros((1, 4, 4), np.float32))
            assert good.result(timeout=5.0).status == STATUS_OK

    def test_stop_resolves_queued_and_later_submissions(self):
        config = ServeConfig(max_batch_size=1, max_wait_ms=0.0,
                             queue_depth=8)
        server = InferenceServer(_slow_runner_factory(0.1), config)
        futures = [server.submit(np.zeros((1, 4, 4), np.float32))
                   for _ in range(4)]
        server.stop()
        statuses = {f.result(timeout=5.0).status for f in futures}
        assert statuses <= {STATUS_OK, STATUS_SHUTDOWN}
        late = server.submit(np.zeros((1, 4, 4), np.float32))
        assert late.result(timeout=1.0).status == STATUS_SHUTDOWN
        server.stop()  # idempotent

    def test_submit_rejects_multi_image_batches(self):
        with InferenceServer(_echo_runner_factory) as server:
            with pytest.raises(ValueError, match="one image"):
                server.submit(np.zeros((2, 1, 4, 4), np.float32))

    def test_stop_with_batch_in_flight_resolves_every_future(self):
        """stop() while a worker holds a batch mid-forward: the in-flight
        batch finishes normally, queued requests resolve shutdown, and no
        future is left pending."""
        entered = threading.Event()
        release = threading.Event()

        def factory():
            def runner(x):
                entered.set()
                release.wait(timeout=5.0)
                return x

            return runner

        config = ServeConfig(max_batch_size=2, max_wait_ms=0.0,
                             queue_depth=8, num_workers=1)
        server = InferenceServer(factory, config)
        futures = [server.submit(np.zeros((1, 4, 4), np.float32))
                   for _ in range(6)]
        assert entered.wait(timeout=5.0)  # a batch is inside the runner
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        release.set()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive()
        results = [f.result(timeout=5.0) for f in futures]
        assert all(f.done() for f in futures)
        statuses = {r.status for r in results}
        assert statuses <= {STATUS_OK, STATUS_SHUTDOWN}
        assert STATUS_OK in statuses  # the in-flight batch completed

    def test_resolve_tolerates_already_resolved_future(self):
        """A second resolution of a future (a worker and the shutdown
        drain) must be swallowed, not raised."""
        from concurrent.futures import Future

        from repro.serve.server import _resolve

        future = Future()
        _resolve(future, ServeResult(STATUS_OK))
        _resolve(future, ServeResult(STATUS_SHUTDOWN))  # no raise
        assert future.result(timeout=1.0).status == STATUS_OK


# --------------------------------------------------------------------- #
# the Session facade
# --------------------------------------------------------------------- #
class TestSession:
    def test_run_matches_predict(self, rng):
        det = _tiny_detector(rng)
        x = _images(rng, 4)
        session = Session.load(det)
        assert session.backend == "engine"
        np.testing.assert_allclose(session.run(x), det.predict(x),
                                   atol=1e-6)

    def test_single_image_promotion(self, rng):
        det = _tiny_detector(rng)
        x = _images(rng, 2)
        session = Session.load(det)
        single = session.run(x[0])
        assert single.shape == (4,)
        np.testing.assert_allclose(single, session.run(x)[0], atol=1e-6)

    def test_batched_serving_matches_single_run(self, rng):
        """Acceptance: server-batched outputs match Session.run singles
        to 1e-6."""
        det = _tiny_detector(rng)
        x = _images(rng, 12)
        serve = ServeConfig(max_batch_size=4, max_wait_ms=20.0)
        with Session.load(det, serve=serve) as session:
            expected = [session.run(x[i]) for i in range(len(x))]
            futures = [session.submit(x[i]) for i in range(len(x))]
            results = [f.result(timeout=30.0) for f in futures]
        assert all(r.status == STATUS_OK for r in results)
        assert max(r.batch_size for r in results) > 1  # actually batched
        for got, want in zip(results, expected):
            np.testing.assert_allclose(got.value, want, atol=1e-6)

    def test_load_warmup_preallocates_and_publishes_gauge(self, rng):
        det = _tiny_detector(rng)
        with obs.recording() as rec:
            session = Session.load(det, warmup=(3, 16, 32))
            gauge = rec.metrics.gauge("engine/arena/pooled_bytes")
            assert gauge.value > 0
        # Steady state after warmup: same-shape run allocates nothing.
        arena = session._forward.arena
        misses = arena.misses
        session.run(_images(rng, 1)[0])
        assert arena.misses == misses

    def test_workers_warm_the_session_warmup_shape(self, rng):
        """Thread clones and pool children warm at the shape given to
        ``Session.load``, not at ``max_batch_size``: the arena plans each
        exact input shape, so a batch-8 warm-up plans a shape that
        batch-1 forwards never run."""
        session = Session.load(_tiny_detector(rng),
                               serve=ServeConfig(max_batch_size=8),
                               warmup=(3, 16, 32))
        runner = session.runner_for_thread()
        assert runner.forward.arena.nbytes() == session._forward.arena.nbytes()
        assert session._process_pool().spec.warmup_shape == (1, 3, 16, 32)
        session.close()

    def test_close_frees_plan_arenas_and_run_replans(self, rng,
                                                     monkeypatch):
        """A closed session that is still referenced holds only weights:
        its plan's arena and its slice clones' arenas are gone, and the
        next run plans again with the same output."""
        from repro.nn.engine import threads

        monkeypatch.setattr(threads, "cores", lambda: 2)
        session = Session.load(_tiny_detector(rng))
        x = _images(rng, 2)
        before = session.run(x)
        assert session._forward._clones and session._forward.nbytes() > 0
        session.close()
        assert session._forward.nbytes() == 0
        np.testing.assert_array_equal(session.run(x), before)
        assert session._forward.nbytes() > 0

    def test_run_racing_close_is_correct(self, rng):
        session = Session.load(_tiny_detector(rng))
        x = _images(rng, 1)
        want = session.run(x)
        got = []
        runner = threading.Thread(
            target=lambda: got.extend(session.run(x) for _ in range(30)))
        runner.start()
        while runner.is_alive():
            session.close()
        runner.join()
        assert len(got) == 30
        for out in got:
            np.testing.assert_array_equal(out, want)

    def test_load_warmup_validates_shape(self, rng):
        with pytest.raises(ValueError):
            Session.load(_tiny_detector(rng), warmup=(16, 32))

    def test_batch_composition_matches_whole_batch(self, rng):
        """One batch-6 run equals three batch-2 runs and six batch-1
        runs: the fp32 engine within 1e-6, the w8/f8 plan bit for bit."""
        det = _tiny_detector(rng)
        x = _images(rng, 6)
        for backend in ("engine", "quant"):
            session = Session.load(det, SessionConfig(backend=backend),
                                   calibration=x)
            assert session.backend == backend
            whole = session.run(x)
            pairs = np.concatenate([session.run(x[i : i + 2])
                                    for i in range(0, 6, 2)])
            singles = np.concatenate([session.run(x[i : i + 1])
                                      for i in range(6)])
            for parts in (pairs, singles):
                if backend == "quant":
                    np.testing.assert_array_equal(parts, whole)
                else:
                    np.testing.assert_allclose(parts, whole, atol=1e-6)

    def test_eager_fallback_on_uncompilable_model(self, rng):
        from repro.nn.module import Module
        from repro.nn import Tensor

        class Uncompilable(Module):
            def forward(self, x: Tensor) -> Tensor:
                return (x * x).mean(axis=(2, 3))  # no compile rule

        model = Uncompilable()
        with obs.recording() as rec:
            with pytest.warns(RuntimeWarning, match="falling back"):
                session = Session.load(model)
        assert session.backend == "eager"
        assert rec.metrics.counter("runtime/eager_fallback").value == 1
        x = rng.normal(0, 1, (2, 3, 4, 4)).astype(np.float32)
        assert session.run(x).shape == (2, 3)

    def test_no_fallback_raises(self):
        from repro.nn.engine import CompileError
        from repro.nn.module import Module
        from repro.nn import Tensor

        class Uncompilable(Module):
            def forward(self, x: Tensor) -> Tensor:
                return (x * x).mean(axis=(2, 3))

        with pytest.raises(CompileError):
            Session.load(Uncompilable(), SessionConfig(fallback=False))

    def test_load_rejects_non_module(self):
        with pytest.raises(TypeError, match="Module or CompiledNet"):
            Session.load(object())

    def test_load_compiled_net_directly(self, rng):
        from repro.nn.engine import compile_net

        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        net = compile_net(bb)
        session = Session.load(net)
        assert session.backend == "engine"
        x = rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32)
        np.testing.assert_allclose(session.run(x), net(x), atol=1e-6)

    def test_detector_session_cache_and_train_invalidation(self, rng):
        det = _tiny_detector(rng)
        first = det.session()
        assert det.session() is first  # cached by config
        det.train()
        det.eval()
        assert det.session() is not first  # invalidated


# --------------------------------------------------------------------- #
# the eager pin (quantization contexts vs cached compiled plans)
# --------------------------------------------------------------------- #
class TestEagerPin:
    def test_eager_inference_pins_backend_and_bypasses_cache(self, rng):
        from repro.runtime import eager_forced, eager_inference

        det = _tiny_detector(rng)
        assert not eager_forced()
        with eager_inference():
            assert eager_forced()
            session = Session.load(det)
            assert session.backend == "eager"
            assert det.session() is not det.session()  # never cached
        assert not eager_forced()
        assert Session.load(det).backend == "engine"

    def test_quantization_context_not_poisoned_by_cached_plan(self, rng):
        """A compiled session cached *before* weight quantization must
        not leak stale float weights into the context, and the
        quantized weights must not leak out of it."""
        from repro.hardware.quantization import quantized_inference

        det = _tiny_detector(rng)
        x = _images(rng, 4)
        float_pred = det.predict(x)  # caches a compiled session
        with quantized_inference(det, 3, None):
            quant_pred = det.predict(x)
        # 3-bit weights must perturb the boxes: proves the live
        # (quantized) weights were read, not the cached float plan
        assert not np.allclose(quant_pred, float_pred, atol=1e-6)
        # ... and the float weights are back afterwards
        np.testing.assert_allclose(det.predict(x), float_pred, atol=1e-6)

    def test_fm_quantization_applies_through_predict(self, rng):
        """The feature-map hook only exists on the eager path; predict
        inside the context must reflect it (compiled kernels would
        silently skip it)."""
        from repro.hardware.quantization import feature_map_quantization

        det = _tiny_detector(rng)
        x = _images(rng, 4)
        float_pred = det.predict(x)
        with feature_map_quantization(3):
            fm_pred = det.predict(x)
        assert not np.allclose(fm_pred, float_pred, atol=1e-6)
        np.testing.assert_allclose(det.predict(x), float_pred, atol=1e-6)


# --------------------------------------------------------------------- #
# thread safety
# --------------------------------------------------------------------- #
class TestThreadSafety:
    def test_concurrent_workers_match_serial(self, rng):
        """Two server workers (separate engine clones) under concurrent
        load produce exactly the single-threaded results."""
        det = _tiny_detector(rng)
        x = _images(rng, 16)
        serve = ServeConfig(max_batch_size=2, max_wait_ms=1.0,
                            num_workers=2)
        with Session.load(det, serve=serve) as session:
            expected = session.run(x)
            futures = [None] * len(x)

            def client(start: int) -> None:
                for i in range(start, len(x), 2):
                    futures[i] = session.submit(x[i])

            threads = [threading.Thread(target=client, args=(s,))
                       for s in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            results = [f.result(timeout=30.0) for f in futures]
        assert all(r.status == STATUS_OK for r in results)
        for i, r in enumerate(results):
            np.testing.assert_allclose(r.value, expected[i], atol=1e-6)


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #
class TestCli:
    def test_scheduling_flags_belong_to_serve(self, capsys):
        """`serve` parses the server's scheduling flags; `infer` runs
        `Session.run`, rejects them and has no `--serve` switch."""
        from repro.cli import build_parser

        parser = build_parser()
        serve = parser.parse_args([
            "serve", "--batch-size", "4", "--max-wait-ms", "1.5",
            "--workers", "2", "--worker-backend", "process",
            "--concurrency", "3"])
        assert serve.batch_size == 4 and serve.max_wait_ms == 1.5
        assert serve.workers == 2 and serve.worker_backend == "process"
        assert serve.concurrency == 3
        assert parser.parse_args(["serve"]).worker_backend == "thread"
        for argv in (["infer", "--serve"], ["infer", "--batch-size", "4"]):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2  # argparse usage error
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_smoke_via_cli(self, capsys):
        from repro.cli import main

        rc = main(["serve", "--images", "8", "--batch-size", "2",
                   "--concurrency", "2", "--width", "0.25",
                   "--config", "C"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "served 8 requests" in out
        assert "shed 0" in out
        assert "health ok" in out

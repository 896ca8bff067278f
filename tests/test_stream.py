"""Tests for the streaming layer (repro.serve.stream).

The contracts under test, in increasing order of integration:

* ``FrameQueue`` drop-oldest invariants — the producer is *never*
  blocked, evictions are accounted, ``requeue`` never evicts.
* ``StreamStats`` conservation — ``accepted == processed +
  dropped_by_policy`` exactly, under concurrency.
* ``BrownoutController`` hysteresis — deterministic pressure sequences
  drive the full ladder up and down, with the rung actions (batch cap,
  frame stride) observable on a fake server that the ladder never
  asks to trip its breaker.
* Supervised recovery — injected producer/worker/sink/queue faults via
  ``repro.resilience`` leave no accepted frame unaccounted, and the
  sticky tracker survives worker restarts.
* The chaos acceptance run — 8 streams on one engine pool with seeded
  sink stalls, a crashed stream worker, and a sustained overload burst:
  brownout engages, fully recovers to rung 0, and every frame is
  processed or dropped by policy.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.resilience import faults
from repro.runtime import ServeConfig, Session, SessionConfig, StreamConfig
from repro.serve import (
    BrownoutController,
    CallbackSink,
    FrameQueue,
    InferenceServer,
    JsonlSink,
    StreamManager,
    StreamStats,
    SyntheticSource,
    TrackState,
)
from repro.serve.stream import _Frame


def _frame(seq: int) -> _Frame:
    return _Frame(seq, np.zeros((1, 3, 4, 8), np.float32),
                  time.perf_counter())


def _center_box_engine(x):
    """A fake engine pool runner: constant centered box per frame."""
    return np.array([0.5, 0.5, 0.2, 0.1])


# --------------------------------------------------------------------- #
# config
# --------------------------------------------------------------------- #
class TestStreamConfig:
    def test_defaults_and_frozen(self):
        cfg = StreamConfig()
        assert cfg.queue_depth == 8 and cfg.brownout
        assert hash(cfg) == hash(StreamConfig())
        with pytest.raises(Exception):
            cfg.queue_depth = 2  # frozen

    def test_constants_are_not_fields(self):
        """The tracker gate and brownout constants are readable on the
        config but not settable; the tracker every stream builds uses
        the same values."""
        from repro.tracking import TrackState as TrackingTrackState

        cfg = StreamConfig()
        assert (cfg.track_iou, cfg.track_smooth) == (0.3, 0.6)
        assert (cfg.pressure_low, cfg.brownout_stride) == (0.25, 2)
        assert TrackState is TrackingTrackState
        tracker = TrackState()
        assert tracker.iou_threshold == cfg.track_iou
        assert tracker.smooth == cfg.track_smooth
        for name in ("track_iou", "track_smooth", "pressure_low",
                     "brownout_stride"):
            with pytest.raises(TypeError):
                StreamConfig(**{name: 0.5})

    @pytest.mark.parametrize("kwargs", [
        {"queue_depth": 0},
        {"pressure_high": 0.2},  # below pressure_low
        {"escalate_ticks": 0},
        {"supervisor_interval_ms": 0.0},
        {"pressure_high": 0.25},  # no dead band above pressure_low
        {"pressure_high": 1.5},
        {"recover_ticks": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StreamConfig(**kwargs)


# --------------------------------------------------------------------- #
# drop-oldest queue
# --------------------------------------------------------------------- #
class TestFrameQueue:
    def test_put_evicts_oldest_when_full(self):
        stats = StreamStats()
        q = FrameQueue(2, stats)
        for seq in range(1, 5):
            q.put(_frame(seq))
        assert len(q) == 2
        # The two *newest* frames survive; the oldest two were evicted.
        assert [f.seq for f in q.drain()] == [3, 4]
        snap = stats.snapshot()
        assert snap["accepted"] == 4
        assert snap["dropped_backpressure"] == 2

    def test_requeue_never_evicts(self):
        stats = StreamStats()
        q = FrameQueue(2, stats)
        q.put(_frame(1))
        q.put(_frame(2))
        q.requeue(_frame(0))  # transiently capacity + 1, nothing lost
        assert len(q) == 3
        assert [f.seq for f in q.drain()] == [0, 1, 2]
        snap = stats.snapshot()
        assert snap["accepted"] == 2  # requeue is not a new acceptance
        assert snap["requeued"] == 1
        assert snap["dropped_backpressure"] == 0

    def test_get_timeout_returns_none(self):
        q = FrameQueue(2, StreamStats())
        assert q.get(timeout=0.01) is None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FrameQueue(0, StreamStats())

    def test_queue_fault_site_crash(self):
        q = FrameQueue(2, StreamStats())
        plan = faults.FaultPlan(
            [faults.FaultSpec("stream.queue", "crash")])
        with faults.inject(plan):
            with pytest.raises(faults.InjectedFault):
                q.put(_frame(1))
        assert len(q) == 0  # the faulted put accepted nothing

    def test_producer_never_blocks_hammer(self):
        """The satellite invariant: with a consumer orders of magnitude
        slower than the producer, every single ``put`` stays under a
        bounded epsilon, and acceptance is conserved exactly."""
        stats = StreamStats()
        q = FrameQueue(4, stats)
        n = 3000
        consumed = []
        stop = threading.Event()

        def consumer():
            while not stop.is_set() or len(q):
                item = q.get(timeout=0.005)
                if item is not None:
                    consumed.append(item.seq)
                    time.sleep(0.001)  # 1 ms "inference": ~3 s of work

        thread = threading.Thread(target=consumer, daemon=True)
        thread.start()
        t0 = time.perf_counter()
        for seq in range(n):
            q.put(_frame(seq))
        producer_wall = time.perf_counter() - t0
        stop.set()
        thread.join(timeout=10.0)

        snap = stats.snapshot()
        leftovers = len(q.drain())
        # Producer-side bound: the whole run AND the single worst put
        # finish in a fraction of the consumer's ~3 s of work.
        assert producer_wall < 1.0, f"producer ran {producer_wall:.2f}s"
        assert snap["put_block_ms_max"] < 50.0, (
            f"worst put blocked {snap['put_block_ms_max']:.1f} ms")
        # Exact conservation: accepted == consumed + evicted + drained.
        assert snap["accepted"] == n
        assert (len(consumed) + snap["dropped_backpressure"]
                + leftovers) == n
        # The consumer saw frames in order (drop-oldest never reorders).
        assert consumed == sorted(consumed)


# --------------------------------------------------------------------- #
# stats conservation
# --------------------------------------------------------------------- #
class TestStreamStats:
    def test_accounted_invariant(self):
        stats = StreamStats()
        stats.add_many(produced=10, accepted=10)
        stats.add("processed", 6)
        assert not stats.accounted()
        stats.add("dropped_backpressure", 2)
        stats.add("dropped_stride", 1)
        stats.add("dropped_rejected", 1)
        assert stats.accounted()
        assert stats.dropped_by_policy == 4

    def test_concurrent_add_many_is_atomic(self):
        stats = StreamStats()

        def bump():
            for _ in range(1000):
                stats.add_many(accepted=1, processed=1)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = stats.snapshot()
        assert snap["accepted"] == snap["processed"] == 4000


# --------------------------------------------------------------------- #
# sticky tracker
# --------------------------------------------------------------------- #
class TestTrackState:
    def test_new_then_update_then_new(self):
        tracker = TrackState(iou_threshold=0.3, smooth=0.5)
        kind, box = tracker.update([0.5, 0.5, 0.2, 0.2])
        assert kind == "track_new" and tracker.track_id == 1
        # A nearby box continues the track, EMA-smoothed.
        kind, box = tracker.update([0.52, 0.5, 0.2, 0.2])
        assert kind == "track_update" and tracker.track_id == 1
        assert box[0] == pytest.approx(0.51)
        assert tracker.age == 1
        # A far-away box starts a new track id.
        kind, _ = tracker.update([0.1, 0.1, 0.05, 0.05])
        assert kind == "track_new" and tracker.track_id == 2
        assert tracker.age == 0
        assert tracker.updates == 3


# --------------------------------------------------------------------- #
# sources + sinks
# --------------------------------------------------------------------- #
class TestSyntheticSource:
    def test_deterministic_and_shaped(self):
        src = SyntheticSource(frames=5, image_hw=(16, 32), seed=7)
        a = list(src)
        b = list(SyntheticSource(frames=5, image_hw=(16, 32), seed=7))
        assert len(src) == 5 and len(a) == 5
        for x, y in zip(a, b):
            assert x.shape == (3, 16, 32) and x.dtype == np.float32
            np.testing.assert_array_equal(x, y)
        # The object moves: consecutive frames differ.
        assert not np.array_equal(a[0], a[4])


class TestSinks:
    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        sink.publish({"stream": "s0", "seq": 1})
        sink.publish({"stream": "s0", "seq": 2})
        sink.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["seq"] for e in events] == [1, 2]
        with pytest.raises(ValueError):
            sink.publish({"seq": 3})  # closed

    def test_callback_sink_fans_out(self):
        got_a, got_b = [], []
        sink = CallbackSink(got_a.append, got_b.append)
        sink.publish({"seq": 1})
        assert got_a == got_b == [{"seq": 1}]


# --------------------------------------------------------------------- #
# brownout ladder (pure logic, deterministic)
# --------------------------------------------------------------------- #
class _FakeBreaker:
    """Counts every call: the brownout ladder must make none."""

    def __init__(self):
        self.calls: list = []

    def __getattr__(self, name):
        def record(*args, **kwargs):
            self.calls.append(name)

        return record


class _FakeServer:
    """Records the rung actions the controller takes."""

    def __init__(self):
        self.config = ServeConfig(max_batch_size=8)
        self.breaker = _FakeBreaker()
        self.caps: list = []

    def set_batch_cap(self, cap):
        self.caps.append(cap)


class TestBrownoutController:
    def _controller(self, server=None):
        return BrownoutController(
            StreamConfig(pressure_high=0.75, escalate_ticks=2,
                         recover_ticks=2), server=server)

    def test_full_ladder_up_and_down(self):
        server = _FakeServer()
        ctl = self._controller(server)
        # Two hot ticks per rung: 0 -> 1 -> 2 (and saturates).
        levels = [ctl.observe(1.0) for _ in range(6)]
        assert levels == [0, 1, 1, 2, 2, 2]
        assert ctl.stride == 2  # rung 2: process every 2nd frame
        assert server.caps[0] == 4  # rung 1 halved the batch
        # The eager fallback is no relief under load: never tripped.
        assert server.breaker.calls == []
        # Two cool ticks per rung back down to 0.
        levels = [ctl.observe(0.0) for _ in range(4)]
        assert levels == [2, 1, 1, 0]
        assert ctl.stride == 1
        assert server.caps[-1] is None  # rung 0 restored the batch
        assert ctl.max_level_seen == 2
        assert server.breaker.calls == []

    def test_dead_band_holds_level_and_resets_streaks(self):
        ctl = self._controller()
        ctl.observe(1.0)
        assert ctl.observe(1.0) == 1  # escalated
        # One hot tick, then a dead-band tick: the streak resets, so a
        # single further hot tick must NOT escalate.
        ctl.observe(1.0)
        ctl.observe(0.5)
        assert ctl.observe(1.0) == 1
        assert ctl.observe(1.0) == 2  # the second consecutive one does

    def test_hysteresis_no_oscillation_on_boundary(self):
        ctl = self._controller()
        for _ in range(4):
            ctl.observe(1.0)
        assert ctl.level == 2
        # Pressure hovering in the dead band never changes the rung.
        for _ in range(20):
            assert ctl.observe(0.5) == 2


# --------------------------------------------------------------------- #
# stream manager: basics + supervised recovery
# --------------------------------------------------------------------- #
def _run_manager(engine, sources, config=None, sink=None, plan=None,
                 timeout=30.0):
    from contextlib import nullcontext

    manager = StreamManager(engine, sources, sink=sink, config=config)
    with (faults.inject(plan) if plan is not None else nullcontext()):
        manager.start()
        done = manager.join(timeout=timeout)
    health = manager.health()
    manager.stop()
    return manager, done, health


class TestStreamManager:
    def test_processes_everything_when_unloaded(self):
        events = []
        sources = [SyntheticSource(frames=10, image_hw=(16, 32), seed=i)
                   for i in range(2)]
        manager, done, health = _run_manager(
            _center_box_engine, sources,
            config=StreamConfig(queue_depth=32, brownout=False),
            sink=CallbackSink(events.append),
        )
        assert done
        acct = manager.accounting()
        assert acct["exact"] and acct["accepted"] == 20
        # An unloaded pipeline processes every accepted frame.
        assert acct["processed"] == 20 and acct["dropped_by_policy"] == 0
        assert len(events) == 20
        # Sticky tracking: the constant box is one continuous track.
        for stream in manager.streams:
            assert stream.tracker.track_id == 1

    def test_rejected_results_are_dropped_by_policy(self):
        def broken_engine(x):
            raise RuntimeError("engine down")

        sources = [SyntheticSource(frames=6, image_hw=(16, 32), seed=0)]
        manager, done, _ = _run_manager(
            broken_engine, sources,
            config=StreamConfig(queue_depth=8, brownout=False),
        )
        assert done
        snap = manager.streams[0].stats.snapshot()
        assert snap["processed"] == 0
        assert snap["dropped_rejected"] == 6
        assert manager.accounting()["exact"]

    def test_worker_crash_requeues_inhand_and_reattaches_tracker(self):
        """The crashed worker dies *holding* a frame; the supervisor
        must requeue it (processed-or-dropped, never lost) and the
        restarted worker must continue the same track."""
        plan = faults.FaultPlan([
            faults.FaultSpec("stream.worker", "crash", after=3, times=1),
        ])
        sources = [SyntheticSource(frames=12, image_hw=(16, 32), seed=0)]
        manager, done, _ = _run_manager(
            _center_box_engine, sources,
            config=StreamConfig(queue_depth=32, brownout=False,
                                supervisor_interval_ms=5.0),
            plan=plan,
        )
        assert done
        assert plan.fired("stream.worker") == 1
        snap = manager.streams[0].stats.snapshot()
        assert snap["worker_restarts"] == 1
        assert snap["requeued"] == 1  # the in-hand frame came back
        # Nothing lost: the crashed-over frame was processed after all.
        assert snap["processed"] == 12
        assert manager.accounting()["exact"]
        # Tracker state survived the restart: one continuous track.
        assert manager.streams[0].tracker.track_id == 1

    def test_worker_alive_right_after_crash(self):
        """The crashed worker recovers in its own thread, so health
        counts it alive from the moment the crash fires (the slow
        supervisor tick plays no part), and reports ok once the
        requeued frame has landed."""
        plan = faults.FaultPlan([
            faults.FaultSpec("stream.worker", "crash", after=2, times=1),
        ])
        sources = [SyntheticSource(frames=8, image_hw=(16, 32), seed=0)]
        manager = StreamManager(
            _center_box_engine, sources,
            config=StreamConfig(queue_depth=32, brownout=False,
                                supervisor_interval_ms=200.0),
        )
        samples = []
        with faults.inject(plan):
            manager.start()
            deadline = time.perf_counter() + 10.0
            while (plan.fired("stream.worker") == 0
                   and time.perf_counter() < deadline):
                time.sleep(0.0002)
            for _ in range(20):
                samples.append(manager.health())
                time.sleep(0.001)
            assert manager.join(timeout=30.0)
        health = manager.health()
        manager.stop()
        assert plan.fired("stream.worker") == 1
        assert all(h["workers_alive"] == 1 for h in samples)
        assert health["status"] == "ok" and health["workers_alive"] == 1
        assert manager.streams[0].stats.snapshot()["worker_restarts"] == 1

    def test_mid_run_health_counts_frames_in_flight(self):
        """Frames queued or in the worker's hand are in flight, not
        lost: a fault-free run never reads ``inconsistent`` from a
        mid-run ``health()``, while frames are seen in flight."""
        def slow_engine(x):
            time.sleep(0.005)
            return _center_box_engine(x)

        depth = 8
        sources = [SyntheticSource(frames=40, image_hw=(16, 32), seed=0)]
        manager = StreamManager(
            slow_engine, sources,
            config=StreamConfig(queue_depth=depth, brownout=False),
        )
        samples = []
        manager.start()
        try:
            deadline = time.perf_counter() + 30.0
            while (not manager.join(timeout=0.001)
                   and time.perf_counter() < deadline):
                samples.append(manager.health())
            assert manager.join(timeout=30.0)
            final = manager.health()
        finally:
            manager.stop()
        assert len(samples) >= 10
        assert [h["status"] for h in samples
                if h["status"] != "ok"] == []
        in_flight = [h["accounting"]["in_flight"] for h in samples]
        assert max(in_flight) > 0
        assert all(0 <= n <= depth + 1 for n in in_flight)
        assert final["status"] == "ok"
        assert final["accounting"]["exact"]
        assert final["accounting"]["in_flight"] == 0

    def test_forged_counters_read_inconsistent(self):
        """Counters that no real frames can produce still read
        ``inconsistent``: more processed than accepted, or more in
        flight than the queue plus the requeue slot can hold."""
        sources = [SyntheticSource(frames=4, image_hw=(16, 32), seed=0)]
        manager = StreamManager(_center_box_engine, sources,
                                config=StreamConfig(queue_depth=4))
        stats = manager.streams[0].stats
        stats.add_many(accepted=2, processed=3)
        assert manager.accounting()["in_flight"] == -1
        assert manager.health()["status"] == "inconsistent"
        stats.add("accepted", 5)  # 4 in flight: the queue holds them
        assert manager.health()["status"] != "inconsistent"
        stats.add("accepted", 2)  # 6 > queue_depth + 1
        assert manager.health()["status"] == "inconsistent"
        assert not manager.accounting()["exact"]

    def test_producer_crash_restarts_and_source_resumes(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("stream.source", "crash", after=4, times=1),
        ])
        sources = [SyntheticSource(frames=10, image_hw=(16, 32), seed=0)]
        manager, done, _ = _run_manager(
            _center_box_engine, sources,
            config=StreamConfig(queue_depth=32, brownout=False,
                                supervisor_interval_ms=5.0),
            plan=plan,
        )
        assert done
        snap = manager.streams[0].stats.snapshot()
        assert plan.fired("stream.source") == 1
        assert snap["producer_restarts"] == 1
        # The iterator lives on the Stream, not the thread: no frame is
        # produced twice and none are skipped.
        assert snap["accepted"] == 10
        assert manager.accounting()["exact"]

    def test_sink_crash_costs_the_event_not_the_frame(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("stream.sink", "crash", after=2, times=2),
        ])
        events = []
        sources = [SyntheticSource(frames=8, image_hw=(16, 32), seed=0)]
        manager, done, _ = _run_manager(
            _center_box_engine, sources,
            config=StreamConfig(queue_depth=32, brownout=False),
            sink=CallbackSink(events.append), plan=plan,
        )
        assert done
        snap = manager.streams[0].stats.snapshot()
        assert snap["sink_errors"] == 2
        assert snap["sink_events"] == 6 and len(events) == 6
        assert snap["processed"] == 8  # frames unaffected
        assert manager.accounting()["exact"]

    def test_backpressure_drops_oldest_under_slow_engine(self):
        def slow_engine(x):
            time.sleep(0.01)
            return np.array([0.5, 0.5, 0.2, 0.1])

        sources = [SyntheticSource(frames=40, image_hw=(16, 32), seed=0)]
        manager, done, _ = _run_manager(
            slow_engine, sources,
            config=StreamConfig(queue_depth=2, brownout=False),
        )
        assert done
        snap = manager.streams[0].stats.snapshot()
        assert snap["dropped_backpressure"] > 0
        assert snap["put_block_ms_max"] < 50.0  # producer never blocked
        assert manager.accounting()["exact"]

    def test_stop_accounts_leftovers_as_shutdown_drops(self):
        def slow_engine(x):
            time.sleep(0.2)
            return np.array([0.5, 0.5, 0.2, 0.1])

        sources = [SyntheticSource(frames=6, image_hw=(16, 32), seed=0)]
        manager = StreamManager(
            slow_engine, sources,
            config=StreamConfig(queue_depth=8, brownout=False),
        )
        manager.start()
        # Stop as soon as the producer finishes: the 0.2 s engine has
        # served at most a frame or two, so frames are still queued.
        assert manager.streams[0].source_done.wait(timeout=10.0)
        manager.stop()
        snap = manager.streams[0].stats.snapshot()
        assert snap["dropped_shutdown"] > 0
        assert snap["processed"] + snap["dropped_shutdown"] == 6
        assert manager.accounting()["exact"]

    def test_engine_type_validated(self):
        with pytest.raises(TypeError, match="engine"):
            StreamManager(object(), [])

    def test_ids_and_sinks_must_match_sources(self):
        src = SyntheticSource(frames=1)
        with pytest.raises(ValueError, match="one id per source"):
            StreamManager(_center_box_engine, [src], ids=["a", "b"])
        with pytest.raises(ValueError, match="one sink per stream"):
            StreamManager(_center_box_engine, [src],
                          sink=[CallbackSink(), CallbackSink()])


# --------------------------------------------------------------------- #
# session integration
# --------------------------------------------------------------------- #
class TestSessionStreams:
    def test_open_streams_shares_the_engine_pool(self, rng):
        from repro.core import SkyNetBackbone
        from repro.detection import Detector

        det = Detector(SkyNetBackbone("C", width_mult=0.125, rng=rng))
        det.eval()
        serve = ServeConfig(max_batch_size=4, max_wait_ms=1.0)
        sources = [SyntheticSource(frames=8, image_hw=(16, 32), seed=i)
                   for i in range(3)]
        with Session.load(det, SessionConfig(), serve=serve) as session:
            manager = session.open_streams(
                sources, config=StreamConfig(queue_depth=32))
            assert manager.join(timeout=60.0)
            acct = manager.accounting()
            assert acct["exact"] and acct["accepted"] == 24
            assert acct["processed"] == 24
            # All three streams fed the one dynamic-batching server.
            assert session.server.stats.snapshot()["submitted"] == 24
        # close() stopped the manager (idempotent stop beyond this).
        assert manager._stopping.is_set()


# --------------------------------------------------------------------- #
# the chaos acceptance run (ISSUE 9)
# --------------------------------------------------------------------- #
class TestChaosAcceptance:
    def test_eight_streams_brownout_and_recovery(self):
        """8 concurrent streams on one engine pool with seeded faults:
        1% sink stalls, one crashed stream worker, one sustained
        overload burst.  Must finish with the producer never blocked,
        every accepted frame processed or dropped by policy, and the
        brownout ladder engaging then returning to rung 0."""
        slow = threading.Event()
        slow.set()  # the overload burst: the engine starts saturated

        def runner_factory():
            def runner(x):
                # The engine stays saturated until the ladder reaches
                # rung 2.  A single 20 ms forward per batch kept pace
                # with producers slowed by rendering on a busy host, so
                # the queues never filled and the burst went unseen.
                while slow.is_set():
                    time.sleep(0.02)
                return x

            return runner

        config = ServeConfig(queue_depth=64, max_batch_size=8,
                             max_wait_ms=1.0, num_workers=2,
                             breaker_threshold=3,
                             breaker_cooldown_ms=20.0)
        plan = faults.FaultPlan([
            # The ISSUE's 1% sink stalls, plus a deterministic pair so
            # the "stalls actually fired" assertion cannot flake.
            faults.FaultSpec("stream.sink", "stall", rate=0.01,
                             times=None, delay_s=0.01),
            faults.FaultSpec("stream.sink", "stall", after=5, times=2,
                             delay_s=0.01),
            faults.FaultSpec("stream.worker", "crash", after=20, times=1),
        ], seed=0)
        sources = [
            SyntheticSource(frames=30, image_hw=(16, 32), seed=i,
                            interval_ms=2.0)
            for i in range(8)
        ]
        stream_cfg = StreamConfig(queue_depth=4, pressure_high=0.6,
                                  escalate_ticks=2, recover_ticks=2,
                                  supervisor_interval_ms=5.0)
        server = InferenceServer(runner_factory, config,
                                 fallback_factory=runner_factory)
        manager = StreamManager(server, sources, config=stream_cfg)
        try:
            with faults.inject(plan):
                manager.start()
                # Phase 1 — sustained overload: wait for the ladder to
                # reach the stride rung.
                deadline = time.perf_counter() + 30.0
                while (manager.controller.max_level_seen < 2
                       and time.perf_counter() < deadline):
                    time.sleep(0.005)
                assert manager.controller.max_level_seen >= 2, (
                    "brownout never engaged under sustained overload")
                # Phase 2 — the burst ends; everything must recover.
                slow.clear()
                deadline = time.perf_counter() + 30.0
                while (manager.controller.level > 0
                       and time.perf_counter() < deadline):
                    time.sleep(0.005)
                assert manager.controller.level == 0, (
                    "ladder never returned to rung 0 after the burst")
                assert manager.join(timeout=30.0)
            health = manager.health()
            # Recovery, part 1: rung-1's batch cap was lifted, and the
            # ladder never pushed traffic onto the eager fallback.
            assert server._batch_cap is None
            assert server.breaker.opened_count == 0
        finally:
            manager.stop()
            server.stop()

        # The seeded faults actually fired.
        assert plan.fired("stream.worker") == 1
        assert plan.fired("stream.sink") >= 2
        # Recovery, part 2: the crashed worker recovered.
        total_restarts = sum(s.stats.snapshot()["worker_restarts"]
                             for s in manager.streams)
        assert total_restarts >= 1
        # Exact accounting, per stream and in aggregate.
        acct = health["accounting"]
        assert acct["exact"]
        assert acct["accepted"] == 8 * 30
        assert acct["processed"] + acct["dropped_by_policy"] == 8 * 30
        # Something was actually browned out or backpressured — the run
        # was a real overload, not a no-op.
        assert acct["dropped_by_policy"] > 0
        # The producers were never blocked (bounded epsilon, CI-safe).
        for stream in manager.streams:
            snap = stream.stats.snapshot()
            assert snap["put_block_ms_max"] < 50.0, (
                f"{stream.stream_id} producer blocked "
                f"{snap['put_block_ms_max']:.1f} ms")


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestCli:
    def test_stream_smoke_with_chaos(self, capsys, tmp_path):
        from repro.cli import main

        from repro.obs import load_trace

        events = tmp_path / "events.jsonl"
        trace = str(tmp_path / "stream.jsonl")
        rc = main(["stream", "--streams", "2", "--frames", "12",
                   "--width", "0.125", "--fps", "60", "--chaos",
                   "--events", str(events), "--config", "C",
                   "--batch-size", "4", "--workers", "2", "--seed", "1",
                   "--trace", trace])
        out = capsys.readouterr().out
        assert rc == 0
        assert "accounting exact" in out
        assert "worker crashes" in out
        assert "stream health ok" in out
        # The trace counts the streams' frames under the stats' names.
        accepted = [r["value"] for r in load_trace(trace)
                    if r.get("name") == "stream/accepted"]
        assert accepted == [24]
        # Every event line is JSON with its stream and sequence number,
        # and each stream's sequence numbers strictly increase.
        last: dict = {}
        lines = events.read_text().splitlines()
        assert lines
        for line in lines:
            event = json.loads(line)
            stream, seq = event["stream"], event["seq"]
            assert seq > last.get(stream, 0), (stream, seq)
            last[stream] = seq
        assert sorted(last) == ["s0", "s1"]

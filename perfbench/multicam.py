"""The open-loop workload ``multicam_int8``.

Two synchronized cameras release a frame every 250 ms from one clock,
whether or not the previous frame has come back.  Frames go through
``Session.open_streams`` to the dynamic-batching server, a process-pool
worker running the w8/f8 integer plan, the per-stream tracker, and a
``CallbackSink`` that timestamps each delivery.
"""

from __future__ import annotations

import gc
import threading
import time

import numpy as np

from harness import (
    PAPER,
    CpuClock,
    OutputMismatch,
    Ratio,
    Result,
    Scale,
    build_detector,
    end_to_end,
    median,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
)
from layers import INT8_STEPS, complete, engine_layer, spans_ms, timed

NAME = "multicam_int8"
CAMERAS = 2
CAMERA_FPS = 4.0
#: A frame delivered later than one camera interval after it was due
#: misses ``slo_ok_ratio``.
LATENCY_LIMIT_MS = 1e3 / CAMERA_FPS
#: Lead between building the camera clock and the first due time, so
#: both camera threads are running when frame 1 is due.
START_LEAD_S = 0.2
#: How long a stream may take to drain after its last due time.
DRAIN_TIMEOUT_S = 60.0
QUANT_BITS = (8, 8)


def make_inputs(seed: int, scale: Scale = PAPER):
    """Per-camera frame pools and a calibration batch, from ``seed``."""
    from repro.datasets.renderer import SceneRenderer

    rng = np.random.default_rng(seed)
    renderer = SceneRenderer(scale.frame_hw)
    cams = [np.stack([renderer.render(rng=rng)[0]
                      for _ in range(scale.camera_pool)])
            for _ in range(CAMERAS)]
    calibration = np.stack([renderer.render(rng=rng)[0]
                            for _ in range(scale.calibration_frames)])
    return cams, calibration


def reference_boxes(det, calibration, cams) -> list[np.ndarray]:
    """Best box per frame from the in-process integer plan at batch 1."""
    from repro.runtime import Session, SessionConfig

    config = SessionConfig(backend="quant", quant_bits=QUANT_BITS)
    with Session.load(det, config, calibration=calibration) as ref:
        return [np.stack([ref.run(f) for f in frames]) for frames in cams]


def expected_events(seqs, boxes: np.ndarray) -> list[tuple]:
    """Fold reference boxes through a fresh tracker in delivered-sequence
    order: ``(kind, track_id, rounded box)`` per delivered frame, as the
    stream publishes them."""
    from repro.runtime import StreamConfig
    from repro.serve import TrackState

    config = StreamConfig()
    tracker = TrackState(config.track_iou, config.track_smooth)
    out = []
    for seq in seqs:
        kind, box = tracker.update(boxes[(seq - 1) % len(boxes)])
        out.append((kind, tracker.track_id,
                    [round(float(v), 5) for v in box]))
    return out


class Camera:
    """Yields frame ``k`` (0-based) at ``t0 + k * interval`` on the
    shared clock, recording how late each release was."""

    def __init__(self, frames: np.ndarray, count: int, t0: float,
                 interval_s: float) -> None:
        self.frames = frames
        self.count = count
        self.t0 = t0
        self.interval_s = interval_s
        self.late_ms_max = 0.0

    def due(self, seq: int) -> float:
        """Due time of the frame the stream numbers ``seq`` (1-based)."""
        return self.t0 + (seq - 1) * self.interval_s

    def __iter__(self):
        for k in range(self.count):
            due = self.t0 + k * self.interval_s
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late_ms = (time.perf_counter() - due) * 1e3
            self.late_ms_max = max(self.late_ms_max, late_ms)
            yield self.frames[k % len(self.frames)]


class Deliveries:
    """Sink callback: delivery time and event of every published frame."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.events: list[tuple[float, dict]] = []

    def __call__(self, event: dict) -> None:
        t = time.perf_counter()
        with self._lock:
            self.events.append((t, event))


def set_up(det, calibration, frame, ref_box):
    """Load, then submit one frame and wait for the pool's verified
    answer; returns ``(session, setup seconds, spawn seconds)``."""
    from repro.runtime import ServeConfig, Session, SessionConfig

    t0 = time.perf_counter()
    session = Session.load(
        det, SessionConfig(backend="quant", quant_bits=QUANT_BITS),
        serve=ServeConfig(worker_backend="process"),
        calibration=calibration, warmup=frame.shape,
    )
    t_submit = time.perf_counter()
    result = session.submit(frame).result(timeout=DRAIN_TIMEOUT_S)
    t1 = time.perf_counter()
    if not (result.ok and np.array_equal(result.value, ref_box)):
        session.close()
        raise OutputMismatch(f"{NAME}: first pool answer differs from the "
                             "in-process integer plan")
    return session, t1 - t0, t1 - t_submit


def _server_stats(session) -> dict:
    return dict(session.health().get("stats", {}))


def stream_phase(session, cams, refs, seconds: float,
                 start_lead_s: float = START_LEAD_S) -> dict:
    """Run the cameras for ``seconds`` and check every delivered event.

    Frame 1 of every camera is due ``start_lead_s`` from now; latency
    runs from each frame's due time to its delivery at the sink.
    """
    from repro.serve import CallbackSink

    count = max(1, int(round(seconds * CAMERA_FPS)))
    t0 = time.perf_counter() + start_lead_s
    cameras = [Camera(frames, count, t0, 1.0 / CAMERA_FPS)
               for frames in cams]
    sink = Deliveries()
    stats0 = _server_stats(session)
    clock = CpuClock()
    manager = session.open_streams(cameras, sink=CallbackSink(sink))
    drained = manager.join(timeout=seconds + DRAIN_TIMEOUT_S)
    own_s, kids_s = clock.elapsed()
    own_mb, kids_mb = peak_rss_mb()
    health = manager.health()
    accounting = manager.accounting()
    brownout_peak = (manager.controller.max_level_seen
                     if manager.controller is not None else 0)
    manager.stop()
    stats1 = _server_stats(session)

    ids = [s.stream_id for s in manager.streams]
    by_stream = {sid: [] for sid in ids}
    for t, event in sink.events:
        by_stream[event["stream"]].append((t, event))
    latencies, e2e_ms, ok, within, mismatched = [], [], 0, 0, 0
    for cam, delivered in enumerate(by_stream.values()):
        delivered.sort(key=lambda te: te[1]["seq"])
        seqs = [e["seq"] for _, e in delivered]
        expected = expected_events(seqs, refs[cam])
        for (t, event), (kind, track_id, box) in zip(delivered, expected):
            if (event.get("kind") != kind
                    or event.get("track_id") != track_id
                    or event.get("box") != box):
                mismatched += 1
                continue
            ms = (t - cameras[cam].due(event["seq"])) * 1e3
            ok += 1
            within += ms <= LATENCY_LIMIT_MS
            latencies.append(ms)
            e2e_ms.append(event["e2e_ms"])
    last = max((t for t, _ in sink.events), default=t0)
    return {
        "due": count * len(cams),
        "ok": ok,
        "mismatched": mismatched,
        "within_limit": within,
        "latencies_ms": latencies,
        "sink_e2e_ms": e2e_ms,
        "wall_s": max(last - t0, 1e-9),
        "drained": drained,
        "late_ms_max": max(c.late_ms_max for c in cameras),
        "own_cpu_s": own_s,
        "kids_cpu_s": kids_s,
        "own_mb": own_mb,
        "kids_mb": kids_mb,
        "accounting": accounting,
        "brownout_peak": brownout_peak,
        "put_block_ms_max": max(s["put_block_ms_max"]
                                for s in health["streams"]),
        "stats": {k: stats1.get(k, 0) - stats0.get(k, 0)
                  for k in stats1 if k != "ts_monotonic"},
    }


def _inputs(seed, scale):
    det = build_detector(scale)
    cams, calibration = make_inputs(seed, scale)
    refs = reference_boxes(det, calibration, cams)
    gc.collect()
    reset_peak_rss()
    return det, cams, calibration, refs


def run(seed: int, seconds: float, scale: Scale = PAPER) -> Result:
    """The measured run: end-to-end metrics with tracing off."""
    det, cams, calibration, refs = _inputs(seed, scale)
    setups = []
    session = None
    for _ in range(scale.pool_setups):
        if session is not None:
            session.close()
        session, elapsed, _ = set_up(det, calibration, cams[0][0],
                                     refs[0][0])
        setups.append(elapsed)
    try:
        phase = stream_phase(session, cams, refs, seconds)
    finally:
        session.close()
    if phase["ok"] < scale.min_frames:
        raise RuntimeError(
            f"{NAME}: {phase['ok']} verified frames in {seconds} s, need "
            f"{scale.min_frames}; the run is void")
    ok = Ratio(phase["ok"], phase["due"], "frames due")
    slo = Ratio(phase["within_limit"], phase["due"],
                f"frames due; limit {LATENCY_LIMIT_MS} ms after due time")
    cpu_s = phase["own_cpu_s"] + phase["kids_cpu_s"]
    metrics, ungated = end_to_end({
        "setup_s": median(setups),
        "fps": phase["ok"] / phase["wall_s"],
        "latency_p50_ms": percentile(phase["latencies_ms"], 50),
        "latency_p90_ms": percentile(phase["latencies_ms"], 90),
        "ok_ratio": ok.value,
        "slo_ok_ratio": slo.value,
        "cpu_ms_per_frame": cpu_s * 1e3 / max(phase["ok"], 1),
        "peak_rss_mb": phase["own_mb"] + phase["kids_mb"],
    })
    details = {
        "loop": f"open, {CAMERAS} cameras x {CAMERA_FPS} fps, one clock",
        "frames_verified": phase["ok"],
        "frames_mismatched": phase["mismatched"],
        "latency_samples": len(phase["latencies_ms"]),
        "latency_from": "due time to sink delivery",
        "gen_late_ms_max": phase["late_ms_max"],
        "setup_s_samples": setups,
        "ok_ratio": ok.detail(),
        "slo_ok_ratio": slo.detail(),
        "fps_base": "verified frames per second from first due time to "
                    "last delivery; pinned near the offered rate",
        "cpu_s": {"program": phase["own_cpu_s"],
                  "children": phase["kids_cpu_s"]},
        "peak_rss_mb": {"program": phase["own_mb"],
                        "children": phase["kids_mb"]},
        "batch_size_mean": _batch_mean(phase["stats"]),
        "drained": phase["drained"],
    }
    # A frame dropped or refused is a failed operation; only a delivered
    # event that differs from the reference is a wrong output.
    return Result(phase["mismatched"] == 0, phase["due"],
                  phase["due"] - phase["ok"], metrics, details, ungated)


def _batch_mean(stats: dict) -> float:
    batches = stats.get("batches", 0)
    return stats.get("batched_requests", 0) / batches if batches else 0.0


def _server_latency_ms(recorder) -> list[float]:
    """Queue wait plus batch time of each request, from the server's
    own ``serve/queue_wait`` and ``serve/batch`` spans."""
    waits, batch = {}, {}
    for span in recorder.tracer.spans:
        if span.request_id is None:
            continue
        if span.name == "serve/queue_wait":
            waits[span.request_id] = span.duration_ms
        elif span.name == "serve/batch":
            for rid in span.request_id.split(","):
                batch[rid] = span.duration_ms
    return [waits[r] + batch[r] for r in waits if r in batch]


def run_traced(seed: int, seconds: float, scale: Scale = PAPER) -> Result:
    """The traced run: per-layer metrics.

    Halves of ``seconds``: the cameras untraced, then traced (their p50
    latencies give the cost of tracing; the traced half gives the
    server, pool and stream spans).  Then, outside the stream phase, the
    in-process integer plan and an extra ``ProcessPool`` runner.
    """
    from repro import obs

    det, cams, calibration, refs = _inputs(seed, scale)
    session, _, spawn_s = set_up(det, calibration, cams[0][0], refs[0][0])
    try:
        untraced = stream_phase(session, cams, refs, seconds / 2)
        with obs.recording() as rec:
            traced = stream_phase(session, cams, refs, seconds / 2)
        respawns = session.health()["procpool"]["respawns"]
    finally:
        session.close()
    child_spans = spans_ms(rec, "serve/proc_run")
    stats = traced["stats"]
    p50_untraced = median(untraced["latencies_ms"])
    p50_traced = median(traced["latencies_ms"])
    measured = {
        "serve.server.queue_wait_ms": median(spans_ms(rec,
                                                      "serve/queue_wait")),
        "serve.server.batch_size_mean": _batch_mean(stats),
        "serve.server.batches": stats.get("batches", 0),
        "serve.server.failed": sum(stats.get(k, 0) for k in
                                   ("errors", "shed", "timeouts")),
        "serve.server.retries": stats.get("retries", 0),
        "serve.procpool.child_forward_ms": median(child_spans),
        "serve.procpool.spawn_s": spawn_s,
        "serve.procpool.child_cpu_per_wall": (
            traced["kids_cpu_s"] / (sum(child_spans) / 1e3)
            if child_spans else 0.0),
        "serve.procpool.child_rss_mb": traced["kids_mb"],
        "serve.procpool.respawns": respawns,
        "serve.stream.overhead_ms": (median(traced["sink_e2e_ms"])
                                     - median(_server_latency_ms(rec))),
        "serve.stream.dropped": (untraced["accounting"]["dropped_by_policy"]
                                 + traced["accounting"]["dropped_by_policy"]),
        "serve.stream.brownout_peak": max(untraced["brownout_peak"],
                                          traced["brownout_peak"]),
        "serve.stream.put_block_ms_max": max(untraced["put_block_ms_max"],
                                             traced["put_block_ms_max"]),
        "obs.overhead_pct": 100.0 * (p50_traced - p50_untraced)
        / p50_untraced,
        "gen.late_ms_max": max(untraced["late_ms_max"],
                               traced["late_ms_max"]),
    }
    probes = _int8_probes(det, calibration, cams[0], seconds / 8)
    measured.update(probes)
    attempted = untraced["due"] + traced["due"]
    ok = untraced["ok"] + traced["ok"]
    mismatched = untraced["mismatched"] + traced["mismatched"]
    details = {
        "latency_p50_ms_untraced": p50_untraced,
        "latency_p50_ms_traced": p50_traced,
        "obs_overhead_pct_base": "untraced latency_p50_ms",
        "child_cpu_per_wall_base": "child CPU over summed serve/proc_run "
                                   "span time",
        "transport_ms_base": "runner round trip minus the child's "
                             "serve/proc_run span, batch 1",
        "child_forward_samples": len(child_spans),
    }
    return Result(mismatched == 0, attempted, attempted - ok,
                  complete(measured), details)


def _int8_probes(det, calibration, frames, seconds: float) -> dict:
    """The in-process integer plan at batch 1 and 2, ``best_box`` on its
    output, and the round trip of an extra pool runner at batch 1."""
    from repro import obs
    from repro.detection.head import best_box
    from repro.nn.engine import QuantConfig, compile_net
    from repro.runtime import ServeConfig, SessionConfig
    from repro.serve import ProcessPool, WorkerSpec

    net, ms = timed(lambda: compile_net(det, quant=QuantConfig(*QUANT_BITS),
                                        calibration=calibration))
    out = {"engine.int8.compile_s": ms / 1e3}
    b1 = engine_layer(net, frames[:1], "engine.int8.b1", INT8_STEPS, seconds)
    b2 = engine_layer(net, frames[:2], "engine.int8.b2", 0, seconds)
    b1.pop("cpu_per_wall")
    b2.pop("cpu_per_wall")
    out.update(b1)
    out.update(b2)
    out["engine.int8.arena_mb"] = net.arena.nbytes() / 1e6
    raw = net(frames[:1])
    anchors = np.asarray(det.head.anchors)
    out["detection.best_box_ms"] = median(
        [timed(best_box, raw, anchors)[1] for _ in range(50)])
    del net
    gc.collect()

    spec = WorkerSpec.for_model(
        det, config=SessionConfig(backend="quant", quant_bits=QUANT_BITS),
        calibration=calibration,
        warmup_shape=(ServeConfig().max_batch_size,) + frames.shape[1:],
    )
    with ProcessPool(spec) as pool:
        runner = pool.runner_factory()
        runner(frames[:1])  # spawn, calibrate, warm up
        round_trips = []
        with obs.recording() as rec:
            for i in range(max(10, int(seconds * 10))):
                round_trips.append(timed(runner, frames[i % len(frames)
                                                        ][None])[1])
        child = spans_ms(rec, "serve/proc_run")
    out["serve.procpool.transport_ms"] = median(
        [rt - c for rt, c in zip(round_trips, child)])
    return out

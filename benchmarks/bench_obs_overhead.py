"""Observability overhead — the disabled recorder must be (near) free.

The `repro.obs` helpers are called unconditionally from every hot loop
(`DetectionTrainer.fit`, PSO, the pipeline simulator, and — since the
telemetry layer — every `InferenceServer.submit`/batch).  This bench
verifies the no-op fast path costs <1% of a real training run and <2%
of the served request path:

1. micro-time the disabled helpers (`span` / `inc` / `observe`) and the
   per-request id mint (`new_request_id`),
2. count how many helper calls one `fit` actually makes (by running
   once with a recorder enabled),
3. bound the disabled-path overhead as calls x per-call cost and
   compare against the measured fit wall time,
4. push the same request load through the dynamic-batching server with
   telemetry off and on, bounding the disabled serve path analytically
   (per-request fixed cost / measured per-request service time) and
   reporting the *enabled* recorder's measured throughput cost.

Run as a script to (re)write ``BENCH_obs.json`` at the repo root.
"""

from __future__ import annotations

import time
import timeit

import numpy as np
from common import WIDTH, build_detector, detection_data, print_table

from repro import obs
from repro.core import SkyNetBackbone
from repro.detection import DetectionTrainer, TrainConfig
from repro.runtime import ServeConfig, Session

EPOCHS = 4
SERVE_REQUESTS = 192
SERVE_REPS = 3


def _fit_once() -> float:
    """Train a small detector; returns wall seconds."""
    train, val = detection_data()
    det = build_detector(
        SkyNetBackbone("A", width_mult=WIDTH, rng=np.random.default_rng(0))
    )
    trainer = DetectionTrainer(
        det, TrainConfig(epochs=EPOCHS, batch_size=16, augment=False)
    )
    t0 = time.perf_counter()
    trainer.fit(train, val, rng=np.random.default_rng(0))
    return time.perf_counter() - t0


def measure_overhead() -> dict:
    obs.disable()

    # 1. per-call cost of the disabled helpers
    n = 100_000
    span_ns = timeit.timeit(
        "s = span('x', k=1); s.__enter__(); s.__exit__()",
        globals={"span": obs.span}, number=n,
    ) / n * 1e9
    metric_ns = timeit.timeit(
        "inc('c'); observe('h', 1.0)",
        globals={"inc": obs.inc, "observe": obs.observe}, number=n,
    ) / n * 1e9

    # 2. helper-call count of one fit (spans enter+exit, metric writes)
    with obs.recording() as rec:
        enabled_s = _fit_once()
    n_spans = len(rec.tracer.spans)
    n_metric_writes = int(
        rec.metrics.counter("train/batches").value  # one inc per batch
        + rec.metrics.histogram("train/loss").count
        + rec.metrics.gauge("train/imgs_per_sec").updates
        + rec.metrics.gauge("train/val_iou").updates
    )

    # 3. disabled-path bound vs measured fit time
    disabled_s = _fit_once()
    overhead_s = (n_spans * span_ns + n_metric_writes * metric_ns) / 1e9
    return {
        "span_ns": span_ns,
        "metric_ns": metric_ns,
        "n_spans": n_spans,
        "n_metric_writes": int(n_metric_writes),
        "fit_disabled_s": disabled_s,
        "fit_enabled_s": enabled_s,
        "overhead_s": overhead_s,
        "overhead_pct": 100.0 * overhead_s / disabled_s,
    }


def _serve_load(session, images, n_requests: int) -> float:
    """Requests/second for ``n_requests`` through the running server."""
    t0 = time.perf_counter()
    futures = [session.submit(images[i % len(images)])
               for i in range(n_requests)]
    for f in futures:
        f.result(timeout=60.0)
    return n_requests / (time.perf_counter() - t0)


def measure_serve_overhead() -> dict:
    """Telemetry cost on the served request path, off and on.

    The *disabled* bound is analytic — per-request fixed cost (request id
    mint + the handful of no-op helper calls submit/batch make) over the
    measured per-request service time — because a throughput A/B at
    this scale is dominated by scheduler noise.  The *enabled* cost is
    the measured throughput ratio, best-of-reps both arms.
    """
    obs.disable()

    n = 100_000
    ctx_ns = timeit.timeit(
        "new_request_id('bench')",
        globals={"new_request_id": obs.new_request_id}, number=n,
    ) / n * 1e9
    helper_ns = timeit.timeit(
        "inc('c'); set_gauge('g', 1.0); observe('h', 1.0)",
        globals={"inc": obs.inc, "set_gauge": obs.set_gauge,
                 "observe": obs.observe}, number=n,
    ) / n * 1e9

    det = build_detector(
        SkyNetBackbone("A", width_mult=WIDTH, rng=np.random.default_rng(0))
    )
    images = [img[None] for img in detection_data()[0].images[:8]]

    def run_arm(recording: bool) -> float:
        session = Session.load(det, serve=ServeConfig(
            num_workers=1, max_batch_size=8, max_wait_ms=1.0,
        ))
        try:
            _serve_load(session, images, 16)  # warm worker clone + arena
            best = 0.0
            for _ in range(SERVE_REPS):
                if recording:
                    with obs.recording():
                        best = max(best,
                                   _serve_load(session, images,
                                               SERVE_REQUESTS))
                else:
                    best = max(best,
                               _serve_load(session, images, SERVE_REQUESTS))
            return best
        finally:
            session.close()

    rps_disabled = run_arm(recording=False)
    rps_enabled = run_arm(recording=True)

    # ~4 no-op helper calls per request on the submit+batch path.
    per_request_fixed_ns = ctx_ns + 4 * helper_ns
    service_ns = 1e9 / rps_disabled
    return {
        "ctx_ns": ctx_ns,
        "helper_ns": helper_ns,
        "rps_disabled": rps_disabled,
        "rps_enabled": rps_enabled,
        "enabled_overhead_pct":
            100.0 * (1.0 - rps_enabled / rps_disabled),
        "disabled_bound_pct": 100.0 * per_request_fixed_ns / service_ns,
    }


def test_disabled_serve_path_under_two_percent(benchmark):
    stats = benchmark.pedantic(measure_serve_overhead, rounds=1,
                               iterations=1)
    print_table(
        "obs overhead on the serve path "
        f"({SERVE_REQUESTS} requests, best of {SERVE_REPS})",
        ["quantity", "value"],
        [
            ["new_request_id", f"{stats['ctx_ns']:.0f} ns"],
            ["disabled helper trio", f"{stats['helper_ns']:.0f} ns"],
            ["serve rps (telemetry off)", f"{stats['rps_disabled']:.1f}"],
            ["serve rps (telemetry on)", f"{stats['rps_enabled']:.1f}"],
            ["disabled-path bound", f"{stats['disabled_bound_pct']:.4f} %"],
            ["enabled measured cost",
             f"{stats['enabled_overhead_pct']:.2f} %"],
        ],
    )
    assert stats["disabled_bound_pct"] < 2.0


def test_disabled_recorder_under_one_percent(benchmark):
    stats = benchmark.pedantic(measure_overhead, rounds=1, iterations=1)
    print_table(
        "obs overhead on DetectionTrainer.fit "
        f"({EPOCHS} epochs, width {WIDTH})",
        ["quantity", "value"],
        [
            ["disabled span enter+exit", f"{stats['span_ns']:.0f} ns"],
            ["disabled metric write", f"{stats['metric_ns']:.0f} ns"],
            ["helper calls per fit",
             stats["n_spans"] + stats["n_metric_writes"]],
            ["fit wall time (disabled)", f"{stats['fit_disabled_s']:.2f} s"],
            ["fit wall time (enabled)", f"{stats['fit_enabled_s']:.2f} s"],
            ["disabled-path overhead", f"{stats['overhead_pct']:.4f} %"],
        ],
    )
    assert stats["overhead_pct"] < 1.0


if __name__ == "__main__":
    import json
    from pathlib import Path

    fit_stats = measure_overhead()
    serve_stats = measure_serve_overhead()
    for k, v in {**fit_stats, **serve_stats}.items():
        print(f"{k}: {v}")
    payload = {
        "bench": "obs_overhead",
        "model": "SkyNet-A",
        "width_mult": WIDTH,
        "epochs": EPOCHS,
        "serve_requests": SERVE_REQUESTS,
        "serve_reps": SERVE_REPS,
        "methodology": (
            "Disabled-path overheads are analytic bounds: measured "
            "per-call no-op helper cost x call count, over measured "
            "wall time (a throughput A/B at this scale is scheduler "
            "noise).  The enabled serve cost is the measured "
            "throughput ratio, best-of-reps per arm on the same "
            "session.  Thresholds: <1% training, <2% serve disabled "
            "path."
        ),
        "fit": fit_stats,
        "serve": serve_stats,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")

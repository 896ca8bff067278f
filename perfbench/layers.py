"""Per-layer metrics of the traced run: their names, units, and the
timed calls into each layer's public functions.

Every traced run prints every name below.  A layer that a workload's
path never runs (the tiler on ``contest_fp32``, the process pool on the
closed-loop workloads, the fp32 engine on ``multicam_int8``) did no work
in that run and reports 0.
"""

from __future__ import annotations

import time

import numpy as np

from harness import median

#: Kernel steps in the compiled SkyNet-C plans (fp32 fuses each pool
#: into its bundle; the integer plan keeps more separate steps).
FP32_STEPS = 10
INT8_STEPS = 13


def _engine(prefix: str, steps: int) -> dict:
    names = {f"{prefix}.forward_ms": "ms", f"{prefix}.gflops": "GFLOP/s"}
    names.update({f"{prefix}.step{i:02d}_ms": "ms" for i in range(steps)})
    return names


PER_LAYER_UNITS: dict[str, str] = {
    **_engine("engine.fp32.b1", FP32_STEPS),
    **_engine("engine.fp32.b4", FP32_STEPS),
    "engine.fp32.cpu_per_wall": "ratio",
    "engine.fp32.compile_s": "s",
    "engine.fp32.arena_mb": "MB",
    **_engine("engine.int8.b1", INT8_STEPS),
    "engine.int8.b2.forward_ms": "ms",
    "engine.int8.b2.gflops": "GFLOP/s",
    "engine.int8.compile_s": "s",
    "engine.int8.arena_mb": "MB",
    "runtime.run_ms": "ms",
    "runtime.overhead_ms": "ms",
    "detection.best_box_ms": "ms",
    "detection.tiling.split_ms": "ms",
    "detection.tiling.merge_ms": "ms",
    "detection.tiling.candidates_per_frame": "count",
    "detection.tiling.kept_per_frame": "count",
    "serve.server.queue_wait_ms": "ms",
    "serve.server.batch_size_mean": "requests",
    "serve.server.batches": "count",
    "serve.server.failed": "count",
    "serve.server.retries": "count",
    "serve.procpool.child_forward_ms": "ms",
    "serve.procpool.transport_ms": "ms",
    "serve.procpool.spawn_s": "s",
    "serve.procpool.child_cpu_per_wall": "ratio",
    "serve.procpool.child_rss_mb": "MB",
    "serve.procpool.respawns": "count",
    "serve.stream.overhead_ms": "ms",
    "serve.stream.dropped": "count",
    "serve.stream.brownout_peak": "level",
    "serve.stream.put_block_ms_max": "ms",
    "obs.overhead_pct": "%",
    "gen.late_ms_max": "ms",
}


def complete(measured: dict) -> dict:
    """All per-layer metrics as ``name -> (value, unit)``; layers the
    workload did not run report 0."""
    unknown = set(measured) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: (float(measured.get(name, 0.0)), unit)
            for name, unit in PER_LAYER_UNITS.items()}


def timed(fn, *args):
    """``(result, milliseconds)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - t0) * 1e3


def spans_ms(recorder, name: str) -> list[float]:
    """Durations of every finished span called ``name``."""
    return [s.duration_ms for s in recorder.tracer.spans if s.name == name]


def engine_layer(net, x: np.ndarray, prefix: str, steps: int,
                 seconds: float) -> dict:
    """Forward time, GFLOP/s and per-step time of a compiled plan at
    ``x``'s batch, plus CPU per wall second inside the forward.

    Run with tracing off: ``CompiledNet`` emits a span per kernel when
    tracing is on, and kernel time is what this measures.
    """
    from repro.obs import enabled

    if enabled():
        raise RuntimeError("engine_layer must run with tracing off")
    net(x)  # warm the arena at this shape
    times = []
    cpu0 = time.process_time()
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds or len(times) < 3:
        times.append(timed(net, x)[1])
    wall = time.perf_counter() - t_start
    cpu = time.process_time() - cpu0
    profile = net.profile(x, reps=max(3, len(times) // 2), warmup=1)
    forward_ms = median(times)
    out = {
        f"{prefix}.forward_ms": forward_ms,
        f"{prefix}.gflops": profile.total_flops / (forward_ms * 1e6),
        "cpu_per_wall": cpu / wall,
    }
    for step in profile.steps[:steps]:
        out[f"{prefix}.step{step.index:02d}_ms"] = step.mean_ms
    return out

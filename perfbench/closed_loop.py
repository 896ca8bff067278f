"""The closed-loop workloads: ``contest_fp32`` and ``tiled_hires``.

One caller sends a frame, waits for the result, checks it and sends the
next, for the whole measured time: the DAC-SDC deployment, where the
detector reads frames as fast as it can process them.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

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
from layers import FP32_STEPS, complete, engine_layer, spans_ms, timed

#: Largest absolute difference allowed between the engine's and the
#: eager reference's outputs (normalized box coordinates and scores).
#: The compiled plan reorders float32 sums; measured differences are
#: below 3e-7.
FP32_ATOL = 1e-4

#: Small labeled objects per high-resolution scene.
OBJECTS_PER_SCENE = 6

#: The measured run reports frame rate and CPU per frame as medians over
#: blocks of about this length, so a burst of load from outside the
#: program moves them less than it moves a whole-run average.
BLOCK_S = 1.0


@dataclass(frozen=True)
class ClosedLoop:
    """A closed-loop workload: name, tile grid, latency limit."""

    name: str
    tiles: tuple[int, int] | None
    #: One frame interval of the camera the workload stands for; a
    #: frame slower than this misses ``slo_ok_ratio``.
    latency_limit_ms: float


CONTEST = ClosedLoop("contest_fp32", None, 100.0)
TILED = ClosedLoop("tiled_hires", (2, 2), 500.0)


def make_frames(workload: ClosedLoop, seed: int,
                scale: Scale = PAPER) -> np.ndarray:
    """The distinct frames the loop cycles through, from ``seed``."""
    from repro.datasets.renderer import SceneRenderer

    rng = np.random.default_rng(seed)
    if workload.tiles is None:
        renderer = SceneRenderer(scale.frame_hw)
        frames = [renderer.render(rng=rng)[0]
                  for _ in range(scale.contest_pool)]
    else:
        renderer = SceneRenderer(scale.hires_hw)
        frames = [renderer.render_multi(OBJECTS_PER_SCENE, rng=rng)[0]
                  for _ in range(scale.tiled_pool)]
    return np.stack(frames)


def reference_outputs(det, workload: ClosedLoop,
                      frames: np.ndarray) -> np.ndarray:
    """Outputs of an eager-backend session: the best box per frame, or
    the packed detections when tiled."""
    from repro.runtime import Session, SessionConfig

    config = SessionConfig(backend="eager", tiles=workload.tiles)
    with Session.load(det, config) as ref:
        return np.stack([ref.run(f) for f in frames])


def matches(out: np.ndarray, ref: np.ndarray) -> bool:
    out = np.asarray(out)
    return out.shape == ref.shape and bool(
        np.allclose(out, ref, rtol=0.0, atol=FP32_ATOL))


def set_up(det, workload: ClosedLoop, frames: np.ndarray,
           refs: np.ndarray):
    """Load, warm up and produce the first verified output; returns
    ``(session, seconds)``."""
    from repro.runtime import Session, SessionConfig

    t0 = time.perf_counter()
    session = Session.load(det, SessionConfig(tiles=workload.tiles),
                           warmup=frames.shape[1:])
    out = session.run(frames[0])
    elapsed = time.perf_counter() - t0
    if not matches(out, refs[0]):
        session.close()
        raise OutputMismatch(f"{workload.name}: first output after set-up "
                             "differs from the eager reference")
    return session, elapsed


@dataclass
class Loop:
    """Samples of one closed-loop phase."""

    attempted: int = 0
    ok: int = 0
    within_limit: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    block_fps: list = field(default_factory=list)
    block_cpu_ms: list = field(default_factory=list)


def closed_loop(session, frames, refs, seconds: float, limit_ms: float,
                min_frames: int = 0) -> Loop:
    """Call ``session.run`` back to back for ``seconds``, checking each
    output; latency is from call to return of each verified frame.

    A slow program gets up to three times ``seconds`` to reach
    ``min_frames`` verified frames, so that a regression shows in the
    metrics instead of voiding the run.
    """
    loop = Loop()
    n = len(frames)
    clock = CpuClock()
    t_start = time.perf_counter()
    stop = t_start + seconds
    limit = t_start + 3 * seconds
    block = (t_start, 0.0, 0)  # start time, CPU seconds, verified frames
    while True:
        now = time.perf_counter()
        if now - block[0] >= BLOCK_S and loop.ok > block[2]:
            cpu_s, frames_done = clock.total(), loop.ok - block[2]
            loop.block_fps.append(frames_done / (now - block[0]))
            loop.block_cpu_ms.append((cpu_s - block[1]) * 1e3 / frames_done)
            block = (now, cpu_s, loop.ok)
        if now >= limit or (now >= stop and loop.ok >= min_frames):
            break
        i = loop.attempted % n
        out, ms = timed(session.run, frames[i])
        loop.attempted += 1
        if matches(out, refs[i]):
            loop.ok += 1
            loop.latencies_ms.append(ms)
            loop.within_limit += ms <= limit_ms
    loop.wall_s = time.perf_counter() - t_start
    loop.cpu_s = clock.total()
    return loop


def _inputs(workload, seed, scale):
    det = build_detector(scale)
    frames = make_frames(workload, seed, scale)
    refs = reference_outputs(det, workload, frames)
    gc.collect()
    reset_peak_rss()
    return det, frames, refs


def run(workload: ClosedLoop, seed: int, seconds: float,
        scale: Scale = PAPER) -> Result:
    """The measured run: end-to-end metrics with tracing off."""
    det, frames, refs = _inputs(workload, seed, scale)
    setups = []
    session = None
    for _ in range(scale.setups):
        if session is not None:
            session.close()
        session, elapsed = set_up(det, workload, frames, refs)
        setups.append(elapsed)
    loop = closed_loop(session, frames, refs, seconds,
                       workload.latency_limit_ms, scale.min_frames)
    own_mb, kids_mb = peak_rss_mb()
    session.close()

    if loop.ok < scale.min_frames:
        raise RuntimeError(
            f"{workload.name}: {loop.ok} verified frames in "
            f"{loop.wall_s:.1f} s, "
            f"need {scale.min_frames}; the run is void")
    ok = Ratio(loop.ok, loop.attempted, "frames attempted")
    slo = Ratio(loop.within_limit, loop.attempted,
                f"frames attempted; limit {workload.latency_limit_ms} ms")
    p50 = percentile(loop.latencies_ms, 50)
    p90 = percentile(loop.latencies_ms, 90)
    metrics, ungated = end_to_end({
        "setup_s": median(setups),
        "fps": median(loop.block_fps),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "ok_ratio": ok.value,
        "slo_ok_ratio": slo.value,
        "cpu_ms_per_frame": median(loop.block_cpu_ms),
        "peak_rss_mb": own_mb + kids_mb,
    })
    details = {
        "loop": "closed, 1 caller",
        "frames_verified": loop.ok,
        "blocks": len(loop.block_fps),
        "fps_base": f"median over blocks of about {BLOCK_S} s",
        "cpu_ms_per_frame_base": f"median over blocks of about {BLOCK_S} s",
        "fps_whole_run": loop.ok / loop.wall_s,
        "cpu_ms_per_frame_whole_run": loop.cpu_s * 1e3 / max(loop.ok, 1),
        "latency_samples": len(loop.latencies_ms),
        "setup_s_samples": setups,
        "ok_ratio": ok.detail(),
        "slo_ok_ratio": slo.detail(),
        "cpu_s": loop.cpu_s,
        "peak_rss_mb": {"program": own_mb, "children": kids_mb},
    }
    return Result(loop.ok == loop.attempted, loop.attempted,
                  loop.attempted - loop.ok, metrics, details, ungated)


def run_traced(workload: ClosedLoop, seed: int, seconds: float,
               scale: Scale = PAPER) -> Result:
    """The traced run: per-layer metrics.

    Two thirds of ``seconds`` alternate one-second blocks of the loop
    untraced and traced (their frame rates give the cost of tracing).
    The last third sends each frame through ``Session.run`` and then
    through the layer calls it is made of, timed one by one on the same
    input.  Kernel timings follow, untraced.
    """
    from repro import obs
    from repro.nn.engine import compile_net

    det, frames, refs = _inputs(workload, seed, scale)
    session, _ = set_up(det, workload, frames, refs)
    compile_times = []
    for _ in range(3):
        net, ms = timed(compile_net, det)
        compile_times.append(ms / 1e3)
    part = seconds / 3
    limit = workload.latency_limit_ms
    blocks = max(1, round(part))
    loops = {False: [], True: []}
    for _ in range(blocks):
        loops[False].append(
            closed_loop(session, frames, refs, part / blocks, limit))
        with obs.recording():
            loops[True].append(
                closed_loop(session, frames, refs, part / blocks, limit))
    with obs.recording() as rec:
        layer = _split_calls(workload, session, net, frames, refs, part)
        run_spans = spans_ms(rec, "runtime/run")
    session.close()
    every = loops[False] + loops[True]
    attempted = sum(lp.attempted for lp in every) + layer["attempted"]
    ok = sum(lp.ok for lp in every) + layer["ok"]
    fps_untraced, fps_traced = (
        sum(lp.ok for lp in loops[t]) / sum(lp.wall_s for lp in loops[t])
        for t in (False, True))
    measured = {
        "engine.fp32.compile_s": median(compile_times),
        "runtime.run_ms": median(layer["run_ms"]),
        "runtime.overhead_ms": median(layer["overhead_ms"]),
        "obs.overhead_pct": 100.0 * (fps_untraced - fps_traced)
        / fps_untraced,
    }
    if workload.tiles is None:
        measured["detection.best_box_ms"] = median(layer["best_box_ms"])
        x, prefix = frames[:1], "engine.fp32.b1"
    else:
        measured["detection.tiling.split_ms"] = median(layer["split_ms"])
        measured["detection.tiling.merge_ms"] = median(layer["merge_ms"])
        measured["detection.tiling.candidates_per_frame"] = float(
            np.mean(layer["candidates"]))
        measured["detection.tiling.kept_per_frame"] = float(
            np.mean(layer["kept"]))
        x, prefix = layer["tiles"], "engine.fp32.b4"
    kernels = engine_layer(net, x, prefix, FP32_STEPS, seconds=part / 2)
    measured["engine.fp32.cpu_per_wall"] = kernels.pop("cpu_per_wall")
    measured.update(kernels)
    measured["engine.fp32.arena_mb"] = net.arena.nbytes() / 1e6
    details = {
        "fps_untraced": fps_untraced,
        "fps_traced": fps_traced,
        "obs_overhead_pct_base": "untraced closed-loop fps",
        "runtime_run_span_ms_median": median(run_spans),
        "split_call_frames": len(layer["run_ms"]),
        "plan_steps": len(net),
    }
    return Result(ok == attempted, attempted, attempted - ok,
                  complete(measured), details)


def _split_calls(workload, session, net, frames, refs,
                 seconds: float) -> dict:
    """Per frame: ``Session.run``, then the same frame through the
    layer calls that make it up; overhead is the difference."""
    from repro.detection.head import best_box, decode_grid
    from repro.detection.tiling import FrameTiler
    from repro.runtime import SessionConfig

    config = SessionConfig()
    anchors = np.asarray(session.model.head.anchors)
    tiler = None
    if workload.tiles is not None:
        tiler = FrameTiler(anchors, *workload.tiles,
                           overlap=config.tile_overlap,
                           max_detections=config.tile_max_detections)
    out = {"attempted": 0, "ok": 0, "run_ms": [], "overhead_ms": [],
           "best_box_ms": [], "split_ms": [], "merge_ms": [],
           "candidates": [], "kept": [], "tiles": None}
    n = len(frames)
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop or not out["run_ms"]:
        i = out["attempted"] % n
        x = frames[i:i + 1]
        result, run_ms = timed(session.run, frames[i])
        out["attempted"] += 1
        if tiler is None:
            raw, fwd_ms = timed(net, x)
            box, bb_ms = timed(best_box, raw, anchors)
            layered = box[0]
            out["best_box_ms"].append(bb_ms)
            parts = fwd_ms + bb_ms
        else:
            (tiles, plan), split_ms = timed(tiler.split, x)
            raw, fwd_ms = timed(net, tiles)
            packed, merge_ms = timed(tiler.merge, raw, 1, plan)
            layered = packed[0]
            _, conf = decode_grid(raw, anchors)
            out["candidates"].append(
                int((conf >= tiler.conf_threshold).sum()))
            out["kept"].append(int((packed[0, :, 4] >= 0).sum()))
            out["split_ms"].append(split_ms)
            out["merge_ms"].append(merge_ms)
            out["tiles"] = tiles
            parts = split_ms + fwd_ms + merge_ms
        if matches(result, refs[i]) and matches(layered, refs[i]):
            out["ok"] += 1
        out["run_ms"].append(run_ms)
        out["overhead_ms"].append(run_ms - parts)
    return out

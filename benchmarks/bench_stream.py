"""Streaming serving: producer-block bound, drop policy, accounting.

The streaming layer's headline is not throughput but its robustness
contract (see ``repro.serve.stream``): the camera side never blocks,
and every accepted frame ends up processed or dropped *by policy*.
Three numbers capture it, all host-portable enough to gate:

* **accounted_ratio** — ``(processed + dropped_by_policy) / accepted``
  across every arm; exactly ``1.0`` or the conservation invariant is
  broken (gate floor: ``>= 1.0``).
* **producer_block_margin** — a 50 ms per-``put`` budget over the
  single worst ``FrameQueue.put`` observed anywhere in the run
  (``budget / max_put_block_ms``); ``>= 1.0`` means no producer ever
  blocked past the budget, even while the overload arm's consumer was
  deliberately drowning (gate floor: ``>= 1.0``).
* **overload drop_ratio** — the fraction of accepted frames the
  overload arm dropped by policy; a floor well above zero proves the
  drop-oldest path actually engaged rather than the producer having
  been throttled (gate floor: ``>= 0.02``).

Two arms:

* **steady** — N streams of the synthetic camera over a real (tiny)
  detector behind the shared dynamic-batching server, paced so the
  pipeline keeps up: the happy path, expected to process everything.
* **overload** — pre-rendered frames put as fast as producers can
  against a deliberately slow engine that serves one frame at a time,
  through depth-2 queues: the drowning path, expected to shed hard
  while the producer stays unblocked and accounting stays exact.

Run as a script to (re)write ``BENCH_stream.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_stream.py
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import numpy as np
from common import print_table

from repro.runtime import ServeConfig, Session, SessionConfig, StreamConfig
from repro.serve import StreamManager, SyntheticSource

STREAMS = 4
FRAMES = 48
WIDTH = 0.125
IMAGE_HW = (32, 64)
#: Per-put producer budget: a ``FrameQueue.put`` is one lock + deque
#: rotation, so 50 ms only trips when the producer was actually made to
#: wait (scheduler noise on a loaded 1-core host stays well under it).
BLOCK_BUDGET_MS = 50.0


def _sources(frames: int, interval_ms: float = 0.0) -> list:
    return [
        SyntheticSource(frames=frames, image_hw=IMAGE_HW, seed=i,
                        interval_ms=interval_ms)
        for i in range(STREAMS)
    ]


def _collect(manager: StreamManager, wall_s: float) -> dict:
    acct = manager.accounting()
    put_max = max(s.stats.snapshot()["put_block_ms_max"]
                  for s in manager.streams)
    return {
        "streams": STREAMS,
        "frames_per_stream": FRAMES,
        "accepted": acct["accepted"],
        "processed": acct["processed"],
        "dropped_by_policy": acct["dropped_by_policy"],
        "drop_ratio": acct["drop_ratio"],
        "exact": acct["exact"],
        "put_block_ms_max": put_max,
        "fps": acct["processed"] / wall_s if wall_s else 0.0,
        "wall_s": wall_s,
    }


def measure_steady() -> dict:
    """The happy path: real detector, shared server, paced cameras."""
    from repro.core import SkyNetBackbone
    from repro.detection import Detector

    det = Detector(SkyNetBackbone("C", width_mult=WIDTH,
                                  rng=np.random.default_rng(0)))
    det.eval()
    serve = ServeConfig(queue_depth=64, max_batch_size=4, max_wait_ms=1.0)
    with Session.load(det, SessionConfig(), serve=serve) as session:
        t0 = time.perf_counter()
        manager = session.open_streams(
            _sources(FRAMES, interval_ms=25.0),
            config=StreamConfig(queue_depth=8),
        )
        done = manager.join(timeout=300.0)
        wall = time.perf_counter() - t0
        out = _collect(manager, wall)
        manager.stop()
    out["done"] = done
    return out


def measure_overload() -> dict:
    """The drowning path: unpaced producers, a slow engine, tiny
    queues — drop-oldest must carry the whole overload.

    The overload holds by construction on any host: the frames are
    rendered before the clock starts, so a producer only ``put``s, and
    the engine serves one frame at a time, so the stream workers drain
    at most one frame per 5 ms between them."""
    engine_lock = threading.Lock()

    def slow_engine(x):
        with engine_lock:
            time.sleep(0.005)
        return x[0]

    frames = [list(source) for source in _sources(FRAMES)]
    t0 = time.perf_counter()
    manager = StreamManager(
        slow_engine, frames,
        config=StreamConfig(queue_depth=2, pressure_high=0.6,
                            escalate_ticks=2, recover_ticks=2,
                            supervisor_interval_ms=5.0),
    )
    manager.start()
    done = manager.join(timeout=300.0)
    wall = time.perf_counter() - t0
    out = _collect(manager, wall)
    out["brownout_max_level"] = manager.controller.max_level_seen
    manager.stop()
    out["done"] = done
    return out


def run_bench() -> dict:
    steady = measure_steady()
    overload = measure_overload()
    accepted = steady["accepted"] + overload["accepted"]
    accounted = (steady["processed"] + steady["dropped_by_policy"]
                 + overload["processed"] + overload["dropped_by_policy"])
    put_max = max(steady["put_block_ms_max"], overload["put_block_ms_max"])
    return {
        "steady": steady,
        "overload": overload,
        "accounted_ratio": accounted / accepted if accepted else 0.0,
        "put_block_ms_max": put_max,
        "block_budget_ms": BLOCK_BUDGET_MS,
        "producer_block_margin": (BLOCK_BUDGET_MS / put_max
                                  if put_max else float("inf")),
    }


def _print(results: dict) -> None:
    rows = []
    for arm in ("steady", "overload"):
        r = results[arm]
        rows.append([
            arm, r["accepted"], r["processed"], r["dropped_by_policy"],
            f"{r['drop_ratio']:.3f}", f"{r['put_block_ms_max']:.3f}",
            f"{r['fps']:.0f}",
        ])
    print_table(
        f"{STREAMS} streams x {FRAMES} frames per arm "
        f"(width {WIDTH}, {IMAGE_HW[0]}x{IMAGE_HW[1]})",
        ["arm", "accepted", "processed", "dropped", "drop ratio",
         "max put ms", "fps"],
        rows,
    )
    print(f"accounted_ratio: {results['accounted_ratio']:.6f} "
          f"(must be exactly 1.0)")
    print(f"producer_block_margin: {results['producer_block_margin']:.1f}x "
          f"({BLOCK_BUDGET_MS:.0f} ms budget / "
          f"{results['put_block_ms_max']:.3f} ms worst put)")
    print(f"overload: drop ratio {results['overload']['drop_ratio']:.3f}, "
          f"brownout peaked at rung "
          f"{results['overload']['brownout_max_level']}")


def test_stream_bench(benchmark):
    results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    _print(results)
    assert results["steady"]["done"] and results["overload"]["done"]
    # The gate's three contracts, asserted at the source.
    assert results["accounted_ratio"] == 1.0
    assert results["producer_block_margin"] >= 1.0
    assert results["overload"]["drop_ratio"] >= 0.02
    # The steady arm actually kept up (generous: CI hosts are slow).
    assert results["steady"]["processed"] > 0


if __name__ == "__main__":
    measured = run_bench()
    _print(measured)
    payload = {
        "bench": "stream",
        "streams": STREAMS,
        "frames_per_stream": FRAMES,
        "width": WIDTH,
        "input_hw": list(IMAGE_HW),
        "host_cpus": os.cpu_count() or 1,
        "aggregation": "single run per arm (contract metrics, not times)",
        "methodology": (
            "steady = N synthetic cameras paced at ~40 fps each over a "
            "real width-0.125 SkyNet-C detector behind the shared "
            "dynamic-batching server.  overload = pre-rendered frames "
            "put unpaced against a 5 ms/frame engine serialised on one "
            "lock, through depth-2 queues, so drop-oldest must shed "
            "most of the load.  accounted_ratio "
            "= (processed + dropped_by_policy) / accepted across both "
            "arms (exactly 1.0 or frames were silently lost).  "
            "producer_block_margin = 50 ms per-put budget / the single "
            "worst FrameQueue.put wall time observed anywhere (>= 1.0 "
            "means no producer ever blocked past the budget).  "
            "overload.drop_ratio >= 0.02 proves the drop path engaged "
            "rather than the producer having been throttled."
        ),
        "results": measured,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_stream.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")

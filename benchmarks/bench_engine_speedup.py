"""Compiled inference engine vs eager autograd forward (Section 6.3).

The paper's deployments never run the training graph: TX2 executes a
fused, statically-allocated inference plan.  ``repro.nn.engine`` is this
codebase's counterpart — BN folding, Bundle fusion, and a reusable
buffer arena — and this bench measures what that buys over the eager
``Module.forward`` path (under ``no_grad``) at the deployment
resolution, for all three SkyNet configs.

Run as a script to (re)write ``BENCH_engine.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_engine_speedup.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from common import CONTEST_HW, print_table

from repro.core import SkyNetBackbone
from repro.nn import Tensor, no_grad
from repro.nn.engine import compile_net

CONFIGS = ("A", "B", "C")
MIN_SECONDS = 1.0  # per timing loop


def _time_loop(fn, min_seconds: float = MIN_SECONDS) -> float:
    """Mean seconds per call, timed for at least ``min_seconds``."""
    fn()  # warm up (arena allocation, BLAS thread pools)
    t0 = time.perf_counter()
    n = 0
    while time.perf_counter() - t0 < min_seconds:
        fn()
        n += 1
    return (time.perf_counter() - t0) / n


def run_speedups(min_seconds: float = MIN_SECONDS) -> dict:
    rng = np.random.default_rng(0)
    h, w = CONTEST_HW
    x = rng.normal(0, 1, (1, 3, h, w)).astype(np.float32)
    results = {}
    for config in CONFIGS:
        bb = SkyNetBackbone(config, rng=np.random.default_rng(1))
        bb.eval()
        net = compile_net(bb)
        np.testing.assert_allclose(  # speedup must not cost correctness
            net(x), _eager_forward(bb, x), atol=1e-5
        )
        eager_s = _time_loop(lambda: _eager_forward(bb, x), min_seconds)
        compiled_s = _time_loop(lambda: net(x), min_seconds)
        results[config] = {
            "eager_ms": eager_s * 1e3,
            "compiled_ms": compiled_s * 1e3,
            "speedup": eager_s / compiled_s,
            "kernels": len(net),
            "arena_mb": net.arena.nbytes() / 1e6,
        }
    return results


def _eager_forward(bb, x: np.ndarray) -> np.ndarray:
    with no_grad():
        return bb(Tensor(x)).data


def _print(results: dict) -> None:
    rows = [
        [f"SkyNet-{c}", f"{r['eager_ms']:.1f}", f"{r['compiled_ms']:.1f}",
         f"{r['speedup']:.2f}x", r["kernels"], f"{r['arena_mb']:.1f}"]
        for c, r in results.items()
    ]
    print_table(
        f"Eager vs compiled engine @ {CONTEST_HW[0]}x{CONTEST_HW[1]}",
        ["config", "eager ms", "compiled ms", "speedup", "kernels",
         "arena MB"],
        rows,
    )


def test_engine_speedup(benchmark):
    results = benchmark.pedantic(
        lambda: run_speedups(min_seconds=0.3), rounds=1, iterations=1
    )
    _print(results)
    # ISSUE acceptance: >= 2x single-image speedup on SkyNet-A.  Leave
    # headroom below the measured ~3.5x so CI machine jitter cannot flake.
    assert results["A"]["speedup"] >= 2.0
    for config in CONFIGS:
        assert results[config]["speedup"] > 1.0


if __name__ == "__main__":
    measured = run_speedups()
    _print(measured)
    payload = {
        "bench": "engine_speedup",
        "input_hw": list(CONTEST_HW),
        "width_mult": 1.0,  # SkyNetBackbone's default width
        "batch": 1,
        "results": measured,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")

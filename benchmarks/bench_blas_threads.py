"""OpenBLAS thread count per batch: one thread vs OpenBLAS's default.

The engine runs a batch-1 forward on one BLAS thread and a batch > 1
forward on OpenBLAS's default count (``repro.nn.engine.threads``).  This
script measures that rule at the shapes the benchmark workloads run, on
SkyNet config C at width 1.0:

* ``b1_fp32``   — batch 1, 160x320, fp32 (``contest_fp32``);
* ``b4_fp32``   — batch 4 of 160x320 tiles, fp32 (the 2x2 tiles of a
  280x560 ``tiled_hires`` frame);
* ``b2_w8f8``   — batch 2, 160x320, w8/f8 integer plan (two cameras of
  ``multicam_int8`` batched together).

Each pair runs two fresh processes, one per arm, in alternating order;
inside each, the count is pinned for every forward, a few warm-up
forwards are dropped, and the median wall and CPU (all threads of the
process) per forward are kept.  Per shape the table gives, per arm, the
median and quartiles of those process medians, and the paired wall
ratio one-thread / default (below 1 means one thread is faster).

    PYTHONPATH=src python benchmarks/bench_blas_threads.py --pairs 10
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

#: shape name -> (batch, input HxW, quantized)
SHAPES = {
    "b1_fp32": (1, (160, 320), False),
    "b4_fp32": (4, (160, 320), False),
    "b2_w8f8": (2, (160, 320), True),
}
WARMUP = 5
FORWARDS = {1: 30, 2: 20, 4: 12}


def _child(shape: str, threads: int) -> dict:
    """Time forwards of one shape at a pinned BLAS thread count."""
    from repro.core.skynet import SkyNetBackbone
    from repro.detection.head import YoloHead
    from repro.detection.model import Detector
    from repro.nn.engine import QuantConfig, compile_net
    from repro.nn.engine import threads as blas

    batch, (h, w), quantized = SHAPES[shape]
    rng = np.random.default_rng(0)
    backbone = SkyNetBackbone("C", width_mult=1.0, rng=rng)
    det = Detector(backbone, YoloHead(backbone.out_channels, rng=rng))
    det.eval()
    x = rng.normal(0, 1, (batch, 3, h, w)).astype(np.float32)
    net = (compile_net(det, quant=QuantConfig(8, 8), calibration=x)
           if quantized else compile_net(det))
    default = blas.DEFAULT
    blas.set_threads(threads)
    # Pin the count: with the library handle gone the engine's per-batch
    # setter is a no-op for the rest of this process.
    blas._lib = None
    wall, cpu = [], []
    for i in range(WARMUP + FORWARDS[batch]):
        w0, c0 = time.perf_counter(), time.process_time()
        net(x)
        w1, c1 = time.perf_counter(), time.process_time()
        if i >= WARMUP:
            wall.append((w1 - w0) * 1e3)
            cpu.append((c1 - c0) * 1e3)
    return {"wall_ms": float(np.median(wall)), "cpu_ms": float(np.median(cpu)),
            "default": default}


def _run_child(shape: str, threads: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, __file__, "--child", shape, str(threads)],
        env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _quartiles(values) -> tuple[float, float, float]:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(med), float(q3)


def run(pairs: int, shapes=tuple(SHAPES)) -> dict:
    from repro.nn.engine import threads as blas

    default = blas.DEFAULT
    if default is None:
        raise SystemExit("NumPy exports no OpenBLAS thread-count symbol")
    report = {"default_threads": default, "cpus": os.cpu_count(),
              "pairs": pairs, "shapes": {}}
    for shape in shapes:
        arms = {1: [], default: []}
        for i in range(pairs):
            order = (1, default) if i % 2 == 0 else (default, 1)
            for n in order:
                arms[n].append(_run_child(shape, n))
        one, dflt = arms[1], arms[default]
        ratios = [a["wall_ms"] / b["wall_ms"] for a, b in zip(one, dflt)]
        report["shapes"][shape] = {
            "one": {k: _quartiles([r[k] for r in one])
                    for k in ("wall_ms", "cpu_ms")},
            "default": {k: _quartiles([r[k] for r in dflt])
                        for k in ("wall_ms", "cpu_ms")},
            "wall_ratio": _quartiles(ratios),
            "one_wins": sum(r < 1.0 for r in ratios),
        }
        print(f"{shape}: done", file=sys.stderr, flush=True)
    return report


def render(report: dict) -> str:
    d = report["default_threads"]
    lines = [
        f"{report['pairs']} alternating fresh-process pairs, "
        f"{report['cpus']} CPUs, OpenBLAS default {d} threads; "
        "median [q1, q3] per forward",
        "",
        f"| shape | wall 1 thr (ms) | wall {d} thr (ms) | CPU 1 thr (ms) "
        f"| CPU {d} thr (ms) | wall ratio 1/{d} | 1 thr wins |",
        "|---|---|---|---|---|---|---|",
    ]

    def cell(q):
        return f"{q[1]:.1f} [{q[0]:.1f}, {q[2]:.1f}]"

    for shape, r in report["shapes"].items():
        ratio = r["wall_ratio"]
        lines.append(
            f"| {shape} | {cell(r['one']['wall_ms'])} "
            f"| {cell(r['default']['wall_ms'])} "
            f"| {cell(r['one']['cpu_ms'])} "
            f"| {cell(r['default']['cpu_ms'])} "
            f"| {ratio[1]:.3f} [{ratio[0]:.3f}, {ratio[2]:.3f}] "
            f"| {r['one_wins']}/{report['pairs']} |")
    return "\n".join(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--shapes", nargs="+", choices=tuple(SHAPES),
                        default=tuple(SHAPES))
    parser.add_argument("--json", help="also write the report here")
    parser.add_argument("--child", nargs=2, metavar=("SHAPE", "THREADS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child[0], int(args.child[1]))))
        return
    report = run(args.pairs, args.shapes)
    print(render(report))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)


if __name__ == "__main__":
    main()

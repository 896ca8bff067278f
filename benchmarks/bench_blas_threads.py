"""Sample-parallel forwards: one batch-N forward against N batch-1 forwards.

OpenBLAS runs one thread, and a ``CompiledNet`` forward of batch N > 1
runs as ``min(N, cores)`` sample slices at once
(``repro.nn.engine.threads``).  This script measures what the split
buys at the shapes the benchmark workloads run, on SkyNet config C at
width 1.0:

* ``b1_fp32``   — batch 1, 160x320, fp32 (``contest_fp32``): nothing
  splits, so both arms run the same forward — the noise floor;
* ``b4_fp32``   — batch 4 of 160x320 tiles, fp32 (the 2x2 tiles of a
  280x560 ``tiled_hires`` frame);
* ``b2_w8f8``   — batch 2, 160x320, w8/f8 integer plan (two cameras of
  ``multicam_int8`` batched together).

Each of ``--runs`` fresh processes alternates the two arms — ``split``,
one ``net(x)`` of the batch, and ``serial``, ``net(x[i:i+1])`` for each
sample in turn — drops a few warm-up rounds and keeps the median wall
and CPU (all threads of the process) per batch of each arm.  Per shape
the table gives, per arm, the median and quartiles of those process
medians, and the paired wall ratio split / serial (below 1 means the
split is faster).

    PYTHONPATH=src python benchmarks/bench_blas_threads.py --runs 10
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
WARMUP = 3
ROUNDS = {1: 30, 2: 16, 4: 10}
ARMS = ("split", "serial")


def _child(shape: str) -> dict:
    """Time both arms of one shape, alternating, in this process."""
    from repro.core.skynet import SkyNetBackbone
    from repro.detection.head import YoloHead
    from repro.detection.model import Detector
    from repro.nn.engine import QuantConfig, compile_net, threads

    batch, (h, w), quantized = SHAPES[shape]
    rng = np.random.default_rng(0)
    backbone = SkyNetBackbone("C", width_mult=1.0, rng=rng)
    det = Detector(backbone, YoloHead(backbone.out_channels, rng=rng))
    det.eval()
    x = rng.normal(0, 1, (batch, 3, h, w)).astype(np.float32)
    net = (compile_net(det, quant=QuantConfig(8, 8), calibration=x)
           if quantized else compile_net(det))
    run = {"split": lambda: net(x),
           "serial": lambda: [net(x[i:i + 1]) for i in range(batch)]}
    times = {arm: {"wall_ms": [], "cpu_ms": []} for arm in ARMS}
    for i in range(WARMUP + ROUNDS[batch]):
        for arm in (ARMS if i % 2 == 0 else ARMS[::-1]):
            w0, c0 = time.perf_counter(), time.process_time()
            run[arm]()
            w1, c1 = time.perf_counter(), time.process_time()
            if i >= WARMUP:
                times[arm]["wall_ms"].append((w1 - w0) * 1e3)
                times[arm]["cpu_ms"].append((c1 - c0) * 1e3)
    return {arm: {k: float(np.median(v)) for k, v in t.items()}
            for arm, t in times.items()} | {
        "cores": threads.cores(), "blas_threads": threads.get_threads()}


def _run_child(shape: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, __file__, "--child", shape],
        env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _quartiles(values) -> tuple[float, float, float]:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(med), float(q3)


def run(runs: int, shapes=tuple(SHAPES)) -> dict:
    report = {"runs": runs, "shapes": {}}
    for shape in shapes:
        results = [_run_child(shape) for _ in range(runs)]
        report.update(cores=results[0]["cores"],
                      blas_threads=results[0]["blas_threads"])
        ratios = [r["split"]["wall_ms"] / r["serial"]["wall_ms"]
                  for r in results]
        report["shapes"][shape] = {
            **{arm: {k: _quartiles([r[arm][k] for r in results])
                     for k in ("wall_ms", "cpu_ms")} for arm in ARMS},
            "wall_ratio": _quartiles(ratios),
            "split_wins": sum(r < 1.0 for r in ratios),
        }
        print(f"{shape}: done", file=sys.stderr, flush=True)
    return report


def render(report: dict) -> str:
    lines = [
        f"{report['runs']} fresh processes, {report['cores']} cores, "
        f"OpenBLAS threads {report['blas_threads']}; "
        "median [q1, q3] per batch",
        "",
        "| shape | wall split (ms) | wall serial (ms) | CPU split (ms) "
        "| CPU serial (ms) | wall ratio split/serial | split wins |",
        "|---|---|---|---|---|---|---|",
    ]

    def cell(q):
        return f"{q[1]:.1f} [{q[0]:.1f}, {q[2]:.1f}]"

    for shape, r in report["shapes"].items():
        ratio = r["wall_ratio"]
        lines.append(
            f"| {shape} | {cell(r['split']['wall_ms'])} "
            f"| {cell(r['serial']['wall_ms'])} "
            f"| {cell(r['split']['cpu_ms'])} "
            f"| {cell(r['serial']['cpu_ms'])} "
            f"| {ratio[1]:.3f} [{ratio[0]:.3f}, {ratio[2]:.3f}] "
            f"| {r['split_wins']}/{report['runs']} |")
    return "\n".join(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--shapes", nargs="+", choices=tuple(SHAPES),
                        default=tuple(SHAPES))
    parser.add_argument("--json", help="also write the report here")
    parser.add_argument("--child", metavar="SHAPE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child)))
        return
    report = run(args.runs, args.shapes)
    print(render(report))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)


if __name__ == "__main__":
    main()

"""Thread-backend serving of mixed batch sizes: two source trees, paired.

The engine pins OpenBLAS to one thread and runs a batch > 1 forward as
one sample slice per core (``repro.nn.engine.threads``); an earlier
rule switched the BLAS thread count per batch, and that stalled
batch-2 forwards at ~0.5 s.  This script runs the thread backend
(``ServeConfig()``'s default, one worker thread in the serving
process) on two source trees, alternating, so a stall or a latency
change between two thread rules shows as a paired difference:

* ``int8_2cam`` — perfbench's ``multicam_int8`` open loop (two cameras
  at 4 fps from one clock, w8/f8 plan, tracker, callback sink) with
  ``worker_backend="thread"``: batches of 1 and 2;
* ``fp32_4cam`` — the same loop with four cameras on the fp32 engine:
  batches of 1 to 4, about two thirds of one core busy.

Every delivered event is checked against a batch-1 in-process reference
of the same plan.  Per arm the table gives the median [q1, q3] over
runs; "B wins" counts pairs where the second tree is better.  With
``--trace`` the stream phase is traced and each run also reports, per
batch size, its forwards and how many took over 3x that batch's median
(the stall signature).

    python benchmarks/bench_thread_serve.py --trees PARENT CHANGE \\
        --workload int8_2cam --pairs 10 --seconds 20 --seed 5

``PARENT`` and ``CHANGE`` are checkouts holding ``src/`` and
``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

#: workload -> (engine backend, cameras)
WORKLOADS = {"int8_2cam": ("quant", 2), "fp32_4cam": ("engine", 4)}
METRICS = ("latency_p50_ms", "latency_p90_ms", "slo_ok_ratio", "ok_ratio",
           "cpu_ms_per_frame", "fps", "setup_s", "peak_rss_mb")
HIGHER_IS_BETTER = ("slo_ok_ratio", "ok_ratio", "fps")


def _child(tree: str, workload: str, seed: int, seconds: float,
           trace: bool) -> dict:
    """One run of ``workload`` on the tree's program."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import harness
    import multicam

    from repro import obs
    from repro.runtime import ServeConfig, Session, SessionConfig

    backend, multicam.CAMERAS = WORKLOADS[workload]
    config = SessionConfig(backend=backend, quant_bits=multicam.QUANT_BITS)

    def set_up(det, calibration, frame, ref_box):
        t0 = time.perf_counter()
        session = Session.load(det, config,
                               serve=ServeConfig(worker_backend="thread"),
                               calibration=calibration, warmup=frame.shape)
        t_submit = time.perf_counter()
        result = session.submit(frame).result(timeout=60.0)
        t1 = time.perf_counter()
        if not (result.ok and np.array_equal(result.value, ref_box)):
            raise harness.OutputMismatch("first answer differs")
        return session, t1 - t0, t1 - t_submit

    def reference_boxes(det, calibration, cams):
        with Session.load(det, config, calibration=calibration) as ref:
            return [np.stack([ref.run(f) for f in frames]) for frames in cams]

    recorders = []
    stream_phase = multicam.stream_phase

    def traced_phase(*args, **kwargs):
        with obs.recording() as rec:
            out = stream_phase(*args, **kwargs)
        recorders.append(rec)
        return out

    multicam.set_up = set_up
    multicam.reference_boxes = reference_boxes
    if trace:
        multicam.stream_phase = traced_phase
    harness.preimport()
    result = multicam.run(seed, seconds)
    out = {name: value for name, (value, _) in result.metrics.items()}
    out.update({name: value for name, (value, _) in result.ungated.items()})
    out["correct"] = result.correct
    out["batch_size_mean"] = result.details["batch_size_mean"]
    if recorders:
        by_batch: dict[int, list[float]] = {}
        for r in recorders[-1].records():
            if r.get("type") == "span" and r["name"] == "engine/forward":
                by_batch.setdefault(r["attrs"]["batch"], []).append(
                    r["duration_ms"])
        out["forwards"] = {
            str(b): {"n": len(ms), "median_ms": float(np.median(ms)),
                     "max_ms": float(max(ms)),
                     "over_3x": int(sum(m > 3 * np.median(ms) for m in ms))}
            for b, ms in sorted(by_batch.items())}
    return out


def _run_child(tree: str, args) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", tree,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run(args) -> dict:
    a, b = args.trees
    runs = {a: [], b: []}
    for i in range(args.pairs):
        for tree in ((a, b) if i % 2 == 0 else (b, a)):
            runs[tree].append(_run_child(tree, args))
        print(f"pair {i + 1}: done", file=sys.stderr, flush=True)
    return {"trees": [a, b], "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "runs": runs}


def render(report: dict) -> str:
    a, b = report["trees"]
    ra, rb = report["runs"][a], report["runs"][b]
    lines = [f"{report['workload']}, {len(ra)} alternating pairs, "
             f"{report['seconds']} s, seed {report['seed']}; A = {a}, B = {b}",
             "", "| metric | A | B | median change | B wins |",
             "|---|---|---|---|---|"]

    def cell(values):
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

    for m in METRICS:
        va, vb = [r[m] for r in ra], [r[m] for r in rb]
        better = (np.greater if m in HIGHER_IS_BETTER else np.less)(vb, va)
        change = 100 * (np.median(vb) / np.median(va) - 1)
        lines.append(f"| {m} | {cell(va)} | {cell(vb)} | {change:+.1f}% "
                     f"| {int(better.sum())}/{len(va)} |")
    lines.append(f"| incorrect runs | {sum(not r['correct'] for r in ra)} "
                 f"| {sum(not r['correct'] for r in rb)} | | |")
    if "forwards" in ra[0]:
        for tree, rs in ((a, ra), (b, rb)):
            totals: dict[str, list[int]] = {}
            for r in rs:
                for batch, f in r["forwards"].items():
                    t = totals.setdefault(batch, [0, 0])
                    t[0] += f["n"]
                    t[1] += f["over_3x"]
            lines.append(f"forwards over 3x their batch median, {tree}: "
                         + ", ".join(f"batch {k}: {v[1]}/{v[0]}"
                                     for k, v in sorted(totals.items())))
    return "\n".join(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trees", nargs=2, metavar=("A", "B"))
    parser.add_argument("--workload", choices=tuple(WORKLOADS),
                        default="int8_2cam")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", help="also write the report here")
    parser.add_argument("--child", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child, args.workload, args.seed,
                                args.seconds, args.trace)))
        return
    if not args.trees:
        parser.error("--trees is required")
    report = run(args)
    print(render(report))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)


if __name__ == "__main__":
    main()

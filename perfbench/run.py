"""Run the SkyNet serving benchmark.

    python3 perfbench/run.py --workload contest_fp32 --seed 1 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--workload all`` each workload runs in its own process and the last
line joins their results, metric names prefixed by the workload.  The
exit code is 0 only when every output matched its reference.

Pool children start with ``spawn`` and re-import this file, so nothing
below runs at import time except path set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

WORKLOADS = ("contest_fp32", "tiled_hires", "multicam_int8")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Dispatch to the workload's measured or traced run."""
    import closed_loop
    import multicam

    if name == multicam.NAME:
        fn = multicam.run_traced if trace else multicam.run
        return fn(seed, seconds)
    workload = {w.name: w for w in (closed_loop.CONTEST,
                                    closed_loop.TILED)}[name]
    fn = closed_loop.run_traced if trace else closed_loop.run
    return fn(workload, seed, seconds)


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker, a child process
    the pool starts and which would otherwise outlive this one."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in a fresh process; the last line
    joins their results."""
    joined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            joined["correct"] = False
            continue
        result = json.loads(lines[-1])
        joined["correct"] = joined["correct"] and result["correct"]
        joined["attempted"] += result["attempted"]
        joined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            joined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(joined), flush=True)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import harness

    harness.preimport()
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    finally:
        stop_resource_tracker()
    harness.emit(args.workload, result, harness.environment(args.seed))
    if not result.correct:
        print("perfbench: an output did not match its reference",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

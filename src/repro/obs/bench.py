"""Perf-regression gate: fresh measurements vs the checked-in baselines.

The repo asserts its speedups in ``BENCH_*.json`` artifacts written by
one-shot benchmark scripts — nothing stops a PR from quietly halving
the engine's 3.7x before anyone reruns them.  This module re-measures
the cheap, host-portable *ratio* metrics (compiled-over-eager speedup,
quant-over-fp32 ratio) at the baseline's own model scale and input
resolution, and fails when a fresh ratio falls below the recorded one
by more than a noise tolerance.  It also re-checks one invariant the
benches record: the re-measured w8/f8 plan must match its fake-quant
reference exactly (any nonzero difference fails the gate).

Ratios, not absolute times: milliseconds do not transfer between hosts,
but "the compiled plan is N times the eager forward *on the same
machine in the same minute*" does.  Noise handling is best-of-``reps``
per arm plus a per-metric relative tolerance (scaled up by ``--gate-
tolerance`` on noisy CI runners; the CI job runs the gate non-blocking
on its single shared core and documents why).

``repro bench --check`` is the CLI; ``--inject-regression 0.5`` scales
the fresh measurements down to prove the gate trips.  The test suite
checks that self-test through ``run_gate(inject_regression=...)``; the
CI job runs the gate without it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GateMetric",
    "GATE_METRICS",
    "load_baselines",
    "QUANT_MISMATCH",
    "measure_fresh",
    "compare_metrics",
    "render_verdicts",
    "run_gate",
]


@dataclass(frozen=True)
class GateMetric:
    """One gated ratio: where it lives in the baseline JSON and how
    much it may degrade before the gate trips."""

    name: str
    source: str  # baseline file at the repo root
    path: tuple  # key path into the baseline JSON
    tolerance: float  # allowed relative degradation (0.30 = -30%)
    measured: bool  # False = tracked/reported but not re-measured
    #: Hard minimum for the *recorded* baseline value itself — e.g. the
    #: process backend must beat the serial loop (>= 1.0x) outright, not
    #: merely avoid regressing.  ``None`` = no absolute floor.
    abs_floor: float | None = None
    #: Only enforce ``abs_floor`` when the baseline file recorded at
    #: least this many host CPUs (a 1-core host cannot beat the serial
    #: loop with worker processes, so gating there would always fail).
    abs_floor_min_cpus: int = 2

    def floor(self, baseline: float, scale: float = 1.0) -> float:
        return baseline * (1.0 - min(0.95, self.tolerance * scale))


#: The gated metrics.  Engine/quant ratios are re-measured by
#: :func:`measure_fresh`; the serve ratio needs a full concurrent-load
#: rig (minutes, and the noisiest of the three), so the gate tracks its
#: baseline presence but leaves re-measurement to
#: ``benchmarks/bench_serve_throughput.py``.
GATE_METRICS = (
    GateMetric("engine/A/speedup", "BENCH_engine.json",
               ("results", "A", "speedup"), tolerance=0.30, measured=True),
    GateMetric("quant/min_ratio", "BENCH_quant.json",
               ("speed", "min_ratio"), tolerance=0.20, measured=True),
    GateMetric("serve/speedup_batch8", "BENCH_serve.json",
               ("results", "speedup_batch8"), tolerance=0.40, measured=False),
    GateMetric("serve/speedup_vs_serial", "BENCH_serve.json",
               ("results", "process", "speedup_vs_serial"), tolerance=0.40,
               measured=False, abs_floor=1.0),
    # Streaming contracts (bench_stream.py): frame conservation must be
    # exact, no producer may block past the per-put budget, and the
    # overload arm must shed via drop-oldest.  These are invariants of
    # the code, not host speed, so they gate even on 1-core hosts.
    GateMetric("stream/accounted_ratio", "BENCH_stream.json",
               ("results", "accounted_ratio"), tolerance=0.0,
               measured=False, abs_floor=1.0, abs_floor_min_cpus=1),
    GateMetric("stream/producer_block_margin", "BENCH_stream.json",
               ("results", "producer_block_margin"), tolerance=0.5,
               measured=False, abs_floor=1.0, abs_floor_min_cpus=1),
    GateMetric("stream/overload_drop_ratio", "BENCH_stream.json",
               ("results", "overload", "drop_ratio"), tolerance=0.5,
               measured=False, abs_floor=0.02, abs_floor_min_cpus=1),
    # Tiled inference must beat naive downscaling on oracle-matched mean
    # IoU over the small-object scene set (bench_tiled_inference.py).
    # The ratio is a same-host, same-minute accuracy comparison, so it
    # gates on every host.
    GateMetric("tiling/iou_vs_downscale", "BENCH_tiling.json",
               ("results", "iou_ratio"), tolerance=0.25,
               measured=False, abs_floor=1.0, abs_floor_min_cpus=1),
)


def _dig(obj: dict, path: tuple):
    for key in path:
        if not isinstance(obj, dict) or key not in obj:
            return None
        obj = obj[key]
    return obj


def load_baselines(root: str = ".") -> dict[str, dict]:
    """Read every gated metric's baseline value from ``root``.

    Returns ``{metric name: {"value", "source", "input_hw", "width"}}``;
    metrics whose baseline file or key is missing are skipped (a fresh
    clone without artifacts gates nothing rather than erroring).  A
    baseline that records no width was measured on the model's default
    width (1.0), so that is the width it is re-measured at.
    """
    out: dict[str, dict] = {}
    for spec in GATE_METRICS:
        path = os.path.join(root, spec.source)
        try:
            with open(path) as fh:
                bench = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        value = _dig(bench, spec.path)
        if value is None:
            continue
        out[spec.name] = {
            "value": float(value),
            "source": spec.source,
            "input_hw": tuple(bench.get("input_hw", (48, 96))),
            "width": float(bench.get("width_mult", bench.get("width", 1.0))),
            "host_cpus": int(bench.get("host_cpus", 1)),
        }
    return out


# --------------------------------------------------------------------- #
# fresh measurement
# --------------------------------------------------------------------- #
def _best_ms(fn, x, reps: int) -> float:
    fn(x)  # warm caches / arena
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(x)
        best = min(best, (time.perf_counter() - t0) * 1e3)
    return best


#: Key of :func:`measure_fresh`'s exactness value: the largest
#: difference between the re-measured w8/f8 plan and its fake-quant
#: reference.  Not a ratio — :func:`run_gate` fails on any nonzero value.
QUANT_MISMATCH = "quant/max_abs_diff_vs_reference"


def measure_fresh(baselines: dict[str, dict], reps: int = 3,
                  seed: int = 0) -> dict[str, float]:
    """Re-measure the ``measured`` gate ratios at each baseline's scale.

    Builds one SkyNet-A at the baseline's recorded width and input
    resolution, then times eager vs compiled vs quantized (w8/f8)
    forwards back-to-back, best-of-``reps`` per arm — the same
    statistic the baseline benches record.  The quantized arm also
    reports :data:`QUANT_MISMATCH`.
    """
    from ..core import SkyNetBackbone
    from ..nn import Tensor, no_grad
    from ..nn.engine import QuantConfig, compile_net

    needed = [s for s in GATE_METRICS if s.measured and s.name in baselines]
    if not needed:
        return {}
    ref = baselines[needed[0].name]
    h, w = ref["input_hw"]
    rng = np.random.default_rng(seed)
    bb = SkyNetBackbone("A", width_mult=ref["width"],
                        rng=np.random.default_rng(seed))
    bb.eval()
    x = rng.normal(0, 1, (1, 3, h, w)).astype(np.float32)

    def eager(batch):
        with no_grad():
            return bb(Tensor(batch)).data

    fresh: dict[str, float] = {}
    compiled = compile_net(bb)
    compiled_ms = _best_ms(compiled, x, reps)
    if any(s.name == "engine/A/speedup" for s in needed):
        eager_ms = _best_ms(eager, x, reps)
        fresh["engine/A/speedup"] = eager_ms / compiled_ms
    if any(s.name == "quant/min_ratio" for s in needed):
        quant = compile_net(bb, quant=QuantConfig(8, 8), calibration=x)
        quant_ms = _best_ms(quant, x, reps)
        fresh["quant/min_ratio"] = compiled_ms / quant_ms
        fresh[QUANT_MISMATCH] = float(np.abs(
            quant(x) - quant.quant_stats["reference_output"]).max())
    return fresh


# --------------------------------------------------------------------- #
# comparison + verdicts
# --------------------------------------------------------------------- #
def compare_metrics(
    baselines: dict[str, dict],
    fresh: dict[str, float],
    tolerance_scale: float = 1.0,
) -> list[dict]:
    """Per-metric verdicts: ``regressed`` when a fresh ratio lands below
    the baseline's noise floor; un-re-measured metrics report
    ``skipped``."""
    verdicts = []
    for spec in GATE_METRICS:
        base = baselines.get(spec.name)
        if base is None:
            continue
        verdict = {
            "metric": spec.name,
            "source": base["source"],
            "baseline": base["value"],
            "tolerance": min(0.95, spec.tolerance * tolerance_scale),
        }
        value = fresh.get(spec.name)
        if value is None:
            verdict.update(fresh=None, floor=None, regressed=False,
                           skipped=True)
        else:
            floor = spec.floor(base["value"], tolerance_scale)
            verdict.update(fresh=value, floor=floor,
                           regressed=value < floor, skipped=False)
        # The absolute floor gates the recorded value itself, even for
        # metrics the gate does not re-measure: a baseline below it is
        # a loud failure, not a tracked number.
        if (spec.abs_floor is not None
                and base.get("host_cpus", 1) >= spec.abs_floor_min_cpus):
            verdict["abs_floor"] = spec.abs_floor
            if base["value"] < spec.abs_floor:
                verdict["regressed"] = True
                verdict["below_abs_floor"] = True
        verdicts.append(verdict)
    return verdicts


def render_verdicts(verdicts: list[dict]) -> str:
    from ..utils.tables import format_table

    rows = []
    for v in verdicts:
        if v.get("below_abs_floor"):
            status = f"BELOW {v['abs_floor']:.1f}x FLOOR"
            fresh = "—" if v["skipped"] else f"{v['fresh']:.2f}x"
            floor = f"{v['abs_floor']:.2f}x"
        elif v["skipped"]:
            status, fresh, floor = "skipped", "—", "—"
        else:
            status = "REGRESSED" if v["regressed"] else "ok"
            fresh, floor = f"{v['fresh']:.2f}x", f"{v['floor']:.2f}x"
        rows.append([v["metric"], f"{v['baseline']:.2f}x", fresh, floor,
                     status])
    return format_table(
        ["metric", "baseline", "fresh", "floor", "status"], rows,
        title="perf-regression gate (ratios, best-of-reps)",
    )


def run_gate(
    root: str = ".",
    reps: int = 3,
    tolerance_scale: float = 1.0,
    inject_regression: float | None = None,
    out_json: str | None = None,
    printer=print,
) -> int:
    """The ``repro bench --check`` implementation; returns the exit code
    (0 = no regression, 1 = regression, 2 = nothing to gate)."""
    baselines = load_baselines(root)
    if not baselines:
        printer(f"no BENCH_*.json baselines found under {root!r}; "
                "nothing to gate")
        return 2
    fresh = measure_fresh(baselines, reps=reps)
    mismatch = fresh.pop(QUANT_MISMATCH, 0.0)
    if inject_regression is not None:
        fresh = {k: v * inject_regression for k, v in fresh.items()}
    verdicts = compare_metrics(baselines, fresh, tolerance_scale)
    printer(render_verdicts(verdicts))
    if out_json:
        with open(out_json, "w") as fh:
            json.dump({"verdicts": verdicts,
                       "tolerance_scale": tolerance_scale,
                       "reps": reps,
                       "injected_regression": inject_regression,
                       QUANT_MISMATCH: mismatch},
                      fh, indent=2)
    if mismatch:
        printer(f"MISMATCH: the w8/f8 plan differs from its fake-quant "
                f"reference by up to {mismatch:g}")
    regressed = [v["metric"] for v in verdicts if v["regressed"]]
    if regressed:
        printer(f"REGRESSION: {', '.join(regressed)} below the noise floor "
                f"(tolerance x{tolerance_scale:g})")
    if mismatch or regressed:
        return 1
    printer("gate passed: no ratio below its noise floor, w8/f8 plan exact")
    return 0

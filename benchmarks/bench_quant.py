"""Quantized integer backend vs the fp32 compiled engine (Section 6.4.1).

Two claims are measured:

* **Speed** — int8 storage halves (weights) / quarters (im2col and
  depthwise reads) the memory traffic of the bandwidth-bound SkyNet-A
  forward at the deployment resolution, so the integer plan must beat
  the fp32 compiled plan by >= 1.3x at batch 1.  Throughput on a shared
  host drifts between runs, so fp32 and quant calls are *interleaved
  pairwise* and the paired per-round ratios are reported alongside the
  per-arm minima.
* **Accuracy** — a Table-7-style bits sweep on the trained miniature
  SkyNet: validation IoU per scheme through the integer backend, plus
  the bit-exactness of every scheme against the fake-quant golden
  reference frozen at calibration.

Run as a script to (re)write ``BENCH_quant.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_quant.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from common import CONTEST_HW, detection_data, print_table, trained_skynet

from repro.core import SkyNetBackbone
from repro.detection.metrics import evaluate_detector
from repro.nn.engine import QuantConfig, compile_net
from repro.runtime import Session, SessionConfig

#: Fully fixed-point Table-7-style schemes, widest first.
SWEEP_SCHEMES = ((16, 16), (11, 9), (10, 8), (8, 8), (6, 6), (4, 4))
EXACT_SCHEMES = ((8, 8), (11, 9), (10, 8), (4, 6), (16, 16))
SPEED_SECONDS = 20.0  # time budget of the paired loop (script run)


# --------------------------------------------------------------------- #
# speed: paired interleaved fp32 vs int8
# --------------------------------------------------------------------- #
def run_speed(seconds: float = SPEED_SECONDS, max_pairs: int = 400) -> dict:
    rng = np.random.default_rng(0)
    h, w = CONTEST_HW
    x = rng.normal(0, 1, (1, 3, h, w)).astype(np.float32)
    bb = SkyNetBackbone("A", rng=np.random.default_rng(1))
    bb.eval()
    fp32 = compile_net(bb)
    quant = compile_net(bb, quant=QuantConfig(8, 8), calibration=x)

    # Speedup must not cost correctness: the integer plan reproduces
    # the calibration-time fake-quant reference bit for bit.
    diff = float(
        np.abs(quant(x) - quant.quant_stats["reference_output"]).max()
    )
    assert diff == 0.0, f"quant plan diverged from reference by {diff}"

    for _ in range(3):  # warm both arenas + BLAS pools
        fp32(x)
        quant(x)

    fp32_s, quant_s = [], []
    t_start = time.perf_counter()
    while (time.perf_counter() - t_start < seconds
           and len(fp32_s) < max_pairs):
        t0 = time.perf_counter()
        fp32(x)
        t1 = time.perf_counter()
        quant(x)
        t2 = time.perf_counter()
        fp32_s.append(t1 - t0)
        quant_s.append(t2 - t1)

    fp32_s, quant_s = np.array(fp32_s), np.array(quant_s)
    return {
        "pairs": int(len(fp32_s)),
        "fp32_ms_min": float(fp32_s.min() * 1e3),
        "fp32_ms_median": float(np.median(fp32_s) * 1e3),
        "quant_ms_min": float(quant_s.min() * 1e3),
        "quant_ms_median": float(np.median(quant_s) * 1e3),
        "min_ratio": float(fp32_s.min() / quant_s.min()),
        "paired_ratio_median": float(np.median(fp32_s / quant_s)),
        "max_abs_diff_vs_reference": diff,
    }


# --------------------------------------------------------------------- #
# exactness per scheme (small input: this is a correctness sweep)
# --------------------------------------------------------------------- #
def run_exactness() -> dict:
    rng = np.random.default_rng(2)
    bb = SkyNetBackbone("A", width_mult=0.25, rng=np.random.default_rng(1))
    bb.eval()
    x = rng.normal(0, 1, (2, 3, 32, 64)).astype(np.float32)
    diffs = {}
    for scheme in EXACT_SCHEMES:
        net = compile_net(bb, quant=QuantConfig(*scheme), calibration=x)
        diffs[net.quant.label] = float(
            np.abs(net(x) - net.quant_stats["reference_output"]).max()
        )
    return diffs


# --------------------------------------------------------------------- #
# Table-7-style bits sweep on the trained miniature detector
# --------------------------------------------------------------------- #
class _SessionPredictor:
    """``evaluate_detector`` adapter: route predict through a Session."""

    def __init__(self, session: Session) -> None:
        self._session = session

    def predict(self, images: np.ndarray) -> np.ndarray:
        return self._session.run(images)


def run_bits_sweep() -> list[dict]:
    det, fp32_iou = trained_skynet()
    _, val = detection_data()
    calibration = val.images[:8]
    rows = [{"scheme": "fp32", "iou": float(
        evaluate_detector(det, val.images, val.boxes))}]
    for scheme in SWEEP_SCHEMES:
        session = Session.load(
            det,
            SessionConfig(backend="quant", quant_bits=scheme,
                          fallback=False),
            calibration=calibration,
        )
        iou = evaluate_detector(
            _SessionPredictor(session), val.images, val.boxes
        )
        rows.append({"scheme": QuantConfig(*scheme).label,
                     "iou": float(iou)})
    return rows


def _print(speed: dict, exact: dict, sweep: list[dict]) -> None:
    print_table(
        f"fp32 vs w8/f8 compiled SkyNet-A @ {CONTEST_HW[0]}x{CONTEST_HW[1]}"
        f" ({speed['pairs']} interleaved pairs)",
        ["arm", "min ms", "median ms"],
        [
            ["fp32", f"{speed['fp32_ms_min']:.2f}",
             f"{speed['fp32_ms_median']:.2f}"],
            ["quant", f"{speed['quant_ms_min']:.2f}",
             f"{speed['quant_ms_median']:.2f}"],
            ["ratio", f"{speed['min_ratio']:.3f}x",
             f"{speed['paired_ratio_median']:.3f}x"],
        ],
    )
    print_table(
        "bit-exactness vs calibration reference (max |diff|)",
        ["scheme", "max diff"],
        [[label, f"{d:g}"] for label, d in exact.items()],
    )
    print_table(
        "Table-7-style bits sweep (miniature trained SkyNet)",
        ["scheme", "val IoU"],
        [[r["scheme"], f"{r['iou']:.3f}"] for r in sweep],
    )


def test_quant_speedup(benchmark):
    speed = benchmark.pedantic(
        lambda: run_speed(seconds=6.0), rounds=1, iterations=1
    )
    exact = run_exactness()
    _print(speed, exact, [])
    assert speed["max_abs_diff_vs_reference"] == 0.0
    assert all(d == 0.0 for d in exact.values())
    # Acceptance is >= 1.3x; assert with headroom so shared-host jitter
    # in the short test-mode loop cannot flake.
    assert speed["paired_ratio_median"] >= 1.15


if __name__ == "__main__":
    speed = run_speed()
    exact = run_exactness()
    sweep = run_bits_sweep()
    _print(speed, exact, sweep)
    assert speed["min_ratio"] >= 1.3 or speed["paired_ratio_median"] >= 1.3, (
        f"quantized speedup below acceptance: min-ratio "
        f"{speed['min_ratio']:.3f}, paired median "
        f"{speed['paired_ratio_median']:.3f}"
    )
    payload = {
        "bench": "quant_engine",
        "input_hw": list(CONTEST_HW),
        "width_mult": 1.0,  # SkyNetBackbone's default width
        "batch": 1,
        "scheme": "w8/f8",
        "speed": speed,
        "exactness_max_abs_diff": exact,
        "bits_sweep": sweep,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_quant.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")

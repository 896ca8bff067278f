"""Shared pieces of the benchmark: the model, statistics, process
accounting, environment record and result printing.

Nothing here starts a thread or a process at import time: pool children
re-import the entry script under the ``spawn`` start method, and every
module they pull in must stay inert.
"""

from __future__ import annotations

import glob
import json
import math
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field

import numpy as np

#: The model is the system under test, so its weights never vary with
#: the workload seed; only the frames do.
MODEL_SEED = 0

#: End-to-end metrics of a measured run: name -> unit.  Ratios carry
#: their base in the details line (see :class:`Ratio`).
END_TO_END_UNITS = {
    "setup_s": "s",
    "fps": "1/s",
    "latency_p50_ms": "ms",
    "ok_ratio": "ratio",
    "slo_ok_ratio": "ratio",
    "cpu_ms_per_frame": "ms",
    "peak_rss_mb": "MB",
}

#: Printed with every measured run but kept out of the result object, so
#: no bound applies: over ten seeds on a shared 2-CPU host the 90th
#: percentile of ``multicam_int8`` spread 0.09 to 0.28 of its median
#: (quartile distance), past the largest bound a metric may have.
UNGATED_UNITS = {"latency_p90_ms": "ms"}

#: Minimum verified frames in a measured (untraced) run; with fewer the
#: 90th percentile has under ten samples beyond it and the run is void.
MIN_VERIFIED_FRAMES = 100


class OutputMismatch(RuntimeError):
    """The program's output differs from its reference."""


@dataclass(frozen=True)
class Scale:
    """Model and input size.  ``PAPER`` is what the benchmark measures;
    the self-tests run the same code paths at ``SMOKE`` size."""

    width_mult: float = 1.0
    frame_hw: tuple[int, int] = (160, 320)
    hires_hw: tuple[int, int] = (280, 560)
    contest_pool: int = 4
    tiled_pool: int = 2
    camera_pool: int = 8
    calibration_frames: int = 8
    setups: int = 5
    pool_setups: int = 2
    min_frames: int = MIN_VERIFIED_FRAMES


PAPER = Scale()
SMOKE = Scale(width_mult=0.25, frame_hw=(32, 64), hires_hw=(56, 112),
              contest_pool=3, tiled_pool=2, camera_pool=3,
              calibration_frames=2, setups=2, pool_setups=1, min_frames=1)


def build_detector(scale: Scale = PAPER):
    """SkyNet config C (442,059 parameters at width 1.0), seeded init."""
    from repro.core.skynet import SkyNetBackbone
    from repro.detection.head import YoloHead
    from repro.detection.model import Detector

    rng = np.random.default_rng(MODEL_SEED)
    backbone = SkyNetBackbone("C", width_mult=scale.width_mult, rng=rng)
    return Detector(backbone, YoloHead(backbone.out_channels, rng=rng))


def preimport() -> None:
    """Import every module ``Session.load`` and the pool import lazily,
    so that ``setup_s`` times set-up and not bytecode compilation."""
    import repro.core.bundles  # noqa: F401
    import repro.detection.boxes  # noqa: F401
    import repro.detection.tiling  # noqa: F401
    import repro.nn.engine  # noqa: F401
    import repro.nn.engine.quant  # noqa: F401
    import repro.obs.profile  # noqa: F401
    import repro.runtime  # noqa: F401
    import repro.serve.procpool  # noqa: F401
    import repro.serve.stream  # noqa: F401
    import repro.tracking.siamese  # noqa: F401
    import repro.utils.tables  # noqa: F401
    import repro.zoo.mobilenet  # noqa: F401


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def percentile(samples, q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or ``None`` when fewer than ten
    samples lie beyond it (too few to say where the tail is)."""
    values = sorted(samples)
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < 10:
        return None
    return float(values[rank - 1])


def median(samples) -> float:
    return float(statistics.median(samples)) if samples else 0.0


@dataclass(frozen=True)
class Ratio:
    """A ratio that states its base: ``num`` out of ``den`` ``base``."""

    num: float
    den: float
    base: str

    @property
    def value(self) -> float:
        return self.num / self.den if self.den else 0.0

    def detail(self) -> dict:
        return {"value": self.value, "num": self.num, "den": self.den,
                "base": self.base}


def end_to_end(values: dict) -> tuple[dict, dict]:
    """``(gated, ungated)`` end-to-end metrics as ``name -> (value,
    unit)``, leaving out a percentile with too few samples to report."""
    expected = set(END_TO_END_UNITS) | set(UNGATED_UNITS)
    if set(values) != expected:
        raise KeyError(f"end-to-end metrics {sorted(values)} differ from "
                       f"{sorted(expected)}")
    return tuple({name: (values[name], unit)
                  for name, unit in table.items()
                  if values[name] is not None}
                 for table in (END_TO_END_UNITS, UNGATED_UNITS))


# --------------------------------------------------------------------- #
# process accounting: this process plus its live children
# --------------------------------------------------------------------- #
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def child_pids(pid: int | None = None) -> list[int]:
    """Every live descendant of ``pid`` (default: this process), found
    through ``/proc/<pid>/task/*/children``."""
    pid = os.getpid() if pid is None else pid
    found: list[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for path in glob.glob(f"/proc/{parent}/task/*/children"):
            try:
                with open(path) as fh:
                    kids = [int(k) for k in fh.read().split()]
            except OSError:
                continue
            found.extend(kids)
            frontier.extend(kids)
    return found


def proc_cpu_s(pid: int) -> float | None:
    """User + system CPU seconds of ``pid`` from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    # fields[0] is the state (stat field 3); utime/stime are 14 and 15.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MB, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS, so input
    generation and reference models do not count as program memory."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


class CpuClock:
    """CPU seconds of this process and every child, live or reaped.

    ``RUSAGE_CHILDREN`` only sees children that have been waited for, so
    live pool children are read from ``/proc`` directly.
    """

    def __init__(self) -> None:
        self._self0 = self._self_s()
        self._reaped0 = self._reaped_s()
        self._kids0 = self._kids()

    @staticmethod
    def _self_s() -> float:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return ru.ru_utime + ru.ru_stime

    @staticmethod
    def _reaped_s() -> float:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime

    @staticmethod
    def _kids() -> dict[int, float]:
        out = {}
        for pid in child_pids():
            cpu = proc_cpu_s(pid)
            if cpu is not None:
                out[pid] = cpu
        return out

    def elapsed(self) -> tuple[float, float]:
        """(this process, children) CPU seconds since construction."""
        kids = self._kids()
        live = sum(cpu - self._kids0.get(pid, 0.0)
                   for pid, cpu in kids.items())
        # A child reaped since the start counts in RUSAGE_CHILDREN with
        # its whole life; remove the part spent before the start.
        gone = sum(cpu for pid, cpu in self._kids0.items()
                   if pid not in kids)
        reaped = self._reaped_s() - self._reaped0 - gone
        return self._self_s() - self._self0, live + max(0.0, reaped)

    def total(self) -> float:
        own, kids = self.elapsed()
        return own + kids


def peak_rss_mb() -> tuple[float, float]:
    """(this process, live children) peak RSS in MB."""
    return proc_hwm_mb("self"), sum(proc_hwm_mb(p) for p in child_pids())


# --------------------------------------------------------------------- #
# environment and result printing
# --------------------------------------------------------------------- #
def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds differ in what they report
        return "unknown"


def environment(seed: int) -> dict:
    """What the numbers depend on; the benchmark sets none of it."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "REPRO_INTRA_OP_THREADS": os.environ.get("REPRO_INTRA_OP_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


@dataclass
class Result:
    """One run's outcome: correctness, counts, metrics and details."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    details: dict
    ungated: dict = field(default_factory=dict)  # printed, not in line()

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        })


def emit(workload: str, result: Result, env: dict) -> None:
    """Print the environment, details and a readable table, then the
    result object as the last line of standard output."""
    print(json.dumps({"workload": workload, "environment": env}))
    print(json.dumps({"workload": workload, "details": result.details,
                      "ungated": {name: {"value": value, "unit": unit}
                                  for name, (value, unit)
                                  in result.ungated.items()}},
                     default=float))
    rows = [(name, value, unit) for name, (value, unit)
            in result.metrics.items()]
    rows += [(name, value, f"{unit}  (no bound)") for name, (value, unit)
             in result.ungated.items()]
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")
    print(result.line(), flush=True)

"""Deterministic, seedable fault injection.

The DAC-SDC evaluation penalizes runs that die mid-stream, so every
recovery path in this repository is *provable*: a :class:`FaultPlan`
describes which failures to inject where, :func:`inject` arms it for a
block, and instrumented *fault sites* across the codebase consult the
active plan.  With no plan armed a fault site costs one global read —
the same discipline as the :mod:`repro.obs` no-op path — so production
code pays nothing for its own testability.

Fault sites and the kinds they honour:

========================  ==========================================
site                      kinds
========================  ==========================================
``serve.runner``          ``crash`` (raise inside the batch forward,
                          exercising retry/bisection), ``stall``
                          (sleep ``delay_s``), ``nan``/``inf``
                          (corrupt the batch output)
``serve.worker``          ``crash`` (raise in the worker loop itself,
                          exercising in-place recovery + requeue),
                          ``stall`` (hold the batch before its run)
``serve.procworker``      ``crash`` (SIGKILL the process-pool child
                          from the parent hot path, exercising the
                          ProcWorkerDied retry + respawn ladder),
                          ``stall`` (sleep ``delay_s`` before the
                          round-trip)
``stream.source``         ``crash`` (raise in a stream's producer,
                          exercising its in-place recovery),
                          ``stall`` (slow the camera)
``stream.queue``          ``crash`` (raise inside ``FrameQueue.put``),
                          ``stall`` (delay the accept path)
``stream.worker``         ``crash`` (raise in a stream worker
                          holding a frame, exercising requeue +
                          tracker continuity), ``stall``
``stream.sink``           ``crash`` (fail the event publish — costs
                          the event, never the frame), ``stall``
                          (a slow consumer, driving backpressure)
``arena.alloc``           ``alloc`` (``MemoryError`` on a
                          :class:`~repro.nn.engine.BufferArena` miss)
``checkpoint.write``      ``truncate``/``bitflip`` (corrupt the file
                          just after it was published — a torn write)
``train.batch``           ``nan``/``inf`` (poison a training batch,
                          exercising the anomaly guard rollback)
========================  ==========================================

Most sites call :func:`hit`, which raises on ``crash`` and sleeps on
``stall`` in one place; ``serve.procworker``, ``arena.alloc``,
``checkpoint.write`` and ``train.batch`` handle what :func:`trigger`
returns themselves.

Every injected fault bumps ``resilience/injected/<kind>`` and
``resilience/injected@<site>`` counters in :mod:`repro.obs`, so a test
can assert both that the fault fired *and* that the matching recovery
path answered it.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .. import obs

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "WorkerCrash",
    "active_plan",
    "apply_array_fault",
    "corrupt_file",
    "hit",
    "inject",
    "trigger",
]

#: Every fault kind a :class:`FaultSpec` may carry.
FAULT_KINDS = (
    "nan", "inf", "crash", "stall", "truncate", "bitflip", "alloc",
)


class InjectedFault(RuntimeError):
    """An artificial failure raised by an armed fault site."""


class WorkerCrash(InjectedFault):
    """An injected fault that crashes a worker loop outside its batch
    forward (the worker recovers in place, see
    :func:`~repro.resilience.run_supervised`)."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Parameters
    ----------
    site:
        The fault-site name this spec arms (see the module table).
    kind:
        One of :data:`FAULT_KINDS`.
    rate:
        Probability of firing per eligible hit (drawn from the plan's
        seeded generator, so runs are reproducible).
    times:
        Fire at most this many times (``None`` = unlimited).
    after:
        Skip the first ``after`` hits of the site before becoming
        eligible — "crash the third batch" is ``after=2, times=1``.
    delay_s:
        Sleep length for ``stall`` faults.
    """

    site: str
    kind: str
    rate: float = 1.0
    times: int | None = 1
    after: int = 0
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 (or None for unlimited)")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")


class FaultPlan:
    """A seeded set of :class:`FaultSpec` entries plus firing state.

    Thread-safe: server workers and trainer loops may hit the same plan
    concurrently.  Identical (specs, seed) pairs fire identically given
    the same sequence of site hits.
    """

    def __init__(self, specs, seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self._hits = [0] * len(self.specs)
        self._fired = [0] * len(self.specs)

    def trigger(self, site: str) -> FaultSpec | None:
        """Record one hit of ``site``; return the spec that fires, if any."""
        with self._lock:
            for i, spec in enumerate(self.specs):
                if spec.site != site:
                    continue
                self._hits[i] += 1
                if self._hits[i] <= spec.after:
                    continue
                if spec.times is not None and self._fired[i] >= spec.times:
                    continue
                if spec.rate < 1.0 and self._rng.random() >= spec.rate:
                    continue
                self._fired[i] += 1
                obs.inc(f"resilience/injected/{spec.kind}")
                obs.inc(f"resilience/injected@{site}")
                return spec
        return None

    def fired(self, site: str | None = None) -> int:
        """How many faults have fired (optionally only at ``site``)."""
        with self._lock:
            return sum(
                n for spec, n in zip(self.specs, self._fired)
                if site is None or spec.site == site
            )

    def hits(self, site: str) -> int:
        """How many times ``site`` was reached (fired or not)."""
        with self._lock:
            return max(
                (n for spec, n in zip(self.specs, self._hits)
                 if spec.site == site),
                default=0,
            )


_ACTIVE: FaultPlan | None = None
_ACTIVE_LOCK = threading.Lock()


@contextmanager
def inject(plan: FaultPlan):
    """Arm ``plan`` for the duration of the block (nestable; the inner
    plan shadows the outer one)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous, _ACTIVE = _ACTIVE, plan
    try:
        yield plan
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE = previous


def active_plan() -> FaultPlan | None:
    """The currently armed plan, or ``None``."""
    return _ACTIVE


def trigger(site: str) -> FaultSpec | None:
    """The fault-site entry point: one global read when no plan is armed."""
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.trigger(site)


def hit(site: str, crash: type[InjectedFault] = InjectedFault,
        detail: str = "") -> FaultSpec | None:
    """:func:`trigger` ``site`` and answer the generic kinds: raise
    ``crash`` on a ``crash`` fault, sleep ``delay_s`` on a ``stall``.
    Returns any other firing spec (e.g. ``nan``) for the site to apply,
    else ``None``."""
    spec = trigger(site)
    if spec is None:
        return None
    if spec.kind == "crash":
        raise crash(f"injected crash at {site}"
                    + (f" ({detail})" if detail else ""))
    if spec.kind == "stall":
        time.sleep(spec.delay_s)
        return None
    return spec


def apply_array_fault(x: np.ndarray, spec: FaultSpec) -> np.ndarray:
    """Return a copy of ``x`` with NaN/inf scattered through it."""
    if spec.kind not in ("nan", "inf"):
        raise ValueError(f"not an array fault kind: {spec.kind!r}")
    out = np.array(x, dtype=np.float32, copy=True)
    flat = out.reshape(-1)
    stride = max(1, flat.size // 8)
    flat[::stride] = np.nan if spec.kind == "nan" else np.inf
    return out


def corrupt_file(path: str, kind: str, seed: int = 0) -> None:
    """Corrupt ``path`` in place: ``truncate`` drops the tail half,
    ``bitflip`` flips one bit at a seed-determined offset.

    Also usable directly from tests to simulate torn writes and silent
    media corruption against :mod:`repro.resilience.checkpoint`.
    """
    size = os.path.getsize(path)
    if kind == "truncate":
        with open(path, "r+b") as fh:
            fh.truncate(max(1, size // 2))
        return
    if kind == "bitflip":
        offset = int(np.random.default_rng(seed).integers(size))
        with open(path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0x40]))
        return
    raise ValueError(f"unknown file corruption kind {kind!r}")

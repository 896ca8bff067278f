"""``repro.resilience`` — fault injection and the recovery it proves.

The paper's deployment setting (DAC-SDC scoring of long, unattended
runs on embedded boards) punishes systems that die mid-stream.  This
package makes survival testable:

* :mod:`~repro.resilience.faults` — a deterministic, seedable
  fault-injection framework (:class:`FaultPlan` + :func:`inject`).
  Instrumented fault sites across the serving stack, the buffer arena,
  checkpointing, and the trainers fire NaN/inf corruption, worker
  crashes, stalls, torn checkpoint writes, and allocation failures on
  demand — and cost one global read when no plan is armed.
* :mod:`~repro.resilience.retry` — ``retry_delay_ms``, the server's
  exponential backoff with seeded jitter.
* :mod:`~repro.resilience.breaker` — :class:`CircuitBreaker`, tripping
  a failing compiled backend over to the eager fallback and
  half-opening to probe recovery.
* :mod:`~repro.resilience.supervise` — :func:`run_supervised`, the one
  supervision primitive: a serving thread whose body crashes hands its
  work back and runs the body again in the same thread.
* :mod:`~repro.resilience.checkpoint` — :class:`CheckpointManager`,
  atomic (tmp+fsync+rename) checkpoints with CRC32 checksums and a
  manifest covering model/optimizer/scheduler/RNG state; loads fall
  back to the previous good checkpoint on corruption.
* :mod:`~repro.resilience.anomaly` — :class:`AnomalyGuard`, the
  NaN/inf trainer guard that rolls back to the last good step and
  halves the learning rate instead of letting a run diverge.

Every fault and recovery is counted through :mod:`repro.obs`
(``resilience/*``, ``serve/*``, ``train/*``), so tests assert not just
that a run survived but *which* recovery path saved it.
"""

from .anomaly import AnomalyGuard
from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .checkpoint import CheckpointError, CheckpointManager, RestoredState
from .faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    WorkerCrash,
    active_plan,
    apply_array_fault,
    corrupt_file,
    inject,
    trigger,
)
from .supervise import CRASH_PAUSE_S, run_supervised

__all__ = [
    "CRASH_PAUSE_S",
    "FAULT_KINDS",
    "AnomalyGuard",
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CheckpointError",
    "CheckpointManager",
    "CircuitBreaker",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RestoredState",
    "WorkerCrash",
    "active_plan",
    "apply_array_fault",
    "corrupt_file",
    "inject",
    "run_supervised",
    "trigger",
]

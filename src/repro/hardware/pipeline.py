"""System-level pipeline simulator (Fig. 10, Section 6.3/6.4.2).

Running SkyNet end to end involves four steps: (1) batch input fetching
from storage, (2) pre-processing (resize + normalize), (3) DNN
inference, (4) post-processing (decode boxes, buffer results).  Executed
serially these leave every engine idle most of the time; the paper
merges steps 1-2 and multithreads the stages into a pipeline, reporting
a 3.35x speedup on TX2 (67.33 FPS peak), and applies the same
CPU/FPGA task partitioning on Ultra96.

:class:`PipelineSimulator` is a discrete-event model of that schedule:
stage *s* starts batch *i* as soon as it finished batch *i-1* and stage
*s-1* delivered batch *i* (the classic pipeline recurrence).  Serial
execution is the degenerate schedule where each batch flows through all
stages before the next starts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs

__all__ = ["Stage", "PipelineSimulator", "PipelineResult"]


@dataclass(frozen=True)
class Stage:
    """One pipeline stage.

    Parameters
    ----------
    name:
        Stage label (e.g. ``'pre-process'``).
    latency_ms:
        Time to process one *batch*.
    """

    name: str
    latency_ms: float

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ValueError("latency cannot be negative")


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of a simulation run."""

    makespan_ms: float
    fps: float
    bottleneck: str
    stage_utilization: dict[str, float]


class PipelineSimulator:
    """Simulate serial vs pipelined execution of a stage list.

    Parameters
    ----------
    stages:
        Ordered stages; each latency is per batch.
    batch:
        Frames per batch (divides into the FPS calculation).
    sync_overhead_ms:
        Per-handoff synchronization cost in the pipelined schedule
        (thread wakeup, queue locking).
    """

    def __init__(
        self,
        stages: list[Stage],
        batch: int = 1,
        sync_overhead_ms: float = 0.0,
    ) -> None:
        if not stages:
            raise ValueError("need at least one stage")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.stages = list(stages)
        self.batch = batch
        self.sync_overhead_ms = sync_overhead_ms

    @classmethod
    def from_measurements(
        cls,
        stage_ms: dict[str, float] | list[tuple[str, float]],
        batch: int = 1,
        sync_overhead_ms: float = 0.0,
    ) -> "PipelineSimulator":
        """Build a simulator from measured per-stage latencies.

        ``stage_ms`` maps stage name to per-batch milliseconds (dict
        order is the stage order), for example per-stage times taken
        from the spans of a traced run.  This closes the loop between
        the measured system and the analytic model: measure the real
        stages, then explore schedules (merges, batch sizes)
        analytically.
        """
        items = stage_ms.items() if isinstance(stage_ms, dict) else stage_ms
        stages = [Stage(name, float(ms)) for name, ms in items]
        return cls(stages, batch=batch, sync_overhead_ms=sync_overhead_ms)

    def _record(self, schedule: str, result: PipelineResult) -> None:
        """Mirror a simulation outcome into the metrics registry
        (matches the paper's Fig. 10 per-stage FPS accounting)."""
        obs.set_gauge(f"pipeline/{schedule}_fps", result.fps)
        for name, util in result.stage_utilization.items():
            obs.set_gauge(f"pipeline/{schedule}_util/{name}", util)

    # ------------------------------------------------------------------ #
    def run_serial(self, n_batches: int) -> PipelineResult:
        """All stages execute back-to-back for each batch."""
        with obs.span("pipeline/run", schedule="serial",
                      n_batches=n_batches, stages=len(self.stages)):
            per_batch = sum(s.latency_ms for s in self.stages)
            makespan = per_batch * n_batches
            frames = n_batches * self.batch
            util = {
                s.name: (s.latency_ms / per_batch if per_batch else 0.0)
                for s in self.stages
            }
            slowest = max(self.stages, key=lambda s: s.latency_ms)
            result = PipelineResult(
                makespan_ms=makespan,
                fps=frames / makespan * 1e3 if makespan else float("inf"),
                bottleneck=slowest.name,
                stage_utilization=util,
            )
        self._record("serial", result)
        return result

    def run_pipelined(self, n_batches: int) -> PipelineResult:
        """Overlapped schedule via the pipeline recurrence."""
        with obs.span("pipeline/run", schedule="pipelined",
                      n_batches=n_batches, stages=len(self.stages)):
            n_stages = len(self.stages)
            lat = [s.latency_ms + self.sync_overhead_ms for s in self.stages]
            finish = [0.0] * n_stages  # finish time of the last batch per stage
            busy = [0.0] * n_stages
            prev_done = 0.0
            for _ in range(n_batches):
                prev_done = 0.0
                for s in range(n_stages):
                    start = max(finish[s], prev_done)
                    finish[s] = start + lat[s]
                    busy[s] += lat[s]
                    prev_done = finish[s]
            makespan = prev_done
            frames = n_batches * self.batch
            util = {
                s.name: (busy[i] / makespan if makespan else 0.0)
                for i, s in enumerate(self.stages)
            }
            slowest = max(self.stages, key=lambda s: s.latency_ms)
            result = PipelineResult(
                makespan_ms=makespan,
                fps=frames / makespan * 1e3 if makespan else float("inf"),
                bottleneck=slowest.name,
                stage_utilization=util,
            )
        self._record("pipelined", result)
        return result

    def speedup(self, n_batches: int = 256) -> float:
        """Pipelined over serial throughput ratio."""
        serial = self.run_serial(n_batches)
        piped = self.run_pipelined(n_batches)
        obs.set_gauge("pipeline/speedup", piped.fps / serial.fps)
        return piped.fps / serial.fps

    def steady_state_fps(self) -> float:
        """Asymptotic pipelined throughput: 1 / slowest stage."""
        worst = max(s.latency_ms + self.sync_overhead_ms for s in self.stages)
        return self.batch / worst * 1e3 if worst else float("inf")

    def merge_stages(self, i: int, j: int) -> "PipelineSimulator":
        """Return a new simulator with stages ``i..j`` fused into one.

        Models the paper's step-1+2 merge ("we first merge step 1 and 2
        in pre-process").
        """
        if not 0 <= i <= j < len(self.stages):
            raise IndexError("invalid stage range")
        merged = Stage(
            "+".join(s.name for s in self.stages[i : j + 1]),
            sum(s.latency_ms for s in self.stages[i : j + 1]),
        )
        stages = self.stages[:i] + [merged] + self.stages[j + 1 :]
        return PipelineSimulator(stages, self.batch, self.sync_overhead_ms)

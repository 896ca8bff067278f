"""Frozen configuration dataclasses for the inference runtime.

One hashable, validated value object per concern.
:class:`SessionConfig` says *how a forward runs* (which backend, its
quantization scheme, tiled inference); :class:`ServeConfig` says *how a
server schedules requests* (queue bound, batching window, deadlines,
workers); :class:`StreamConfig` says *how a stream manager queues frames
and browns out*.  All are frozen so they can key session caches and be
shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

__all__ = ["BACKENDS", "ServeConfig", "SessionConfig", "StreamConfig"]

#: Valid ``SessionConfig.backend`` values: the compiled inference engine
#: (:mod:`repro.nn.engine`), its integer-domain quantized mode, or the
#: eager autograd forward under ``no_grad``.
BACKENDS = ("engine", "quant", "eager")


@dataclass(frozen=True)
class SessionConfig:
    """How a :class:`~repro.runtime.Session` executes a forward pass.

    Parameters
    ----------
    backend:
        ``"engine"`` compiles the model into a
        :class:`~repro.nn.engine.CompiledNet`; ``"quant"`` additionally
        lowers the plan into the integer domain at the
        :attr:`quant_bits` scheme (requires calibration samples at
        :meth:`Session.load <repro.runtime.Session.load>` time);
        ``"eager"`` runs the autograd forward under ``no_grad``.
    quant_bits:
        ``(weight_bits, feature_map_bits)`` for the ``"quant"`` backend
        (ignored otherwise) — the Table-7 scheme handed to
        :class:`~repro.nn.engine.QuantConfig`.
    fallback:
        When the requested backend cannot compile the model
        (:class:`~repro.nn.engine.CompileError`), degrade down the
        ladder ``quant -> engine -> eager`` with a warning at each step
        instead of raising.
    tiles:
        ``(rows, cols)`` tiled-inference grid, or ``None`` (default) for
        whole-frame inference.  With a grid set, a ``Detector`` session
        splits every input frame into overlapping tiles, runs all tiles
        of the batch as *one* engine call, and merges per-tile decodes
        through a global cross-tile NMS (see
        :mod:`repro.detection.tiling` — image-space tiling, not the FPGA
        loop tiling).  ``run``/``submit`` results become packed
        ``(max_det, 5)`` detection arrays per frame instead of single
        ``(4,)`` boxes.  Requires a ``Detector`` model.
    tile_overlap:
        Overlap ratio between adjacent tiles in [0, 1); objects up to
        ``tile_overlap * tile`` wide are guaranteed whole in some tile.
    tile_max_detections:
        Rows per frame in the packed detection output (global NMS cap).
    """

    backend: str = "engine"
    quant_bits: tuple[int, int] = (8, 8)
    fallback: bool = True
    tiles: tuple[int, int] | None = None
    tile_overlap: float = 0.25
    tile_max_detections: int = 32

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{BACKENDS}"
            )
        bits = tuple(self.quant_bits)
        if len(bits) != 2 or not all(
            isinstance(b, int) and 2 <= b <= 16 for b in bits
        ):
            raise ValueError(
                "quant_bits must be a (weight_bits, fm_bits) pair of ints "
                f"in [2, 16], got {self.quant_bits!r}"
            )
        object.__setattr__(self, "quant_bits", bits)
        if self.tiles is not None:
            grid = tuple(self.tiles)
            if len(grid) != 2 or not all(
                isinstance(g, int) and g >= 1 for g in grid
            ):
                raise ValueError(
                    f"tiles must be a (rows, cols) pair of ints >= 1, "
                    f"got {self.tiles!r}"
                )
            object.__setattr__(self, "tiles", grid)
        if not 0.0 <= self.tile_overlap < 1.0:
            raise ValueError("tile_overlap must be in [0, 1)")
        if self.tile_max_detections < 1:
            raise ValueError("tile_max_detections must be >= 1")


@dataclass(frozen=True)
class ServeConfig:
    """Scheduling + recovery policy of a
    :class:`~repro.serve.InferenceServer`.

    Parameters
    ----------
    queue_depth:
        Bound on the request queue.  Submissions beyond it are *shed*
        immediately (503-style result) — the caller is never blocked.
    max_batch_size:
        Flush a forming batch as soon as it reaches this many requests.
    max_wait_ms:
        ... or as soon as the oldest request in it has waited this long,
        whichever happens first.
    deadline_ms:
        Default per-request deadline; a request still queued past its
        deadline gets a timeout result (504-style) instead of running.
        ``None`` = no deadline.  ``submit(deadline_ms=...)`` overrides.
    num_workers:
        Worker threads, each with its own engine clone (and therefore
        its own :class:`~repro.nn.engine.BufferArena` — arenas are never
        shared across threads).
    worker_backend:
        ``"thread"`` runs each worker's forward in-process (zero startup
        cost, but the GIL serializes the Python portions of concurrent
        forwards); ``"process"`` gives each worker a child process with
        its own interpreter, running the session's already-compiled
        plan on its own buffer arena — true core-level parallelism,
        shared-memory tensor transport, at the cost of per-worker
        startup and memory (see :mod:`repro.serve.procpool`).
    max_retries:
        Re-run a failed batch this many times (5 ms backoff doubling per
        attempt, with jitter; :func:`repro.resilience.retry.
        retry_delay_ms`) before erroring.  A multi-request batch whose
        retries are exhausted is then split in half and each side re-run,
        so one poison request errors alone.  ``0`` restores fail-fast
        behaviour.
    breaker_threshold:
        Consecutive primary-runner failures that trip the circuit
        breaker onto the fallback runner (``0`` disables; only active
        when the server was given a fallback factory — see
        :class:`~repro.serve.InferenceServer`).
    breaker_cooldown_ms:
        How long a tripped breaker waits before half-opening to probe
        the primary runner.
    reject_nonfinite:
        Treat NaN/inf in runner outputs as a batch failure (entering
        the retry/bisect ladder) instead of returning it to callers.
    """

    queue_depth: int = 64
    max_batch_size: int = 8
    max_wait_ms: float = 2.0
    deadline_ms: float | None = None
    num_workers: int = 1
    worker_backend: str = "thread"
    max_retries: int = 1
    breaker_threshold: int = 5
    breaker_cooldown_ms: float = 250.0
    reject_nonfinite: bool = False

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive (or None)")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.worker_backend not in ("thread", "process"):
            raise ValueError(
                f"unknown worker_backend {self.worker_backend!r}; "
                "expected 'thread' or 'process'"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be >= 0 (0 disables)")
        if self.breaker_cooldown_ms <= 0:
            raise ValueError("breaker_cooldown_ms must be positive")


@dataclass(frozen=True)
class StreamConfig:
    """Per-stream policy of a :class:`~repro.serve.StreamManager`.

    Frame deadlines come from the engine pool's
    :attr:`ServeConfig.deadline_ms`; a stream worker gives up on a
    submitted frame after 30 s (``repro.serve.stream.RESULT_TIMEOUT_S``)
    and accounts it ``dropped_rejected``.

    Parameters
    ----------
    queue_depth:
        Bound on each stream's frame queue.  A full queue evicts its
        *oldest* frame (drop-oldest backpressure) — the producer is
        never blocked, and the evicted frame is accounted
        ``dropped_backpressure``.
    brownout:
        Run the hysteretic overload controller (see
        :class:`~repro.serve.BrownoutController`).
    pressure_high:
        Queue-fullness threshold: ``escalate_ticks`` consecutive
        supervisor samples at/above it climb one brownout rung;
        ``recover_ticks`` at/below :attr:`pressure_low` descend one.
        The dead band between the two holds the rung.
    supervisor_interval_ms:
        Supervisor tick (brownout sampling + per-stream gauges).

    The class constants below are not settable per instance.
    """

    #: Queue fullness at/below which the brownout ladder recovers.
    pressure_low: ClassVar[float] = 0.25
    #: Frame stride at the deepest brownout rung: every 2nd frame runs,
    #: the rest are dropped by policy.
    brownout_stride: ClassVar[int] = 2
    #: The per-stream tracker's IoU gate and EMA weight: the defaults
    #: of :class:`repro.tracking.TrackState`, which every stream uses.
    track_iou: ClassVar[float] = 0.3
    track_smooth: ClassVar[float] = 0.6

    queue_depth: int = 8
    brownout: bool = True
    pressure_high: float = 0.75
    escalate_ticks: int = 3
    recover_ticks: int = 5
    supervisor_interval_ms: float = 10.0

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if not self.pressure_low < self.pressure_high <= 1.0:
            raise ValueError(
                f"need {self.pressure_low} < pressure_high <= 1")
        if self.escalate_ticks < 1 or self.recover_ticks < 1:
            raise ValueError("escalate/recover ticks must be >= 1")
        if self.supervisor_interval_ms <= 0:
            raise ValueError("supervisor_interval_ms must be positive")

"""Threaded dynamic-batching inference server with fault recovery.

The deployment story of the paper is a saturation problem: the TX2
keeps its DNN stage busy by overlapping four system stages, the Ultra96
by processing several images per accelerator call (Sec. 5).  Under a
*stream of concurrent requests* the same lever is dynamic batching:
requests park in a bounded queue, a worker coalesces them into a batch
— flushing when the batch is full (``max_batch_size``) or the oldest
request has waited long enough (``max_wait_ms``), whichever comes first
— and one forward serves the whole batch.

Overload policy is explicit and non-blocking:

* a full queue **sheds** new requests immediately (503-style result) —
  ``submit`` never blocks the caller;
* a request whose **deadline** passes while queued resolves with a
  timeout result (504-style) instead of occupying a worker;
* ``stop()`` resolves everything still queued with shutdown results, so
  no future is ever left dangling.

Failures get *recovery*, not just error results (the DAC-SDC stream
must survive, and ``repro.resilience`` injects the faults that prove
it):

* a failed batch is **retried** with exponential backoff + jitter
  (``max_retries``; :func:`~repro.resilience.retry.retry_delay_ms`), so
  a transient fault costs a pause, not a 500;
* a batch that keeps failing is **bisected**: split in half and re-run,
  so one poison request errors alone instead of failing its batchmates;
* a :class:`~repro.resilience.CircuitBreaker` counts consecutive
  primary-runner failures and, once tripped, routes batches to the
  **fallback runner** (the eager forward behind a compiled plan),
  half-opening after a cooldown to probe recovery;
* a worker that crashes **recovers in place**
  (:func:`~repro.resilience.run_supervised`): its own thread requeues
  the batch it held and re-enters the serve loop with fresh runners,
  so a worker crash loses zero accepted requests and the worker never
  reads as dead;
* :meth:`InferenceServer.health` reports readiness (worker liveness,
  queue, breaker state) for the CLI and load balancers.

Each worker owns its runners (for compiled plans: a ``copy.copy`` of
the :class:`~repro.nn.engine.CompiledNet`, which shares the plan and
gets a fresh arena), so buffer arenas are never shared across threads.
Everything is observable through :mod:`repro.obs`:
``serve/queue_depth`` gauge, ``serve/batch_size`` histogram, one
``serve/<field>`` counter per :class:`ServerStats` field
(``serve/submitted``, ``serve/completed``, ``serve/timeouts``,
``serve/bisections``, ``serve/respawns``, ...) plus the
``serve/breaker_*`` counters, a
``serve/queue_wait`` span per dequeued request, a ``serve/batch`` span
per forward, and a ``serve/worker_respawn`` instant event per crash
recovery.  Every request is minted an id
(:func:`~repro.obs.new_request_id`) in :meth:`InferenceServer.submit`;
the id rides the queue and is re-entered around the batch forward, so
queue-wait, batch, and engine kernel spans all carry the request id
(comma-joined for coalesced batches) and results expose it as
``ServeResult.request_id``.
"""

from __future__ import annotations

import functools
import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError

import numpy as np

from .. import obs
from ..resilience import faults
from ..resilience.breaker import OPEN, CircuitBreaker
from ..resilience.retry import retry_delay_ms
from ..resilience.supervise import run_supervised
from ..runtime.config import ServeConfig
from .result import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    STATUS_SHUTDOWN,
    STATUS_TIMEOUT,
    Counters,
    ServeResult,
)

__all__ = ["InferenceServer", "ServerStats"]


class ServerStats(Counters):
    """Thread-safe request accounting for one server.

    A resolved batch bumps ``completed`` (or ``errors``), ``batches``
    and ``batched_requests`` in one :meth:`add_many` call, so a scrape
    during a worker restart never reports an impossible mean batch
    size.  Every field is also the ``serve/<field>`` obs counter.
    """

    PREFIX = "serve"
    FIELDS = (
        "submitted", "completed", "shed", "timeouts", "errors", "batches",
        "batched_requests",  # completed + errored, for batch sizing
        "retries", "bisections", "respawns", "requeued", "fallback_batches",
    )

    def snapshot(self) -> dict:
        """Every counter, consistent, plus ``mean_batch_size`` and a
        monotonic stamp (``ts_monotonic``) so scrape consumers can order
        snapshots without trusting wall time."""
        snap = super().snapshot()
        snap["ts_monotonic"] = time.monotonic()
        snap["mean_batch_size"] = (
            snap["batched_requests"] / snap["batches"] if snap["batches"]
            else 0.0
        )
        return snap


class _Request:
    __slots__ = ("image", "future", "submitted_at", "deadline_at",
                 "request_id")

    def __init__(self, image, future, submitted_at, deadline_at,
                 request_id) -> None:
        self.image = image
        self.future = future
        self.submitted_at = submitted_at
        self.deadline_at = deadline_at
        # Minted in submit(); rides the queue so worker threads can
        # attribute their spans to this request.
        self.request_id = request_id


class InferenceServer:
    """Bounded queue + dynamic batcher + self-healing worker pool.

    Parameters
    ----------
    runner_factory:
        Zero-argument callable returning a *batch runner*: a callable
        mapping an ``(N, C, H, W)`` ndarray to an output array with a
        leading batch dimension.  Called once per worker thread so every
        worker owns its runner (see
        :meth:`repro.runtime.Session.runner_for_thread`).
    config:
        The :class:`~repro.runtime.ServeConfig` scheduling + recovery
        policy.
    name:
        Label used in spans and the repr.
    fallback_factory:
        Optional second runner factory functionally equivalent to the
        primary (a Session passes the eager forward behind a compiled
        plan).  Enables the circuit breaker: after
        ``config.breaker_threshold`` consecutive primary failures,
        batches run on the fallback until a half-open probe finds the
        primary healthy again.
    """

    def __init__(
        self,
        runner_factory,
        config: ServeConfig | None = None,
        name: str = "model",
        fallback_factory=None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.name = name
        self.stats = ServerStats()
        self._runner_factory = runner_factory
        self._fallback_factory = fallback_factory
        self.breaker: CircuitBreaker | None = None
        if fallback_factory is not None and self.config.breaker_threshold:
            self.breaker = CircuitBreaker(
                threshold=self.config.breaker_threshold,
                cooldown_s=self.config.breaker_cooldown_ms / 1e3,
                name=name,
            )
        self._queue: queue.Queue[_Request] = queue.Queue(
            maxsize=self.config.queue_depth
        )
        #: Runtime override of ``config.max_batch_size`` (overload
        #: brownout shrinks batches without rebuilding the server).
        self._batch_cap: int | None = None
        self._stopping = threading.Event()
        self._inflight: list[list[_Request] | None] = (
            [None] * self.config.num_workers
        )
        self._workers = [
            threading.Thread(
                target=run_supervised,
                args=(functools.partial(self._worker, i),
                      functools.partial(self._recover, i), self._stopping),
                daemon=True, name=f"serve-{name}-{i}",
            )
            for i in range(self.config.num_workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------ #
    # client side
    # ------------------------------------------------------------------ #
    def submit(
        self, image: np.ndarray, deadline_ms: float | None = None
    ) -> Future:
        """Queue one ``(C, H, W)`` or ``(1, C, H, W)`` image.

        Returns a future resolving to a :class:`ServeResult`.  Never
        blocks: if the queue is full the request is shed right here with
        a 503-style result, and after :meth:`stop` every submission
        resolves as shutdown.
        """
        image = np.asarray(image, dtype=np.float32)
        if image.ndim == 3:
            image = image[None]
        if image.ndim != 4 or image.shape[0] != 1:
            raise ValueError(
                "submit takes one image per request: (C, H, W) or "
                f"(1, C, H, W), got shape {image.shape}"
            )
        future: Future = Future()
        now = time.perf_counter()
        self.stats.add("submitted")
        if deadline_ms is None:
            deadline_ms = self.config.deadline_ms
        request_id = obs.new_request_id(self.name)
        if self._stopping.is_set():
            future.set_result(
                ServeResult(STATUS_SHUTDOWN, request_id=request_id)
            )
            return future
        deadline_at = None if deadline_ms is None else now + deadline_ms / 1e3
        request = _Request(image, future, now, deadline_at, request_id)
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self.stats.add("shed")
            future.set_result(
                ServeResult(STATUS_SHED, request_id=request_id)
            )
            return future
        obs.set_gauge("serve/queue_depth", self._queue.qsize())
        return future

    def set_batch_cap(self, cap: int | None) -> None:
        """Cap dynamic batches below ``config.max_batch_size`` at
        runtime (``None`` restores the configured limit).

        Used by the streaming brownout ladder: smaller batches cut
        per-batch latency and arena footprint under overload, without
        touching queued requests or restarting workers.  Takes effect
        on the next coalesce; batches already filled are unaffected.
        """
        if cap is not None and cap < 1:
            raise ValueError("batch cap must be >= 1 or None")
        self._batch_cap = cap
        obs.set_gauge(
            "serve/batch_cap",
            self.config.max_batch_size if cap is None else cap,
        )

    def health(self) -> dict:
        """Readiness snapshot: worker liveness, queue, breaker, stats.

        ``status`` is ``"ok"`` when every worker is alive and the
        breaker (if any) is not open, ``"degraded"`` when some workers
        are dead or traffic is running on the fallback, ``"down"`` when
        no worker is alive, and ``"stopped"`` after :meth:`stop`.
        """
        alive = sum(1 for t in self._workers if t.is_alive())
        breaker = None if self.breaker is None else self.breaker.snapshot()
        if self._stopping.is_set():
            status = "stopped"
        elif alive == 0:
            status = "down"
        elif alive < len(self._workers) or (
            breaker is not None and breaker["state"] == OPEN
        ):
            status = "degraded"
        else:
            status = "ok"
        obs.set_gauge("serve/workers_alive", alive)
        return {
            "status": status,
            "workers_alive": alive,
            "workers_total": len(self._workers),
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.config.queue_depth,
            "breaker": breaker,
            "stats": self.stats.snapshot(),
        }

    def stop(self) -> None:
        """Stop the workers and fail queued requests fast (idempotent).

        Requests already inside a worker's batch finish normally, and a
        worker that crashes meanwhile requeues its batch before it
        exits; everything left queued resolves with a shutdown result,
        so no caller ever hangs on a dangling future.
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        for t in self._workers:
            t.join()
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            _resolve(
                request.future,
                ServeResult(STATUS_SHUTDOWN, request_id=request.request_id),
            )

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"InferenceServer({self.name}, "
                f"workers={self.config.num_workers}, "
                f"queued={self._queue.qsize()})")

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def _worker(self, index: int) -> None:
        """One worker's serve loop, run under :func:`run_supervised`:
        after a crash, :meth:`_recover` requeues the batch and the loop
        starts over with fresh runners."""
        # This loop's runners, keyed by "is fallback" and built lazily:
        # a restarted loop never reuses one a crash left mid-forward.
        runners: dict[bool, object] = {}
        rng = np.random.default_rng(1000 + index)  # retry jitter
        while not self._stopping.is_set():
            try:
                first = self._queue.get(timeout=0.02)
            except queue.Empty:
                continue
            batch = self._fill_batch(first, index)
            self._inflight[index] = batch
            # A crash here holds the batch: _recover requeues it.
            faults.hit("serve.worker", faults.WorkerCrash, f"worker {index}")
            self._run_batch(runners, batch, index, rng)
            self._inflight[index] = None

    def _recover(self, index: int, exc: Exception) -> None:
        """Requeue the batch a crashed worker held; requests that no
        longer fit in the queue are shed."""
        batch, self._inflight[index] = self._inflight[index], None
        requeued = 0
        for request in batch or ():
            if request.future.done():
                continue
            try:
                self._queue.put_nowait(request)
                requeued += 1
            except queue.Full:
                self.stats.add("shed")
                _resolve(
                    request.future,
                    ServeResult(STATUS_SHED, request_id=request.request_id),
                )
        self.stats.add_many(respawns=1, requeued=requeued)
        obs.event("serve/worker_respawn", server=self.name, worker=index,
                  requeued=requeued, error=type(exc).__name__)

    def _fill_batch(self, first: _Request, index: int) -> list[_Request]:
        """Coalesce requests: flush on ``max_batch_size`` or on the
        ``max_wait_ms`` window from the first dequeue, whichever first.

        A *lone* request — empty queue and no other worker holding a
        batch — flushes immediately instead of burning the full wait
        window: there is nothing to coalesce with, so waiting would buy
        batch size 1 at ``max_wait_ms`` extra latency (the
        ``concurrency1`` closed-loop penalty)."""
        batch = [first]
        cap = self._batch_cap
        limit = (self.config.max_batch_size if cap is None
                 else min(cap, self.config.max_batch_size))
        flush_at = time.perf_counter() + self.config.max_wait_ms / 1e3
        while len(batch) < limit:
            try:
                batch.append(self._queue.get_nowait())
                continue
            except queue.Empty:
                pass
            if all(
                inflight is None or i == index
                for i, inflight in enumerate(self._inflight)
            ):
                break
            remaining = flush_at - time.perf_counter()
            if remaining <= 0 or self._stopping.is_set():
                break
            try:
                batch.append(self._queue.get(timeout=remaining))
            except queue.Empty:
                break
        return batch

    def _run_batch(
        self, runners: dict, batch: list[_Request], worker: int,
        rng: np.random.Generator,
    ) -> None:
        now = time.perf_counter()
        recording = obs.enabled()
        live: list[_Request] = []
        for request in batch:
            if recording:
                # The queue wait started on the submit thread and ended
                # here; reconstruct it from the timestamps, attributed
                # to the request that waited.
                with obs.use_context(request.request_id):
                    obs.record_span(
                        "serve/queue_wait", request.submitted_at, now,
                        server=self.name, worker=worker,
                    )
            if request.deadline_at is not None and now > request.deadline_at:
                self.stats.add("timeouts")
                _resolve(
                    request.future,
                    ServeResult(
                        STATUS_TIMEOUT,
                        latency_ms=(now - request.submitted_at) * 1e3,
                        request_id=request.request_id,
                    ),
                )
            else:
                live.append(request)
        obs.set_gauge("serve/queue_depth", self._queue.qsize())
        if not live:
            return
        self._execute(runners, live, worker, rng)

    def _get_runner(self, runners: dict, fallback: bool):
        if fallback not in runners:
            factory = (self._fallback_factory if fallback
                       else self._runner_factory)
            runners[fallback] = factory()
        return runners[fallback]

    def _execute(
        self, runners: dict, live: list[_Request], worker: int,
        rng: np.random.Generator,
    ) -> None:
        """Run ``live`` with the full recovery ladder: retry with
        backoff, trip the breaker to the fallback runner, and bisect a
        batch whose retries are exhausted so a poison request fails
        alone."""
        x = (live[0].image if len(live) == 1
             else np.concatenate([r.image for r in live], axis=0))
        batch_id = ",".join(r.request_id for r in live)
        attempt = 0
        last_error = "unknown error"
        while True:
            on_fallback = (self.breaker is not None
                           and not self.breaker.allow_primary())
            try:
                runner = self._get_runner(runners, on_fallback)
                spec = faults.hit("serve.runner")
                with obs.use_context(batch_id), obs.span(
                    "serve/batch", server=self.name, worker=worker,
                    batch=len(live),
                    backend="fallback" if on_fallback else "primary",
                ):
                    out = runner(x)
                if spec is not None and spec.kind in ("nan", "inf"):
                    out = faults.apply_array_fault(out, spec)
                if (self.config.reject_nonfinite
                        and not np.all(np.isfinite(out))):
                    raise ValueError("runner produced non-finite outputs")
            except Exception as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                if not on_fallback and self.breaker is not None:
                    self.breaker.record_failure()
                if attempt < self.config.max_retries:
                    delay = retry_delay_ms(attempt, rng)
                    attempt += 1
                    self.stats.add("retries")
                    time.sleep(delay / 1e3)
                    continue
                break
            if not on_fallback and self.breaker is not None:
                self.breaker.record_success()
            if on_fallback:
                self.stats.add("fallback_batches")
            self._resolve_ok(live, out)
            return

        # Retries exhausted.  A multi-request batch may be failing
        # because of one poison request: split and re-run each half so
        # the healthy batchmates still get answers.
        if len(live) > 1:
            self.stats.add("bisections")
            mid = len(live) // 2
            self._execute(runners, live[:mid], worker, rng)
            self._execute(runners, live[mid:], worker, rng)
            return
        self.stats.add_many(errors=len(live), batches=1,
                            batched_requests=len(live))
        obs.observe("serve/batch_size", len(live))
        done = time.perf_counter()
        for request in live:
            _resolve(
                request.future,
                ServeResult(
                    STATUS_ERROR, error=last_error,
                    latency_ms=(done - request.submitted_at) * 1e3,
                    batch_size=len(live),
                    request_id=request.request_id,
                ),
            )

    def _resolve_ok(self, live: list[_Request], out: np.ndarray) -> None:
        done = time.perf_counter()
        # One atomic bump: a concurrent snapshot() must never see
        # completed move while batches lags (torn mean batch size).
        self.stats.add_many(
            completed=len(live), batches=1, batched_requests=len(live),
        )
        obs.observe("serve/batch_size", len(live))
        for i, request in enumerate(live):
            _resolve(
                request.future,
                ServeResult(
                    STATUS_OK, value=out[i],
                    latency_ms=(done - request.submitted_at) * 1e3,
                    batch_size=len(live),
                    request_id=request.request_id,
                ),
            )


def _resolve(future: Future, result: ServeResult) -> None:
    """Resolve a future exactly once; a second resolution is dropped."""
    try:
        future.set_result(result)
    except InvalidStateError:  # already resolved elsewhere: benign
        pass

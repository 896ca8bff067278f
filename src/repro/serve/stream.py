"""Streaming serving: per-stream sessions that degrade gracefully.

The deployment the paper aims at is not a batch of images but a *video
feed* that never stops: the DAC-SDC stream (and FastMOT's camera
pipelines, which ship tracks to downstream consumers over MQTT) must
keep the camera side moving no matter how slow the DNN or the
consumers get.  This module is that shape at serving scale — N
concurrent streams sharing one engine pool — with the robustness
contract made explicit and testable:

* **The producer never blocks.**  Each stream owns a
  :class:`FrameQueue` with *drop-oldest* backpressure: a full queue
  evicts its oldest frame (counted ``dropped_backpressure``) so
  ``put`` stays O(1) and lock-bounded.  A camera cannot be told to
  wait; it can only be told which frames to forget.
* **Every accepted frame is accounted.**  The invariant
  ``accepted == processed + dropped_by_policy`` holds exactly once a
  stream drains (mid-run the difference is the frames in flight, at
  most the queue depth plus one): frames evicted by backpressure,
  skipped by the brownout stride, rejected by the engine pool
  (shed/timeout/error), or drained at shutdown are all
  *dropped by policy*, never silently lost — including the frame a
  crashed worker held (the worker requeues it as it recovers).
* **Overload browns out, then recovers.**  A hysteretic
  :class:`BrownoutController` climbs a two-rung degradation ladder
  under sustained queue pressure — shrink the dynamic batch
  (:meth:`InferenceServer.set_batch_cap`), then raise the frame-drop
  stride — and steps back down rung by rung once pressure stays low.
  It never touches the circuit breaker: the eager fallback costs
  several times the compiled plan, so it is no relief under load.
* **Stream threads recover in place.**  Producers and workers run
  under :func:`~repro.resilience.run_supervised`: a crashed worker
  requeues its in-hand frame and re-enters its loop in the same
  thread, a crashed producer resumes the same frame iterator.  The
  stream's sticky tracker state (:class:`~repro.tracking.TrackState`)
  lives on the :class:`Stream`, so a recovered worker keeps the same
  track ids.
* **Events go somewhere pluggable.**  Each processed frame publishes a
  detection/track event through an :class:`EventSink` — a JSONL file
  (:class:`JsonlSink`) or an in-process callback bus
  (:class:`CallbackSink`) standing in for MQTT/socket.io.  A failing
  sink costs the event, never the frame accounting.

Fault sites ``stream.source`` / ``stream.queue`` / ``stream.worker`` /
``stream.sink`` (see :mod:`repro.resilience.faults`) make all of this
deterministically testable.  Observability: per-stream
``stream/<id>/depth`` and ``stream/<id>/drop_ratio`` gauges, the
``stream/e2e_ms`` latency histogram, the ``stream/brownout_level``
gauge, and one ``stream/<field>`` counter per :class:`StreamStats`
count (every drop class, restart and requeue), summed over streams.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import threading
import time
from collections import deque
from concurrent.futures import Future

import numpy as np

from .. import obs
from ..resilience import faults
from ..resilience.supervise import run_supervised
from .result import STATUS_OK, Counters, ServeResult

__all__ = [
    "BrownoutController",
    "CallbackSink",
    "EventSink",
    "FrameQueue",
    "JsonlSink",
    "NullSink",
    "Stream",
    "StreamManager",
    "StreamStats",
    "SyntheticSource",
]

#: How long a stream worker waits on a submitted frame's future before
#: accounting it ``dropped_rejected`` and moving on.
RESULT_TIMEOUT_S = 30.0


# --------------------------------------------------------------------- #
# accounting
# --------------------------------------------------------------------- #
#: Counters that together exhaust the fates of an accepted frame.
DROP_FIELDS = (
    "dropped_backpressure",  # evicted oldest from a full queue
    "dropped_stride",        # skipped by the brownout frame stride
    "dropped_rejected",      # engine pool said shed/timeout/error
    "dropped_shutdown",      # still queued (or in hand) at stop()
)


class StreamStats(Counters):
    """Thread-safe frame accounting for one stream.

    The load-bearing invariant — checked by :meth:`accounted` and the
    perf gate — is that acceptance is *conserved*::

        accepted == processed + sum(dropped_*)

    Producer and worker write through one lock, and multi-counter
    updates go through :meth:`add_many`, so a concurrent snapshot can
    never observe a frame that is neither processed nor dropped.
    Every field but ``put_block_ns_max`` (a maximum, not a count) is
    also the ``stream/<field>`` obs counter, summed over streams.
    """

    PREFIX = "stream"
    FIELDS = (
        "produced", "accepted", "processed", "requeued", "sink_events",
        "sink_errors", "worker_restarts", "producer_restarts",
        "put_block_ns_max",  # longest FrameQueue.put: the producer block
    ) + DROP_FIELDS

    def observe_put_block(self, ns: int) -> None:
        with self._lock:
            if ns > self.put_block_ns_max:
                self.put_block_ns_max = ns

    @property
    def dropped_by_policy(self) -> int:
        with self._lock:
            return sum(getattr(self, f) for f in DROP_FIELDS)

    def accounted(self) -> bool:
        """Does ``accepted == processed + dropped_by_policy`` hold?"""
        return self.snapshot()["in_flight"] == 0

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["put_block_ms_max"] = snap.pop("put_block_ns_max") / 1e6
        snap["dropped_by_policy"] = sum(snap[f] for f in DROP_FIELDS)
        # Accepted frames still queued or in the worker's hand.
        snap["in_flight"] = (snap["accepted"] - snap["processed"]
                             - snap["dropped_by_policy"])
        return snap


class _Frame:
    """One frame in flight: sequence number, pixels, enqueue time."""

    __slots__ = ("seq", "image", "t_src")

    def __init__(self, seq: int, image: np.ndarray, t_src: float) -> None:
        self.seq = seq
        self.image = image
        self.t_src = t_src


class FrameQueue:
    """Bounded per-stream queue with drop-oldest backpressure.

    ``put`` **never blocks** on a full queue: it evicts the oldest
    frame (accounted ``dropped_backpressure``) and appends the new one
    under one lock acquisition — the producer's worst case is lock
    contention, not consumer speed.  This is deliberately *not* a
    ``queue.Queue``: the stdlib queue's ``put_nowait`` raises on full
    (shedding the *newest* frame), while a live video feed wants the
    newest frame most and the stale ones least.
    """

    def __init__(self, capacity: int, stats: StreamStats,
                 stream_id: str = "stream") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stream_id = stream_id
        self.stats = stats
        self._items: deque[_Frame] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def put(self, frame: _Frame) -> None:
        """Accept ``frame``, evicting the oldest if at capacity."""
        faults.hit("stream.queue", detail=self.stream_id)
        t0 = time.perf_counter_ns()
        with self._not_empty:
            evicted = None
            if len(self._items) >= self.capacity:
                evicted = self._items.popleft()
            self._items.append(frame)
            self.stats.add_many(produced=1, accepted=1,
                                dropped_backpressure=int(evicted is not None))
            self._not_empty.notify()
        self.stats.observe_put_block(time.perf_counter_ns() - t0)

    def requeue(self, frame: _Frame) -> None:
        """Put a crashed worker's in-hand frame back at the head.

        No eviction and no ``accepted`` bump — the frame was already
        accepted once; the queue may hold ``capacity + 1`` frames until
        the worker next takes one (:meth:`put` evicts one per frame it
        adds, so it keeps that length).
        """
        with self._not_empty:
            self._items.appendleft(frame)
            self.stats.add("requeued")
            self._not_empty.notify()

    def get(self, timeout: float | None = None) -> _Frame | None:
        """Pop the oldest frame, or ``None`` on timeout."""
        with self._not_empty:
            if not self._items and not self._not_empty.wait_for(
                lambda: bool(self._items), timeout=timeout
            ):
                return None
            return self._items.popleft()

    def drain(self) -> list[_Frame]:
        """Empty the queue (shutdown); caller accounts the frames."""
        with self._lock:
            items, self._items = list(self._items), deque()
            return items


# --------------------------------------------------------------------- #
# event sinks
# --------------------------------------------------------------------- #
class EventSink:
    """Where a stream publishes its detection/track events.

    Implementations must be thread-safe: a :class:`StreamManager`
    shares one sink across every stream worker unless given per-stream
    sinks.  ``publish`` may raise; the worker counts the failure
    (``sink_errors``) and moves on — a broken consumer never costs
    frame accounting.
    """

    def publish(self, event: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


class NullSink(EventSink):
    """Discard every event (load tests that only care about frames)."""

    def publish(self, event: dict) -> None:
        pass


class JsonlSink(EventSink):
    """Append events as JSON lines — the file stand-in for MQTT."""

    def __init__(self, path) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._fh = open(path, "a")

    def publish(self, event: dict) -> None:
        line = json.dumps(event, sort_keys=True)
        with self._lock:
            if self._fh.closed:
                raise ValueError(f"JsonlSink({self.path}) is closed")
            self._fh.write(line + "\n")

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                self._fh.close()


class CallbackSink(EventSink):
    """In-process pub/sub bus — the callback stand-in for socket.io."""

    def __init__(self, *callbacks) -> None:
        self._callbacks = callbacks

    def publish(self, event: dict) -> None:
        for callback in self._callbacks:
            callback(event)


# --------------------------------------------------------------------- #
# frame sources
# --------------------------------------------------------------------- #
class SyntheticSource:
    """The synthetic camera: one object drifting across a rendered scene.

    Iterating yields ``frames`` images of shape ``(3, H, W)`` float32;
    the labeled object random-walks (bouncing off the frame edges) so a
    downstream tracker sees a coherent trajectory.  Deterministic per
    ``seed``; ``interval_ms`` paces the feed like a fixed-FPS camera.
    """

    def __init__(self, frames: int = 64, image_hw: tuple[int, int] = (32, 64),
                 seed: int = 0, interval_ms: float = 0.0) -> None:
        self.frames = frames
        self.image_hw = tuple(image_hw)
        self.seed = seed
        self.interval_ms = interval_ms

    def __len__(self) -> int:
        return self.frames

    def __iter__(self):
        from ..datasets.renderer import SceneRenderer

        rng = np.random.default_rng(self.seed)
        renderer = SceneRenderer(self.image_hw, clutter=1)
        spec = renderer.sample_object(rng)
        vel = rng.uniform(0.005, 0.02, size=2) * rng.choice([-1.0, 1.0], 2)
        for _ in range(self.frames):
            if self.interval_ms:
                time.sleep(self.interval_ms / 1e3)
            cx, cy = spec.cx + vel[0], spec.cy + vel[1]
            # bounce the center off the frame edges
            for i, c in enumerate((cx, cy)):
                half = (spec.w if i == 0 else spec.h) / 2
                if c < half or c > 1 - half:
                    vel[i] = -vel[i]
            cx = float(np.clip(cx, spec.w / 2, 1 - spec.w / 2))
            cy = float(np.clip(cy, spec.h / 2, 1 - spec.h / 2))
            spec = dataclasses.replace(spec, cx=cx, cy=cy)
            image, _ = renderer.render(spec, rng)
            yield image


# --------------------------------------------------------------------- #
# overload brownout
# --------------------------------------------------------------------- #
class BrownoutController:
    """Hysteretic overload ladder shared by every stream of a manager.

    Pressure (queue fullness, in [0, 1]) is sampled once per
    supervisor tick.  With ``config`` a
    :class:`~repro.runtime.StreamConfig`, ``config.escalate_ticks``
    consecutive samples at or above ``config.pressure_high`` climb one
    rung; ``config.recover_ticks`` consecutive samples at or below
    ``StreamConfig.pressure_low`` (0.25) descend one — the dead band
    between the thresholds holds the current rung, so the ladder cannot
    oscillate on a noisy boundary.  Rungs and their per-rung cost:

    ====  ==============================  =============================
    rung  action                          cost
    ====  ==============================  =============================
    0     none                            —
    1     halve the dynamic batch         throughput (smaller batches),
          (:meth:`InferenceServer.\\      lower per-batch latency and
          set_batch_cap`)                 arena footprint
    2     + frame-drop stride             input coverage: only every
          (``brownout_stride``: process   2nd frame runs
          every 2nd frame)
    ====  ==============================  =============================

    Recovery is rung by rung with the same hysteresis.  The circuit
    breaker is not a rung: its eager fallback is slower than the
    compiled plan and, on a quant session, changes the outputs.
    """

    MAX_LEVEL = 2

    def __init__(self, config, server=None, name: str = "stream") -> None:
        self.config = config
        self.name = name
        self.level = 0
        self.max_level_seen = 0
        self._server = server
        self._hot = 0
        self._cool = 0
        self._lock = threading.Lock()

    @property
    def stride(self) -> int:
        """Frame stride workers honour right now (1 = every frame)."""
        return self.config.brownout_stride if self.level >= 2 else 1

    def observe(self, pressure: float) -> int:
        """Fold one pressure sample in; returns the (new) rung."""
        config = self.config
        with self._lock:
            if pressure >= config.pressure_high:
                self._hot += 1
                self._cool = 0
                if (self._hot >= config.escalate_ticks
                        and self.level < self.MAX_LEVEL):
                    self._hot = 0
                    self._set_level(self.level + 1, pressure)
            elif pressure <= config.pressure_low:
                self._cool += 1
                self._hot = 0
                if self._cool >= config.recover_ticks and self.level > 0:
                    self._cool = 0
                    self._set_level(self.level - 1, pressure)
            else:  # dead band: hold the rung, reset both streaks
                self._hot = 0
                self._cool = 0
            level = self.level
        obs.set_gauge("stream/brownout_level", level)
        return level

    def _set_level(self, level: int, pressure: float) -> None:
        previous, self.level = self.level, level
        self.max_level_seen = max(self.max_level_seen, level)
        if level > previous:
            obs.inc("stream/brownout_escalate")
        else:
            obs.inc("stream/brownout_recover")
        obs.event("stream/brownout", manager=self.name, level=level,
                  previous=previous, pressure=round(pressure, 3))
        server = self._server
        if server is not None:
            cap = (max(1, server.config.max_batch_size // 2)
                   if level >= 1 else None)
            server.set_batch_cap(cap)


# --------------------------------------------------------------------- #
# streams + manager
# --------------------------------------------------------------------- #
class Stream:
    """One stream's durable identity: source, queue, tracker, sink.

    The state that must survive a thread crash (tracker, stats, the
    frame iterator's position, the in-hand frame slot) lives here, not
    in the producer and worker loops, and persists for the stream's
    whole life.
    """

    def __init__(self, stream_id: str, source, sink: EventSink,
                 queue_depth: int) -> None:
        from ..tracking.track_state import TrackState

        self.stream_id = stream_id
        self.sink = sink
        self.stats = StreamStats()
        self.queue = FrameQueue(queue_depth, self.stats, stream_id)
        self.tracker = TrackState()
        self.source_done = threading.Event()
        self.seq = 0
        #: The frame the worker is currently holding; only the worker
        #: thread writes it (its crash recovery requeues it), and
        #: :meth:`StreamManager.stop` reads it after joining that
        #: thread, so no lock is needed.
        self.inhand: _Frame | None = None
        self._frames = iter(source)
        self.producer: threading.Thread | None = None
        self.worker: threading.Thread | None = None

    def snapshot(self) -> dict:
        snap = self.stats.snapshot()
        snap["stream"] = self.stream_id
        snap["queue_depth"] = len(self.queue)
        snap["source_done"] = self.source_done.is_set()
        snap["track_id"] = self.tracker.track_id
        return snap


class StreamManager:
    """N supervised streams sharing one engine pool.

    Parameters
    ----------
    engine:
        Where frames go for inference: a
        :class:`~repro.runtime.Session` (its dynamic-batching server is
        shared by all streams — the "millions of users" shape), an
        :class:`~repro.serve.InferenceServer`, or a plain callable
        ``(1, C, H, W) -> output`` for tests (run inline, wrapped in OK
        results).
    sources:
        One iterable of frames per stream (e.g. :class:`SyntheticSource`).
    sink:
        A shared :class:`EventSink`, or a list with one sink per
        stream; defaults to :class:`NullSink`.
    config:
        A :class:`~repro.runtime.StreamConfig`; defaults apply.
    ids:
        Stream names; default ``s0 .. s{N-1}``.

    Lifecycle: :meth:`start` spawns per-stream producer/worker threads
    plus one supervisor (brownout ticks + gauges); :meth:`join`
    waits for the sources to drain; :meth:`stop` tears down and
    accounts every frame still in flight as ``dropped_shutdown``.
    """

    def __init__(self, engine, sources, sink=None, config=None,
                 ids=None, name: str = "stream") -> None:
        from ..runtime.config import StreamConfig

        self.config = config if config is not None else StreamConfig()
        self.name = name
        self._submit, self._server = self._resolve_engine(engine)
        sources = list(sources)
        if ids is None:
            ids = [f"s{i}" for i in range(len(sources))]
        if len(ids) != len(sources):
            raise ValueError("need exactly one id per source")
        sinks = self._resolve_sinks(sink, len(sources))
        self.streams = [
            Stream(sid, src, snk, self.config.queue_depth)
            for sid, src, snk in zip(ids, sources, sinks)
        ]
        self.controller = BrownoutController(
            self.config, server=self._server, name=name,
        ) if self.config.brownout else None
        self._stopping = threading.Event()
        self._started = False
        self._supervisor: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # engine / sink resolution
    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve_engine(engine):
        """Normalize ``engine`` to (submit_fn, server-or-None)."""
        from ..runtime.session import Session
        from .server import InferenceServer

        if isinstance(engine, Session):
            return engine.submit, engine.ensure_server()
        if isinstance(engine, InferenceServer):
            return engine.submit, engine
        if callable(engine):
            def submit(image):
                future: Future = Future()
                try:
                    out = engine(image)
                except Exception as exc:
                    future.set_result(ServeResult(
                        "error", error=f"{type(exc).__name__}: {exc}"))
                else:
                    value = out[0] if (hasattr(out, "ndim")
                                       and out.ndim == 4) else out
                    future.set_result(ServeResult(STATUS_OK, value=value))
                return future

            return submit, None
        raise TypeError(
            "engine must be a Session, an InferenceServer, or a callable, "
            f"got {type(engine).__name__}"
        )

    @staticmethod
    def _resolve_sinks(sink, n: int) -> list[EventSink]:
        if sink is None:
            shared = NullSink()
            return [shared] * n
        if isinstance(sink, EventSink):
            return [sink] * n
        sinks = list(sink)
        if len(sinks) != n:
            raise ValueError("need exactly one sink per stream")
        return sinks

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "StreamManager":
        if self._started:
            return self
        self._started = True
        for stream in self.streams:
            stream.producer = self._thread(
                stream, "producer", self._producer_loop,
                self._producer_crashed)
            stream.worker = self._thread(
                stream, "worker", self._worker_loop, self._worker_crashed)
        self._supervisor = threading.Thread(
            target=self._supervise, daemon=True,
            name=f"stream-{self.name}-supervisor",
        )
        for stream in self.streams:
            stream.producer.start()
            stream.worker.start()
        self._supervisor.start()
        return self

    def join(self, timeout: float = 60.0) -> bool:
        """Wait until every source is exhausted and every accepted
        frame is accounted; returns False on timeout."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if all(
                s.source_done.is_set() and len(s.queue) == 0
                and s.inhand is None and s.stats.accounted()
                for s in self.streams
            ):
                return True
            time.sleep(0.005)
        return False

    def stop(self) -> None:
        """Stop all threads; account leftovers as ``dropped_shutdown``."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._supervisor is not None:
            self._supervisor.join()
        for stream in self.streams:
            for thread in (stream.producer, stream.worker):
                if thread is not None:
                    thread.join()
        for stream in self.streams:
            leftovers = stream.queue.drain()
            if stream.inhand is not None:
                leftovers.append(stream.inhand)
                stream.inhand = None
            if leftovers:
                stream.stats.add("dropped_shutdown", len(leftovers))
            stream.sink.close()

    def __enter__(self) -> "StreamManager":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # health / accounting
    # ------------------------------------------------------------------ #
    def accounting(self) -> dict:
        """Aggregate frame conservation across every stream.

        ``in_flight`` counts accepted frames not yet processed or
        dropped; ``exact`` holds when it is zero on every stream, as
        after :meth:`join` or :meth:`stop`."""
        totals = {"produced": 0, "accepted": 0, "processed": 0,
                  "dropped_by_policy": 0, "in_flight": 0}
        exact = True
        for stream in self.streams:
            snap = stream.stats.snapshot()
            for key in totals:
                totals[key] += snap[key]
            exact = exact and snap["in_flight"] == 0
        totals["exact"] = exact
        totals["drop_ratio"] = (
            totals["dropped_by_policy"] / totals["accepted"]
            if totals["accepted"] else 0.0
        )
        return totals

    def health(self) -> dict:
        """Liveness + accounting + brownout snapshot for the CLI.

        ``"inconsistent"`` means a stream's counters cannot describe
        real frames: fewer than zero in flight, or more than its queue
        plus the one frame a requeue may add (:meth:`FrameQueue.requeue`).
        Frames merely queued or in a worker's hand are consistent."""
        streams = [s.snapshot() for s in self.streams]
        alive = sum(
            1 for s in self.streams
            if s.worker is not None and s.worker.is_alive()
        )
        consistent = all(
            0 <= snap["in_flight"] <= stream.queue.capacity + 1
            for stream, snap in zip(self.streams, streams)
        )
        accounting = self.accounting()
        if self._stopping.is_set():
            status = "stopped"
        elif not consistent:
            status = "inconsistent"
        elif alive < len(self.streams) or (
            self.controller is not None and self.controller.level > 0
        ):
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "streams": streams,
            "workers_alive": alive,
            "brownout_level": (0 if self.controller is None
                               else self.controller.level),
            "accounting": accounting,
        }

    # ------------------------------------------------------------------ #
    # threads
    # ------------------------------------------------------------------ #
    def _thread(self, stream: Stream, role: str, loop,
                on_crash) -> threading.Thread:
        """An unstarted thread running ``loop(stream)`` under
        :func:`run_supervised`, recovering through ``on_crash``."""
        return threading.Thread(
            target=run_supervised,
            args=(functools.partial(loop, stream),
                  functools.partial(on_crash, stream), self._stopping),
            daemon=True, name=f"stream-{stream.stream_id}-{role}",
        )

    def _producer_loop(self, stream: Stream) -> None:
        """The camera side: pull frames, never wait for anyone."""
        while not self._stopping.is_set():
            faults.hit("stream.source", detail=stream.stream_id)
            try:
                image = next(stream._frames)
            except StopIteration:
                stream.source_done.set()
                return
            image = np.asarray(image, dtype=np.float32)
            if image.ndim == 3:
                image = image[None]
            stream.seq += 1
            stream.queue.put(_Frame(stream.seq, image, time.perf_counter()))

    def _worker_loop(self, stream: Stream) -> None:
        """The consumer side: queue -> engine -> tracker -> sink."""
        while not self._stopping.is_set():
            frame = stream.queue.get(timeout=0.02)
            if frame is None:
                continue
            stream.inhand = frame
            # A crash here holds the frame: _worker_crashed requeues
            # it, so accounting must still balance.
            faults.hit("stream.worker", faults.WorkerCrash, stream.stream_id)
            stride = (1 if self.controller is None
                      else self.controller.stride)
            if stride > 1 and frame.seq % stride:
                stream.stats.add("dropped_stride")
                stream.inhand = None
                continue
            try:
                result = self._submit(frame.image).result(
                    timeout=RESULT_TIMEOUT_S)
            except Exception:
                # The engine pool broke its own "always resolve"
                # contract (or timed out); the frame is still accounted.
                stream.stats.add("dropped_rejected")
                stream.inhand = None
                continue
            if result.ok:
                self._deliver(stream, frame, result)
                stream.stats.add("processed")
            else:
                stream.stats.add("dropped_rejected")
            stream.inhand = None

    def _deliver(self, stream: Stream, frame: _Frame, result) -> None:
        """Update the sticky tracker and publish the event."""
        e2e_ms = (time.perf_counter() - frame.t_src) * 1e3
        obs.observe("stream/e2e_ms", e2e_ms)
        value = np.asarray(result.value)
        event = {
            "stream": stream.stream_id,
            "seq": frame.seq,
            "kind": "detection",
            "e2e_ms": round(e2e_ms, 3),
            "brownout_level": (0 if self.controller is None
                               else self.controller.level),
        }
        if value.reshape(-1).size >= 4:
            kind, box = stream.tracker.update(value.reshape(-1)[:4])
            event.update(kind=kind, track_id=stream.tracker.track_id,
                         track_age=stream.tracker.age,
                         box=[round(float(v), 5) for v in box])
        try:
            faults.hit("stream.sink", detail=stream.stream_id)
            stream.sink.publish(event)
        except Exception:
            # A broken consumer costs the event, never the frame.
            stream.stats.add("sink_errors")
        else:
            stream.stats.add("sink_events")

    def _worker_crashed(self, stream: Stream, exc: Exception) -> None:
        """Requeue the frame a crashed worker held, so it is processed
        or dropped, never lost."""
        frame, stream.inhand = stream.inhand, None
        if frame is not None:
            stream.queue.requeue(frame)
        stream.stats.add("worker_restarts")
        obs.event("stream/worker_restart", stream=stream.stream_id,
                  requeued=int(frame is not None),
                  track_id=stream.tracker.track_id,
                  error=type(exc).__name__)

    def _producer_crashed(self, stream: Stream, exc: Exception) -> None:
        """Count the crash; the producer resumes the same iterator."""
        stream.stats.add("producer_restarts")
        obs.event("stream/producer_restart", stream=stream.stream_id,
                  error=type(exc).__name__)

    # ------------------------------------------------------------------ #
    # supervisor: brownout ticks + gauges
    # ------------------------------------------------------------------ #
    def _supervise(self) -> None:
        interval = self.config.supervisor_interval_ms / 1e3
        while not self._stopping.wait(interval):
            if self.controller is not None:
                self.controller.observe(self._pressure())
            self._publish_gauges()

    def _pressure(self) -> float:
        """Queue fullness in [0, 1]: the max of the mean per-stream
        fullness and the shared server's queue fullness."""
        if not self.streams:
            return 0.0
        fullness = [len(s.queue) / s.queue.capacity for s in self.streams]
        pressure = sum(fullness) / len(fullness)
        server = self._server
        if server is not None:
            pressure = max(
                pressure,
                server._queue.qsize() / server.config.queue_depth,
            )
        return min(1.0, pressure)

    def _publish_gauges(self) -> None:
        if not obs.enabled():
            return
        for stream in self.streams:
            snap = stream.stats.snapshot()
            obs.set_gauge(f"stream/{stream.stream_id}/depth",
                          len(stream.queue))
            accepted = snap["accepted"]
            obs.set_gauge(
                f"stream/{stream.stream_id}/drop_ratio",
                snap["dropped_by_policy"] / accepted if accepted else 0.0,
            )

"""Process-pool worker backend for :class:`~repro.serve.InferenceServer`.

The thread backend keeps every worker inside one interpreter, so the
Python portions of concurrent forwards serialize on the GIL: adding
workers past one buys fault isolation, not throughput.  This module
breaks that ceiling the way FastMOT's multi-process analytics pipeline
does — each worker is a *child process* owning its own interpreter
and buffer arena:

* **Plan shipping: compile once.**  The parent ships a
  :class:`WorkerSpec` holding the runner it already resolved (frozen
  plan or eager forward, postprocess or tiler); the child unpickles
  it, warms a fresh arena and serves.  It never compiles or
  calibrates, so it runs exactly the parent's plan.
* **Shared-memory tensor transport.**  Request and response tensors move
  through ``multiprocessing.shared_memory`` blocks; the control pipe
  carries only tiny pickled headers (shape, dtype, block name).  Image
  batches are never pickled on the hot path; the child runs directly on
  the shared-memory view (the protocol is synchronous per worker, so the
  parent never overwrites an in-flight request).
* **One OpenBLAS thread; batches split across the cores**: a child's
  batch > 1 forwards run one sample slice per core, as in the serving
  process (:mod:`repro.nn.engine.threads`).
* **Crash = retry, not loss.**  A killed worker process surfaces as a
  :class:`ProcWorkerDied` from the runner in the server thread that
  drives it; the server's retry ladder re-runs the batch, and the
  runner respawns its child on the next call.  Recovery happens where
  the failure is seen, with no polling — as for a crashed server
  worker thread (:func:`~repro.resilience.run_supervised`) — and zero
  accepted requests are lost.
* **Telemetry crosses the boundary.**  Children time their forwards with
  ``time.perf_counter`` (CLOCK_MONOTONIC — system-wide on Linux) and
  return span timestamps in the response header; the parent replays them
  into the ambient request context, so per-request traces show child
  execution alongside queue waits.  Set-up is split likewise (imports,
  plan load, warm-up: a ``serve/proc_spawn`` span and
  :meth:`ProcessPool.stats`), and a set-up failure carries its cause.

Select it with ``ServeConfig(worker_backend="process")`` or
``repro serve --worker-backend process``.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing import shared_memory

import numpy as np

from .. import obs
from ..resilience import faults

__all__ = [
    "ProcessPool",
    "ProcWorkerDied",
    "ProcWorkerError",
    "WorkerSpec",
]

_READY_TIMEOUT_S = 120.0
_MIN_BLOCK_BYTES = 1 << 20


class ProcWorkerDied(RuntimeError):
    """The worker process died (crash/kill) with a request in flight."""


class ProcWorkerError(RuntimeError):
    """The worker process reported a runner failure (process survives)."""


@dataclass(frozen=True)
class WorkerSpec:
    """The runner a child process serves, resolved in the parent
    (:meth:`Session.worker_spec <repro.runtime.Session.worker_spec>`),
    and the backend name the child reports back when ready.  The child
    warms ``warmup_shape`` before it serves."""

    runner: Callable[[np.ndarray], np.ndarray]
    backend: str
    warmup_shape: tuple[int, ...] | None = None
    name: str = "model"

    @classmethod
    def for_model(cls, model, config=None, calibration=None,
                  warmup_shape=None, name=None) -> "WorkerSpec":
        """Resolve ``model`` here (``Session.load``: compile, calibrate,
        or fall back) and ship the result."""
        from ..runtime.session import Session

        session = Session.load(model, config, calibration=calibration)
        return session.worker_spec(warmup_shape, name)


# --------------------------------------------------------------------- #
# shared-memory helpers
# --------------------------------------------------------------------- #
def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block.

    On Python < 3.13 attaching re-registers the segment with the
    resource tracker; because spawn children share the parent's tracker
    process (its fd rides the spawn command line), that registration is
    a set-dedupe no-op — do NOT "defensively" unregister here, or the
    creator's own registration disappears and its eventual ``unlink``
    trips a KeyError inside the tracker.
    """
    return shared_memory.SharedMemory(name=name)


def _destroy(shm: shared_memory.SharedMemory | None, unlink: bool) -> None:
    if shm is None:
        return
    try:
        shm.close()
    except OSError:  # pragma: no cover - already gone
        pass
    if unlink:
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):
            pass


class _Block:
    """A growable shared-memory block owned by one side of the pipe."""

    def __init__(self) -> None:
        self.shm: shared_memory.SharedMemory | None = None

    def reserve(self, nbytes: int) -> shared_memory.SharedMemory:
        """Ensure capacity; growth allocates a fresh (renamed) block."""
        if self.shm is None or self.shm.size < nbytes:
            _destroy(self.shm, unlink=True)
            self.shm = shared_memory.SharedMemory(
                create=True, size=max(nbytes, _MIN_BLOCK_BYTES))
        return self.shm

    def close(self) -> None:
        _destroy(self.shm, unlink=True)
        self.shm = None


# --------------------------------------------------------------------- #
# child process
# --------------------------------------------------------------------- #
def _child_main(conn, spec_blob: bytes) -> None:
    """Worker-process entry: load and warm the shipped runner (or send
    the parent the cause of failing to), then answer run requests."""
    t_imports = time.perf_counter()
    out_block = _Block()
    in_shm: shared_memory.SharedMemory | None = None
    in_name = None
    try:
        try:
            spec: WorkerSpec = pickle.loads(spec_blob)
            t_loaded = time.perf_counter()
            runner = spec.runner
            if spec.warmup_shape is not None:
                runner(np.zeros(spec.warmup_shape, np.float32))
        except Exception as exc:
            conn.send(("failed", f"{type(exc).__name__}: {exc}"))
            return
        conn.send(("ready", os.getpid(), spec.backend,
                   (t_imports, t_loaded, time.perf_counter())))
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            # ("run", shape, dtype, input-block name)
            _, shape, dtype, name = msg
            try:
                if name != in_name:
                    if in_shm is not None:
                        in_shm.close()
                    in_shm = _attach(name)
                    in_name = name
                x = np.ndarray(shape, dtype=np.dtype(dtype),
                               buffer=in_shm.buf)
                t0 = time.perf_counter()
                y = np.ascontiguousarray(runner(x))
                t1 = time.perf_counter()
                shm = out_block.reserve(y.nbytes)
                np.ndarray(y.shape, dtype=y.dtype,
                           buffer=shm.buf)[...] = y
                conn.send((
                    "ok", y.shape, str(y.dtype), shm.name,
                    [("serve/proc_run", t0, t1,
                      {"pid": os.getpid(), "batch": shape[0]})],
                ))
            except Exception as exc:  # runner failure: report, survive
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
    finally:
        out_block.close()
        if in_shm is not None:
            in_shm.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
class _ProcWorker:
    """Parent-side handle of one worker process."""

    def __init__(self, spec_blob: bytes, name: str, index: int) -> None:
        self.name = name
        self.index = index
        ctx = get_context("spawn")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_child_main, args=(child_conn, spec_blob),
            name=f"serve-{name}-proc-{index}", daemon=True,
        )
        t_spawn = time.perf_counter()
        self._proc.start()
        child_conn.close()
        self._in_block = _Block()
        self._out_shm: shared_memory.SharedMemory | None = None
        self._out_name: str | None = None
        self.dead = False
        try:
            msg = (self._conn.recv() if self._conn.poll(_READY_TIMEOUT_S)
                   else ("failed", f"not ready after {_READY_TIMEOUT_S} s"))
        except (EOFError, OSError):
            self._proc.join(timeout=5.0)
            msg = ("failed", f"exited with code {self._proc.exitcode}")
        if msg[0] != "ready":
            self.close(kill=True)
            raise ProcWorkerDied(
                f"worker process {index} failed during set-up: {msg[1]}")
        _, self.pid, self.backend, stamps = msg
        # perf_counter is one clock across processes on Linux.
        self.setup_s = dict(zip(("imports_s", "load_s", "warmup_s"),
                                np.diff((t_spawn, *stamps)).tolist()))
        obs.record_span("serve/proc_spawn", t_spawn, stamps[-1],
                        worker=index, pid=self.pid, backend=self.backend,
                        **self.setup_s)

    @property
    def alive(self) -> bool:
        # ``is_alive()`` alone is not enough: right after a SIGKILL the
        # pipe EOF surfaces *before* the child is reapable, so for a few
        # milliseconds ``is_alive()`` still says True.  Any observed
        # death pins ``self.dead`` so the runner respawns immediately.
        return not self.dead and self._proc.is_alive()

    def _recv(self):
        try:
            return self._conn.recv()
        except (EOFError, OSError) as exc:
            self.dead = True
            raise ProcWorkerDied(
                f"worker process {self.index} (pid {self.pid}) "
                f"died mid-request") from exc

    def run(self, x: np.ndarray) -> np.ndarray:
        # Parent-side fault site: plans armed in this process cannot
        # reach into the spawned child, so "crash" SIGKILLs the real
        # child instead — the pipe EOF then drives the genuine
        # ProcWorkerDied -> retry -> respawn path, not a simulation.
        spec = faults.trigger("serve.procworker")
        if spec is not None and spec.kind == "crash" and self.alive:
            os.kill(self.pid, signal.SIGKILL)
            self._proc.join(timeout=5.0)
        elif spec is not None and spec.kind == "stall":
            time.sleep(spec.delay_s)
        if not self.alive:
            raise ProcWorkerDied(
                f"worker process {self.index} is not alive")
        x = np.ascontiguousarray(x, dtype=np.float32)
        shm = self._in_block.reserve(x.nbytes)
        np.ndarray(x.shape, dtype=x.dtype, buffer=shm.buf)[...] = x
        try:
            self._conn.send(("run", x.shape, str(x.dtype), shm.name))
        except (BrokenPipeError, OSError) as exc:
            self.dead = True
            raise ProcWorkerDied(
                f"worker process {self.index} pipe closed") from exc
        msg = self._recv()
        if msg[0] == "err":
            raise ProcWorkerError(msg[1])
        _, shape, dtype, out_name, spans = msg
        if out_name != self._out_name:
            if self._out_shm is not None:
                self._out_shm.close()
            self._out_shm = _attach(out_name)
            self._out_name = out_name
        y = np.array(np.ndarray(shape, dtype=np.dtype(dtype),
                                buffer=self._out_shm.buf))
        if obs.enabled():
            for span_name, t0, t1, attrs in spans:
                obs.record_span(span_name, t0, t1, worker=self.index,
                                **attrs)
        return y

    def close(self, kill: bool = False) -> None:
        if self._proc.is_alive() and not kill:
            try:
                self._conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            self._proc.join(timeout=5.0)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5.0)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass
        self._in_block.close()
        # The child owns (and normally unlinks) the output block; if it
        # was killed, reap the leftover segment from here.
        if self._out_shm is not None:
            _destroy(self._out_shm, unlink=True)
            self._out_shm = None


class _ProcRunner:
    """The per-server-worker runner callable (one child process each).

    Lives on the parent's worker thread; lazily spawns its child on the
    first batch and transparently respawns it after a crash — the raise
    still propagates so the server's retry ladder accounts the failure
    and re-runs the batch.
    """

    def __init__(self, pool: "ProcessPool") -> None:
        self._pool = pool
        self._worker: _ProcWorker | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        worker = self._worker
        if worker is None or not worker.alive:
            worker = self._pool._replace(self, worker)
        return worker.run(x)

    def close(self) -> None:
        if self._worker is not None:
            self._worker.close()
            self._worker = None


class ProcessPool:
    """Factory + lifecycle owner for process-backend serve runners.

    Hand :meth:`runner_factory` to an
    :class:`~repro.serve.InferenceServer` (``Session.submit`` does this
    when ``ServeConfig.worker_backend == "process"``); every server
    worker thread then drives its own child process.  Close the pool
    after ``server.stop()`` — it terminates every child and releases
    the shared-memory blocks.
    """

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self._spec_blob = pickle.dumps(spec)
        self._lock = threading.Lock()
        self._runners: list[_ProcRunner] = []
        self._indices = itertools.count()
        self._closed = False
        self.respawns = 0
        self.spawned = 0
        self.last_setup_s: dict = {}

    def runner_factory(self) -> _ProcRunner:
        """One runner per server worker thread (child spawns lazily)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("ProcessPool is closed")
            runner = _ProcRunner(self)
            self._runners.append(runner)
            return runner

    def _replace(self, runner: _ProcRunner,
                 dead: _ProcWorker | None) -> _ProcWorker:
        """Spawn (or respawn) the child behind ``runner``."""
        with self._lock:
            if self._closed:
                raise RuntimeError("ProcessPool is closed")
            index = next(self._indices)
        if dead is not None:
            dead.close(kill=True)
            with self._lock:
                self.respawns += 1
            obs.inc("serve/proc_respawn")
            obs.event("serve/proc_respawn", pool=self.spec.name,
                      worker=dead.index)
        worker = _ProcWorker(self._spec_blob, self.spec.name, index)
        with self._lock:
            self.spawned += 1
            self.last_setup_s = worker.setup_s
        runner._worker = worker
        return worker

    def stats(self) -> dict:
        with self._lock:
            alive = sum(
                1 for r in self._runners
                if r._worker is not None and r._worker.alive
            )
            return {
                "workers": len(self._runners),
                "alive": alive,
                "spawned": self.spawned,
                "respawns": self.respawns,
                "last_setup_s": dict(self.last_setup_s),
            }

    def close(self) -> None:
        with self._lock:
            self._closed = True
            runners, self._runners = self._runners, []
        for runner in runners:
            runner.close()

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

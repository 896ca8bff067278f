"""Span-based tracing: nested, thread-safe, monotonic-clock timed.

A :class:`Tracer` hands out :class:`Span` context managers; entering a
span pushes it onto a per-thread stack (so spans nest naturally, even
across the worker threads of a pipelined deployment), and exiting it
records the wall time under the monotonic clock.  Finished spans are
kept in completion order; :class:`~repro.obs.Recorder` exports them as
JSONL (one record per line, see :func:`span_record`) and
:func:`~repro.obs.render_trace` renders them as an indented tree whose
per-name aggregates mirror the paper's per-stage latency accounting.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

from .context import current_context

__all__ = [
    "Span",
    "Tracer",
    "span_record",
    "event_record",
    "render_span_tree",
    "aggregate_spans",
]


@dataclass
class Span:
    """One timed region.  ``start_ms`` is an offset from the tracer epoch.

    ``request_id`` attributes the span to the serving request active
    when it was opened (see :mod:`repro.obs.context`); it stays
    ``None`` outside a request scope.
    """

    name: str
    span_id: int
    parent_id: int | None
    start_ms: float
    duration_ms: float = 0.0
    thread: int = 0
    attrs: dict = field(default_factory=dict)
    request_id: str | None = None

    def set(self, **attrs) -> "Span":
        """Attach extra attributes mid-span (e.g. a result computed late)."""
        self.attrs.update(attrs)
        return self


class _ActiveSpan:
    """Context manager that times one span on the owning tracer."""

    __slots__ = ("_tracer", "span", "_t0")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = tracer._stack()
        self.span.parent_id = stack[-1].span_id if stack else None
        self._t0 = time.perf_counter()
        self.span.start_ms = (self._t0 - tracer._epoch) * 1e3
        stack.append(self.span)
        return self.span

    def __exit__(self, *exc: object) -> None:
        self.span.duration_ms = (time.perf_counter() - self._t0) * 1e3
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] is self.span:
            stack.pop()
        else:  # tolerate out-of-order exits rather than corrupt the stack
            try:
                stack.remove(self.span)
            except ValueError:
                pass
        with tracer._lock:
            tracer._finished.append(self.span)


class Tracer:
    """Collect spans from any number of threads.

    Each thread keeps its own active-span stack (``threading.local``);
    the finished-span list is shared under a lock.  Span ids are unique
    per tracer and parent links follow the per-thread nesting.
    """

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._events: list[dict] = []

    @property
    def epoch(self) -> float:
        """``time.perf_counter`` reading all span timestamps offset from."""
        return self._epoch

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> _ActiveSpan:
        """Open a nestable timed region::

            with tracer.span("pso/iteration", iteration=3) as sp:
                ...
                sp.set(best_fitness=0.71)
        """
        sp = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=None,
            start_ms=0.0,
            thread=threading.get_ident(),
            attrs=dict(attrs),
            request_id=current_context(),
        )
        return _ActiveSpan(self, sp)

    def record_span(
        self, name: str, start_s: float, end_s: float, **attrs
    ) -> Span:
        """Record an *externally timed* span from ``time.perf_counter``
        readings.

        For regions whose start and end live on different threads — a
        request's queue wait starts in ``submit`` and ends when a worker
        dequeues it — no context manager can wrap the region; the worker
        reconstructs it from the timestamps it already has.  The span is
        parentless and attributed to the ambient request id.
        """
        sp = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=None,
            start_ms=(start_s - self._epoch) * 1e3,
            duration_ms=max(0.0, (end_s - start_s) * 1e3),
            thread=threading.get_ident(),
            attrs=dict(attrs),
            request_id=current_context(),
        )
        with self._lock:
            self._finished.append(sp)
        return sp

    def event(self, name: str, **attrs) -> dict:
        """Record an instant (zero-duration) structured event — breaker
        trips, worker crash recoveries, state transitions.  Exported as its
        own ``"event"`` record kind and as an instant marker in the
        Chrome trace."""
        rec = event_record(
            name=name,
            ts_ms=(time.perf_counter() - self._epoch) * 1e3,
            thread=threading.get_ident(),
            attrs=dict(attrs),
            request_id=current_context(),
        )
        with self._lock:
            self._events.append(rec)
        return rec

    @property
    def spans(self) -> list[Span]:
        """Finished spans in completion order."""
        with self._lock:
            return list(self._finished)

    @property
    def events(self) -> list[dict]:
        """Instant-event records in emission order."""
        with self._lock:
            return list(self._events)

    def records(self) -> list[dict]:
        return [span_record(s) for s in self.spans] + self.events


def span_record(span: Span) -> dict:
    """The JSONL schema for one span (documented in README/DESIGN)."""
    rec = {
        "type": "span",
        "name": span.name,
        "id": span.span_id,
        "parent": span.parent_id,
        "start_ms": round(span.start_ms, 3),
        "duration_ms": round(span.duration_ms, 3),
        "thread": span.thread,
        "attrs": span.attrs,
    }
    if span.request_id is not None:
        rec["request"] = span.request_id
    return rec


def event_record(name: str, ts_ms: float, thread: int, attrs: dict,
                 request_id: str | None = None) -> dict:
    """The JSONL schema for one instant event."""
    rec = {
        "type": "event",
        "name": name,
        "ts_ms": round(ts_ms, 3),
        "thread": thread,
        "attrs": attrs,
    }
    if request_id is not None:
        rec["request"] = request_id
    return rec


def _format_attrs(attrs: dict) -> str:
    if not attrs:
        return ""
    body = ", ".join(f"{k}={v}" for k, v in attrs.items())
    return f"  [{body}]"


def render_span_tree(records: list[dict], max_depth: int | None = None) -> str:
    """Render span records as an indented tree, roots in start order.

    Works on the dicts produced by :func:`span_record` (live tracers and
    loaded JSONL files share this path).
    """
    spans = [r for r in records if r.get("type", "span") == "span"]
    if not spans:
        return "(no spans)"
    children: dict[int | None, list[dict]] = {}
    by_id = {r["id"]: r for r in spans}
    for r in spans:
        parent = r["parent"] if r["parent"] in by_id else None
        children.setdefault(parent, []).append(r)
    for kids in children.values():
        kids.sort(key=lambda r: r["start_ms"])

    lines: list[str] = []

    def walk(rec: dict, depth: int) -> None:
        if max_depth is not None and depth >= max_depth:
            return
        indent = "  " * depth
        lines.append(
            f"{indent}{rec['name']}  {rec['duration_ms']:.2f} ms"
            f"{_format_attrs(rec.get('attrs', {}))}"
        )
        for kid in children.get(rec["id"], []):
            walk(kid, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)


def aggregate_spans(records: list[dict]) -> list[dict]:
    """Per-name totals: count, total/mean ms — the 'where does time go'
    table that complements the tree."""
    totals: dict[str, list[float]] = {}
    for r in records:
        if r.get("type", "span") != "span":
            continue
        totals.setdefault(r["name"], []).append(r["duration_ms"])
    rows = []
    for name, durs in sorted(
        totals.items(), key=lambda kv: -sum(kv[1])
    ):
        rows.append(
            {
                "name": name,
                "count": len(durs),
                "total_ms": sum(durs),
                "mean_ms": sum(durs) / len(durs),
            }
        )
    return rows

"""``repro.obs`` — structured tracing, metrics, and layer profiling.

The paper's whole method is a measured design loop (per-stage latency,
per-iteration fitness, deployment FPS); this package is the substrate
that makes those measurements first-class in the reproduction:

* **Spans** — ``with obs.span("pso/iteration", iteration=i): ...``
  nest per thread, time under the monotonic clock, and export to JSONL
  or an indented tree report (``repro obs trace.jsonl``).
* **Metrics** — counters, gauges, and quantile histograms through
  :func:`inc`, :func:`set_gauge`, :func:`observe`.
* **Layer profiling** — :func:`profile_net` times every kernel of a
  compiled plan (ms, GFLOP/s), the measured complement of the static
  MAC counts of :func:`repro.hardware.describe`.

All helpers route through one global recorder that defaults to **off**:
with no recorder installed each call is a global read + early return,
so instrumented hot loops pay effectively nothing.  Enable with
:func:`enable` / :func:`recording`, or the ``--trace`` CLI flags.
"""

from .context import (
    current_context,
    new_request_id,
    request_scope,
    use_context,
)
from .export import (
    MetricsHTTPServer,
    chrome_trace_events,
    export_chrome_trace,
    prometheus_text,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import (
    KernelProfile,
    StepProfile,
    profile_net,
    render_comparison,
    render_profile,
)
from .recorder import (
    Recorder,
    disable,
    enable,
    enabled,
    event,
    get_recorder,
    inc,
    load_trace,
    observe,
    record_span,
    recording,
    render_trace,
    set_gauge,
    set_recorder,
    span,
)
from .trace import Span, Tracer, aggregate_spans, render_span_tree

__all__ = [
    "Span",
    "Tracer",
    "render_span_tree",
    "aggregate_spans",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Recorder",
    "get_recorder",
    "set_recorder",
    "enable",
    "disable",
    "enabled",
    "recording",
    "span",
    "record_span",
    "event",
    "inc",
    "set_gauge",
    "observe",
    "load_trace",
    "render_trace",
    "current_context",
    "use_context",
    "request_scope",
    "new_request_id",
    "chrome_trace_events",
    "export_chrome_trace",
    "prometheus_text",
    "MetricsHTTPServer",
    "KernelProfile",
    "StepProfile",
    "profile_net",
    "render_profile",
    "render_comparison",
]

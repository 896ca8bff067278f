"""Telemetry exporters: Chrome trace and Prometheus text.

Two ways out of the in-process :class:`~repro.obs.Recorder`, each
aimed at a standard consumer:

* :func:`export_chrome_trace` writes the finished spans as a Chrome
  trace-event JSON file — load it at ``chrome://tracing`` (or Perfetto)
  and every server worker thread gets its own lane, with instant
  markers for structured events (breaker trips, worker recoveries).
* :func:`prometheus_text` renders the metrics registry in the
  Prometheus text exposition format (version 0.0.4): counters as
  ``_total``, histograms as quantile-labelled summaries with exact
  ``_count``/``_sum``.

:class:`MetricsHTTPServer` ties the first two to a port: a stdlib HTTP
thread serving ``GET /metrics`` (Prometheus text) and ``GET /health``
(JSON readiness), started by ``repro serve --metrics-port``.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = [
    "chrome_trace_events",
    "export_chrome_trace",
    "prometheus_text",
    "MetricsHTTPServer",
]


# --------------------------------------------------------------------- #
# Chrome trace-event format
# --------------------------------------------------------------------- #
def chrome_trace_events(records: list[dict],
                        process_name: str = "repro") -> list[dict]:
    """Convert recorder/JSONL records to Chrome trace events.

    Spans become complete (``"X"``) events on the lane of the thread
    that ran them; instant events become thread-scoped ``"i"`` markers.
    The request id rides along in ``args`` so a lane can be filtered
    down to one request.  Timestamps are microseconds, as the format
    requires.
    """
    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": process_name},
    }]
    threads: dict[int, int] = {}

    def lane(thread: int) -> int:
        if thread not in threads:
            tid = len(threads)
            threads[thread] = tid
            events.append({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                "args": {"name": f"thread-{tid} ({thread})"},
            })
        return threads[thread]

    for rec in records:
        kind = rec.get("type", "span")
        args = dict(rec.get("attrs", {}))
        if rec.get("request") is not None:
            args["request"] = rec["request"]
        if kind == "span":
            events.append({
                "name": rec["name"],
                "ph": "X",
                "pid": 0,
                "tid": lane(rec.get("thread", 0)),
                "ts": rec.get("start_ms", 0.0) * 1e3,
                "dur": max(rec.get("duration_ms", 0.0), 1e-3) * 1e3,
                "args": args,
            })
        elif kind == "event":
            events.append({
                "name": rec["name"],
                "ph": "i",
                "s": "t",  # thread-scoped marker
                "pid": 0,
                "tid": lane(rec.get("thread", 0)),
                "ts": rec.get("ts_ms", 0.0) * 1e3,
                "args": args,
            })
    return events


def export_chrome_trace(records: list[dict], path: str,
                        process_name: str = "repro") -> None:
    """Write ``records`` as a ``chrome://tracing``-loadable JSON file."""
    payload = {
        "traceEvents": chrome_trace_events(records, process_name),
        "displayTimeUnit": "ms",
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, default=str)


# --------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------- #
_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _prom_name(name: str) -> str:
    """Sanitize a metric name: ``serve/queue_depth`` -> ``repro_serve_queue_depth``."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not cleaned[0].isalpha():
        cleaned = "m_" + cleaned
    if not cleaned.startswith("repro_"):
        cleaned = "repro_" + cleaned
    assert _NAME_OK.match(cleaned)
    return cleaned


def _prom_value(v) -> str:
    if v is None:
        return "NaN"
    return repr(float(v))


def prometheus_text(records: list[dict]) -> str:
    """Render metric records in the Prometheus text exposition format.

    Counters are suffixed ``_total``; histograms expose the summary
    convention — ``{quantile="..."}`` series from the reservoir plus
    exact ``_count``/``_sum``.  Span/event records are skipped (they
    belong to the trace exporters).
    """
    lines: list[str] = []
    for rec in sorted(records, key=lambda r: r.get("name", "")):
        kind = rec.get("type")
        if kind == "counter":
            name = _prom_name(rec["name"]) + "_total"
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_prom_value(rec['value'])}")
        elif kind == "gauge":
            name = _prom_name(rec["name"])
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_prom_value(rec.get('value'))}")
        elif kind == "histogram":
            name = _prom_name(rec["name"])
            lines.append(f"# TYPE {name} summary")
            if rec.get("count", 0):
                for q, key in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
                    lines.append(
                        f'{name}{{quantile="{q}"}} '
                        f"{_prom_value(rec.get(key))}"
                    )
            lines.append(f"{name}_count {_prom_value(rec.get('count', 0))}")
            lines.append(f"{name}_sum {_prom_value(rec.get('sum', 0.0))}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- #
# /metrics + /health over stdlib HTTP
# --------------------------------------------------------------------- #
class MetricsHTTPServer:
    """Serve ``/metrics`` (Prometheus text) and ``/health`` (JSON).

    A thin stdlib ``ThreadingHTTPServer`` on a daemon thread — no
    dependency, good enough for a scrape endpoint.  ``metrics_fn``
    returns metric records; ``health_fn`` (optional) returns the
    readiness dict (:meth:`repro.serve.InferenceServer.health`).  Bind
    to port 0 to let the OS pick (the resolved port is ``self.port``).
    """

    def __init__(self, metrics_fn, health_fn=None, port: int = 0,
                 host: str = "127.0.0.1") -> None:
        self._metrics_fn = metrics_fn
        self._health_fn = health_fn
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib API
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    body = prometheus_text(outer._metrics_fn()).encode()
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                    code = 200
                elif path == "/health":
                    health = ({"status": "unknown"}
                              if outer._health_fn is None
                              else outer._health_fn())
                    body = json.dumps(health, default=str).encode()
                    ctype = "application/json"
                    code = 200 if health.get("status") in (
                        "ok", "idle", "unknown") else 503
                else:
                    body = b"not found; try /metrics or /health\n"
                    ctype = "text/plain"
                    code = 404
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence per-request noise
                pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsHTTPServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, daemon=True,
                name=f"obs-metrics-http-{self.port}",
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "MetricsHTTPServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

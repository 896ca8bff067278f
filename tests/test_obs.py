"""Tests for the observability subsystem: spans, metrics, recorder,
hot-loop wiring, and the trace CLI."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.obs import (
    MetricsRegistry,
    Recorder,
    Tracer,
    aggregate_spans,
    render_span_tree,
)


def _span_tree(report: str) -> list[str]:
    """The span-tree lines of a :func:`repro.obs.render_trace` report."""
    tree = report.split("== span tree ==\n")[1]
    return tree.split("\n\n")[0].splitlines()


@pytest.fixture(autouse=True)
def _clean_global_recorder():
    """Every test starts and ends with observability disabled."""
    obs.disable()
    yield
    obs.disable()


class TestTracer:
    def test_nesting_sets_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_durations_and_order(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        spans = tracer.spans
        # completion order: inner closes first
        assert [s.name for s in spans] == ["b", "a"]
        assert all(s.duration_ms >= 0.0 for s in spans)
        assert spans[1].duration_ms >= spans[0].duration_ms

    def test_attrs_and_set(self):
        tracer = Tracer()
        with tracer.span("s", stage=1) as sp:
            sp.set(result=0.5)
        assert tracer.spans[0].attrs == {"stage": 1, "result": 0.5}

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("kid"):
                pass
            with tracer.span("kid"):
                pass
        kids = [s for s in tracer.spans if s.name == "kid"]
        assert all(k.parent_id == root.span_id for k in kids)

    def test_thread_isolation(self):
        """Each thread gets its own stack; no cross-thread parents."""
        tracer = Tracer()

        def work():
            with tracer.span("worker"):
                pass

        with tracer.span("main"):
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        workers = [s for s in tracer.spans if s.name == "worker"]
        assert len(workers) == 4
        assert all(w.parent_id is None for w in workers)

    def test_render_tree(self):
        tracer = Tracer()
        with tracer.span("pso/search"):
            with tracer.span("pso/iteration", iteration=0):
                pass
        tree = _span_tree(obs.render_trace(tracer.records()))
        assert tree[0].startswith("pso/search  ")
        assert tree[1].startswith("  pso/iteration  ")  # indented child
        assert "iteration=0" in tree[1]

    def test_max_depth_limits_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
        tree = _span_tree(obs.render_trace(tracer.records(), max_depth=2))
        assert [line.split()[0] for line in tree] == ["outer", "middle"]

    def test_aggregate_spans(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("x"):
                pass
        agg = aggregate_spans(tracer.records())
        assert agg[0]["name"] == "x" and agg[0]["count"] == 3

    def test_empty_tree(self):
        assert render_span_tree([]) == "(no spans)"


class TestMetrics:
    def test_counter(self):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        reg.counter("n").inc(2)
        assert reg.counter("n").value == 3

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("n").inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.0)
        reg.gauge("g").set(7.5)
        assert reg.gauge("g").value == 7.5
        assert reg.gauge("g").updates == 2

    def test_histogram_quantiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in range(101):  # 0..100
            h.observe(v)
        s = h.summary()
        assert s["count"] == 101
        assert s["p50"] == 50
        assert s["p90"] == 90
        assert s["min"] == 0 and s["max"] == 100
        assert h.quantile(0.99) == 99

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("m")

    def test_render_mentions_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("n/count").inc()
        reg.gauge("n/gauge").set(2)
        reg.gauge("n/unset")
        reg.histogram("n/hist").observe(3)
        reg.histogram("n/empty")
        out = obs.render_trace(reg.records())
        rows = {}
        for line in out.split("== metrics ==")[1].splitlines():
            cells = [c.strip() for c in line.split("|")]
            rows[cells[0]] = cells[1:]
        assert rows["n/count"] == ["counter", "", "1"]
        assert rows["n/gauge"] == ["gauge", "1", "2"]
        assert rows["n/unset"] == ["gauge", "0", "unset"]
        assert rows["n/hist"] == ["histogram", "1",
                                  "mean=3 p50=3 p90=3 max=3"]
        assert rows["n/empty"] == ["histogram", "0", "no samples"]


class TestRecorder:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        # all helpers are harmless no-ops
        with obs.span("nope", k=1) as sp:
            sp.set(more=2)
        obs.inc("c")
        obs.set_gauge("g", 1.0)
        obs.observe("h", 1.0)
        assert obs.get_recorder() is None

    def test_null_span_is_shared_singleton(self):
        a = obs.span("x")
        b = obs.span("y")
        assert a is b  # the no-op fast path allocates nothing

    def test_enable_disable(self):
        rec = obs.enable()
        assert obs.enabled() and obs.get_recorder() is rec
        assert obs.enable() is rec  # idempotent
        obs.disable()
        assert not obs.enabled()

    def test_helpers_route_to_recorder(self):
        rec = obs.enable()
        with obs.span("s", k=1):
            obs.inc("c", 2)
            obs.set_gauge("g", 3.0)
            obs.observe("h", 4.0)
        assert [s.name for s in rec.tracer.spans] == ["s"]
        assert rec.metrics.counter("c").value == 2
        assert rec.metrics.gauge("g").value == 3.0
        assert rec.metrics.histogram("h").count == 1

    def test_recording_restores_previous(self):
        outer = obs.enable()
        with obs.recording() as inner:
            assert obs.get_recorder() is inner
        assert obs.get_recorder() is outer

    def test_jsonl_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with obs.recording(path):
            with obs.span("root", stage=1):
                with obs.span("leaf"):
                    pass
            obs.inc("events", 5)
            obs.observe("loss", 0.25)
        records = obs.load_trace(path)
        kinds = {r["type"] for r in records}
        assert kinds == {"meta", "span", "counter", "histogram"}
        assert records[0]["type"] == "meta"  # header record leads
        root = next(r for r in records if r.get("name") == "root")
        leaf = next(r for r in records if r.get("name") == "leaf")
        assert leaf["parent"] == root["id"]
        assert root["attrs"] == {"stage": 1}
        # every line is valid standalone JSON
        with open(path) as fh:
            for line in fh:
                json.loads(line)

    def test_render_trace_report(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with obs.recording(path):
            with obs.span("a"):
                pass
            obs.set_gauge("g", 1.5)
        out = obs.render_trace(obs.load_trace(path))
        assert "== span tree ==" in out
        assert "== span totals ==" in out
        assert "== metrics ==" in out


class TestHotLoopWiring:
    def test_detection_trainer_spans_and_metrics(self, tiny_detection_data):
        from repro.core import SkyNetBackbone
        from repro.detection import DetectionTrainer, Detector, TrainConfig

        train, val = tiny_detection_data
        det = Detector(
            SkyNetBackbone("A", width_mult=0.125,
                           rng=np.random.default_rng(0))
        )
        with obs.recording() as rec:
            DetectionTrainer(
                det, TrainConfig(epochs=2, batch_size=16, augment=False)
            ).fit(train, val)
        names = {s.name for s in rec.tracer.spans}
        assert {"train/fit", "train/epoch", "train/eval"} <= names
        assert rec.metrics.histogram("train/loss").count == 2
        assert rec.metrics.counter("train/batches").value > 0
        assert rec.metrics.gauge("train/imgs_per_sec").value > 0

    def test_pso_spans_and_metrics(self):
        from repro.core.bundles import BUNDLE_CATALOG
        from repro.core.pso import GroupPSO, PSOConfig

        pso = GroupPSO(
            list(BUNDLE_CATALOG[:2]),
            accuracy_fn=lambda dna, epochs: 0.5,
            config=PSOConfig(particles_per_group=2, iterations=2,
                             depth=5, n_pools=3),
        )
        with obs.recording() as rec:
            pso.search(np.random.default_rng(0))
        names = [s.name for s in rec.tracer.spans]
        assert names.count("pso/iteration") == 2
        assert "pso/search" in names
        # 2 groups x 2 particles x 2 iterations
        assert rec.metrics.counter("pso/candidates_evaluated").value == 8
        assert rec.metrics.gauge("pso/fitness_best").value is not None

    def test_pipeline_metrics(self):
        from repro.hardware.pipeline import PipelineSimulator, Stage

        sim = PipelineSimulator(
            [Stage("pre", 2.0), Stage("infer", 5.0), Stage("post", 1.0)]
        )
        with obs.recording() as rec:
            sim.speedup(64)
        assert rec.metrics.gauge("pipeline/speedup").value > 1.0
        assert rec.metrics.gauge("pipeline/pipelined_fps").value > \
            rec.metrics.gauge("pipeline/serial_fps").value
        assert rec.metrics.gauge("pipeline/pipelined_util/infer").value > 0.9

    def test_print_table_emits_gauges(self, capsys):
        from repro.utils import print_table

        with obs.recording() as rec:
            print_table("Table X", ["team", "IoU", "FPS"],
                        [["SkyNet", 0.716, 25.05], ["other", 0.5, 10.0]])
        out = capsys.readouterr().out
        assert "Table X" in out
        gauge = rec.metrics.gauge("bench/table_x/skynet/iou")
        assert gauge.value == pytest.approx(0.716)

    def test_print_table_no_recorder_just_prints(self, capsys):
        from repro.utils import print_table

        print_table("T", ["a", "b"], [["r", 1.0]])
        assert "T" in capsys.readouterr().out


class TestObsCli:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_search_trace_then_obs_render(self, tmp_path, capsys):
        trace = str(tmp_path / "search.jsonl")
        assert cli_main(["search", "--images", "24", "--particles", "2",
                         "--iterations", "1", "--trace", trace]) == 0
        records = obs.load_trace(trace)
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {"flow/run", "flow/stage1", "flow/stage2", "flow/stage3",
                "pso/iteration"} <= names
        capsys.readouterr()
        assert cli_main(["obs", trace, "--max-depth", "3"]) == 0
        out = capsys.readouterr().out
        assert "flow/stage1" in out and "== metrics ==" in out

    def test_obs_rejects_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cli_main(["obs", str(tmp_path / "missing.jsonl")])

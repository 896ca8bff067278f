"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q

The workload tests run every code path of the measured and traced runs
at reduced model and frame size for about a second each.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import closed_loop  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import multicam  # noqa: E402
from harness import SMOKE, CpuClock, Ratio, percentile  # noqa: E402


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("q, n_reported, n_void", [
    (90, 100, 99),
    (50, 20, 19),
])
def test_percentile_needs_ten_samples_beyond(q, n_reported, n_void):
    assert percentile(range(n_reported), q) is not None
    assert percentile(range(n_void), q) is None


def test_percentile_is_nearest_rank():
    samples = list(range(1, 201))  # 1..200
    assert percentile(samples, 50) == 100.0
    assert percentile(samples, 90) == 180.0
    assert percentile(reversed(samples), 90) == 180.0


def test_ratio_states_its_base():
    ratio = Ratio(3, 4, "frames due")
    assert ratio.value == 0.75
    assert ratio.detail() == {"value": 0.75, "num": 3, "den": 4,
                              "base": "frames due"}
    assert Ratio(0, 0, "frames due").value == 0.0


def test_p90_is_printed_but_not_gated():
    values = {name: 1.0 for name in harness.END_TO_END_UNITS}
    gated, ungated = harness.end_to_end({**values, "latency_p90_ms": 2.0})
    assert "latency_p90_ms" not in gated
    assert ungated == {"latency_p90_ms": (2.0, "ms")}
    gated, ungated = harness.end_to_end({**values, "latency_p90_ms": None})
    assert ungated == {} and len(gated) == len(values)
    with pytest.raises(KeyError):
        harness.end_to_end(values)


def _check_ratio_bases(result: harness.Result) -> None:
    ratios = [n for n, (_, unit) in result.metrics.items()
              if unit == "ratio"]
    assert ratios, "expected ratio metrics"
    for name in ratios:
        detail = result.details[name]
        assert detail["base"]
        assert detail["value"] == pytest.approx(
            detail["num"] / detail["den"])
        assert result.metrics[name][0] == detail["value"]


# --------------------------------------------------------------------- #
# open-loop clock
# --------------------------------------------------------------------- #
def test_camera_releases_on_schedule_and_reports_lateness():
    frames = np.arange(2, dtype=np.float32).reshape(2, 1, 1, 1) * np.ones(
        (2, 3, 4, 4), np.float32)
    t0 = time.perf_counter() - 0.3  # the clock started 300 ms ago
    camera = multicam.Camera(frames, count=4, t0=t0, interval_s=0.05)
    assert camera.due(1) == t0
    assert camera.due(3) == pytest.approx(t0 + 0.1)
    released = list(camera)
    assert len(released) == 4
    assert [float(f[0, 0, 0]) for f in released] == [0.0, 1.0, 0.0, 1.0]
    assert camera.late_ms_max >= 300.0 - 1e-6


@pytest.fixture(scope="module")
def smoke_detector():
    harness.preimport()
    return harness.build_detector(SMOKE)


def test_open_loop_latency_counts_from_due_time(smoke_detector):
    cams, calibration = multicam.make_inputs(3, SMOKE)
    refs = multicam.reference_boxes(smoke_detector, calibration, cams)
    session, _, _ = multicam.set_up(smoke_detector, calibration,
                                    cams[0][0], refs[0][0])
    try:
        # Every frame was due 400 ms before the cameras started, so a
        # stall before release must show in its latency.
        phase = multicam.stream_phase(session, cams, refs, 0.5,
                                      start_lead_s=-0.4)
    finally:
        session.close()
    assert phase["ok"] == phase["due"] == 2 * multicam.CAMERAS
    assert phase["late_ms_max"] >= 400.0
    assert min(phase["latencies_ms"]) >= 400.0 - 250.0
    assert max(phase["latencies_ms"]) >= 400.0


# --------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------- #
def test_fp32_check_rejects_a_moved_box():
    ref = np.array([0.5, 0.5, 0.1, 0.2], np.float32)
    assert closed_loop.matches(ref + 0.5 * closed_loop.FP32_ATOL, ref)
    assert not closed_loop.matches(ref + 2 * closed_loop.FP32_ATOL, ref)
    assert not closed_loop.matches(ref[:3], ref)


def test_closed_loop_counts_mismatches_as_failed(smoke_detector):
    wl = closed_loop.CONTEST
    frames = closed_loop.make_frames(wl, 4, SMOKE)
    refs = closed_loop.reference_outputs(smoke_detector, wl, frames)
    session, _ = closed_loop.set_up(smoke_detector, wl, frames, refs)
    try:
        loop = closed_loop.closed_loop(session, frames, refs + 0.01, 0.2,
                                       wl.latency_limit_ms)
    finally:
        session.close()
    assert loop.attempted > 0
    assert loop.ok == 0 and loop.latencies_ms == []


def test_int8_events_must_match_bit_for_bit():
    boxes = np.array([[0.5, 0.5, 0.2, 0.2], [0.5, 0.5, 0.2, 0.2],
                      [0.1, 0.1, 0.05, 0.05]])
    events = multicam.expected_events([1, 2, 3], boxes)
    assert [e[0] for e in events] == ["track_new", "track_update",
                                      "track_new"]
    assert [e[1] for e in events] == [1, 1, 2]
    # A frame dropped by the stream is skipped by the reference fold too.
    assert multicam.expected_events([1, 3], boxes)[1][1] == 2


# --------------------------------------------------------------------- #
# smoke runs of every workload through the output checks
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", [closed_loop.CONTEST,
                                      closed_loop.TILED])
def test_closed_loop_smoke(workload):
    result = closed_loop.run(workload, 5, 0.5, SMOKE)
    assert result.correct and result.failed == 0 and result.attempted > 0
    _check_ratio_bases(result)
    traced = closed_loop.run_traced(workload, 5, 1.0, SMOKE)
    assert traced.correct
    assert set(traced.metrics) == set(layers.PER_LAYER_UNITS)
    assert traced.metrics["runtime.run_ms"][0] > 0


def test_multicam_smoke():
    result = multicam.run(6, 1.0, SMOKE)
    assert result.correct and result.failed == 0
    assert result.attempted == 4 * multicam.CAMERAS
    _check_ratio_bases(result)
    traced = multicam.run_traced(6, 2.0, SMOKE)
    assert traced.correct
    assert set(traced.metrics) == set(layers.PER_LAYER_UNITS)
    assert traced.metrics["serve.procpool.child_forward_ms"][0] > 0


def test_traced_metrics_reject_undeclared_names():
    with pytest.raises(KeyError):
        layers.complete({"engine.fp32.b9.forward_ms": 1.0})


# --------------------------------------------------------------------- #
# process accounting and the entry point
# --------------------------------------------------------------------- #
def test_cpu_clock_counts_live_children():
    clock = CpuClock()
    child = subprocess.Popen([sys.executable, "-c",
                              "import time\nt = time.process_time()\n"
                              "while time.process_time() - t < 0.5: pass\n"
                              "time.sleep(30)"])
    try:
        deadline = time.time() + 20
        while clock.elapsed()[1] < 0.4 and time.time() < deadline:
            time.sleep(0.05)
        assert child.poll() is None, "child must still be live"
        assert clock.elapsed()[1] >= 0.4
        assert child.pid in harness.child_pids()
        assert harness.peak_rss_mb()[1] > 0
    finally:
        child.kill()
        child.wait(timeout=10)


def test_entry_point_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "contest_fp32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_entry_point_is_import_safe():
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {HERE!r}); "
         "import run; print('imported')"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "imported"

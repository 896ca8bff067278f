"""API integrity: every public module imports and ``__all__`` resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.endswith("__main__")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    mod = importlib.import_module(module_name)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module_name}.__all__ lists {name!r}"


def test_package_layout_complete():
    """The DESIGN.md system inventory's packages all exist."""
    for pkg in ("repro.nn", "repro.core", "repro.detection",
                "repro.datasets", "repro.hardware", "repro.contest",
                "repro.zoo", "repro.tracking", "repro.utils"):
        importlib.import_module(pkg)


def test_every_public_module_has_docstring():
    for module_name in MODULES:
        mod = importlib.import_module(module_name)
        assert mod.__doc__, f"{module_name} lacks a module docstring"


def test_config_surface_is_pinned():
    """Every settable runtime option is listed here, so a new knob (or
    a removed one) shows up as a reviewed change to this test."""
    from dataclasses import fields

    from repro.runtime import ServeConfig, SessionConfig, StreamConfig

    def names(cls):
        return [f.name for f in fields(cls)]

    assert names(SessionConfig) == [
        "backend", "quant_bits", "fallback", "tiles", "tile_overlap",
        "tile_max_detections",
    ]
    assert names(ServeConfig) == [
        "queue_depth", "max_batch_size", "max_wait_ms", "deadline_ms",
        "num_workers", "worker_backend", "max_retries",
        "breaker_threshold", "breaker_cooldown_ms", "reject_nonfinite",
    ]
    assert names(StreamConfig) == [
        "queue_depth", "brownout", "pressure_high", "escalate_ticks",
        "recover_ticks", "supervisor_interval_ms",
    ]

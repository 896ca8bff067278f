"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def _reseed_shared_rng():
    """Reseed ``repro.utils.rng``'s shared generator before every test,
    so weights drawn from it (e.g. ``Detector(bb)``'s head) do not
    depend on which tests ran first."""
    from repro.utils.rng import seed_all

    seed_all(0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def tiny_detection_data():
    """A small detection train/val split, generated once per session."""
    from repro.datasets import make_dacsdc_splits

    return make_dacsdc_splits(48, 16, image_hw=(32, 64), seed=7)


@pytest.fixture(scope="session")
def tiny_tracking_data():
    """A small tracking dataset, generated once per session."""
    from repro.datasets import make_got10k

    return make_got10k(4, seq_len=6, image_hw=(48, 48), seed=7)


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` w.r.t. ``x``."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * eps)
    return grad

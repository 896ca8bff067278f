"""Calibration memory: the reference walk streams one sample at a time.

Calibration runs each reference conv, depthwise and bundle half on one
sample at a time and max-pools each sample's raw output before the
batch is quantized, so a larger calibration batch adds only the pooled
registers a plan keeps, not a batch of full-resolution float maps.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.core import SkyNetBackbone
from repro.nn.engine import QuantConfig, compile_net


def _skynet_c():
    bb = SkyNetBackbone("C", width_mult=0.25, rng=np.random.default_rng(1))
    bb.eval()
    return bb


def _batch(n: int) -> np.ndarray:
    return np.random.default_rng(0).normal(
        0, 1, (n, 3, 64, 128)).astype(np.float32)


def _peak_mb(model, cal: np.ndarray) -> float:
    tracemalloc.start()
    try:
        compile_net(model, quant=QuantConfig(8, 8), calibration=cal)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_eight_samples_cost_little_more_than_one():
    """SkyNet-C (width 0.25, 64x128): the traced peak read 2.2 -> 16.6 MB
    (x7.6) from 1 to 8 samples when the whole batch ran through float64
    fake quantization at full resolution, and 2.3 -> 4.5 MB (x2.0)
    streamed."""
    model = _skynet_c()
    _peak_mb(model, _batch(1))  # first-call imports and caches
    one = _peak_mb(model, _batch(1))
    eight = _peak_mb(model, _batch(8))
    assert eight < 3.0 * one, (one, eight)


def _held_mb(model, cal: np.ndarray) -> float:
    with obs.recording() as rec:
        compile_net(model, quant=QuantConfig(8, 8), calibration=cal)
    (span,) = [s for s in rec.tracer.spans
               if s.name == "engine/quant_calibrate"]
    return span.attrs["held_mb"]


def test_held_mb_is_reported_and_falls_with_the_batch():
    model = _skynet_c()
    one, eight = _held_mb(model, _batch(1)), _held_mb(model, _batch(8))
    assert 0 < one < eight
    # Every held value is one batch of a register: at most 8x.
    assert eight <= 8 * one + 1e-3


def test_empty_calibration_batch_raises():
    with pytest.raises(ValueError, match="N >= 1"):
        compile_net(_skynet_c(), quant=QuantConfig(8, 8),
                    calibration=np.zeros((0, 3, 64, 128), np.float32))

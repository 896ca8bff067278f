"""Positive biases on a near-zero calibration input.

An input of magnitude ~1e-36 puts the input grid beyond ``2**120``.
Calibration used to pre-shift each bias through the accumulator grid in
float32, which overflows there: a positive depthwise bias became +inf
and saturated its outputs where the fake-quant reference does not.  The
bias now goes straight onto the output grid, so the integer plan must
reproduce its reference exactly, and calibration must not warn.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import SkyNetBackbone
from repro.nn.engine import QuantConfig, compile_net
from repro.nn.layers import BatchNorm2d


def _positive_beta_skynet():
    bb = SkyNetBackbone("A", width_mult=0.25, rng=np.random.default_rng(0))
    for m in bb.modules():
        if isinstance(m, BatchNorm2d):
            m.beta.data[:] = 0.3
    bb.eval()
    return bb


@pytest.mark.parametrize("scheme", [(8, 8), (4, 6), (16, 16)],
                         ids=lambda s: f"w{s[0]}f{s[1]}")
def test_positive_bias_on_near_zero_input_is_exact(scheme):
    cal = (np.random.default_rng(1).normal(0, 1, (2, 3, 32, 64))
           * 1e-36).astype(np.float32)
    bb = _positive_beta_skynet()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        net = compile_net(bb, quant=QuantConfig(*scheme), calibration=cal)
    assert abs(net.quant_stats["input_frac"]) > 120
    np.testing.assert_array_equal(net(cal),
                                  net.quant_stats["reference_output"])

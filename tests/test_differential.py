"""Seeded differential test: eager vs engine vs integer plan on generated
networks.

The networks are ``Sequential`` stacks of ``GenericBundle`` replications
drawn from every :data:`~repro.core.bundles.BUNDLE_CATALOG` spec, with
2x2 max-pools at :func:`~repro.core.search_space.random_dna` positions
and randomized BatchNorm statistics — the Stage-1/2 search space, which
reaches shapes no hand-written test picks (5x5 depthwise, dense 3x3,
conv -> pool and dw -> dw chains, odd maps).  ``CandidateNet`` itself
has no compile rule, so the stack is built from its parts.

The integer plan is checked twice: against its calibration reference
(which runs the engine's own kernel classes on fake-quant values) and
against :func:`naive_int_forward`, a direct float64 re-computation of
every step from the plan's frozen integer parameters that shares no
convolution, im2col or pooling code with the engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bundles import BUNDLE_CATALOG, GenericBundle
from repro.core.search_space import random_dna
from repro.nn import Sequential, Tensor, no_grad
from repro.nn.engine import QuantConfig, compile_net
from repro.nn.engine import kernels as K
from repro.nn.engine.quant import DequantizeKernel, IntEpilogue, QuantizeKernel
from repro.nn.layers import BatchNorm2d, MaxPool2d


def _windows(x: np.ndarray, k: int, stride: int, pad: int = 0) -> np.ndarray:
    """(N, C, OH, OW, k, k) windows of a zero-padded NCHW map."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def _naive_conv(kern, x: np.ndarray) -> np.ndarray:
    """Conv or depthwise -> bias -> clip -> rint -> max-pool, in the
    order the layer defines (the engine pools before its epilogue)."""
    epi = kern.epilogue
    assert isinstance(epi, IntEpilogue), kern.label
    w = kern.weight.astype(np.float64)
    win = _windows(x, kern.kh, kern.stride, kern.pad)
    if isinstance(kern, K.DWConvKernel):
        y = np.einsum("nchwij,cij->nchw", win, w[:, 0])
    else:
        y = np.einsum("nchwij,ocij->nohw", win, w)
    if epi.bias is not None:
        y = y + epi.bias.astype(np.float64)[None, :, None, None]
    y = np.rint(np.clip(y, epi.lo, epi.hi))
    pool = getattr(kern, "pool", None)
    if pool is not None:
        y = _windows(y, pool[0], pool[1]).max(axis=(-2, -1))
    return y


def naive_int_forward(qnet, x: np.ndarray) -> np.ndarray:
    """Run an integer plan step by step in float64 with plain NumPy.

    Integer-domain values are exact in float64, so this must equal the
    engine's output bit for bit; it understands exactly the steps the
    bundle stacks lower to and fails on anything else.
    """
    regs = {0: x.astype(np.float64)}
    for kern, ins, out in qnet.steps:
        args = [regs[r] for r in ins]
        if isinstance(kern, QuantizeKernel):
            q, scaled = kern.quant, args[0] * 2.0**kern.frac
            y = np.rint(np.clip(scaled, q.fm_qmin, q.fm_qmax))
        elif isinstance(kern, DequantizeKernel):
            y = args[0] * 2.0**-kern.frac
        elif isinstance(kern, K.FusedBundleKernel):
            y = _naive_conv(kern.pw, _naive_conv(kern.dw, args[0]))
        elif isinstance(kern, (K.ConvKernel, K.DWConvKernel)):
            y = _naive_conv(kern, args[0])
        elif isinstance(kern, K.MaxPoolKernel):
            y = _windows(args[0], kern.kernel, kern.stride).max(axis=(-2, -1))
        else:
            pytest.fail(f"no naive rule for step {kern.label!r}")
        regs[out] = y
    return regs[qnet.out_reg].astype(np.float32)


def bundle_stack(spec, channels, pool_positions, act: str,
                 rng: np.random.Generator) -> Sequential:
    """``GenericBundle`` replications with 2x2 pools after the given
    positions and randomized BatchNorm statistics, in eval mode."""
    layers, cur = [], 3
    for j, ch in enumerate(channels):
        layers.append(GenericBundle(spec, cur, ch, act, rng=rng))
        if j in pool_positions:
            layers.append(MaxPool2d(2, 2))
        cur = ch
    model = Sequential(*layers)
    for m in model.modules():
        if isinstance(m, BatchNorm2d):
            m.running_mean[:] = rng.normal(0.0, 0.5, m.running_mean.shape)
            m.running_var[:] = rng.uniform(0.5, 2.0, m.running_var.shape)
            m.gamma.data[:] = rng.uniform(0.5, 1.5, m.gamma.shape)
            m.beta.data[:] = rng.normal(0.0, 0.2, m.beta.shape)
    model.eval()
    return model


@st.composite
def cases(draw):
    """(model, batch, (w_bits, fm_bits)) with every map at least as
    large as the biggest kernel."""
    spec = draw(st.sampled_from(BUNDLE_CATALOG))
    depth = draw(st.integers(1, 3))
    n_pools = draw(st.integers(0, min(2, depth - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dna = random_dna(spec, depth=depth, n_pools=n_pools,
                     channel_choices=(2, 3, 4, 6, 8), rng=rng)
    act = draw(st.sampled_from(["relu", "relu6"]))
    model = bundle_stack(spec, dna.channels, dna.pool_positions, act, rng)
    least = 5 << len(dna.pool_positions)
    h = draw(st.integers(least, least + 8)) | 1
    w = draw(st.integers(least, least + 12)) | 1
    n = draw(st.integers(1, 3))
    x = rng.normal(0, 1, (n, 3, h, w)).astype(np.float32)
    scheme = (draw(st.integers(2, 16)), draw(st.integers(2, 16)))
    return model, x, scheme


@given(cases())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_engine_and_integer_plan_agree(case):
    model, x, scheme = case
    with no_grad():
        eager = model(Tensor(x)).data
    net = compile_net(model)
    out = net(x)
    np.testing.assert_allclose(out, eager, rtol=1e-5, atol=1e-5)

    qnet = compile_net(model, quant=QuantConfig(*scheme), calibration=x)
    qout = qnet(x)
    np.testing.assert_array_equal(qout, qnet.quant_stats["reference_output"])
    np.testing.assert_array_equal(qout, naive_int_forward(qnet, x))

    for i in range(len(x)):
        np.testing.assert_allclose(net(x[i : i + 1]), out[i : i + 1],
                                   rtol=1e-5, atol=1e-6)
        np.testing.assert_array_equal(qnet(x[i : i + 1]), qout[i : i + 1])


@pytest.mark.parametrize("scheme", [(8, 8), (11, 9), (10, 8), (4, 6),
                                    (16, 16)],
                         ids=lambda s: f"w{s[0]}f{s[1]}")
def test_integer_plan_matches_naive_float64(scheme):
    """The five benchmarked schemes on every bundle spec.  The wide
    schemes run float64 carriers, whose arithmetic the calibration
    reference shares with the plan; the naive oracle checks it
    independently."""
    rng = np.random.default_rng(7)
    carriers = set()
    for spec in BUNDLE_CATALOG:
        model = bundle_stack(spec, (6, 8), (0,), "relu6", rng)
        x = rng.normal(0, 1, (2, 3, 13, 17)).astype(np.float32)
        qnet = compile_net(model, quant=QuantConfig(*scheme), calibration=x)
        np.testing.assert_array_equal(qnet(x), naive_int_forward(qnet, x))
        carriers |= {d["carrier"] for d in qnet.quant_stats["kernels"]}
    if scheme == (16, 16):
        assert "float64" in carriers

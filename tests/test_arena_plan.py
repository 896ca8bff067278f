"""Differential tests for the liveness-planned buffer arena.

The planned forward shares slabs between buffers whose lifetimes do not
overlap; a wrong lifetime would let a later step overwrite a value that
is still to be read.  Every case here runs the plan's own steps against
an oracle arena that hands every request a fresh buffer, and requires
the planned output to be bit-identical — over SkyNet A, B and C
(bypass, reorg, concat), MobileNet, a grouped convolution (slice
views), ``GenericBundle`` stacks over every catalog spec and an integer
plan, at batches 1 to 4, split and unsplit, with two input shapes
interleaved on one arena, new and overwritten input arrays on the
replayed rounds, a slab grown under an older plan and every slab
poisoned before a forward.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SkyNetBackbone
from repro.core.bundles import BUNDLE_CATALOG
from repro.detection import Detector, YoloHead
from repro.nn import Sequential
from repro.nn.engine import QuantConfig, compile_net, threads
from repro.nn.layers import BatchNorm2d, Conv2d, GroupedConv2d, ReLU
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.zoo.mobilenet import MobileNetBackbone

from .test_differential import bundle_stack
from .test_engine import _randomize_bn_stats

SHAPES = ((32, 64), (24, 40))


class FreshArena:
    """The unplanned reference: every request gets a new buffer (zeroed
    when asked), so no two values can ever share memory."""

    def get(self, owner, tag, shape, dtype=np.float32, zero=False):
        if zero:
            return np.zeros(shape, dtype)
        buf = np.empty(shape, dtype)
        if buf.dtype.kind == "f":
            buf.fill(np.nan)
        return buf


def oracle_forward(net, x: np.ndarray) -> np.ndarray:
    """The plan's steps on the same sample slices as ``net(x)``, each
    step on fresh buffers."""
    k = max(1, min(len(x), threads.cores()))
    bounds = [i * len(x) // k for i in range(k + 1)]
    outs = []
    for lo, hi in zip(bounds, bounds[1:]):
        regs = [None] * net.n_regs
        regs[0] = x[lo:hi]
        for kern, ins, out in net.steps:
            regs[out] = kern.run([regs[r] for r in ins], FreshArena())
        outs.append(regs[net.out_reg])
    return np.concatenate(outs)


def _skynet(config: str):
    def build(rng):
        bb = SkyNetBackbone(config, width_mult=0.125, rng=rng)
        return Detector(bb, YoloHead(bb.out_channels, rng=rng))
    return build


def _grouped(rng):
    return Sequential(Conv2d(3, 8, 3, rng=rng), BatchNorm2d(8), ReLU(),
                      GroupedConv2d(8, 12, 3, groups=4, rng=rng),
                      BatchNorm2d(12), ReLU(), Conv2d(12, 6, 1, rng=rng))


MODELS = {
    "skynet_A": _skynet("A"),
    "skynet_B": _skynet("B"),
    "skynet_C": _skynet("C"),
    "mobilenet": lambda rng: MobileNetBackbone(width_mult=0.125, rng=rng),
    "grouped": _grouped,
}


def _compiled(name: str, rng, quant: bool = False):
    model = MODELS[name](rng)
    _randomize_bn_stats(model, rng)
    model.eval()
    if not quant:
        return compile_net(model)
    cal = rng.normal(0, 1, (2, 3, *SHAPES[0])).astype(np.float32)
    return compile_net(model, quant=QuantConfig(8, 8), calibration=cal)


def _arenas(net):
    return [n.arena for n in [net, *net._clones]]


def _check_interleaved(net, rng, batches) -> None:
    """Both input shapes, alternating on one arena, each forward equal
    to the oracle.  The second round gets new input arrays and the
    third the same arrays overwritten in place, so a replay that kept a
    view or a copy of an earlier call's input would show; neither round
    allocates."""
    shapes = [(b, 3, *hw) for b in batches for hw in SHAPES]

    def check(x):
        np.testing.assert_array_equal(net(x), oracle_forward(net, x))

    for shape in shapes:
        check(rng.normal(0, 1, shape).astype(np.float32))
    misses = [a.misses for a in _arenas(net)]
    inputs = [rng.normal(0, 1, shape).astype(np.float32) for shape in shapes]
    for x in inputs:
        check(x)
    for x in inputs:
        x[...] = rng.normal(0, 1, x.shape)
        check(x)
    assert [a.misses for a in _arenas(net)] == misses


@pytest.mark.parametrize("cores", [1, 2], ids=["unsplit", "split"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_planned_forward_equals_fresh_buffers(name, cores, rng,
                                              monkeypatch):
    monkeypatch.setattr(threads, "cores", lambda: cores)
    _check_interleaved(_compiled(name, rng), rng, batches=(1, 2, 3, 4))


@pytest.mark.parametrize("cores", [1, 3], ids=["unsplit", "split"])
def test_integer_plan_equals_fresh_buffers(cores, rng, monkeypatch):
    monkeypatch.setattr(threads, "cores", lambda: cores)
    _check_interleaved(_compiled("skynet_C", rng, quant=True), rng,
                       batches=(1, 2, 4))


@pytest.mark.parametrize("spec", BUNDLE_CATALOG, ids=lambda s: s.name)
def test_bundle_stacks_equal_fresh_buffers(spec, rng, monkeypatch):
    monkeypatch.setattr(threads, "cores", lambda: 2)
    net = compile_net(bundle_stack(spec, (6, 8, 4), (0, 1), "relu6", rng))
    _check_interleaved(net, rng, batches=(1, 3))


@pytest.mark.parametrize("quant", [False, True], ids=["fp32", "w8f8"])
def test_poisoned_slabs_do_not_change_the_output(quant, rng, monkeypatch):
    """Every value a step reads was written in the same forward: filling
    every slab with NaN bytes after planning changes nothing."""
    monkeypatch.setattr(threads, "cores", lambda: 2)
    net = _compiled("skynet_C", rng, quant=quant)
    for hw in SHAPES:
        x = rng.normal(0, 1, (2, 3, *hw)).astype(np.float32)
        want = net(x)
        for arena in _arenas(net):
            for slab in arena._slabs:
                slab.fill(0xFF)  # NaN in every float dtype
        np.testing.assert_array_equal(net(x), want)
        np.testing.assert_array_equal(want, oracle_forward(net, x))


@pytest.mark.parametrize("quant", [False, True], ids=["fp32", "w8f8"])
def test_grown_slab_rerecords_the_older_plan(quant, rng, monkeypatch):
    """Planning a larger shape grows slabs the smaller plan binds: its
    recorded calls are dropped, recorded again on its next forward
    against the same bindings, and exact."""
    monkeypatch.setattr(threads, "cores", lambda: 1)
    net = _compiled("skynet_C", rng, quant=quant)
    small, large = (1, 3, *SHAPES[1]), (2, 3, *SHAPES[0])

    def forward(shape):
        x = rng.normal(0, 1, shape).astype(np.float32)
        np.testing.assert_array_equal(net(x), oracle_forward(net, x))

    forward(small)
    forward(large)
    assert net.arena.program(small) is None  # a slab it binds grew
    forward(small)
    assert net.arena.program(small) is not None
    misses = net.arena.misses
    forward(large)
    forward(small)
    assert net.arena.misses == misses


def test_plan_shares_slabs(rng, monkeypatch):
    """Dead values give their slabs up: the planned arena holds far
    fewer bytes than one buffer per request, and planning a second
    shape grows the shared slabs instead of adding a second set."""
    monkeypatch.setattr(threads, "cores", lambda: 1)
    net = _compiled("skynet_C", rng)
    x = rng.normal(0, 1, (2, 3, *SHAPES[0])).astype(np.float32)
    net(x)
    arena = net.arena
    requested = sum(dtype.itemsize * int(np.prod(shape))
                    for _, _, shape, dtype in arena._bind)
    assert len(arena._slabs) < len(arena._bind)
    assert sum(s.nbytes for s in arena._slabs) < requested / 2
    slabs = len(arena._slabs)
    net(rng.normal(0, 1, (4, 3, *SHAPES[0])).astype(np.float32))
    assert len(arena._slabs) <= slabs + 1


def test_failed_planning_pass_replans(rng, monkeypatch):
    """An allocation fault aborts a planning pass; the next forward at
    that shape plans again and is exact."""
    monkeypatch.setattr(threads, "cores", lambda: 1)
    net = _compiled("skynet_B", rng)
    x = rng.normal(0, 1, (1, 3, *SHAPES[0])).astype(np.float32)
    with faults.inject(FaultPlan([FaultSpec("arena.alloc", "alloc")])):
        with pytest.raises(MemoryError, match="injected"):
            net(x)
    np.testing.assert_array_equal(net(x), oracle_forward(net, x))
    misses = net.arena.misses
    net(x)
    assert net.arena.misses == misses

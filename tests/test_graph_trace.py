"""One graph description: the compiler's plan and the hardware
descriptors are both read off the trace of a module's own forward.

``data/graph_pins.json`` holds what the hand-written composite compile
rules and descriptor methods produced before the trace replaced them:
the step tables (kernel label, reads, writes) of the plans perfbench
and the trackers run, fp32 and w8/f8, per-layer descriptors of every
zoo and SkyNet backbone at three input sizes, and the hand-written
``CandidateDNA.descriptor`` rows of 48 sampled PSO candidates.
Regenerate it only for a deliberate change of plan or descriptor.
"""

from __future__ import annotations

import ast
import inspect
import json
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    BUNDLE_CATALOG,
    CandidateNet,
    SkyNetBackbone,
    random_dna,
)
from repro.detection import Detector, YoloHead
from repro.hardware import describe
from repro.nn import engine
from repro.nn.engine import CompileError, QuantConfig, compile_net, threads
from repro.nn.engine.compiler import _Planner, trace
from repro.nn.layers import Conv2d
from repro.nn.module import Module
from repro.tracking import SiamRPN
from repro.tracking.siamese import compile_extractor
from repro.zoo import (
    BACKBONES,
    AlexNetBackbone,
    AlexNetClassifier,
    MobileNetBackbone,
    SqueezeNetBackbone,
    TinyYoloBackbone,
    VGGBackbone,
    backbone_names,
    build_backbone,
    resnet18,
    resnet34,
    resnet50,
    shufflenet,
    vgg16,
)

from .test_engine import _eager, _randomize_bn_stats

PINS = json.loads((Path(__file__).parent / "data" / "graph_pins.json")
                  .read_text())
SIZES = ((160, 320), (255, 255), (64, 64))


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# --------------------------------------------------------------------- #
# pinned step tables
# --------------------------------------------------------------------- #
def _skynet_detector() -> Detector:
    bb = SkyNetBackbone("C", width_mult=0.25, rng=_rng(2))
    return Detector(bb, YoloHead(bb.out_channels, rng=_rng(6)))


#: name -> (build, calibration input size, compile function)
PLANS = {
    "skynetA": (lambda: SkyNetBackbone("A", width_mult=0.25, rng=_rng(1)),
                (32, 64), compile_net),
    "skynetB": (lambda: SkyNetBackbone("B", width_mult=0.25, rng=_rng(1)),
                (32, 64), compile_net),
    "skynetC": (lambda: SkyNetBackbone("C", width_mult=0.25, rng=_rng(1)),
                (32, 64), compile_net),
    "detectorC": (_skynet_detector, (32, 64), compile_net),
    "mobilenet": (lambda: MobileNetBackbone(0.25, rng=_rng(3)), (32, 64),
                  compile_net),
    "siamrpn": (lambda: SiamRPN(
        SkyNetBackbone("C", width_mult=0.25, rng=_rng(4)), feat_ch=8,
        rng=_rng(5)), (32, 32), compile_extractor),
}


def step_table(net) -> dict:
    return {"n_regs": net.n_regs, "out_reg": net.out_reg,
            "steps": [[k.label, list(ins), out] for k, ins, out in net.steps]}


def build_plan(name: str, precision: str):
    build, hw, compile_fn = PLANS[name]
    model = build()
    model.eval()
    if precision == "fp32":
        return compile_fn(model)
    cal = _rng(9).normal(0, 1, (2, 3, *hw)).astype(np.float32)
    return compile_fn(model, quant=QuantConfig(8, 8), calibration=cal)


@pytest.mark.parametrize("precision", ["fp32", "w8f8"])
@pytest.mark.parametrize("name", sorted(PLANS))
def test_step_table_is_pinned(name, precision):
    assert step_table(build_plan(name, precision)) == \
        PINS["plans"][name][precision]


# --------------------------------------------------------------------- #
# traced descriptors
# --------------------------------------------------------------------- #
#: Backbones whose traced descriptor equals the hand-written one.
SAME_DESCRIPTOR = {
    "skynetA": lambda: SkyNetBackbone("A", rng=_rng(0)),
    "skynetB": lambda: SkyNetBackbone("B", rng=_rng(0)),
    "skynetC": lambda: SkyNetBackbone("C", rng=_rng(0)),
    "tinyyolo": lambda: TinyYoloBackbone(1.0, rng=_rng(0)),
    "mobilenet": lambda: MobileNetBackbone(1.0, rng=_rng(0)),
    "vgg16": lambda: vgg16(0.5, rng=_rng(0)),
    "vgg_bn": lambda: VGGBackbone(0.5, rng=_rng(0)),
}
#: Backbones whose hand-written descriptor left out activations or adds:
#: only the parameters must hold.
SAME_PARAMS = {
    "resnet18": lambda: resnet18(0.5, rng=_rng(0)),
    "resnet34": lambda: resnet34(0.5, rng=_rng(0)),
    "resnet50": lambda: resnet50(0.5, rng=_rng(0)),
    "alexnet": lambda: AlexNetBackbone(1.0, rng=_rng(0)),
    "squeezenet": lambda: SqueezeNetBackbone(1.0, rng=_rng(0)),
}


def rows(desc) -> list[str]:
    return [" ".join(map(str, (l.kind, l.in_ch, l.out_ch, l.in_h, l.in_w,
                               l.kernel, l.stride))) for l in desc]


@pytest.mark.parametrize("name", sorted(SAME_DESCRIPTOR))
def test_traced_descriptor_equals_pinned(name):
    model = SAME_DESCRIPTOR[name]()
    for h, w in SIZES:
        assert rows(describe(model, (h, w))) == \
            PINS["descriptors"][name][f"{h}x{w}"]["layers"]


@pytest.mark.parametrize("name", sorted(SAME_PARAMS))
def test_traced_descriptor_keeps_params(name):
    model = SAME_PARAMS[name]()
    for h, w in SIZES:
        pinned = PINS["descriptors"][name][f"{h}x{w}"]
        assert describe(model, (h, w)).total_params == pinned["total_params"]


def test_classifier_descriptor_keeps_params():
    model = AlexNetClassifier(num_classes=10, width_mult=0.25,
                              input_hw=(64, 64), rng=_rng(0))
    desc = describe(model, model.input_hw)
    assert desc.total_params == \
        PINS["descriptors"]["alexnet_classifier"]["64x64"]["total_params"]
    assert [l.kind for l in desc][-5:] == ["linear", "act", "linear", "act",
                                           "linear"]


def test_residual_adds_are_traced():
    desc = describe(resnet18(0.25, rng=_rng(0)), (64, 64))
    assert sum(l.kind == "add" for l in desc) == 8


def _dnas():
    rng = _rng(11)
    for spec in BUNDLE_CATALOG:
        for _ in range(3):
            depth = int(rng.integers(3, 7))
            dna = random_dna(spec, depth=depth,
                             n_pools=int(rng.integers(1, depth)),
                             channel_choices=(4, 6, 8, 12), rng=rng)
            yield dna
            yield dna.with_stage3_features()


def _label(dna) -> str:
    return (f"{dna.bundle.name} {list(dna.channels)} "
            f"{list(dna.pool_positions)} {dna.activation} {dna.bypass}")


def test_candidate_net_traces_to_its_dna_descriptor():
    """The PSO's estimate, the trace of the net a DNA builds, reads row
    for row what the hand-written descriptor did."""
    pinned = PINS["candidates"]
    dnas = list(_dnas())
    assert len(dnas) == len(pinned) == 48
    for dna, pin in zip(dnas, pinned):
        assert _label(dna) == pin["dna"]
        for h, w in ((32, 64), (160, 320)):
            assert rows(dna.descriptor((h, w))) == pin[f"{h}x{w}"], dna


def test_shufflenet_traces_split_and_shuffle():
    """The channel split traces as slices and the shuffle as a reshape
    node that the descriptor skips and the compiler refuses."""
    bb = shufflenet(0.5, rng=_rng(0))
    nodes, _, _ = trace(bb)
    kinds = [n.kind for n in nodes]
    assert kinds.count("shuffle") == len(bb.units)
    assert kinds.count("slice") == 2 * (len(bb.units) - 2)
    desc = describe(bb, (64, 64))
    assert desc.total_params == bb.num_parameters()
    assert {l.kind for l in desc} == {"conv", "dwconv", "pwconv", "bn",
                                      "act", "concat"}
    with pytest.raises(CompileError, match="'shuffle'"):
        compile_net(bb)


#: Every registry backbone, and a detector whose head adds the last row.
GEOMETRY = {
    **{name: (lambda name=name: build_backbone(name, width_mult=0.125,
                                               rng=_rng(0)))
       for name in sorted(BACKBONES)},
    "detector": _skynet_detector,
}


@pytest.mark.parametrize("name", sorted(GEOMETRY))
def test_descriptor_geometry_matches_eager_output(name):
    """The last traced row has the shape the eager forward outputs."""
    model = GEOMETRY[name]()
    model.eval()
    for h, w in ((160, 320), (97, 131), (64, 64)):
        last = describe(model, (h, w)).layers[-1]
        out = _eager(model, np.zeros((1, 3, h, w), np.float32))
        assert (last.out_ch, last.out_h, last.out_w) == out.shape[1:], (h, w)


# --------------------------------------------------------------------- #
# backbones that compile through the trace alone
# --------------------------------------------------------------------- #
NEWLY_COMPILED = {
    "tinyyolo": lambda: TinyYoloBackbone(0.25, rng=_rng(0)),
    "vgg16": lambda: vgg16(0.125, rng=_rng(0)),
    "vgg_bn": lambda: VGGBackbone(0.125, rng=_rng(0)),
    "alexnet": lambda: AlexNetBackbone(0.125, rng=_rng(0)),
    "squeezenet": lambda: SqueezeNetBackbone(0.25, rng=_rng(0)),
    **{f"candidate-{spec.name}": (
        lambda spec=spec: CandidateNet(
            random_dna(spec, depth=4, n_pools=2, channel_choices=(4, 8),
                       rng=_rng(1)).with_stage3_features(), rng=_rng(2)))
       for spec in BUNDLE_CATALOG},
}


@pytest.mark.parametrize("name", sorted(NEWLY_COMPILED))
def test_compiled_matches_eager_and_splits_exactly(name, monkeypatch):
    model = NEWLY_COMPILED[name]()
    _randomize_bn_stats(model, _rng(3))
    model.eval()
    x = _rng(4).normal(0, 1, (3, 3, 32, 64)).astype(np.float32)
    net = compile_net(model)
    monkeypatch.setattr(threads, "cores", lambda: 1)
    whole = net(x)
    np.testing.assert_allclose(whole, _eager(model, x), atol=1e-4)
    monkeypatch.setattr(threads, "cores", lambda: 2)
    np.testing.assert_array_equal(net(x), whole)


@pytest.mark.parametrize("name", backbone_names())
def test_only_residual_and_shuffle_backbones_stay_eager(name):
    model = build_backbone(name, width_mult=0.125, rng=_rng(0))
    model.eval()
    if name.startswith(("resnet", "shufflenet")):
        with pytest.raises(CompileError):
            compile_net(model)
    else:
        compile_net(model)


# --------------------------------------------------------------------- #
# the placeholder
# --------------------------------------------------------------------- #
class _Scaled(Module):
    def __init__(self) -> None:
        super().__init__()
        self.conv = Conv2d(3, 4, 3, rng=_rng(0))

    def forward(self, x):
        return self.conv(x) * 2.0


class _Residual(Module):
    def __init__(self) -> None:
        super().__init__()
        self.conv = Conv2d(3, 3, 3, rng=_rng(0))

    def forward(self, x):
        return self.conv(x) + x


def test_other_ops_on_a_traced_register_raise_compile_error():
    with pytest.raises(CompileError, match="_Scaled.forward"):
        compile_net(_Scaled())


def test_add_traces_but_does_not_lower():
    nodes, _, out_reg = trace(_Residual())
    assert [n.kind for n in nodes] == ["conv", "add"]
    assert nodes[-1].inputs == [1, 0] and nodes[-1].out == out_reg
    with pytest.raises(CompileError, match="'add'"):
        compile_net(_Residual())


def test_tracing_leaves_the_eager_forward_alone():
    model = _Residual()
    x = _rng(1).normal(0, 1, (1, 3, 8, 8)).astype(np.float32)
    before = _eager(model, x)
    with pytest.raises(CompileError):
        compile_net(model)
    np.testing.assert_array_equal(_eager(model, x), before)


def test_engine_imports_no_model_package():
    """The planner knows layers, not models: no module of the engine
    imports a model package."""
    models = ("repro.core", "repro.detection", "repro.tracking", "repro.zoo")
    package = ["repro", "nn", "engine"]
    for path in Path(engine.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                base = package[:len(package) - node.level + 1] \
                    if node.level else []
                names = [".".join(base + [node.module or ""])]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not any(n.startswith(models) for n in names), (path, names)


def test_planner_has_no_model_branch():
    """Every class ``emit`` names is a layer of ``repro.nn``."""
    source = textwrap.dedent(inspect.getsource(_Planner.emit))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", "")
                == "isinstance" and isinstance(node.args[1], ast.Name)):
            cls = getattr(engine.compiler, node.args[1].id)
            assert cls.__module__.startswith("repro.nn."), cls

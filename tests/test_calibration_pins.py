"""Calibration pins: the integer plan ``calibrate`` freezes, by hash.

``data/calibration_pins.json`` holds, for each model and scheme below,
the frozen frac bits, every step's label and carrier dtype with the
sha256 of its integer weights and epilogue bias, and the sha256 of the
calibration batch's fake-quant ``reference_output``.  It was recorded
before calibration streamed one sample at a time, so any change to how
calibration computes its reference values that moves a single bit of
the plan fails here.  Regenerate it (``PYTHONPATH=src python -m
tests.test_calibration_pins``) only for a deliberate change of plan.

The cases cover SkyNet A/B/C (bypass, reorg, concat), a detector head,
MobileNet's stride-2 depthwise layers at a size where the first runs
tap by tap and the later ones through im2col, ``GenericBundle`` stacks
over every catalog spec, the w16/f16 scheme whose kernels carry
float64, and a near-zero calibration input whose frac bits exceed 120
(the float64 quantize path).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import BUNDLE_CATALOG, SkyNetBackbone
from repro.detection import Detector, YoloHead
from repro.nn.engine import QuantConfig, compile_net
from repro.zoo import MobileNetBackbone

from .test_differential import bundle_stack
from .test_engine import _randomize_bn_stats

PINS_PATH = Path(__file__).parent / "data" / "calibration_pins.json"
SCHEMES = ((8, 8), (4, 6), (16, 16))


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _skynet(config: str):
    def build():
        bb = SkyNetBackbone(config, width_mult=0.25, rng=_rng(1))
        _randomize_bn_stats(bb, _rng(11))
        return bb
    return build


def _detector():
    bb = SkyNetBackbone("C", width_mult=0.25, rng=_rng(2))
    det = Detector(bb, YoloHead(bb.out_channels, rng=_rng(6)))
    _randomize_bn_stats(det, _rng(12))
    return det


def _mobilenet():
    net = MobileNetBackbone(0.25, rng=_rng(3))
    _randomize_bn_stats(net, _rng(13))
    return net


def _bundles(spec):
    return lambda: bundle_stack(spec, (6, 8), (0,), "relu6", _rng(7))


#: name -> (build, calibration input (C, H, W), input scale)
CASES = {
    "skynetA": (_skynet("A"), (3, 32, 64), 1.0),
    "skynetB": (_skynet("B"), (3, 32, 64), 1.0),
    "skynetC": (_skynet("C"), (3, 32, 64), 1.0),
    "detectorC": (_detector, (3, 32, 64), 1.0),
    # 64x128 after the stem: taps; 32x64 and below: im2col.
    "mobilenet": (_mobilenet, (3, 128, 256), 1.0),
    # |x| ~ 1e-36: the input's frac bits exceed 120.
    "skynetA_near_zero": (_skynet("A"), (3, 32, 64), 1e-36),
    **{f"bundles_{spec.name}": (_bundles(spec), (3, 13, 17), 1.0)
       for spec in BUNDLE_CATALOG},
}


def _sha(a) -> str | None:
    if a is None:
        return None
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _halves(kern) -> list:
    return [kern.dw, kern.pw] if hasattr(kern, "dw") else [kern]


def plan_record(name: str, scheme: tuple[int, int]) -> dict:
    build, chw, scale = CASES[name]
    model = build()
    model.eval()
    cal = (_rng(9).normal(0, 1, (3, *chw)) * scale).astype(np.float32)
    net = compile_net(model, quant=QuantConfig(*scheme), calibration=cal)
    stats = net.quant_stats
    steps = []
    for (kern, _, _), dtypes in zip(net.steps, stats["kernels"]):
        epis = [getattr(k, "epilogue", None) for k in _halves(kern)]
        steps.append({
            "label": kern.label,
            "carrier": dtypes["carrier"],
            "weight": [_sha(getattr(k, "weight", None))
                       for k in _halves(kern)],
            "bias": [None if e is None else _sha(e.bias) for e in epis],
        })
    fracs = sorted(stats["frac_bits"].items())
    return {
        "frac_bits": {str(r): f for r, f in fracs},
        "input_frac": stats["input_frac"],
        "output_frac": stats["output_frac"],
        "steps": steps,
        "reference_output": _sha(stats["reference_output"]),
    }


def _key(scheme) -> str:
    return f"w{scheme[0]}f{scheme[1]}"


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("scheme", SCHEMES, ids=_key)
@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_matches_pin(name, scheme, pins):
    assert plan_record(name, scheme) == pins[name][_key(scheme)]


def test_pins_reach_the_float64_paths(pins):
    """The pins cover float64 carriers and the float64 quantize."""
    carriers = {s["carrier"] for case in pins.values()
                for s in case["w16f16"]["steps"]}
    assert "float64" in carriers
    first = pins["skynetA_near_zero"]["w8f8"]
    assert abs(first["input_frac"]) > 120
    assert first["steps"][0]["carrier"] == "float64"


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(
        {name: {_key(s): plan_record(name, s) for s in SCHEMES}
         for name in sorted(CASES)}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")

"""Figure 2(a) — AlexNet accuracy under parameter vs feature-map quantization.

The paper's motivational study: compressing AlexNet's *parameters* from
float32 to mixed fixed point shrinks the model 22x (237.9 MB → 10.8 MB)
with little accuracy change, while *feature-map* precision is the
sensitive direction (16x: 15.7 MB → 0.98 MB before accuracy collapses).

We train a width-scaled AlexNet classifier on a synthetic 12-category
task and sweep the two compression axes independently, reporting
accuracy and data size per point — the two bubble series of Fig. 2(a).
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from common import print_table

from repro.datasets.renderer import NUM_MAIN_CATEGORIES, SceneRenderer
from repro.hardware.descriptor import describe
from repro.hardware.quantization import (
    feature_map_quantization,
    fm_megabytes,
    param_megabytes,
    weight_quantization,
)
from repro.nn import Tensor, no_grad
from repro.nn.functional import cross_entropy
from repro.nn.optim import Adam
from repro.zoo import AlexNetClassifier

IMAGE = 64
N_TRAIN, N_VAL = 480, 120
EPOCHS = 6
# parameter schemes in the paper's p1-p2p3p4p5 spirit: (conv1, convs,
# fc1-2, fc3) weight bits; None = float32
PARAM_SCHEMES = {
    "float32": None,
    "W(10,8,8,10)": {"conv1": 10, "conv": 8, "fc12": 8, "fc3": 10},
    "W(8,6,6,8)": {"conv1": 8, "conv": 6, "fc12": 6, "fc3": 8},
    "W(8,6,4,8)": {"conv1": 8, "conv": 6, "fc12": 4, "fc3": 8},
}
FM_BITS = (None, 12, 10, 8, 6, 4)


def make_classification_data(n: int, seed: int):
    """Rendered scenes with enlarged objects; label = main category."""
    rng = np.random.default_rng(seed)
    renderer = SceneRenderer(image_hw=(IMAGE, IMAGE), clutter=0)
    images = np.empty((n, 3, IMAGE, IMAGE), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        spec = renderer.sample_object(rng)
        spec = replace(
            spec,
            w=float(rng.uniform(0.35, 0.6)),
            h=float(rng.uniform(0.35, 0.6)),
            cx=0.5,
            cy=0.5,
        )
        images[i], _ = renderer.render(spec, rng)
        labels[i] = spec.category
    return images, labels


@lru_cache(maxsize=None)
def trained_classifier():
    xtr, ytr = make_classification_data(N_TRAIN, seed=0)
    xva, yva = make_classification_data(N_VAL, seed=1)
    model = AlexNetClassifier(
        num_classes=NUM_MAIN_CATEGORIES, width_mult=0.25,
        input_hw=(IMAGE, IMAGE), dropout=0.0,  # tiny budget: no dropout
        rng=np.random.default_rng(0),
    )
    opt = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(0)
    model.train()
    for _ in range(EPOCHS):
        order = rng.permutation(N_TRAIN)
        for s in range(0, N_TRAIN, 32):
            idx = order[s : s + 32]
            logits = model(Tensor(xtr[idx]))
            loss = cross_entropy(logits, ytr[idx])
            model.zero_grad()
            loss.backward()
            opt.step()
    model.eval()
    return model, xva, yva


def accuracy(model, x, y) -> float:
    with no_grad():
        logits = model(Tensor(x)).data
    return float((logits.argmax(axis=1) == y).mean())


def _param_policy(scheme: dict):
    def policy(name: str):
        if name.startswith("features.conv1"):
            return scheme["conv1"]
        if name.startswith("features."):
            return scheme["conv"]
        if name.startswith(("fc1", "fc2")):
            return scheme["fc12"]
        return scheme["fc3"]

    return policy


@lru_cache(maxsize=None)
def run_study():
    model, xva, yva = trained_classifier()
    net = describe(model, model.input_hw)
    base_acc = accuracy(model, xva, yva)

    param_rows = []
    for label, scheme in PARAM_SCHEMES.items():
        if scheme is None:
            acc, bits = base_acc, 32.0
        else:
            with weight_quantization(model, bits_for=_param_policy(scheme)):
                acc = accuracy(model, xva, yva)
            # effective average bits, parameter-weighted (FC dominates)
            total, weighted = 0, 0.0
            for name, p in model.named_parameters():
                total += p.size
                weighted += p.size * _param_policy(scheme)(name)
            bits = weighted / total
        param_rows.append(
            (label, acc, param_megabytes(net.total_params, bits))
        )

    fm_rows = []
    for bits in FM_BITS:
        if bits is None:
            acc, mb = base_acc, fm_megabytes(net.total_fm_elems, 32)
        else:
            with feature_map_quantization(bits):
                acc = accuracy(model, xva, yva)
            mb = fm_megabytes(net.total_fm_elems, bits)
        fm_rows.append((f"FM{bits or 32}", acc, mb))
    return base_acc, param_rows, fm_rows


def test_fig2a_quantization_sensitivity(benchmark):
    base_acc, param_rows, fm_rows = benchmark.pedantic(
        run_study, rounds=1, iterations=1
    )
    print_table(
        "Fig. 2(a) — parameter compression (blue series)",
        ["scheme", "accuracy", "param MB"],
        [[l, f"{a:.3f}", f"{m:.2f}"] for l, a, m in param_rows],
    )
    print_table(
        "Fig. 2(a) — feature-map compression (green series)",
        ["scheme", "accuracy", "FM MB"],
        [[l, f"{a:.3f}", f"{m:.3f}"] for l, a, m in fm_rows],
    )
    assert base_acc > 0.5  # the classifier genuinely learned

    # parameter compression is benign: even the aggressive mixed scheme
    # stays near float accuracy while shrinking the model >4x
    aggressive = param_rows[-1]
    assert aggressive[1] >= base_acc - 0.10
    assert param_rows[0][2] / aggressive[2] > 4.0

    # feature maps are the sensitive direction: the harshest FM scheme
    # loses at least as much accuracy as the harshest parameter scheme
    fm_worst = min(a for _, a, _ in fm_rows)
    param_worst = min(a for _, a, _ in param_rows)
    assert fm_worst <= param_worst + 0.02


if __name__ == "__main__":
    print(run_study())

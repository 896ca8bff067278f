"""Table 2 — backbone comparison on the DAC-SDC task.

Same detection back-end (two-anchor YOLO head), same *training compute
budget*, different backbones.  The paper's finding: parameter count
predicts nothing — ResNet-18 (11.18 M) reaches 0.61 IoU while the larger
ResNet-34/50 fall to 0.26/0.32 and VGG-16 to 0.25, and the 0.44 M SkyNet
wins at 0.73.

Protocol note: the budget here is *equal training MACs* (the contest
reality: a fixed compute/time envelope on given hardware), so the cheap
SkyNet iterates through many more optimization steps than the heavy
backbones within the same budget — the exact advantage that lets
hardware-efficient designs win development races.  Models train at
width_mult=0.25 on the synthetic split; the parameter column reports
the full-width (paper-scale) counts.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from common import IMAGE_HW, build_detector, print_table, train_detector

from repro.hardware.descriptor import describe
from repro.zoo import build_backbone

BACKBONES = ("resnet18", "resnet34", "resnet50", "vgg16", "skynet")
PAPER = {
    "resnet18": (11.18, 0.61),
    "resnet34": (21.28, 0.26),
    "resnet50": (23.51, 0.32),
    "vgg16": (14.71, 0.25),
    "skynet": (0.44, 0.73),
}
TRAIN_WIDTH = 0.25
SKYNET_EPOCHS = 60  # the reference budget; others get equal MACs


def _epoch_budget(name: str, reference_macs: float) -> int:
    bb = build_backbone(name, width_mult=TRAIN_WIDTH)
    macs = describe(bb, IMAGE_HW).total_macs
    return max(1, int(round(SKYNET_EPOCHS * reference_macs / macs)))


@lru_cache(maxsize=None)
def run_comparison():
    reference_macs = describe(
        build_backbone("skynet", width_mult=TRAIN_WIDTH), IMAGE_HW
    ).total_macs
    results = {}
    for name in BACKBONES:
        epochs = _epoch_budget(name, reference_macs)
        bb = build_backbone(name, width_mult=TRAIN_WIDTH,
                            rng=np.random.default_rng(0))
        det = build_detector(bb, seed=0)
        result = train_detector(det, epochs=epochs, seed=0)
        full_params = build_backbone(name, width_mult=1.0).num_parameters()
        results[name] = (full_params / 1e6, result.final_iou, epochs)
    return results


def test_table2_backbone_comparison(benchmark):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    rows = []
    for name in BACKBONES:
        params_m, iou, epochs = results[name]
        paper_p, paper_iou = PAPER[name]
        rows.append(
            [name, f"{params_m:.2f}M", f"{iou:.3f}", epochs,
             f"{paper_p:.2f}M", f"{paper_iou:.2f}"]
        )
    print_table(
        "Table 2 — backbones, same back-end, equal training-MAC budget",
        ["backbone", "params (repro)", "IoU (repro)", "epochs in budget",
         "params (paper)", "IoU (paper)"],
        rows,
    )
    ious = {n: r[1] for n, r in results.items()}
    params = {n: r[0] for n, r in results.items()}
    # the headline shape: SkyNet wins despite being by far the smallest
    assert ious["skynet"] == max(ious.values())
    assert params["skynet"] == min(params.values())
    # parameter counts match the paper's column
    for name in BACKBONES:
        assert params[name] == pytest.approx(PAPER[name][0], rel=0.02)
    # "no clear clues regarding parameter size and inference accuracy":
    # the largest backbone is not the runner-up
    order = sorted(ious, key=ious.get, reverse=True)
    assert order[1] != max(params, key=params.get)


if __name__ == "__main__":
    for name, (p, iou, ep) in run_comparison().items():
        print(f"{name:10s} {p:6.2f}M params  IoU {iou:.3f} ({ep} epochs)")

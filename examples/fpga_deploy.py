"""FPGA deployment walkthrough: quantize, size the IPs, score the entry.

Follows Section 6.4: train SkyNet, explore the Table 7 quantization
schemes, auto-configure the largest IP pool that fits the Ultra96, check
the resource budget, estimate the system throughput with batch+tiling,
and finally score the resulting entry against the published DAC-SDC'19
FPGA field with the exact contest equations.

Usage::

    python examples/fpga_deploy.py [--epochs 10]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.contest import FPGA_2019, evaluate_submission, run_track
from repro.core import SkyNetBackbone
from repro.datasets import make_dacsdc_splits
from repro.detection import DetectionTrainer, Detector, TrainConfig, YoloHead
from repro.detection.anchors import kmeans_anchors
from repro.detection.metrics import evaluate_detector
from repro.hardware.descriptor import describe
from repro.hardware.fpga import FpgaLatencyModel, plan_batch_tiling
from repro.hardware.quantization import TABLE7_SCHEMES, quantized_inference
from repro.hardware.spec import ULTRA96
from repro.utils import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=10)
    args = parser.parse_args()

    print("training SkyNet C on synthetic DAC-SDC data ...")
    train, val = make_dacsdc_splits(256, 64, image_hw=(48, 96), seed=1)
    anchors = kmeans_anchors(train.boxes[:, 2:4], k=2,
                             rng=np.random.default_rng(0))
    backbone = SkyNetBackbone("C", width_mult=0.25,
                              rng=np.random.default_rng(0))
    detector = Detector(backbone,
                        head=YoloHead(backbone.out_channels, anchors,
                                      rng=np.random.default_rng(1)))
    DetectionTrainer(
        detector, TrainConfig(epochs=args.epochs, batch_size=16,
                              augment=False, lr=2e-3)
    ).fit(train, val)

    print("\nTable 7 — quantization schemes:")
    rows = []
    for scheme in TABLE7_SCHEMES:
        with quantized_inference(detector, scheme.w_bits, scheme.fm_bits):
            iou = evaluate_detector(detector, val.images, val.boxes)
        fm, w = scheme.label
        rows.append([scheme.index, fm, w, f"{iou:.3f}"])
    print(format_table(["scheme", "FM", "Weights", "IoU"], rows))

    print("\nIP pool on Ultra96 (scheme 1: W11 / FM9):")
    desc = describe(Detector(SkyNetBackbone("C")), (160, 320))
    model = FpgaLatencyModel(ULTRA96, batch=4, w_bits=11, fm_bits=9)
    cfg = model.ip_pool.conv_ip.config
    print(f"  conv IP: pi={cfg.pi} x po={cfg.po} lanes "
          f"({cfg.lanes} multipliers)")
    rep = model.resource_report()
    print(format_table(
        ["resource", "used", "available"],
        [["DSP", rep["dsp_used"], rep["dsp_total"]],
         ["BRAM36", rep["bram36_used"], rep["bram36_total"]],
         ["LUT", rep["lut_used"], rep["lut_total"]]],
    ))
    print(f"  inference: {model.per_frame_latency_ms(desc):.1f} ms/frame "
          f"({model.fps(desc):.1f} FPS; paper system: 25.05 FPS)")

    naive, tiled = plan_batch_tiling(desc, batch=4)
    print(f"  batch+tiling: {naive.rounds} DMA rounds naive -> "
          f"{tiled.rounds} tiled (Fig. 9)")

    print("\nscoring against the DAC-SDC'19 FPGA field:")
    submission = evaluate_submission(
        detector, val, desc, ULTRA96, batch=4, utilization=0.59,
        name="SkyNet-FPGA (repro)"
    )
    scored = run_track(submission, list(FPGA_2019), "fpga")
    print(format_table(
        ["team", "IoU", "FPS", "Power(W)", "Total score"],
        [[s.name, f"{s.iou:.3f}", f"{s.fps:.2f}", f"{s.power_w:.2f}",
          f"{s.total_score:.3f}"] for s in scored],
    ))
    print("\n(note: our IoU column is measured on the synthetic stand-in "
          "and is not comparable to the real hidden test set; FPS and "
          "power are the modeled reproduction.)")


if __name__ == "__main__":
    main()

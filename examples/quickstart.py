"""Quickstart: train SkyNet on synthetic DAC-SDC data and deploy it.

Runs in a couple of minutes on a laptop:

1. generate a synthetic DAC-SDC-style dataset,
2. train a width-scaled SkyNet C (ReLU6, bypass) detector,
3. evaluate mean IoU on the held-out split,
4. estimate embedded throughput on TX2 (GPU) and Ultra96 (FPGA),
5. save a checkpoint.

Usage::

    python examples/quickstart.py [--epochs 12] [--width 0.25]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core import SkyNetBackbone
from repro.datasets import make_dacsdc_splits
from repro.detection import DetectionTrainer, Detector, TrainConfig, YoloHead
from repro.detection.anchors import kmeans_anchors
from repro.hardware.descriptor import describe
from repro.hardware.fpga import FpgaLatencyModel
from repro.hardware.gpu import GpuLatencyModel
from repro.hardware.spec import TX2, ULTRA96
from repro.nn import save_model
from repro.utils import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=12)
    parser.add_argument("--width", type=float, default=0.25)
    parser.add_argument("--train-images", type=int, default=320)
    parser.add_argument("--checkpoint", default="skynet_quickstart.npz")
    args = parser.parse_args()

    print("1) generating synthetic DAC-SDC data ...")
    train, val = make_dacsdc_splits(
        args.train_images, args.train_images // 5, image_hw=(48, 96), seed=1
    )
    anchors = kmeans_anchors(train.boxes[:, 2:4], k=2,
                             rng=np.random.default_rng(0))
    print(f"   {len(train)} train / {len(val)} val images, "
          f"anchors={np.round(anchors, 3).tolist()}")

    print("2) building SkyNet C (ReLU6, bypass) ...")
    backbone = SkyNetBackbone("C", width_mult=args.width,
                              rng=np.random.default_rng(0))
    detector = Detector(
        backbone, head=YoloHead(backbone.out_channels, anchors,
                                rng=np.random.default_rng(1))
    )
    print(f"   {detector.num_parameters() / 1e3:.1f}k parameters "
          f"(full-size SkyNet: 0.44M)")

    print(f"3) training for {args.epochs} epochs ...")
    t0 = time.time()
    trainer = DetectionTrainer(
        detector,
        TrainConfig(epochs=args.epochs, batch_size=16, lr=2e-3,
                    augment=True, eval_every=max(1, args.epochs // 4)),
    )
    result = trainer.fit(train, val)
    for epoch, iou in result.val_ious:
        print(f"   epoch {epoch + 1:3d}: val IoU {iou:.3f}")
    print(f"   done in {time.time() - t0:.0f}s — final IoU "
          f"{result.final_iou:.3f}")

    print("4) embedded deployment estimates (full-size SkyNet C):")
    desc = describe(Detector(SkyNetBackbone("C")), (160, 320))
    gpu = GpuLatencyModel(TX2, batch=4)
    fpga = FpgaLatencyModel(ULTRA96, batch=4, w_bits=11, fm_bits=9)
    print(format_table(
        ["device", "latency/frame", "FPS", "paper FPS"],
        [
            ["Jetson TX2 (fp32)", f"{gpu.per_frame_latency_ms(desc):.1f} ms",
             f"{gpu.fps(desc):.1f}", "67.33 (system)"],
            ["Ultra96 (W11/FM9)",
             f"{fpga.per_frame_latency_ms(desc):.1f} ms",
             f"{fpga.fps(desc):.1f}", "25.05 (system)"],
        ],
    ))

    save_model(detector, args.checkpoint)
    print(f"5) checkpoint saved to {args.checkpoint}")


if __name__ == "__main__":
    main()

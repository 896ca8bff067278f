"""Half-precision / TensorRT-style GPU deployment (Table 1, opt. 4).

"Some of the GPU entries use half-precision data format (16-bit) and
TensorRT for improved throughput" (Section 2.1).  This module models
that deployment path: fp16 halves memory traffic and (on devices with
fast fp16 paths such as the TX2) up to doubles the usable FLOPs, while a
TensorRT-style graph compiler fuses BN/activation kernels and removes
their launch overhead.

Accuracy under fp16 is simulated with the fake-quantization hook: fp16
has a 10-bit mantissa, so feature maps are rounded to 11 significant
bits (sign + 10), a faithful proxy at the value ranges ReLU6 networks
produce.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from ...nn.module import Module
from ...nn.quant_hooks import set_fm_hook
from ..descriptor import NetDescriptor
from ..spec import GpuSpec
from .latency import GpuLatencyModel

__all__ = ["TrtDeployment", "fp16_inference", "simulate_fp16"]

# fp16: 1 sign + 5 exponent + 10 mantissa bits.
_FP16_MAX = 65504.0


def simulate_fp16(x: np.ndarray) -> np.ndarray:
    """Round an array to fp16 precision (and range), back in fp32."""
    return np.asarray(x).astype(np.float16).astype(np.float32)


@contextmanager
def fp16_inference(model: Module) -> Iterator[Module]:
    """Run inference with fp16 weights and feature maps (restoring after).

    The feature-map hook lives on the eager activation layers, so
    inference is pinned to the eager backend for the duration, as in
    :func:`~repro.hardware.quantization.feature_map_quantization`.
    """
    from ...runtime import eager_inference

    backups = []
    for _, p in model.named_parameters():
        backups.append((p, p.data))
        p.data = simulate_fp16(p.data)
    set_fm_hook(simulate_fp16)
    try:
        with eager_inference():
            yield model
    finally:
        set_fm_hook(None)
        for p, original in backups:
            p.data = original


@dataclass(frozen=True)
class TrtDeployment:
    """A TensorRT-style deployment plan for one device.

    Parameters
    ----------
    spec:
        Target GPU.
    fp16:
        Use half precision (halves traffic; boosts effective FLOPs by
        ``fp16_flops_gain`` on devices with a fast fp16 path).
    fused:
        Graph compilation fuses BN/activation/elementwise kernels into
        their producers, removing their launch overhead entirely.
    fp16_flops_gain:
        Effective compute speedup of fp16 (2.0 on TX2-class Pascal).
    """

    spec: GpuSpec
    fp16: bool = True
    fused: bool = True
    fp16_flops_gain: float = 2.0

    def engine_spec(self) -> GpuSpec:
        """The device spec as seen by the compiled engine."""
        spec = self.spec
        if self.fp16:
            spec = replace(
                spec, peak_gflops=spec.peak_gflops * self.fp16_flops_gain
            )
        if self.fused:
            # fused graphs launch roughly one kernel per conv, not per op
            spec = replace(
                spec, kernel_overhead_us=spec.kernel_overhead_us * 0.5
            )
        return spec

    def latency_model(self, batch: int = 1) -> GpuLatencyModel:
        precision = 2.0 if self.fp16 else 4.0
        return GpuLatencyModel(
            self.engine_spec(), batch=batch, precision_bytes=precision
        )

    def speedup_over_fp32(self, net: NetDescriptor, batch: int = 1) -> float:
        """Throughput gain of this deployment vs plain fp32 execution."""
        base = GpuLatencyModel(self.spec, batch=batch).network_latency_ms(net)
        fast = self.latency_model(batch).network_latency_ms(net)
        return base / fast

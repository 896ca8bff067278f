"""Weight initialization schemes.

All initializers take an explicit ``numpy.random.Generator`` so that model
construction is fully reproducible.
"""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_normal", "kaiming_uniform", "fan_in_out"]


def fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for a linear or convolutional weight."""
    if len(shape) == 2:  # (out, in)
        return shape[1], shape[0]
    if len(shape) == 4:  # (out, in, kh, kw)
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    raise ValueError(f"unsupported weight shape {shape}")


def kaiming_normal(
    shape: tuple[int, ...], rng: np.random.Generator, gain: float = np.sqrt(2.0)
) -> np.ndarray:
    """He-normal initialization (good default for ReLU networks)."""
    fan_in, _ = fan_in_out(shape)
    std = gain / np.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def kaiming_uniform(
    shape: tuple[int, ...], rng: np.random.Generator, gain: float = np.sqrt(2.0)
) -> np.ndarray:
    """He-uniform initialization."""
    fan_in, _ = fan_in_out(shape)
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)

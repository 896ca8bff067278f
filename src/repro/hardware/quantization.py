"""Fixed-point quantization of weights and feature maps.

Implements the FPGA deployment path of Section 6.4.1 (Table 7's
quantization schemes) and the motivational study of Fig. 2(a).

Quantization is *fixed point*: values are mapped to ``bits``-bit signed
integers with a power-of-two scale chosen per tensor from its dynamic
range — matching what the FPGA IPs implement (shifts, no per-channel
float rescale).  Feature maps are quantized at runtime through the
activation-layer hook (:mod:`repro.nn.quant_hooks`); weights are
quantized in place under a restoring context manager.

This module is the one home of the grid rule.  :func:`fixed_point_fracbits`
places the binary point, :func:`grid_scale` picks the width the scaling
runs at, and :func:`fixed_point_codes` scales, rounds half to even and
clips; fake quantization here, integer calibration and the
``QuantizeKernel`` of :mod:`repro.nn.engine.quant` all round through
them.
"""

from __future__ import annotations

import math
from contextlib import ExitStack, contextmanager
from typing import Callable, Iterator

import numpy as np

from ..nn.module import Module
from ..nn.quant_hooks import set_fm_hook

__all__ = [
    "fixed_point_fracbits",
    "grid_scale",
    "fixed_point_codes",
    "quantize_fixed",
    "quantize_to_fracbits",
    "quantization_error",
    "weight_quantization",
    "feature_map_quantization",
    "quantized_inference",
    "QuantScheme",
    "TABLE7_SCHEMES",
    "param_megabytes",
    "fm_megabytes",
]


def fixed_point_fracbits(max_abs: float, bits: int) -> int:
    """Fractional bits of the ``bits``-wide fixed-point format whose
    positive range covers ``max_abs``.

    This is the single source of scale logic for every fixed-point path
    (fake quantization here, and the integer-domain compiled backend in
    :mod:`repro.nn.engine.quant`): the binary point is per tensor — a
    pure shift in hardware — and may sit left of the MSB (negative
    ``frac_bits``) for large-magnitude tensors, or far right for small
    ones.  ``frexp`` decomposes ``max_abs = m * 2**e`` with ``m`` in
    [0.5, 1): non-powers of two need ``e`` magnitude bits, while an
    exact power of two ``2**(e-1)`` needs ``e`` as well *plus* one more
    so the maximum itself does not saturate against ``qmax = 2**(b-1)-1``
    (the historical off-by-one: ``ceil(log2(max_abs))`` under-counts
    exactly at powers of two).
    """
    if bits < 2:
        raise ValueError("need at least 2 bits (sign + magnitude)")
    if max_abs <= 0.0:
        return bits - 1
    int_bits = math.frexp(max_abs)[1] + 1  # incl. sign
    return min(bits - int_bits, 300)  # keep 2.0**frac finite


def grid_scale(frac: int, dtype=np.float32) -> tuple[np.dtype, np.generic]:
    """Dtype and scale that put ``dtype`` values on the ``2**-frac`` grid.

    Scaling by a power of two is exact in float32 while ``|frac| <=
    120``, so float32 values round with float64's ties at their own
    width; every other dtype and extreme scales run in float64.
    """
    wide = np.dtype(dtype) != np.float32 or abs(frac) > 120
    dtype = np.dtype(np.float64 if wide else np.float32)
    return dtype, dtype.type(2.0**frac)


def _max_abs(x: np.ndarray) -> float:
    """Largest magnitude in ``x`` (NaN if it holds one; 0 when empty)."""
    return max(float(x.max()), -float(x.min())) if x.size else 0.0


def fixed_point_codes(x: np.ndarray, frac_bits: int, bits: int,
                      inplace: bool = False) -> np.ndarray:
    """Integer codes of ``x`` on the ``2**-frac_bits`` grid, as floats.

    Scales at the :func:`grid_scale` width, rounds half to even (as an
    integer requantization shift does), then clips to the asymmetric
    two's-complement range ``[-2**(bits-1), 2**(bits-1) - 1]``.  Codes
    wider than 25 bits leave float32's exact-integer range, so they are
    computed in float64.  ``inplace=True`` overwrites ``x`` when it
    already has the grid dtype.
    """
    x = np.asarray(x)
    dtype, scale = grid_scale(frac_bits, x.dtype if bits <= 25 else np.float64)
    q = x.astype(dtype, copy=not inplace)
    q *= scale
    np.rint(q, out=q)
    np.clip(q, -(2 ** (bits - 1)), 2 ** (bits - 1) - 1, out=q)
    return q


def quantize_to_fracbits(x: np.ndarray, frac_bits: int, bits: int) -> np.ndarray:
    """Fake-quantize ``x`` on a *fixed* grid of ``2**-frac_bits`` steps.

    The :func:`fixed_point_codes` divided back by the scale, in the
    codes' dtype: float32 stays float32 while ``|frac_bits| <= 120``,
    everything else comes back float64.  Used by :func:`quantize_fixed`
    (which derives ``frac_bits`` from the tensor).
    """
    q = fixed_point_codes(x, frac_bits, bits)
    q /= 2.0**frac_bits
    return q


def quantize_fixed(x: np.ndarray, bits: int) -> np.ndarray:
    """Quantize ``x`` to ``bits``-bit signed fixed point (round-to-nearest).

    The binary point is placed per tensor: integer bits cover the
    observed dynamic range, the rest are fractional.  Returns the
    dequantized (float) values, i.e. fake quantization.  Integer-dtype
    inputs come back as float64 — casting the dequantized grid values
    back to an integer dtype would silently truncate them.
    """
    if bits < 2:
        raise ValueError("need at least 2 bits (sign + magnitude)")
    x = np.asarray(x)
    out_dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
    max_abs = _max_abs(x)
    if max_abs == 0.0:
        return x.astype(out_dtype)
    frac_bits = fixed_point_fracbits(max_abs, bits)
    return quantize_to_fracbits(x, frac_bits, bits).astype(out_dtype,
                                                           copy=False)


def quantization_error(x: np.ndarray, bits: int) -> float:
    """RMS error introduced by :func:`quantize_fixed` at ``bits`` bits."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sqrt(np.mean((x - quantize_fixed(x, bits)) ** 2)))


@contextmanager
def weight_quantization(
    model: Module,
    bits: int | None = None,
    bits_for: Callable[[str], int | None] | None = None,
) -> Iterator[Module]:
    """Temporarily quantize model parameters in place.

    Parameters
    ----------
    model:
        Any :class:`~repro.nn.module.Module`.
    bits:
        Uniform bit width for every parameter.
    bits_for:
        Alternative per-parameter policy: maps a parameter's dotted name
        to a bit width, or ``None`` to leave that parameter in float
        (used by the Fig. 2a per-layer-group schemes).

    The original float weights are restored on exit.
    """
    from ..runtime import eager_inference

    if (bits is None) == (bits_for is None):
        raise ValueError("pass exactly one of `bits` or `bits_for`")
    policy = (lambda _name: bits) if bits_for is None else bits_for
    backups: list[tuple[object, np.ndarray]] = []
    try:
        # Pin inference to the eager path: a compiled plan would
        # snapshot the quantized weights into a cache that outlives
        # this context.
        with eager_inference():
            for name, p in model.named_parameters():
                b = policy(name)
                if b is None:
                    continue
                backups.append((p, p.data.copy()))
                p.data = quantize_fixed(p.data, b)
            yield model
    finally:
        for p, original in backups:
            p.data = original


@contextmanager
def feature_map_quantization(bits: int) -> Iterator[None]:
    """Quantize every activation output to ``bits``-bit fixed point.

    The hook lives on the eager activation layers, so inference is
    pinned to the eager backend for the duration — the compiled engine
    would silently skip it.
    """
    from ..runtime import eager_inference

    set_fm_hook(lambda a: quantize_fixed(a, bits))
    try:
        with eager_inference():
            yield
    finally:
        set_fm_hook(None)


@contextmanager
def quantized_inference(
    model: Module, w_bits: int | None, fm_bits: int | None
) -> Iterator[Module]:
    """Combined weight + feature-map quantization context.

    Pass ``None`` for either width to leave that side in float32 —
    scheme 0 of Table 7 is ``quantized_inference(m, None, None)``.
    """
    with ExitStack() as stack:
        if w_bits is not None:
            stack.enter_context(weight_quantization(model, w_bits))
        if fm_bits is not None:
            stack.enter_context(feature_map_quantization(fm_bits))
        yield model


class QuantScheme:
    """A named (feature-map bits, weight bits) pair, as in Table 7."""

    def __init__(self, index: int, fm_bits: int | None, w_bits: int | None):
        self.index = index
        self.fm_bits = fm_bits
        self.w_bits = w_bits

    def __repr__(self) -> str:  # pragma: no cover
        fm = "Float32" if self.fm_bits is None else f"{self.fm_bits} bits"
        w = "Float32" if self.w_bits is None else f"{self.w_bits} bits"
        return f"QuantScheme({self.index}: FM={fm}, W={w})"

    @property
    def label(self) -> tuple[str, str]:
        fm = "Float32" if self.fm_bits is None else f"{self.fm_bits} bits"
        w = "Float32" if self.w_bits is None else f"{self.w_bits} bits"
        return fm, w


# Table 7 of the paper: the schemes explored for the Ultra96 deployment.
TABLE7_SCHEMES: tuple[QuantScheme, ...] = (
    QuantScheme(0, None, None),
    QuantScheme(1, 9, 11),
    QuantScheme(2, 9, 10),
    QuantScheme(3, 8, 11),
    QuantScheme(4, 8, 10),
)


def param_megabytes(num_params: int, bits: float = 32.0) -> float:
    """Model size in MB at a given weight precision."""
    return num_params * bits / 8.0 / 1e6


def fm_megabytes(total_fm_elems: int, bits: float = 32.0) -> float:
    """Total intermediate feature-map size in MB at a given precision."""
    return total_fm_elems * bits / 8.0 / 1e6

"""One fixed-point grid: host-side rounding goes through
:func:`repro.hardware.quantization.fixed_point_codes`.

``quantize_to_fracbits`` and ``quantize_fixed`` must return, byte for
byte, what a float64 reference of the same rule returns after the cast
to their output dtype — over float32, float64, float16 and int32
inputs, scales inside and outside float32's exact range, exact ties,
both clip edges, NaN, infinities, -0.0 and empty arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.quantization import (
    fixed_point_codes,
    fixed_point_fracbits,
    quantize_fixed,
    quantize_to_fracbits,
)

DTYPES = (np.float32, np.float64, np.float16, np.int32)
FRACS = (-130, -8, 0, 7, 120, 121, 300)
BITS = (2, 4, 8, 16, 32)


def _reference_to_fracbits(x, frac_bits, bits):
    """The float64 rule every grid path must match."""
    scale = 2.0**frac_bits
    qmax = 2 ** (bits - 1) - 1
    q = np.clip(np.round(np.asarray(x, dtype=np.float64) * scale),
                -qmax - 1, qmax)
    return q / scale


def _reference_fixed(x, bits):
    x = np.asarray(x)
    out_dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
    max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    if max_abs == 0.0:
        return x.astype(out_dtype)
    frac_bits = fixed_point_fracbits(max_abs, bits)
    return _reference_to_fracbits(x, frac_bits, bits).astype(out_dtype)


def _as(values, dtype) -> np.ndarray:
    """``values`` in ``dtype``; integer dtypes keep the finite values
    inside their range (the cast of anything else is undefined)."""
    v = np.asarray(values, dtype=np.float64)
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        v = v[np.isfinite(v) & (v > info.min) & (v <= info.max)]
    with np.errstate(over="ignore", under="ignore"):
        return v.astype(dtype)


def _grid_values(frac: int, bits: int) -> np.ndarray:
    """Ties, both clip edges and the non-finite specials on ``frac``'s
    grid, plus random values across the range."""
    qmax = 2 ** (bits - 1) - 1
    codes = [0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 3.25, -3.75,
             qmax, qmax - 0.5, qmax + 0.5, qmax + 1, 4 * qmax,
             -qmax - 1, -qmax - 0.5, -qmax - 1.5, -qmax - 2, -4 * qmax]
    rng = np.random.default_rng(bits * 1000 + frac)
    codes += list(rng.uniform(-1.2 * qmax, 1.2 * qmax, 32))
    step = 2.0**-frac
    return np.array([c * step for c in codes]
                    + [0.0, -0.0, np.nan, np.inf, -np.inf])


def _assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    want = want.astype(got.dtype)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("frac", FRACS)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_quantize_to_fracbits_matches_float64_rule(dtype, frac, bits):
    for x in (_as(_grid_values(frac, bits), dtype), np.zeros(0, dtype)):
        with np.errstate(over="ignore", invalid="ignore"):
            got = quantize_to_fracbits(x, frac, bits)
            want = _reference_to_fracbits(x, frac, bits)
        narrow = dtype == np.float32 and abs(frac) <= 120 and bits <= 25
        assert got.dtype == (np.float32 if narrow else np.float64)
        _assert_same_bytes(got, want)


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("frac", FRACS)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_quantize_fixed_matches_float64_rule(dtype, frac, bits):
    """``frac`` sets the magnitude; ``quantize_fixed`` picks its own."""
    values = _grid_values(frac, bits)
    finite = values[np.isfinite(values)]
    for x in (_as(finite, dtype), _as(values, dtype), _as(finite[:1], dtype),
              np.zeros(0, dtype), np.array([-0.0, 0.0], np.float64)):
        with np.errstate(over="ignore", invalid="ignore"):
            got = quantize_fixed(x, bits)
            want = _reference_fixed(x, bits)
        assert got.dtype == want.dtype
        _assert_same_bytes(got, want)


def test_codes_are_integers_in_range_and_inplace_reuses_buffer():
    x = np.array([0.3, -0.3, 1e9, -1e9, 2.5 / 8], np.float32)
    codes = fixed_point_codes(x, 3, 8)
    np.testing.assert_array_equal(codes, [2.0, -2.0, 127.0, -128.0, 2.0])
    assert codes is not x
    assert fixed_point_codes(x, 3, 8, inplace=True) is x
    np.testing.assert_array_equal(x, codes)


"""Integer precision for the compiled engine: an epilogue and a calibration pass.

The paper's Ultra96 deployment runs the whole network in fixed point
(Section 6.4.1, Table 7): per-tensor power-of-two scales — pure shifts
in the FPGA IPs — int8/int16 storage, wide accumulators, and shift
requantization between layers, with every scheme running on the same
IP set.  :mod:`repro.hardware.quantization` only *simulates* that (fake
quantization on the eager path); here the compiled engine runs it, on
the same plan and the same kernels as the fp32 engine:

* :class:`QuantConfig` — a (weight bits, feature-map bits) scheme, e.g.
  ``QuantConfig(8, 8)`` or ``QuantConfig.from_scheme(TABLE7_SCHEMES[1])``.
* :class:`IntEpilogue` — what precision changes in a kernel.  The
  requantization shift is folded into the weights, so the accumulator
  lands on the output grid; the epilogue adds the bias (set on the
  output grid), clamps activation and saturation in one ``clip`` and
  rounds into int8/int16 storage.
* :func:`calibrate` — walks the optimized plan once over user-supplied
  sample inputs, freezes one power-of-two scale per tensor via
  :func:`repro.hardware.quantization.fixed_point_fracbits`, rounds every
  weight code and reference value through
  :func:`repro.hardware.quantization.fixed_point_codes` (the grid rule
  of the fake-quant path), gives every conv, depthwise and bundle node
  its integer weights and epilogue, and inserts quantize / requant
  / dequantize steps where values cross between the integer domain and
  ops without an integer rule (sigmoid, global pooling, linear heads,
  non-power-of-two averaging).  Pooling, concat, reorg, upsample and
  slice run natively on the integer arrays.  Along the way it computes
  the fake-quant reference of the calibration batch — the same kernels
  run on real-valued fake-quantized weights and activations — which the
  integer plan reproduces bit for bit
  (``CompiledNet.quant_stats["reference_output"]``), computed one
  sample at a time so the batch is never held at full resolution.

Arithmetic model.  The accumulator carries *exact integer values* in a
float32 or float64 "carrier" array: every product of a ``w_bits``-bit
weight and an ``fm_bits``-bit feature is an integer below ``2**24``
(float32's exact-integer range) for the 8-bit schemes, and calibration
switches any kernel whose worst-case accumulator bound exceeds that
range to float64.  This keeps the matrix multiplies on the same BLAS
paths the fp32 engine uses (NumPy's native integer matmul has no BLAS
backend and is an order of magnitude slower) while remaining
bit-equivalent to true int32/int64 accumulation — the float ALU here
plays the role of the DSP48 slices on the Ultra96.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ... import obs
from ...hardware.quantization import (
    QuantScheme,
    _max_abs,
    fixed_point_codes,
    fixed_point_fracbits,
    grid_scale,
    quantize_fixed,
)
from .arena import BufferArena
from .compiler import _lower_node, _Node
from . import kernels as K

__all__ = ["QuantConfig", "IntEpilogue", "calibrate"]

#: Activations with an exact integer-domain rule (clamps at on-grid
#: bounds: 0 and 6 * 2**frac are integers for every non-negative frac).
_INT_ACTS = (None, ("relu",), ("relu6",))

#: Largest integer magnitude float32 represents exactly (2**24); the
#: per-kernel accumulator bound is checked against this to pick the
#: carrier dtype.
_F32_EXACT = float(2**24)


@dataclass(frozen=True)
class QuantConfig:
    """A fixed-point scheme for the compiled quantized backend.

    Parameters
    ----------
    w_bits:
        Signed weight width (int8 storage up to 8 bits, int16 above).
    fm_bits:
        Signed feature-map width (idem).
    """

    w_bits: int = 8
    fm_bits: int = 8

    def __post_init__(self) -> None:
        for label, bits in (("w_bits", self.w_bits), ("fm_bits", self.fm_bits)):
            if not 2 <= bits <= 16:
                raise ValueError(
                    f"{label} must be in [2, 16] (int8/int16 storage), "
                    f"got {bits}"
                )

    @classmethod
    def from_scheme(cls, scheme: QuantScheme) -> "QuantConfig":
        """Build from a Table-7 :class:`~repro.hardware.quantization.QuantScheme`."""
        if scheme.w_bits is None or scheme.fm_bits is None:
            raise ValueError(
                f"scheme {scheme.index} keeps a float32 side; only fully "
                "fixed-point schemes have an integer-domain backend"
            )
        return cls(w_bits=scheme.w_bits, fm_bits=scheme.fm_bits)

    @classmethod
    def parse(cls, spec: str) -> "QuantConfig":
        """Parse a CLI-style ``"W,F"`` bit-width pair, e.g. ``"8,8"``."""
        try:
            w_bits, fm_bits = (int(v) for v in spec.split(","))
        except ValueError:
            raise ValueError(
                f"expected 'W,F' bit widths (e.g. '8,8'), got {spec!r}"
            ) from None
        return cls(w_bits=w_bits, fm_bits=fm_bits)

    @property
    def label(self) -> str:
        return f"w{self.w_bits}/f{self.fm_bits}"

    @property
    def fm_storage(self) -> np.dtype:
        return np.dtype(np.int8 if self.fm_bits <= 8 else np.int16)

    @property
    def w_storage(self) -> np.dtype:
        return np.dtype(np.int8 if self.w_bits <= 8 else np.int16)

    @property
    def fm_qmin(self) -> int:
        return -(2 ** (self.fm_bits - 1))

    @property
    def fm_qmax(self) -> int:
        return 2 ** (self.fm_bits - 1) - 1


class IntEpilogue(K.Epilogue):
    """Integer epilogue: output-grid bias, one act/saturate clip, ``rint``.

    Calibration folds the requantization shift ``2**(out_frac -
    acc_frac)`` into the kernel's weights (a power-of-two scale on small
    integers — exact), so the accumulator already sits on the output
    grid, and hands the bias over already on that grid.  The activation
    bounds (0 and ``6 * 2**out_frac``, both exactly representable)
    intersected with the signed range make one clip interval; ``rint``
    after the clip equals the reference's round-then-clip because
    clipping moves values onto integral bounds, where ``rint`` is the
    identity.  ``emit_int=False`` keeps the rounded values in the
    carrier (a bundle's depthwise half feeding its pointwise half).
    """

    def __init__(self, bias: np.ndarray | None, act: tuple | None,
                 out_frac: int, quant: QuantConfig, carrier,
                 emit_int: bool = True) -> None:
        super().__init__(bias, act, carrier)
        if emit_int:
            self.out_dtype = quant.fm_storage
        self.lo, self.hi = float(quant.fm_qmin), float(quant.fm_qmax)
        if act is not None:
            self.lo = 0.0
            if act[0] == "relu6":
                self.hi = min(6.0 * 2.0**out_frac, self.hi)
        self.tag = f" [{quant.label}/{self.carrier.name}]"

    def store(self, acc: np.ndarray, out: np.ndarray | None,
              calls: K.Calls) -> None:
        calls(K.clip_ufunc, acc, self.lo, self.hi, acc)
        calls(np.rint, acc, acc if out is None else out, casting="unsafe")


class QuantizeKernel(K.Kernel):
    """float32 -> integer domain at a calibrated scale.

    The scratch has the :func:`~repro.hardware.quantization.grid_scale`
    dtype, so the scaled value — and therefore every rounding tie — is
    identical to calibration's.  NaN has no integer value: ``fmax`` maps
    it onto the grid's lower bound so the cast stays defined, and the
    plan's dequantize steps poison the sample's output instead.
    """

    def __init__(self, key, frac: int, quant: QuantConfig) -> None:
        super().__init__(key)
        self.frac = frac
        self.quant = quant
        self._dtype, self._scale = grid_scale(frac)
        self.label = f"quantize f{frac} [{quant.label}]"

    def record(self, inputs, arena, calls):
        (x,) = inputs
        q = arena.get(self.key, "q", x.shape, self._dtype)
        calls(np.multiply, x, self._scale, q)
        calls(np.fmax, q, self.quant.fm_qmin, q)
        calls(np.fmin, q, self.quant.fm_qmax, q)
        out = arena.get(self.key, "out", x.shape, self.quant.fm_storage)
        calls(np.rint, q, out, casting="unsafe")
        return out


class DequantizeKernel(K.Kernel):
    """Integer domain -> float32 (exact: the grid is a power of two).

    Reads the network input as its second operand: a sample whose input
    holds a NaN or an infinity has no integer image, so its rows come
    out NaN — as they would from the fp32 plan — while every other
    sample stays bit-exact.
    """

    def __init__(self, key, frac: int) -> None:
        super().__init__(key)
        self.frac = frac
        self._inv_scale = 2.0**-frac
        self.label = f"dequantize f{frac}"

    def record(self, inputs, arena, calls):
        x, src = inputs
        out = arena.get(self.key, "out", x.shape, np.float32)
        calls(np.copyto, out, x)
        calls(np.multiply, out, self._inv_scale, out)
        calls(_poison_nonfinite, out, src)  # the mask depends on the data
        return out


def _poison_nonfinite(out: np.ndarray, src: np.ndarray) -> None:
    """NaN every sample of ``out`` whose ``src`` sample is not finite."""
    out[~np.isfinite(src.reshape(len(src), -1)).all(axis=1)] = np.nan


def boundary_kernel(node: _Node, key) -> K.Kernel:
    """Lower a ``quantize`` / ``dequantize`` node emitted by calibration."""
    if node.kind == "quantize":
        return QuantizeKernel(key, node.attrs["frac"], node.attrs["quant"])
    return DequantizeKernel(key, node.attrs["frac"])


# --------------------------------------------------------------------- #
# calibration
# --------------------------------------------------------------------- #
def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class _Calibrator:
    """One walk over the optimized plan: scales, integer attrs, glue
    steps and the fake-quant reference values of the calibration batch
    (``held_bytes``: the most reference bytes held at once)."""

    def __init__(self, quant: QuantConfig, n_regs: int) -> None:
        self.quant = quant
        self.n_regs = n_regs
        self.nodes: list[_Node] = []
        self.cal: dict[int, np.ndarray] = {}   # reg -> reference values
        self.frac: dict[int, int] = {}         # int-domain reg -> frac bits
        self._fp_of: dict[int, int] = {}       # int reg -> dequantized reg
        self._int_of: dict[int, int] = {}      # fp reg -> quantized reg
        self.held_bytes = 0

    # -- plumbing ------------------------------------------------------ #
    def _hold(self, *extra: np.ndarray) -> None:
        """Note the bytes of every live reference value plus ``extra``."""
        live = {id(a): a.nbytes for a in (*self.cal.values(), *extra)}
        self.held_bytes = max(self.held_bytes, sum(live.values()))

    def emit(self, kind: str, inputs: list[int], value: np.ndarray,
             grid: int | None = None, out: int | None = None,
             **attrs) -> int:
        """Append a node writing ``out`` (a fresh register by default)
        whose reference value is ``value``, on frac-bits ``grid`` when
        it is in the integer domain."""
        if out is None:
            self.n_regs += 1
            out = self.n_regs - 1
        self.nodes.append(_Node(kind, list(inputs), out, attrs))
        self.cal[out] = value
        if grid is not None:
            self.frac[out] = grid
        return out

    def quantize_values(self, x: np.ndarray, frac: int | None = None,
                        scratch: bool = False):
        """Fake-quantize ``x`` on the fm grid (its own scale by default)
        through :func:`fixed_point_codes`; ``scratch=True`` lets it
        overwrite ``x``.  Returns float32 grid values and the frac bits."""
        bits = self.quant.fm_bits
        if frac is None:
            frac = fixed_point_fracbits(_max_abs(x), bits)
        v = fixed_point_codes(x, frac, bits, inplace=scratch)
        v /= 2.0**frac
        out = v.astype(np.float32, copy=False)
        self._hold(x, v, out)
        return out, frac

    def _run(self, kern: K.Kernel, xs: list[np.ndarray],
             pool=None) -> tuple[np.ndarray, float]:
        """Run a reference kernel one sample at a time on one arena.

        Returns the outputs as one batch, each max-pooled by ``pool``
        first when given, and their largest magnitude before the pool.
        """
        arena = BufferArena()
        held, peak = None, 0.0
        for b in range(len(xs[0])):
            out = kern.run([x[b : b + 1] for x in xs], arena)
            peak = max(peak, _max_abs(out))
            if pool is not None:
                out = K.MaxPoolKernel("cal", *pool).run([out], arena)
            if held is None:
                held = np.empty((len(xs[0]), *out.shape[1:]), out.dtype)
            held[b] = out[0]
        self._hold(held, *xs)
        return held, peak

    def _reference(self, kern: K.Kernel, regs: list[int]) -> np.ndarray:
        return self._run(kern, [self.cal[r] for r in regs])[0]

    def _requant_node(self, reg: int, frac: int, act=None, value=None,
                      out: int | None = None) -> int:
        """Integer -> integer grid change, optionally through a clamp."""
        if value is None:
            value, _ = self.quantize_values(self.cal[reg], frac)
        epi = IntEpilogue(None, act, frac, self.quant, np.float32)
        return self.emit("affine", [reg], value, frac, out,
                         scale=2.0 ** (frac - self.frac[reg]), epilogue=epi)

    # -- domain glue --------------------------------------------------- #
    def as_fp(self, reg: int) -> int:
        """Register holding ``reg``'s value in float32 (dequantize once)."""
        if reg not in self.frac:
            return reg
        if reg not in self._fp_of:
            self._fp_of[reg] = self.emit("dequantize", [reg, 0],
                                         self.cal[reg], frac=self.frac[reg])
        return self._fp_of[reg]

    def as_int(self, reg: int) -> int:
        """Register holding ``reg``'s value in the integer domain
        (quantize once, on the calibrated scale of this tensor)."""
        if reg in self.frac:
            return reg
        if reg not in self._int_of:
            q, frac = self.quantize_values(self.cal[reg])
            self._int_of[reg] = self.emit("quantize", [reg], q, frac,
                                          quant=self.quant, frac=frac)
        return self._int_of[reg]

    # -- integer convolutions ------------------------------------------ #
    def conv(self, a: dict, kind: str, x: np.ndarray, in_frac: int,
             emit_int: bool = True, pool=None) -> tuple[dict, np.ndarray, int]:
        """Quantize one folded conv/depthwise and its ``pool``.

        Returns the integer node attrs, the fake-quant output values and
        the output frac bits.  The reference runs the same kernel class
        on the real-valued fake-quant weights in the carrier dtype; its
        arithmetic is exact there, so the integer kernel reproduces it
        bit for bit.  Quantization is monotone non-decreasing, so it
        commutes with the max-pool: each sample is pooled raw, and the
        batch quantized once its largest pre-pool magnitude is known.
        """
        q = self.quant
        w = np.asarray(a["weight"], dtype=np.float32)
        w_frac = fixed_point_fracbits(_max_abs(w), q.w_bits)
        w_int = fixed_point_codes(w, w_frac, q.w_bits)
        w_q = w_int * 2.0**-w_frac
        b_q = None if a["bias"] is None else quantize_fixed(
            np.asarray(a["bias"], np.float32), q.w_bits)
        acc_frac = w_frac + in_frac
        # Largest accumulator magnitude over every input on the grid, in
        # accumulator units: the biggest per-output L1 norm of the
        # integer weights times the largest feature, plus the bias.
        # Every partial sum stays below it, whatever the summation order.
        # Python floats: the bias term overflows float32 for tiny inputs.
        l1 = np.abs(w_int).reshape(len(w_int), -1).sum(axis=1,
                                                        dtype=np.float64)
        bound = float(l1.max()) * 2.0 ** (q.fm_bits - 1)
        if b_q is not None and b_q.size:
            bound += _max_abs(b_q) * 2.0**acc_frac
        carrier = np.dtype(np.float32 if bound <= _F32_EXACT else np.float64)
        cls = K.ConvKernel if kind == "conv" else K.DWConvKernel
        ref = cls(("cal", kind), w_q, K.Epilogue(b_q, a["act"], carrier),
                  a["stride"], a["pad"])
        raw, peak = self._run(ref, [x], pool)
        out_frac = fixed_point_fracbits(peak, q.fm_bits)
        out_q, _ = self.quantize_values(raw, out_frac, scratch=True)
        shift = 2.0 ** (out_frac - acc_frac)
        attrs = {
            **a,
            "weight": w_int.astype(carrier) * carrier.type(shift),
            # The bias goes straight onto the output grid in float64;
            # the epilogue casts it to the carrier.
            "epilogue": IntEpilogue(
                None if b_q is None
                else b_q.astype(np.float64) * 2.0**out_frac,
                a["act"], out_frac, q, carrier, emit_int),
        }
        return attrs, out_q, out_frac

    # -- node dispatch -------------------------------------------------- #
    def _is_int(self, node: _Node) -> bool:
        """Static rule: does this planned op have an integer-domain rule?"""
        kind, a = node.kind, node.attrs
        if kind in ("conv", "dw"):
            return a["act"] in _INT_ACTS
        if kind == "bundle":
            return a["dw"]["act"] in _INT_ACTS and a["pw"]["act"] in _INT_ACTS
        ints = all(r in self.frac for r in node.inputs)
        if kind in ("maxpool", "concat", "slice", "reorg", "upsample",
                    "flatten"):
            return ints
        if kind == "avgpool":
            return ints and _is_pow2(a["kernel"])
        if kind == "act":
            return ints and a["act"] in _INT_ACTS
        return False  # affine, gap, linear, sigmoid/tanh/leaky acts, ...

    def lower(self, node: _Node) -> None:
        kind, a = node.kind, node.attrs
        if not self._is_int(node):
            # No integer rule: dequantize and run the fp32 kernel.
            regs = [self.as_fp(r) for r in node.inputs]
            value = self._reference(_lower_node(node, ("cal", kind)), regs)
            self.emit(kind, regs, value, out=node.out, **a)
            return
        if kind in ("conv", "dw"):
            reg = self.as_int(node.inputs[0])
            attrs, value, frac = self.conv(a, kind, self.cal[reg],
                                           self.frac[reg], pool=a.get("pool"))
            self.emit(kind, [reg], value, frac, node.out, **attrs)
        elif kind == "bundle":
            reg = self.as_int(node.inputs[0])
            dw, mid, mid_frac = self.conv(a["dw"], "dw", self.cal[reg],
                                          self.frac[reg], emit_int=False)
            pw, value, frac = self.conv(a["pw"], "conv", mid, mid_frac,
                                        pool=a.get("pool"))
            self.emit(kind, [reg], value, frac, node.out,
                      **{**a, "dw": dw, "pw": pw})
        elif kind == "act":
            reg = node.inputs[0]
            value = self._reference(_lower_node(node, ("cal", kind)), [reg])
            value, frac = self.quantize_values(value, scratch=True)
            self._requant_node(reg, frac, a["act"], value, node.out)
        elif kind == "avgpool":
            reg = node.inputs[0]
            frac = self.frac[reg]
            value = self._reference(_lower_node(node, ("cal", kind)), [reg])
            value, _ = self.quantize_values(value, frac, scratch=True)
            epi = IntEpilogue(None, None, frac, self.quant, np.float32)
            self.emit(kind, [reg], value, frac, node.out,
                      **{**a, "epilogue": epi})
        else:
            regs = list(node.inputs)
            if kind == "concat":  # unify scales onto the coarsest grid
                frac = min(self.frac[r] for r in regs)
                regs = [r if self.frac[r] == frac
                        else self._requant_node(r, frac) for r in regs]
            # The stock data-movement kernels are dtype-generic and
            # exact on grid values.
            value = self._reference(_lower_node(node, ("cal", kind)), regs)
            self.emit(kind, regs, value, self.frac[regs[0]], node.out, **a)

    def release(self, live: set[int]) -> None:
        """Drop reference values no later node reads (calibration holds
        one batch of activations per live register, not per register)."""
        keep = set(live)
        keep |= {self._int_of[r] for r in live if r in self._int_of}
        keep |= {self._fp_of[r] for r in live if r in self._fp_of}
        for r in [r for r in self.cal if r not in keep]:
            del self.cal[r]


def calibrate(nodes: list[_Node], n_regs: int, out_reg: int,
              quant: QuantConfig, calibration: np.ndarray,
              name: str = "net"):
    """Calibrate scales on ``calibration`` samples and rewrite the
    optimized plan for integer execution.

    Returns ``(nodes, n_regs, out_reg, stats)`` where ``stats`` carries
    the frozen per-register fractional bits and the calibration-batch
    reference output (the fake-quant golden values the integer plan
    reproduces exactly); :func:`compile_net` adds per-kernel dtypes.

    Reference kernels run one sample at a time, and a folded max-pool
    runs on each sample's raw output before the batch is quantized
    (quantization is monotone, so the two commute): the plan is the one
    a whole-batch pass would freeze.  The ``engine/quant_calibrate``
    span reports ``held_mb``, the most reference bytes held at once.
    """
    x = np.asarray(calibration, dtype=np.float32)
    if x.ndim == 3:
        x = x[None]
    if x.ndim != 4 or not len(x):
        raise ValueError(
            "calibration samples must be (N, C, H, W) with N >= 1, got "
            f"shape {x.shape}"
        )
    cal = _Calibrator(quant, n_regs)
    with obs.span("engine/quant_calibrate", model=name, quant=quant.label,
                  samples=x.shape[0]) as span:
        cal.cal[0] = x
        input_reg = cal.as_int(0)
        in_frac = cal.frac[input_reg]
        # Every consumer of the raw input reads the quantized input.
        for node in nodes:
            node.inputs = [input_reg if r == 0 else r for r in node.inputs]
        if out_reg == 0:
            out_reg = input_reg
        last_use = {r: i for i, node in enumerate(nodes) for r in node.inputs}
        for i, node in enumerate(nodes):
            cal.lower(node)
            cal.release({r for r, j in last_use.items() if j > i}
                        | {out_reg})
        out_frac = cal.frac.get(out_reg)
        out_reg = cal.as_fp(out_reg)
        span.set(held_mb=round(cal.held_bytes / 2**20, 3))
    stats = {
        "quant": quant,
        "frac_bits": dict(cal.frac),
        "input_frac": in_frac,
        "output_frac": out_frac,
        "reference_output": np.array(cal.cal[out_reg], copy=True),
    }
    return cal.nodes, cal.n_regs, out_reg, stats


def kernel_dtypes(kern: K.Kernel) -> dict:
    """Per-kernel dtype record for ``CompiledNet.quant_stats``/obs."""
    if isinstance(kern.epilogue, IntEpilogue):
        return {"label": kern.label,
                "storage": kern.epilogue.out_dtype.name,
                "carrier": kern.epilogue.carrier.name}
    if isinstance(kern, QuantizeKernel):
        return {"label": kern.label, "storage": kern.quant.fm_storage.name,
                "carrier": kern._dtype.name}
    # Dequantize and fp32/int-passthrough kernels: the output dtype
    # follows the inputs at run time.
    return {"label": kern.label, "storage": "passthrough",
            "carrier": "float32"}

"""Inference kernels for the compiled engine — one set for every precision.

Each kernel is a plain-ndarray operation: no :class:`~repro.nn.tensor.Tensor`
wrappers, no autograd closures, no graph bookkeeping.  Kernels draw every
scratch and output array from a :class:`~repro.nn.engine.arena.BufferArena`
by their own identity and a tag; the arena binds each request to a slab
planned by liveness, so repeated calls at a fixed input shape run
allocation-free.

A kernel does not compute; it *records*.  :meth:`Kernel.record` walks
the kernel's block loop once and appends every NumPy call it would make
(a ufunc, ``matmul`` or ``copyto``) to a :class:`Calls` list, each with
its argument views already bound to arena buffers.  The compiled forward
records its steps once per input shape and then replays the lists, so
no kernel code, arena lookup or view construction runs on later
forwards; :meth:`Kernel.run` records a step and makes its calls at once
(calibration and the tests' fresh-buffer oracle run kernels that way).

Precision is not a kernel family but a kernel's :class:`Epilogue`: the
convolution and pooling kernels accumulate in the epilogue's *carrier*
dtype, run any fused max-pool on that accumulator, and hand it to the
epilogue, which finishes it into the output dtype.  The float epilogue
below adds the folded bias and applies the fused activation; the integer
epilogue (:class:`repro.nn.engine.quant.IntEpilogue`) adds a pre-shifted
bias, clamps activation and saturation in one ``clip`` and rounds into
int8/int16.  Pooling before the epilogue is exact for both: the
compiler folds a pool only into a monotone non-decreasing epilogue,
which commutes with ``max``.

Variants are rules on shape, never options: 1x1 convolutions skip im2col
and run in cache-sized row blocks, depthwise convolutions run in
cache-sized channel blocks, and large depthwise maps accumulate tap by
tap instead of unfolding 9x larger columns.
"""

from __future__ import annotations

from functools import partial

import numpy as np

try:  # the ufunc behind np.clip, without its Python wrapper
    from numpy._core.umath import clip as clip_ufunc
except ImportError:  # pragma: no cover - NumPy < 2
    from numpy.core.umath import clip as clip_ufunc

from ..im2col import conv_out_size

__all__ = [
    "Calls",
    "Kernel",
    "Epilogue",
    "ConvKernel",
    "DWConvKernel",
    "FusedBundleKernel",
    "AffineKernel",
    "MaxPoolKernel",
    "AvgPoolKernel",
    "GlobalAvgPoolKernel",
    "ReorgKernel",
    "UpsampleKernel",
    "ConcatKernel",
    "SliceChannelsKernel",
    "LinearKernel",
    "FlattenKernel",
    "apply_activation",
]


class Calls(list):
    """NumPy calls recorded with their arguments bound.

    ``calls(f, *args, **kwargs)`` records ``f(*args, **kwargs)``;
    :meth:`run` makes every recorded call in order.  Arguments are
    views of arena buffers, so a replay reads and writes the same
    memory the recording bound.
    """

    def __call__(self, f, *args, **kwargs) -> None:
        self.append(partial(f, *args, **kwargs))

    def run(self) -> None:
        for call in self:
            call()


def _leaky_relu(out: np.ndarray, slope: float) -> None:
    np.multiply(out, slope, out=out, where=out < 0)


def apply_activation(out: np.ndarray, act: tuple | None,
                     calls: Calls) -> np.ndarray:
    """Record an activation spec applied in place; ``act`` is ``None`` or
    a tuple ``('relu',) | ('relu6',) | ('leaky_relu', slope) |
    ('sigmoid',) | ('tanh',)``."""
    if act is None:
        return out
    kind = act[0]
    if kind == "relu":
        calls(np.maximum, out, 0.0, out=out)
    elif kind == "relu6":
        calls(clip_ufunc, out, 0.0, 6.0, out)
    elif kind == "leaky_relu":
        calls(_leaky_relu, out, act[1])  # the mask depends on the data
    elif kind == "sigmoid":
        calls(np.negative, out, out)
        calls(np.exp, out, out)
        calls(np.add, out, 1.0, out)
        calls(np.reciprocal, out, out)
    elif kind == "tanh":
        calls(np.tanh, out, out)
    else:  # pragma: no cover - compiler validates
        raise ValueError(f"unknown activation {act!r}")
    return out


class Epilogue:
    """Float epilogue: folded bias, then the fused activation.

    ``carrier`` is the accumulator dtype of the kernel that owns this
    epilogue (float32 for the fp32 engine; calibration runs the same
    kernels in float64 to compute the fake-quant reference).
    """

    tag = ""  # label suffix naming the precision

    def __init__(self, bias: np.ndarray | None = None,
                 act: tuple | None = None, carrier=np.float32) -> None:
        self.carrier = self.out_dtype = np.dtype(carrier)
        self.bias = None if bias is None else np.asarray(bias, self.carrier)
        self.act = act

    def __call__(self, acc: np.ndarray, out: np.ndarray | None,
                 calls: Calls, axis: int = 1, c0: int = 0) -> None:
        """Record finishing ``acc`` (channels on ``axis``, starting at
        channel ``c0``) into ``out``, or in place when ``out`` is
        ``None``."""
        if self.bias is not None:
            bias = self.bias[c0 : c0 + acc.shape[axis]]
            calls(np.add, acc,
                  bias.reshape((-1,) + (1,) * (acc.ndim - 1 - axis)), acc)
        self.store(acc, out, calls)

    def store(self, acc: np.ndarray, out: np.ndarray | None,
              calls: Calls) -> None:
        apply_activation(acc, self.act, calls)
        if out is not None:
            calls(np.copyto, out, acc)


def _pool_label(pool) -> str:
    return "" if pool is None else f"+maxpool{pool[0]}/s{pool[1]}"


def maxpool(x: np.ndarray, kernel: int, stride: int, arena, owner,
            calls: Calls) -> np.ndarray:
    """``kernel`` x ``kernel`` / ``stride`` max over the last two axes.

    Separable — rows first (contiguous reads), then columns on the
    pooled-height intermediate — which is half the traffic of a k*k
    strided-tap reduction and works for any leading layout (NCHW maps,
    channel-major accumulators, row blocks).
    """
    k, s = kernel, stride
    *lead, h, w = x.shape
    oh, ow = conv_out_size(h, k, s, 0), conv_out_size(w, k, s, 0)
    rows = arena.get(owner, "poolrows", (*lead, oh, w), x.dtype)
    calls(np.maximum, x[..., : s * oh : s, :],
          x[..., k - 1 : k - 1 + s * oh : s, :], out=rows)
    for i in range(1, k - 1):
        calls(np.maximum, rows, x[..., i : i + s * oh : s, :], out=rows)
    out = arena.get(owner, "pool", (*lead, oh, ow), x.dtype)
    calls(np.maximum, rows[..., : s * ow : s],
          rows[..., k - 1 : k - 1 + s * ow : s], out=out)
    for j in range(1, k - 1):
        calls(np.maximum, out, rows[..., j : j + s * ow : s], out=out)
    return out


def _pad_cm(arena, owner, x: np.ndarray, pad: int,
            calls: Calls) -> np.ndarray:
    """``x`` (N, C, H, W) as a zero-padded channel-major (C, N, H', W')
    block in the input's own dtype (a view when ``pad`` is 0).  The
    border is zeroed once at allocation and never written again."""
    if pad == 0:
        return x.transpose(1, 0, 2, 3)
    n, c, h, w = x.shape
    xp = arena.get(owner, "pad", (c, n, h + 2 * pad, w + 2 * pad), x.dtype,
                   zero=True)
    calls(np.copyto, xp[:, :, pad : pad + h, pad : pad + w],
          x.transpose(1, 0, 2, 3))
    return xp


def im2col_cm(arena, owner, xp: np.ndarray, kh: int, kw: int, stride: int,
              dtype, calls: Calls) -> tuple[np.ndarray, int, int]:
    """Channel-major im2col of a padded (C, N, H', W') block: returns
    (cols (C*kh*kw, N*OH*OW), OH, OW).

    Each sample's ``OH*OW`` columns feed one ``(COUT, K) @ (K, OH*OW)``
    GEMM, and ``dtype`` lets the columns land in the kernel's carrier
    (integer feature maps are widened by the window copy itself, no
    extra pass).
    """
    c, n, hp, wp = xp.shape
    oh = conv_out_size(hp, kh, stride, 0)
    ow = conv_out_size(wp, kw, stride, 0)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw),
                                                       axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    cols = arena.get(owner, "cols", (c * kh * kw, n * oh * ow), dtype)
    calls(np.copyto, cols.reshape(c, kh, kw, n, oh, ow),
          windows.transpose(0, 4, 5, 1, 2, 3))
    return cols, oh, ow


class Kernel:
    """Base class: a compiled step with a stable arena identity."""

    label = "kernel"
    epilogue: Epilogue | None = None
    #: Cache budget of one block of work: depthwise kernels run channel
    #: blocks and pointwise kernels row blocks of about this many bytes,
    #: so each pass over a block — products, GEMM, pool, epilogue — hits
    #: cache instead of DRAM.
    BLOCK_BYTES = 832 * 1024

    def __init__(self, key) -> None:
        self.key = key

    def record(self, inputs: list[np.ndarray], arena,
               calls: Calls) -> np.ndarray:
        """Append this step's NumPy calls on ``inputs`` to ``calls`` and
        return the array they leave the result in."""
        raise NotImplementedError

    def run(self, inputs: list[np.ndarray], arena) -> np.ndarray:
        """Record the step, then make its calls."""
        calls = Calls()
        out = self.record(inputs, arena, calls)
        calls.run()
        return out

    def _acc(self, arena, out: np.ndarray) -> np.ndarray:
        """Accumulator for ``out``: ``out`` itself when it already has
        the carrier dtype (the epilogue then runs in place)."""
        if out.dtype == self.epilogue.carrier:
            return out
        return arena.get(self.key, "acc", out.shape, self.epilogue.carrier)


class ConvKernel(Kernel):
    """Dense convolution (+ fused max-pool) + epilogue.

    1x1/stride-1/pad-0 convolutions (half of every SkyNet Bundle) skip
    im2col entirely and run in cache-sized row blocks
    (:meth:`_row_blocks`); the rest unfold the microbatch with one
    channel-major im2col and run one GEMM per sample.
    """

    def __init__(
        self,
        key,
        weight: np.ndarray,
        epilogue: Epilogue,
        stride: int = 1,
        pad: int = 0,
        pool: tuple[int, int] | None = None,
    ) -> None:
        super().__init__(key)
        self.epilogue = epilogue
        self.weight = np.ascontiguousarray(weight, dtype=epilogue.carrier)
        self.stride = stride
        self.pad = pad
        self.pool = pool
        cout, cin, kh, kw = self.weight.shape
        self.kh, self.kw = kh, kw
        self.pointwise = kh == kw == 1 and stride == 1 and pad == 0
        self._wmat = self.weight.reshape(cout, cin * kh * kw)
        act = epilogue.act
        self.label = (f"conv{kh}x{kw} {cin}->{cout}"
                      f"{f'+{act[0]}' if act else ''}{_pool_label(pool)}"
                      f"{epilogue.tag}")

    def record(self, inputs, arena, calls):
        (x,) = inputs
        n, cin, h, w = x.shape
        cout = self._wmat.shape[0]
        carrier = self.epilogue.carrier
        if self.pointwise and (self.pool is None
                               or self.pool[0] == self.pool[1]):
            if x.dtype != carrier:
                xc = arena.get(self.key, "xin", x.shape, carrier)
                calls(np.copyto, xc, x)
                x = xc
            return self._row_blocks(x, arena, calls)
        xp = _pad_cm(arena, self.key, x, self.pad, calls)
        cols, oh, ow = im2col_cm(arena, self.key, xp, self.kh, self.kw,
                                 self.stride, carrier, calls)
        acc = arena.get(self.key, "acc", (cout, n, oh, ow), carrier)
        # One GEMM per sample: BLAS rounding depends on the column
        # count, and a sample's result must not depend on its batch.
        p = oh * ow
        acc2d = acc.reshape(cout, n * p)
        for b in range(n):
            calls(np.matmul, self._wmat, cols[:, b * p:(b + 1) * p],
                  acc2d[:, b * p:(b + 1) * p])
        if self.pool is not None:
            acc = maxpool(acc, *self.pool, arena, self.key, calls)
        # (C, N, H, W) -> NCHW; one sample leaves the layouts identical,
        # and the epilogue can then run in place.
        nchw = acc.transpose(1, 0, 2, 3)
        if nchw.dtype == self.epilogue.out_dtype and nchw.flags.c_contiguous:
            self.epilogue(acc, None, calls, axis=0)
            return nchw
        out = arena.get(self.key, "out", nchw.shape, self.epilogue.out_dtype)
        self.epilogue(acc, out.transpose(1, 0, 2, 3), calls, axis=0)
        return out

    def _row_blocks(self, x: np.ndarray, arena, calls: Calls) -> np.ndarray:
        """1x1 conv (+ pool) + epilogue, one block of rows at a time.

        Each block's accumulator fits :attr:`Kernel.BLOCK_BYTES`, so the
        GEMM, the pool and every epilogue pass run while it is
        cache-resident instead of streaming the full pre-pool map
        through DRAM.  The pool window equals its stride here, so blocks
        of whole windows pool exactly.
        """
        n, cin, h, w = x.shape
        cout = self._wmat.shape[0]
        s = 1 if self.pool is None else self.pool[1]
        out = arena.get(self.key, "out", (n, cout, h // s, w // s),
                        self.epilogue.out_dtype)
        # An unpooled block is written by the GEMM straight into the
        # output when no cast is needed.
        direct = s == 1 and out.dtype == self.epilogue.carrier
        rows = self.BLOCK_BYTES // (cout * w * self.epilogue.carrier.itemsize)
        rows = min(h, max(s, rows - rows % s))
        for b in range(n):
            for r0 in range(0, h, rows):
                r1 = min(h, r0 + rows)
                dst = out[b, :, r0 // s : r1 // s]
                acc = (dst if direct else arena.get(
                    self.key, "acc", (cout, r1 - r0, w),
                    self.epilogue.carrier))
                calls(np.matmul, self._wmat, x[b, :, r0:r1].reshape(cin, -1),
                      acc.reshape(cout, -1))
                if self.pool is not None:
                    acc = maxpool(acc, *self.pool, arena, self.key, calls)
                self.epilogue(acc, None if direct else dst, calls, axis=0)
        return out


class DWConvKernel(Kernel):
    """Depthwise convolution + epilogue.

    Small maps unfold im2col columns and run one batched matmul of tiny
    ``(1, k*k) @ (k*k, OH*OW)`` factors; from :attr:`TAP_MIN_PIXELS`
    output pixels on, the 9x larger column matrix costs more memory
    traffic than it saves, and the k*k taps accumulate as vectorized
    multiply-adds over strided views of the padded input instead.  Both
    variants work one cache-sized channel block at a time, and both are
    chosen and sized per sample, so a sample's rounding never depends
    on its batch.
    """

    #: Output pixels per sample (OH*OW) from which taps beat im2col.
    TAP_MIN_PIXELS = 6400

    def __init__(
        self,
        key,
        weight: np.ndarray,
        epilogue: Epilogue,
        stride: int = 1,
        pad: int = 0,
    ) -> None:
        super().__init__(key)
        self.epilogue = epilogue
        self.weight = np.ascontiguousarray(weight, dtype=epilogue.carrier)
        self.stride = stride
        self.pad = pad
        c, _, kh, kw = self.weight.shape
        self.kh, self.kw = kh, kw
        self._wmat = self.weight.reshape(c, 1, kh * kw)
        # One (C, 1, 1, 1) weight column per tap, for broadcasting.
        self._taps = [(i, j, np.ascontiguousarray(
            self.weight[:, 0, i, j]).reshape(c, 1, 1, 1))
            for i in range(kh) for j in range(kw)]
        act = epilogue.act
        self.label = (f"dwconv{kh}x{kw} c{c}{f'+{act[0]}' if act else ''}"
                      f"{epilogue.tag}")

    def record(self, inputs, arena, calls):
        """Channels run in blocks of :attr:`Kernel.BLOCK_BYTES`: each block
        is padded, convolved (tap products, or a column copy and its
        matmul) and finished by the epilogue while it is cache-resident.
        The padded block keeps the *storage* dtype: integer feature maps
        are widened by the tap products or the column copy themselves."""
        (x,) = inputs
        n, c, h, w = x.shape
        s, p, k2 = self.stride, self.pad, self.kh * self.kw
        oh = conv_out_size(h, self.kh, s, p)
        ow = conv_out_size(w, self.kw, s, p)
        carrier = self.epilogue.carrier
        out = arena.get(self.key, "out", (n, c, oh, ow),
                        self.epilogue.out_dtype)
        out_cm = out.transpose(1, 0, 2, 3)
        taps = oh * ow >= self.TAP_MIN_PIXELS
        per_channel = n * oh * ow * carrier.itemsize * (2 if taps else k2 + 1)
        cb = min(c, max(1, self.BLOCK_BYTES // per_channel))
        block = (cb, n, oh, ow)
        # The GEMM needs a contiguous target (one sample); the tap ufuncs
        # write through views.
        in_place = out.dtype == carrier and (taps or n == 1)
        scratch = None if in_place else arena.get(self.key, "acc", block,
                                                  carrier)
        xp = None if p == 0 else arena.get(
            self.key, "pad", (cb, n, h + 2 * p, w + 2 * p), x.dtype,
            zero=True)  # the border is zeroed once, never written
        tb = arena.get(self.key, "tap", block, carrier) if taps else None
        for c0 in range(0, c, cb):
            c1 = min(c0 + cb, c)
            xb = x[:, c0:c1].transpose(1, 0, 2, 3)
            if xp is not None:
                calls(np.copyto, xp[: c1 - c0, :, p : p + h, p : p + w], xb)
                xb = xp[: c1 - c0]
            ob = out_cm[c0:c1]
            acc = ob if in_place else scratch[: c1 - c0]
            if taps:
                tap = tb[: c1 - c0]
                for t, (i, j, wt) in enumerate(self._taps):
                    win = xb[:, :, i : i + s * oh : s, j : j + s * ow : s]
                    calls(np.multiply, win, wt[c0:c1], tap if t else acc)
                    if t:
                        calls(np.add, acc, tap, acc)
            else:
                cols, _, _ = im2col_cm(arena, self.key, xb, self.kh, self.kw,
                                       s, carrier, calls)
                calls(np.matmul, self._wmat[c0:c1, None],
                      cols.reshape(c1 - c0, k2, n, -1).transpose(0, 2, 1, 3),
                      acc.reshape(c1 - c0, n, 1, -1))
            self.epilogue(acc, None if in_place else ob, calls, axis=0, c0=c0)
        return out


class FusedBundleKernel(Kernel):
    """One SkyNet Bundle as a single step: DWConv -> epilogue -> PWConv1x1
    (-> fused max-pool) -> epilogue.

    Both BatchNorms are already folded into the two weight tensors.  The
    depthwise half hands its finished map to the pointwise half in the
    depthwise carrier (an integer plan skips the round trip through
    int8).  Both halves work in cache-sized blocks, so the one full-size
    intermediate is the depthwise output, written once and read once.
    """

    def __init__(self, key, dw: DWConvKernel, pw: ConvKernel) -> None:
        super().__init__(key)
        self.dw = dw
        self.pw = pw
        self.epilogue = pw.epilogue
        self.label = f"bundle[{dw.label} | {pw.label}]"

    def record(self, inputs, arena, calls):
        return self.pw.record([self.dw.record(inputs, arena, calls)], arena,
                              calls)


class AffineKernel(Kernel):
    """Element-wise per-channel (or scalar) ``scale * x`` + epilogue.

    An unfolded eval-mode BatchNorm (shift = epilogue bias), a standalone
    activation (no scale), and — with an integer epilogue — a grid change
    between two integer scales.
    """

    def __init__(self, key, scale, epilogue: Epilogue) -> None:
        super().__init__(key)
        self.epilogue = epilogue
        self.scale = (None if scale is None
                      else np.asarray(scale, dtype=epilogue.carrier))
        act = epilogue.act
        name = "act" if self.scale is None else "affine"
        self.label = f"{name}{f':{act[0]}' if act else ''}{epilogue.tag}"

    def record(self, inputs, arena, calls):
        (x,) = inputs
        out = arena.get(self.key, "out", x.shape, self.epilogue.out_dtype)
        acc = self._acc(arena, out)
        if self.scale is None:
            calls(np.copyto, acc, x)
        else:
            calls(np.multiply, x,
                  self.scale.reshape((-1,) + (1,) * (x.ndim - 2)), acc)
        self.epilogue(acc, None if acc is out else out, calls)
        return out


class MaxPoolKernel(Kernel):
    """Max pooling; dtype-generic (an integer map pools on its own grid)."""

    def __init__(self, key, kernel: int, stride: int) -> None:
        super().__init__(key)
        self.kernel = kernel
        self.stride = stride
        self.label = f"maxpool{kernel}x{kernel}/s{stride}"

    def record(self, inputs, arena, calls):
        return maxpool(inputs[0], self.kernel, self.stride, arena, self.key,
                       calls)


class AvgPoolKernel(Kernel):
    """Average pooling in the epilogue's carrier (an integer plan uses it
    for power-of-two windows, where the divide is an exact shift)."""

    def __init__(self, key, kernel: int, stride: int,
                 epilogue: Epilogue | None = None) -> None:
        super().__init__(key)
        self.kernel = kernel
        self.stride = stride
        self.epilogue = epilogue if epilogue is not None else Epilogue()
        self.label = f"avgpool{kernel}x{kernel}/s{stride}{self.epilogue.tag}"

    def record(self, inputs, arena, calls):
        (x,) = inputs
        n, c, h, w = x.shape
        k, s = self.kernel, self.stride
        oh = conv_out_size(h, k, s, 0)
        ow = conv_out_size(w, k, s, 0)
        out = arena.get(self.key, "out", (n, c, oh, ow),
                        self.epilogue.out_dtype)
        acc = self._acc(arena, out)
        # Accumulate tap-by-tap over strided slices rather than reducing
        # a sliding-window view: an order of magnitude faster.
        calls(np.copyto, acc, x[:, :, : s * oh : s, : s * ow : s])
        for i in range(k):
            for j in range(k):
                if i or j:
                    calls(np.add, acc,
                          x[:, :, i : i + s * oh : s, j : j + s * ow : s], acc)
        calls(np.multiply, acc, 1.0 / (k * k), acc)
        self.epilogue(acc, None if acc is out else out, calls)
        return out


class GlobalAvgPoolKernel(Kernel):
    label = "global_avg_pool"

    def record(self, inputs, arena, calls):
        (x,) = inputs
        n, c = x.shape[:2]
        out = arena.get(self.key, "out", (n, c), np.float32)
        calls(np.mean, x, axis=(2, 3), out=out)
        return out


class ReorgKernel(Kernel):
    """Space-to-depth rearrangement, identical to :func:`repro.nn.functional.reorg`."""

    def __init__(self, key, stride: int) -> None:
        super().__init__(key)
        self.stride = stride
        self.label = f"reorg/s{stride}"

    def record(self, inputs, arena, calls):
        (x,) = inputs
        n, c, h, w = x.shape
        s = self.stride
        if h % s or w % s:
            raise ValueError(f"reorg: spatial dims ({h},{w}) not divisible by {s}")
        out = arena.get(self.key, "out", (n, c * s * s, h // s, w // s),
                        x.dtype)
        calls(
            np.copyto,
            out.reshape(n, s, s, c, h // s, w // s),
            x.reshape(n, c, h // s, s, w // s, s).transpose(0, 3, 5, 1, 2, 4),
        )
        return out


class UpsampleKernel(Kernel):
    def __init__(self, key, scale: int) -> None:
        super().__init__(key)
        self.scale = scale
        self.label = f"upsample x{scale}"

    def record(self, inputs, arena, calls):
        (x,) = inputs
        n, c, h, w = x.shape
        s = self.scale
        out = arena.get(self.key, "out", (n, c, h * s, w * s), x.dtype)
        calls(np.copyto, out.reshape(n, c, h, s, w, s),
              x[:, :, :, None, :, None])
        return out


class ConcatKernel(Kernel):
    """Channel concatenation (the B/C bypass merge)."""

    label = "concat"

    def record(self, inputs, arena, calls):
        n, _, h, w = inputs[0].shape
        c = sum(a.shape[1] for a in inputs)
        out = arena.get(self.key, "out", (n, c, h, w), inputs[0].dtype)
        calls(np.concatenate, inputs, axis=1, out=out)
        return out


class SliceChannelsKernel(Kernel):
    """Channel slice view (grouped-conv input split); allocation-free."""

    def __init__(self, key, start: int, stop: int) -> None:
        super().__init__(key)
        self.start = start
        self.stop = stop
        self.label = f"slice[{start}:{stop}]"

    def record(self, inputs, arena, calls):
        return inputs[0][:, self.start : self.stop]


class LinearKernel(Kernel):
    def __init__(self, key, weight: np.ndarray, epilogue: Epilogue) -> None:
        super().__init__(key)
        self.epilogue = epilogue
        self._wt = np.ascontiguousarray(
            np.asarray(weight, dtype=np.float32).T
        )
        self.label = f"linear {self._wt.shape[0]}->{self._wt.shape[1]}"

    def record(self, inputs, arena, calls):
        (x,) = inputs
        out = arena.get(self.key, "out", (x.shape[0], self._wt.shape[1]),
                        np.float32)
        calls(np.matmul, x, self._wt, out)
        self.epilogue(out, None, calls)
        return out


class FlattenKernel(Kernel):
    """``(N, ...)`` -> ``(N, -1)``: a view, or a recorded copy when the
    input's layout has no flat view (a reshape copy made while recording
    would be stale on every replay)."""

    label = "flatten"

    def record(self, inputs, arena, calls):
        (x,) = inputs
        flat = x.reshape(len(x), -1)
        if np.may_share_memory(flat, x):
            return flat
        out = arena.get(self.key, "out", flat.shape, x.dtype)
        calls(np.copyto, out.reshape(x.shape), x)
        return out

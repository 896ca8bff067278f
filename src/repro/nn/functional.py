"""Functional neural-network primitives with custom backward passes.

Each function here takes and returns :class:`~repro.nn.tensor.Tensor`
objects and registers an efficient hand-written gradient.  All image
tensors are NCHW.
"""

from __future__ import annotations

import numpy as np

from .im2col import col2im, conv_out_size, im2col
from .tensor import Tensor, as_tensor

__all__ = [
    "conv2d",
    "conv_transpose2d",
    "depthwise_conv2d",
    "linear",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "batch_norm2d",
    "reorg",
    "upsample_nearest",
    "log_softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "relu",
    "relu6",
    "sigmoid",
]


# --------------------------------------------------------------------- #
# convolutions
# --------------------------------------------------------------------- #
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    pad: int = 0,
) -> Tensor:
    """Standard 2-D convolution.

    Parameters
    ----------
    x: (N, Cin, H, W) input.
    weight: (Cout, Cin, KH, KW) kernel.
    bias: optional (Cout,) bias.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ValueError(f"conv2d channel mismatch: input {cin}, weight {cin_w}")
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)

    # PWConv1x1 fast path (half of every SkyNet Bundle): a 1x1 kernel
    # with unit stride and no padding is a plain channel mixing, so the
    # column matrix is just a reshape view — no im2col unfold needed.
    pointwise = kh == 1 and kw == 1 and stride == 1 and pad == 0
    if pointwise:
        cols = x.data.reshape(n, cin, h * w)
    else:
        cols = im2col(x.data, kh, kw, stride, pad)  # (N, Cin*KH*KW, OH*OW)
    wmat = weight.data.reshape(cout, -1)  # (Cout, Cin*KH*KW)
    out = np.einsum("ok,nkp->nop", wmat, cols, optimize=True)
    out = out.reshape(n, cout, oh, ow)
    if bias is not None:
        out = out + bias.data.reshape(1, cout, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray):
        gmat = g.reshape(n, cout, oh * ow)
        gw = np.einsum("nop,nkp->ok", gmat, cols, optimize=True).reshape(
            weight.shape
        )
        gcols = np.einsum("ok,nop->nkp", wmat, gmat, optimize=True)
        if pointwise:
            gx = gcols.reshape(x.shape)
        else:
            gx = col2im(gcols, x.shape, kh, kw, stride, pad)
        if bias is None:
            return (gx, gw)
        gb = g.sum(axis=(0, 2, 3))
        return (gx, gw, gb)

    return Tensor._make(out, parents, backward)


def depthwise_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    pad: int = 0,
) -> Tensor:
    """Depthwise 2-D convolution (one filter per channel).

    Parameters
    ----------
    x: (N, C, H, W) input.
    weight: (C, 1, KH, KW) per-channel kernels.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    n, c, h, w = x.shape
    cw, one, kh, kw = weight.shape
    if cw != c or one != 1:
        raise ValueError(
            f"depthwise_conv2d expects weight (C,1,KH,KW) with C={c}, got "
            f"{weight.shape}"
        )
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)

    cols = im2col(x.data, kh, kw, stride, pad).reshape(n, c, kh * kw, oh * ow)
    wmat = weight.data.reshape(c, kh * kw)
    out = np.einsum("ck,nckp->ncp", wmat, cols, optimize=True).reshape(
        n, c, oh, ow
    )
    if bias is not None:
        out = out + bias.data.reshape(1, c, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray):
        gmat = g.reshape(n, c, oh * ow)
        gw = np.einsum("ncp,nckp->ck", gmat, cols, optimize=True).reshape(
            weight.shape
        )
        gcols = np.einsum("ck,ncp->nckp", wmat, gmat, optimize=True)
        gx = col2im(
            gcols.reshape(n, c * kh * kw, oh * ow), x.shape, kh, kw, stride, pad
        )
        if bias is None:
            return (gx, gw)
        gb = g.sum(axis=(0, 2, 3))
        return (gx, gw, gb)

    return Tensor._make(out, parents, backward)


def conv_transpose2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    pad: int = 0,
) -> Tensor:
    """Transposed (fractionally-strided) 2-D convolution.

    The adjoint of :func:`conv2d`: output spatial size is
    ``(in - 1) * stride - 2 * pad + kernel``.

    Parameters
    ----------
    x: (N, Cin, H, W) input.
    weight: (Cin, Cout, KH, KW) kernel (conv-transpose convention).
    bias: optional (Cout,) bias.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    n, cin, h, w = x.shape
    cin_w, cout, kh, kw = weight.shape
    if cin != cin_w:
        raise ValueError(
            f"conv_transpose2d channel mismatch: input {cin}, weight {cin_w}"
        )
    oh = (h - 1) * stride - 2 * pad + kh
    ow = (w - 1) * stride - 2 * pad + kw
    if oh <= 0 or ow <= 0:
        raise ValueError("output size would be non-positive")

    wmat = weight.data.reshape(cin, cout * kh * kw)
    xmat = x.data.reshape(n, cin, h * w)
    # columns of the *adjoint* conv: (N, Cout*KH*KW, H*W)
    cols = np.einsum("ck,ncp->nkp", wmat, xmat, optimize=True)
    out = col2im(cols, (n, cout, oh, ow), kh, kw, stride, pad)
    if bias is not None:
        out = out + bias.data.reshape(1, cout, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray):
        gcols = im2col(g, kh, kw, stride, pad)  # (N, Cout*KH*KW, H*W)
        gx = np.einsum("ck,nkp->ncp", wmat, gcols, optimize=True).reshape(
            x.shape
        )
        gw = np.einsum("ncp,nkp->ck", xmat, gcols, optimize=True).reshape(
            weight.shape
        )
        if bias is None:
            return (gx, gw)
        gb = g.sum(axis=(0, 2, 3))
        return (gx, gw, gb)

    return Tensor._make(out, parents, backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with x (N, In), weight (Out, In)."""
    out = x.matmul(weight.T)
    if bias is not None:
        out = out + bias
    return out


# --------------------------------------------------------------------- #
# pooling
# --------------------------------------------------------------------- #
def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows."""
    stride = kernel if stride is None else stride
    x = as_tensor(x)
    n, c, h, w = x.shape
    oh = conv_out_size(h, kernel, stride, 0)
    ow = conv_out_size(w, kernel, stride, 0)

    windows = np.lib.stride_tricks.sliding_window_view(
        x.data, (kernel, kernel), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    flat = windows.reshape(n, c, oh, ow, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward(g: np.ndarray):
        gcols = np.zeros((n, c, oh, ow, kernel * kernel), dtype=g.dtype)
        np.put_along_axis(gcols, arg[..., None], g[..., None], axis=-1)
        # reorganize to col2im layout: (N, C*k*k, OH*OW)
        gcols = gcols.reshape(n, c, oh * ow, kernel * kernel)
        gcols = gcols.transpose(0, 1, 3, 2).reshape(
            n, c * kernel * kernel, oh * ow
        )
        gx = col2im(gcols, x.shape, kernel, kernel, stride, 0)
        return (gx,)

    return Tensor._make(np.ascontiguousarray(out), (x,), backward)


def avg_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Average pooling."""
    stride = kernel if stride is None else stride
    x = as_tensor(x)
    n, c, h, w = x.shape
    oh = conv_out_size(h, kernel, stride, 0)
    ow = conv_out_size(w, kernel, stride, 0)
    windows = np.lib.stride_tricks.sliding_window_view(
        x.data, (kernel, kernel), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    out = windows.mean(axis=(-1, -2))
    inv = 1.0 / (kernel * kernel)

    def backward(g: np.ndarray):
        gcols = np.broadcast_to(
            (g * inv)[..., None], (n, c, oh, ow, kernel * kernel)
        )
        gcols = gcols.reshape(n, c, oh * ow, kernel * kernel)
        gcols = gcols.transpose(0, 1, 3, 2).reshape(
            n, c * kernel * kernel, oh * ow
        )
        gx = col2im(gcols, x.shape, kernel, kernel, stride, 0)
        return (gx,)

    return Tensor._make(np.ascontiguousarray(out), (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Spatial global average pooling: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


# --------------------------------------------------------------------- #
# normalization
# --------------------------------------------------------------------- #
def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over the channel axis of NCHW input.

    ``running_mean``/``running_var`` are plain ndarrays updated in place
    when ``training`` is true (exponential moving average with
    ``momentum``).
    """
    x = as_tensor(x)
    n, c, h, w = x.shape
    axes = (0, 2, 3)
    m = n * h * w

    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean += momentum * (mean - running_mean)
        running_var += momentum * (var * m / max(m - 1, 1) - running_var)
    else:
        mean, var = running_mean, running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean.reshape(1, c, 1, 1)) * inv_std.reshape(1, c, 1, 1)
    out = gamma.data.reshape(1, c, 1, 1) * xhat + beta.data.reshape(1, c, 1, 1)

    def backward(g: np.ndarray):
        gg = (g * xhat).sum(axis=axes)
        gb = g.sum(axis=axes)
        if training:
            # full batch-norm backward through mean/var
            gxhat = g * gamma.data.reshape(1, c, 1, 1)
            t1 = gxhat
            t2 = gxhat.mean(axis=axes, keepdims=True)
            t3 = xhat * (gxhat * xhat).mean(axis=axes, keepdims=True)
            gx = (t1 - t2 - t3) * inv_std.reshape(1, c, 1, 1)
        else:
            gx = g * (gamma.data * inv_std).reshape(1, c, 1, 1)
        return (gx, gg, gb)

    return Tensor._make(out, (x, gamma, beta), backward)


# --------------------------------------------------------------------- #
# spatial rearrangement
# --------------------------------------------------------------------- #
def reorg(x: Tensor, stride: int = 2) -> Tensor:
    """Feature-map reordering (space-to-depth), Fig. 5 of the paper.

    Rearranges an (N, C, H, W) tensor into (N, C*s*s, H/s, W/s) without
    information loss, so a high-resolution bypass can be concatenated with
    lower-resolution feature maps after a pooling layer.  The pattern also
    enlarges the receptive field compared with pooling (Redmon & Farhadi,
    2017).
    """
    x = as_tensor(x)
    n, c, h, w = x.shape
    s = stride
    if h % s or w % s:
        raise ValueError(f"reorg: spatial dims ({h},{w}) not divisible by {s}")
    data = (
        x.data.reshape(n, c, h // s, s, w // s, s)
        .transpose(0, 3, 5, 1, 2, 4)
        .reshape(n, c * s * s, h // s, w // s)
    )

    def backward(g: np.ndarray):
        gx = (
            g.reshape(n, s, s, c, h // s, w // s)
            .transpose(0, 3, 4, 1, 5, 2)
            .reshape(n, c, h, w)
        )
        return (gx,)

    return Tensor._make(np.ascontiguousarray(data), (x,), backward)


def upsample_nearest(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour upsampling of NCHW input by an integer factor."""
    x = as_tensor(x)
    data = x.data.repeat(scale, axis=2).repeat(scale, axis=3)
    n, c, h, w = x.shape

    def backward(g: np.ndarray):
        gx = g.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5))
        return (gx,)

    return Tensor._make(data, (x,), backward)


# --------------------------------------------------------------------- #
# activations (thin wrappers for API symmetry)
# --------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    return as_tensor(x).relu()


def relu6(x: Tensor) -> Tensor:
    return as_tensor(x).relu6()


def sigmoid(x: Tensor) -> Tensor:
    return as_tensor(x).sigmoid()


# --------------------------------------------------------------------- #
# losses
# --------------------------------------------------------------------- #
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between (N, K) logits and (N,) integer labels."""
    logp = log_softmax(logits, axis=-1)
    n = logits.shape[0]
    picked = logp[np.arange(n), np.asarray(labels)]
    return -picked.mean()


def binary_cross_entropy_with_logits(logits: Tensor, target) -> Tensor:
    """Numerically stable BCE on raw logits, elementwise-mean."""
    logits, target = as_tensor(logits), as_tensor(target)
    x, t = logits.data, target.data
    data = np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x)))
    sig = 1.0 / (1.0 + np.exp(-x))

    def backward(g: np.ndarray):
        return (g * (sig - t), g * (-x))

    elem = Tensor._make(data, (logits, target), backward)
    return elem.mean()

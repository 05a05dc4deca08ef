"""Differentiable layer primitives with exact forward and backward passes.

Every layer is a pair of functions, ``*_forward(x, params) -> (y, cache)``
and ``*_backward(dy, cache) -> grads``, operating on (N, C, H, W) numpy arrays.
They read their array arguments without changing them, with one exception:
``relu_forward`` clamps its input in place, so it must be given an array its
caller owns (``bn_relu`` gives it the batch norm's fresh output). Train-mode
batch norm also updates its running statistics.
Convolution lowers to a channel-major patch matrix (im2col) of shape
(C_in*k*k, N*H_out*W_out), built one tile at a time into one buffer per call
(Jia et al. 2014): a tile is whole samples while one sample's patch matrix
fits ``CONV_TILE_BYTES``, else a band of output rows of one sample. The
forward runs one GEMM per sample of each tile; the cache keeps only the
input. Backward rebuilds the tiles for ``dw`` and computes ``dx`` as a
forward conv of ``dy`` with transposed, flipped weights, so kernels are
square with padding below the kernel size. A pointwise conv (1x1 without
padding, at any stride) multiplies its input, sampled at the stride, and
builds no patch matrix. The gradients are exact, which the test suite
verifies against naive 7-loop kernels and central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import DEFAULT_DTYPE, ShapeError, require_nchw


@dataclass
class ConvParams:
    """Cross-correlation weights (C_out, C_in, k_h, k_w) with optional bias."""

    weights: np.ndarray
    bias: Optional[np.ndarray] = None
    stride: int = 1
    padding: int = 0

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel(self) -> tuple[int, int]:
        return self.weights.shape[2], self.weights.shape[3]


@dataclass
class BatchNormParams:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass
class FCParams:
    """Dense layer y = W x + b with W shaped (D_out, D_in)."""

    weights: np.ndarray
    bias: np.ndarray


def make_conv(c_in: int, c_out: int, kernel: int, stride: int = 1,
              padding: Optional[int] = None, bias: bool = False,
              dtype=DEFAULT_DTYPE) -> ConvParams:
    if padding is None:
        padding = (kernel - 1) // 2
    w = np.zeros((c_out, c_in, kernel, kernel), dtype=dtype)
    b = np.zeros(c_out, dtype=dtype) if bias else None
    return ConvParams(weights=w, bias=b, stride=stride, padding=padding)


def make_batch_norm(channels: int, dtype=DEFAULT_DTYPE) -> BatchNormParams:
    return BatchNormParams(
        gamma=np.ones(channels, dtype=dtype),
        beta=np.zeros(channels, dtype=dtype),
        running_mean=np.zeros(channels, dtype=dtype),
        running_var=np.ones(channels, dtype=dtype),
    )


def make_fc(d_in: int, d_out: int, dtype=DEFAULT_DTYPE) -> FCParams:
    return FCParams(weights=np.zeros((d_out, d_in), dtype=dtype),
                    bias=np.zeros(d_out, dtype=dtype))


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


# ---------------------------------------------------------------------------
# Convolution (cross-correlation, zero padding)
# ---------------------------------------------------------------------------

def _is_pointwise(p: ConvParams) -> bool:
    """A 1x1 kernel (padding 0, as padding must be below the kernel size)
    reads one input pixel per output: the input sampled at the stride is its
    own patch matrix."""
    return p.kernel == (1, 1)


# Upper bound on the bytes of one tile of a conv's patch matrix. Every tile of
# a call reuses one buffer, so no conv writes a batch-wide patch matrix to
# fresh memory; 4 MiB ran infer and detect fastest of 2, 4, 8 and 16 MiB
# (BENCH_pr9.json).
CONV_TILE_BYTES = 4 << 20


def _tile_shape(n: int, k: int, h_out: int, w_out: int, itemsize: int) -> tuple[int, int]:
    """(samples, output rows) per tile of a patch matrix with ``k`` rows:
    whole samples while one sample's patch matrix fits ``CONV_TILE_BYTES``,
    else bands of at least one output row of one sample."""
    row_bytes = k * w_out * itemsize
    if row_bytes * h_out <= CONV_TILE_BYTES:
        return min(n, CONV_TILE_BYTES // (row_bytes * h_out)), h_out
    return 1, max(1, CONV_TILE_BYTES // row_bytes)


def _patch_tiles(x: np.ndarray, k: int, stride: int, padding: int,
                 h_out: int, w_out: int, samples: int, rows: int):
    """Yield ``(n0, m, r0, r, cols)`` for each tile of the channel-major patch
    matrix: samples n0..n0+m and output rows r0..r0+r, with ``cols`` of shape
    (C, k, k, m, r, W_out), rows in the (C_in, k, k) order of the weights.
    Each block of samples is padded into one zero-bordered (C, m, H+2p, W+2p)
    buffer and each tile filled with k*k strided block copies into one
    buffer; both are reused, so ``cols`` is valid until the next tile."""
    n, c, h, w = x.shape
    xp_buf = np.zeros((c, samples, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    cols_buf = np.empty(c * k * k * samples * rows * w_out, dtype=x.dtype)
    for n0 in range(0, n, samples):
        m = min(samples, n - n0)
        xp = xp_buf[:, :m]
        xp[:, :, padding:padding + h, padding:padding + w] = x[n0:n0 + m].transpose(1, 0, 2, 3)
        for r0 in range(0, h_out, rows):
            r = min(rows, h_out - r0)
            cols = cols_buf[:c * k * k * m * r * w_out].reshape(c, k, k, m, r, w_out)
            for i in range(k):
                top = i + stride * r0
                for j in range(k):
                    cols[:, i, j] = xp[:, :, top:top + stride * r:stride,
                                       j:j + stride * w_out:stride]
            yield n0, m, r0, r, cols


def _check_conv(x: np.ndarray, p: ConvParams) -> tuple[int, int]:
    if p.stride <= 0:
        raise ShapeError(f"stride must be positive, got {p.stride}")
    if p.padding < 0:
        raise ShapeError(f"padding must be nonnegative, got {p.padding}")
    if x.shape[1] != p.in_channels:
        raise ShapeError(
            f"input has {x.shape[1]} channels, filters expect {p.in_channels}")
    kh, kw = p.kernel
    if kh != kw:
        raise ShapeError(f"kernel must be square, got {kh}x{kw}")
    if p.padding >= kh:
        raise ShapeError(f"padding {p.padding} must be less than kernel {kh}")
    h_out = conv_output_size(x.shape[2], kh, p.stride, p.padding)
    w_out = conv_output_size(x.shape[3], kh, p.stride, p.padding)
    if h_out < 1 or w_out < 1:
        raise ShapeError(
            f"conv output size {h_out}x{w_out} < 1 for input {x.shape[2]}x{x.shape[3]}, "
            f"kernel {kh}, stride {p.stride}, padding {p.padding}")
    return h_out, w_out


def conv2d_forward(x: np.ndarray, p: ConvParams) -> tuple[np.ndarray, tuple]:
    """Cross-correlate ``x`` with the filters; ``y`` is a fresh C-contiguous
    (N, C_out, H_out, W_out) array and the cache ``(x, p, H_out, W_out)``
    holds no patch matrix. The channel-major patch matrix is built one tile
    at a time (see ``_patch_tiles``), and each tile's per-sample GEMMs write
    straight into ``y``; a pointwise conv (1x1 without padding) multiplies
    ``x``, sampled at the stride, and builds none."""
    x = require_nchw(x, "conv input")
    h_out, w_out = _check_conv(x, p)
    n, c_in = x.shape[0], x.shape[1]
    w_mat = p.weights.reshape(p.out_channels, -1)
    if _is_pointwise(p):
        s = p.stride
        y = np.matmul(w_mat, x[:, :, ::s, ::s].reshape(n, c_in, h_out * w_out))
    else:
        k = w_mat.shape[1]
        samples, rows = _tile_shape(n, k, h_out, w_out, x.dtype.itemsize)
        # y is allocated contiguous, so each slice below is a view that
        # matmul writes through
        y = np.empty((n, p.out_channels, h_out * w_out), dtype=np.result_type(w_mat, x))
        for n0, m, r0, r, cols in _patch_tiles(x, p.kernel[0], p.stride, p.padding,
                                               h_out, w_out, samples, rows):
            np.matmul(w_mat, cols.reshape(k, m, r * w_out).transpose(1, 0, 2),
                      out=y[n0:n0 + m, :, r0 * w_out:(r0 + r) * w_out])
    if p.bias is not None:
        y += p.bias[:, None]
    return y.reshape(n, p.out_channels, h_out, w_out), (x, p, h_out, w_out)


def conv2d_backward(dy: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Exact gradients (dx, dw, db) of the forward map, by one path for every
    kernel, stride and padding. ``dw`` accumulates one GEMM per tile of the
    patch matrix, rebuilt from ``x``, against the tile's ``dy`` laid out
    (C_out, m*r*W_out). ``dx`` is the forward conv of ``dy`` with the weights
    transposed to (C_in, C_out, k, k) and flipped, at padding k-1-p
    (Dumoulin & Visin 2016); a strided ``dy`` is first spread into a zero
    (N, C_out, H+2p-k+1, W+2p-k+1) buffer at every s-th row and column, so
    ``dx`` is a fresh C-contiguous NCHW array."""
    x, p, h_out, w_out = cache
    n, h, w = x.shape[0], x.shape[2], x.shape[3]
    s, pad = p.stride, p.padding
    c_out, c_in, k, _ = p.weights.shape
    db = dy.sum(axis=(0, 2, 3)) if p.bias is not None else None
    rows_k = c_in * k * k
    samples, rows = _tile_shape(n, rows_k, h_out, w_out, x.dtype.itemsize)
    dw = np.zeros((c_out, rows_k), dtype=np.result_type(dy, x))
    dy_buf = np.empty(c_out * samples * rows * w_out, dtype=dy.dtype)
    for n0, m, r0, r, cols in _patch_tiles(x, k, s, pad, h_out, w_out, samples, rows):
        dy_t = dy_buf[:c_out * m * r * w_out].reshape(c_out, m, r, w_out)
        dy_t[...] = dy[n0:n0 + m, :, r0:r0 + r].transpose(1, 0, 2, 3)
        dw += dy_t.reshape(c_out, -1) @ cols.reshape(rows_k, -1).T
    z = dy
    if s > 1:
        z = np.zeros((n, c_out, h + 2 * pad - k + 1, w + 2 * pad - k + 1), dtype=dy.dtype)
        z[:, :, ::s, ::s] = dy
    flipped = p.weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    dx, _ = conv2d_forward(z, ConvParams(weights=flipped, padding=k - 1 - pad))
    return dx, dw.reshape(p.weights.shape), db


# ---------------------------------------------------------------------------
# Batch normalization (biased 1/M variance, per channel over N, H, W)
# ---------------------------------------------------------------------------

BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9  # EMA decay kept on the running statistics


def batch_norm_forward(x: np.ndarray, p: BatchNormParams, mode: str = "train",
                       update_stats: bool = True) -> tuple[np.ndarray, tuple]:
    """Normalise ``x`` per channel and apply ``gamma`` and ``beta``. ``x`` is
    only read; ``y`` is always a fresh array, so a caller may overwrite it
    in place. Train mode centres ``x`` once into a fresh ``xhat``, which the
    cache keeps; infer mode applies the folded scale ``s = gamma * inv_std``
    and shift ``t = beta - running_mean * s`` (Ioffe & Szegedy 2015) and
    caches ``x`` itself, building ``xhat`` only if backward asks for it."""
    x = require_nchw(x, "batch_norm input")
    c = x.shape[1]
    if c != p.gamma.shape[0]:
        raise ShapeError(f"input has {c} channels, batch norm expects {p.gamma.shape[0]}")
    if mode == "train":
        m = x.shape[0] * x.shape[2] * x.shape[3]
        if m < 2:
            raise ShapeError("train-mode batch norm needs N*H*W >= 2 per channel")
        mean = np.einsum("nchw->c", x) / m
        xhat = x - mean[:, None, None]
        var = np.einsum("nchw,nchw->c", xhat, xhat) / m  # biased (1/M)
        if update_stats:
            p.running_mean[...] = BN_MOMENTUM * p.running_mean + (1 - BN_MOMENTUM) * mean
            p.running_var[...] = BN_MOMENTUM * p.running_var + (1 - BN_MOMENTUM) * var
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat *= inv_std[:, None, None]
        y = xhat * p.gamma[:, None, None]
        y += p.beta[:, None, None]
        cache = (xhat, inv_std, p, mode)
    elif mode == "infer":
        inv_std = 1.0 / np.sqrt(p.running_var + BN_EPSILON)
        scale = p.gamma * inv_std
        y = x * scale[:, None, None]
        y += (p.beta - p.running_mean * scale)[:, None, None]
        cache = (x, inv_std, p, mode)
    else:
        raise ValueError(f"unknown batch norm mode {mode!r}")
    return y.astype(x.dtype, copy=False), cache


def batch_norm_backward(dy: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dgamma, dbeta); train mode includes the batch-statistic
    terms. ``dy`` is only read. An infer-mode cache holds the forward's
    input, which is centred here on the running mean."""
    saved, inv_std, p, mode = cache
    xhat = saved if mode == "train" else (
        (saved - p.running_mean[:, None, None]) * inv_std[:, None, None])
    dbeta = np.einsum("nchw->c", dy)
    dgamma = np.einsum("nchw,nchw->c", dy, xhat)
    g = (p.gamma * inv_std)[:, None, None]
    if mode == "infer":
        return dy * g, dgamma, dbeta
    m = dy.shape[0] * dy.shape[2] * dy.shape[3]
    dx = xhat * (-dgamma / m)[:, None, None]
    dx += dy
    dx -= (dbeta / m)[:, None, None]
    dx *= g
    return dx.astype(dy.dtype, copy=False), dgamma, dbeta


# ---------------------------------------------------------------------------
# ReLU, pooling, dense head
# ---------------------------------------------------------------------------

def relu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamp ``x`` at 0 in place and return ``(y, y)``: the output is its own
    backward cache. NaN maps to 0. Because ``x`` is overwritten, the caller
    must own it, as ``bn_relu`` owns its batch norm's fresh output; never
    pass an array that anything else still reads."""
    np.fmax(x, 0, out=x)
    return x, x


def relu_backward(dy: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``dy`` where the forward output is positive, else 0 (the subgradient
    at exactly 0 is 0). The zeroing multiplies, so a non-finite ``dy`` at
    ``y <= 0`` gives NaN rather than being masked: a bad gradient
    propagates to where it can be localised."""
    return dy * (y > 0)


def global_avg_pool_forward(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    x = require_nchw(x, "pool input")
    y = x.mean(axis=(2, 3), keepdims=True)
    return y, (x.shape,)


def global_avg_pool_backward(dy: np.ndarray, cache: tuple) -> np.ndarray:
    (shape,) = cache
    scale = 1.0 / (shape[2] * shape[3])
    return np.broadcast_to(dy * scale, shape).astype(dy.dtype, copy=False).copy()


def fully_connected_forward(x: np.ndarray, p: FCParams) -> tuple[np.ndarray, tuple]:
    """x is (N, D_in); returns (N, D_out)."""
    if x.ndim != 2 or x.shape[1] != p.weights.shape[1]:
        raise ShapeError(
            f"fully connected expects (N, {p.weights.shape[1]}), got {x.shape}")
    y = x @ p.weights.T + p.bias
    return y, (x, p)


def fully_connected_backward(dy: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x, p = cache
    dx = dy @ p.weights
    dw = dy.T @ x
    db = dy.sum(axis=0)
    return dx, dw, db


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood over the batch and its gradient
    (softmax - one_hot) / N, computed with max-subtraction for stability."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (N, K), got {logits.shape}")
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels must be ({n},), got {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        bad = int(np.argmax((labels < 0) | (labels >= k)))
        raise ValueError(f"label {labels[bad]} at row {bad} outside [0, {k})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(log_z - shifted[np.arange(n), labels]))
    grad = softmax(logits)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad.astype(logits.dtype, copy=False)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def msr_initialize(params, seed=0):
    """Zero-mean normal weights with std sqrt(2 / fan_in); zero biases;
    identity batch-norm transform. Deterministic given an integer seed."""
    rng = _as_rng(seed)
    if isinstance(params, ConvParams):
        c_out, c_in, kh, kw = params.weights.shape
        fan_in = c_in * kh * kw
        std = np.sqrt(2.0 / fan_in)
        params.weights[...] = rng.normal(0.0, std, size=params.weights.shape)
        if params.bias is not None:
            params.bias[...] = 0.0
    elif isinstance(params, FCParams):
        fan_in = params.weights.shape[1]
        std = np.sqrt(2.0 / fan_in)
        params.weights[...] = rng.normal(0.0, std, size=params.weights.shape)
        params.bias[...] = 0.0
    elif isinstance(params, BatchNormParams):
        params.gamma[...] = 1.0
        params.beta[...] = 0.0
        params.running_mean[...] = 0.0
        params.running_var[...] = 1.0
    else:
        raise TypeError(f"cannot initialize {type(params).__name__}")
    return params

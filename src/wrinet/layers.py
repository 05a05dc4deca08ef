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
input. A pointwise forward (1x1 without padding, at any stride) multiplies
its input, sampled at the stride, and builds no patch matrix. Backward
builds one patch matrix, of the zero-bordered ``dy`` over the stride-phase
grid, with a window of ceil(k/s) taps a side (k x k at stride 1, 2 x 2 for a
3x3 kernel at stride 2), and takes both ``dx`` and ``dw`` from each of its
tiles; ``x`` is only copied by phase, never expanded into patches. Kernels
are square, with padding below the kernel size so that every output window
touches the input, which the backward's zero borders rely on. The
gradients are exact, which the test suite verifies against naive 7-loop
kernels and central finite differences.
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


def _patch_tiles(x: np.ndarray, k: int, stride: int, lead: int,
                 h_out: int, w_out: int, samples: int, rows: int):
    """Yield ``(n0, m, r0, r, cols)`` for each tile of the channel-major patch
    matrix: samples n0..n0+m and output rows r0..r0+r, with ``cols`` of shape
    (C, k, k, m, r, W_out), rows in the (C_in, k, k) order of the weights.
    Each block of samples is copied into one zero buffer at offset ``lead``
    in both dimensions; the buffer ends where the last window does, so the
    trailing zero border is whatever the output size leaves, and input rows
    and columns no window reads are left out. Each tile is filled with k*k
    strided block copies into one buffer; both buffers are reused, so
    ``cols`` is valid until the next tile."""
    n, c = x.shape[:2]
    hp, wp = stride * (h_out - 1) + k, stride * (w_out - 1) + k
    h, w = min(x.shape[2], hp - lead), min(x.shape[3], wp - lead)
    xp_buf = np.zeros((c, samples, hp, wp), dtype=x.dtype)
    cols_buf = np.empty(c * k * k * samples * rows * w_out, dtype=x.dtype)
    for n0 in range(0, n, samples):
        m = min(samples, n - n0)
        xp = xp_buf[:, :m]
        xp[:, :, lead:lead + h, lead:lead + w] = x[n0:n0 + m, :, :h, :w].transpose(1, 0, 2, 3)
        for r0 in range(0, h_out, rows):
            r = min(rows, h_out - r0)
            cols = cols_buf[:c * k * k * m * r * w_out].reshape(c, k, k, m, r, w_out)
            for i in range(k):
                top = i + stride * r0
                for j in range(k):
                    cols[:, i, j] = xp[:, :, top:top + stride * r:stride,
                                       j:j + stride * w_out:stride]
            yield n0, m, r0, r, cols


def _phase_slices(stride: int, phases: int, offset: int, size: int, g0: int, count: int):
    """For each phase rho < ``phases``: the slice of grid rows g0..g0+count
    (relative to g0) whose map row ``stride*g + rho - offset`` lies in
    [0, size), and the slice of those map rows."""
    out = []
    for rho in range(phases):
        lo = max(g0, -((rho - offset) // stride))
        hi = max(lo, min(g0 + count, (size - 1 + offset - rho) // stride + 1))
        out.append((slice(lo - g0, hi - g0),
                    slice(stride * lo + rho - offset, stride * hi + rho - offset, stride)))
    return out


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
    (N, C_out, H_out, W_out) array and the cache ``(x, p)``
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
    return y.reshape(n, p.out_channels, h_out, w_out), (x, p)


def conv2d_backward(dy: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Exact gradients (dx, dw, db) of the forward map, by one path for every
    kernel, stride and padding, from one channel-major patch matrix of the
    zero-bordered ``dy`` and no patch matrix of ``x``.

    Write a padded input row as ``s*q + rho``: the rows of phase ``rho`` read
    only the taps ``rho + s*t`` of the kernel, from ``dy`` rows ``q - t``, so
    a stride-s transposed conv is s*s stride-1 convs of ``dy`` with sub-kernels
    of at most ``u = ceil(k/s)`` taps a side, then a depth-to-space shuffle
    (Shi et al. 2016; at stride 1, the flipped-kernel identity of Dumoulin &
    Visin 2016). Each tile of the (C_out, u, u) patch matrix of ``dy`` over the
    phase grid ``q`` feeds two GEMMs: ``dx`` by phase is the weights,
    transposed and flipped into one row block per phase, times the tile, and
    ``dw`` by phase accumulates the tile times the transpose of ``x`` by
    phase, which is copied into a reused buffer (this order ran a tile's GEMM
    1.5-1.8x faster than its transpose for 16- and 64-channel inputs). Phases
    at or past ``k`` have no taps, so their ``dx`` is zero and they are
    skipped. Padding below the kernel size, which the forward checks, makes
    every output window touch the input; that is what keeps both zero
    borders of ``dy`` nonnegative. ``dx`` is a fresh
    C-contiguous NCHW array."""
    x, p = cache
    n, c_in, h, w = x.shape
    c_out, _, k, _ = p.weights.shape
    s, pad = p.stride, p.padding
    db = dy.sum(axis=(0, 2, 3)) if p.bias is not None else None
    u, phases, q0 = -(-k // s), min(s, k), pad // s
    # grid rows q0.. cover every padded row that holds an input row; grid row
    # g of phase rho is input row s*g + rho - offset
    grid_h, grid_w = ((pad + size - 1) // s - q0 + 1 for size in (h, w))
    offset = pad - s * q0
    # weight taps rho + s*(u-1-t) (zero past k) as rows (rho_h, rho_w, c) by
    # columns (o, t_h, t_w), the rows of the patch matrix of dy
    taps = (slice(None), slice(None), slice(None, None, -1), slice(phases),
            slice(None, None, -1), slice(phases))
    order = (3, 5, 1, 0, 2, 4)
    rows_x, rows_dy = phases * phases * c_in, c_out * u * u
    w_pad = np.zeros((c_out, c_in, s * u, s * u), dtype=p.weights.dtype)
    w_pad[:, :, :k, :k] = p.weights
    w_ph = w_pad.reshape(c_out, c_in, u, s, u, s)[taps].transpose(order).reshape(rows_x, rows_dy)
    samples, rows = _tile_shape(n, rows_dy, grid_h, grid_w, dy.dtype.itemsize)
    dx = (np.empty if phases == s else np.zeros)(x.shape, dtype=np.result_type(w_ph, dy))
    dw_ph = np.zeros((rows_dy, rows_x), dtype=np.result_type(dy, x))
    xs_buf = np.empty(rows_x * samples * rows * grid_w, dtype=x.dtype)
    dxs_buf = np.empty(xs_buf.size, dtype=dx.dtype)
    cols_w = _phase_slices(s, phases, offset, w, 0, grid_w)
    for n0, m, r0, r, cols in _patch_tiles(dy, u, 1, u - 1 - q0, grid_h, grid_w, samples, rows):
        cols = cols.reshape(rows_dy, -1)
        size = rows_x * m * r * grid_w
        np.matmul(w_ph, cols, out=dxs_buf[:size].reshape(rows_x, -1))
        xs = xs_buf[:size].reshape(phases, phases, c_in, m, r, grid_w)
        dxs = dxs_buf[:size].reshape(xs.shape)
        for i, (gh, xh) in enumerate(_phase_slices(s, phases, offset, h, r0, r)):
            for j, (gw, xw) in enumerate(cols_w):
                xs_ij = xs[i, j]
                xs_ij[:, :, gh, gw] = x[n0:n0 + m, :, xh, xw].transpose(1, 0, 2, 3)
                xs_ij[:, :, :gh.start] = xs_ij[:, :, gh.stop:] = 0
                xs_ij[..., :gw.start] = xs_ij[..., gw.stop:] = 0
                dx[n0:n0 + m, :, xh, xw] = dxs[i, j, :, :, gh, gw].transpose(1, 0, 2, 3)
        dw_ph += cols @ xs.reshape(rows_x, -1).T
    dw_pad = np.zeros((c_out, c_in, s * u, s * u), dtype=dw_ph.dtype)
    dw_pad.reshape(c_out, c_in, u, s, u, s)[taps] = dw_ph.T.reshape(
        phases, phases, c_in, c_out, u, u).transpose(np.argsort(order))
    return dx, np.ascontiguousarray(dw_pad[:, :, :k, :k]), db


# ---------------------------------------------------------------------------
# Batch normalization (biased 1/M variance, per channel over N, H, W)
# ---------------------------------------------------------------------------

BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9  # EMA decay kept on the running statistics


def batch_norm_forward(x: np.ndarray, p: BatchNormParams, mode: str = "train"
                       ) -> tuple[np.ndarray, tuple]:
    """Normalise ``x`` per channel and apply ``gamma`` and ``beta``. ``x`` is
    only read; ``y`` is always a fresh array, so a caller may overwrite it
    in place. Train mode normalises by the batch statistics, which it also
    folds into the running ones (it never reads them), and centres ``x``
    once into a fresh ``xhat``, which the cache keeps; infer mode applies
    the folded scale ``s = gamma * inv_std`` and shift
    ``t = beta - running_mean * s`` (Ioffe & Szegedy 2015) and caches ``x``
    itself, building ``xhat`` only if backward asks for it."""
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

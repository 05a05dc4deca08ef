"""Differentiable layer primitives with exact forward and backward passes.

Every layer is a pair of pure functions, ``*_forward(x, params) -> (y, cache)``
and ``*_backward(dy, cache) -> grads``, operating on (N, C, H, W) numpy arrays.
Convolution lowers to a patch-matrix (im2col) matmul, and its cache carries
that patch matrix for backward; its gradients are exact, which the test suite
verifies against a naive 7-loop kernel and central finite differences.
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

def _im2col(x_padded: np.ndarray, kh: int, kw: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Patch matrix (N, C*kh*kw, H_out*W_out); column order matches the
    (C_in, kh, kw) weight layout. Built from kh*kw aligned block copies."""
    n, c, hp, wp = x_padded.shape
    h_out = (hp - kh) // stride + 1
    w_out = (wp - kw) // stride + 1
    if kh == 1 and kw == 1 and stride == 1:
        return x_padded.reshape(n, c, h_out * w_out), h_out, w_out
    cols = np.empty((n, c, kh, kw, h_out, w_out), dtype=x_padded.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x_padded[:, :, i:i + stride * h_out:stride,
                                        j:j + stride * w_out:stride]
    return cols.reshape(n, c * kh * kw, h_out * w_out), h_out, w_out


def _pad_input(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _check_conv(x: np.ndarray, p: ConvParams) -> tuple[int, int]:
    if p.stride <= 0:
        raise ShapeError(f"stride must be positive, got {p.stride}")
    if p.padding < 0:
        raise ShapeError(f"padding must be nonnegative, got {p.padding}")
    if x.shape[1] != p.in_channels:
        raise ShapeError(
            f"input has {x.shape[1]} channels, filters expect {p.in_channels}")
    kh, kw = p.kernel
    h_out = conv_output_size(x.shape[2], kh, p.stride, p.padding)
    w_out = conv_output_size(x.shape[3], kw, p.stride, p.padding)
    if h_out < 1 or w_out < 1:
        raise ShapeError(
            f"conv output size {h_out}x{w_out} < 1 for input {x.shape[2]}x{x.shape[3]}, "
            f"kernel {kh}, stride {p.stride}, padding {p.padding}")
    return h_out, w_out


def conv2d_forward(x: np.ndarray, p: ConvParams) -> tuple[np.ndarray, tuple]:
    """The cache carries the patch matrix (kh*kw copies of the activation)
    for backward; a caller that needs no backward drops the cache."""
    x = require_nchw(x, "conv input")
    h_out, w_out = _check_conv(x, p)
    kh, kw = p.kernel
    n = x.shape[0]
    cols, h_out, w_out = _im2col(_pad_input(x, p.padding), kh, kw, p.stride)
    y = np.matmul(p.weights.reshape(p.out_channels, -1), cols)
    if p.bias is not None:
        y += p.bias[:, None]
    y = y.reshape(n, p.out_channels, h_out, w_out)
    return y, (x, p, h_out, w_out, cols)


def conv2d_backward(dy: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Exact gradients (dx, dw, db) of the forward map."""
    x, p, h_out, w_out, cols = cache
    kh, kw = p.kernel
    n, c_in = x.shape[0], x.shape[1]
    dy_mat = dy.reshape(n, p.out_channels, h_out * w_out)
    w_mat = p.weights.reshape(p.out_channels, -1)

    dw = np.matmul(dy_mat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(p.weights.shape)
    db = dy.sum(axis=(0, 2, 3)) if p.bias is not None else None
    dcols = np.matmul(w_mat.T, dy_mat)  # (n, c*kh*kw, h_out*w_out)

    s = p.stride
    if kh == 1 and kw == 1 and s == 1 and p.padding == 0:
        return dcols.reshape(x.shape), dw, db
    dcols = dcols.reshape(n, c_in, kh, kw, h_out, w_out)
    hp = x.shape[2] + 2 * p.padding
    wp = x.shape[3] + 2 * p.padding
    dxp = np.zeros((n, c_in, hp, wp), dtype=dy.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + s * h_out:s, j:j + s * w_out:s] += dcols[:, :, i, j]
    if p.padding:
        dx = dxp[:, :, p.padding:-p.padding, p.padding:-p.padding]
    else:
        dx = dxp
    return np.ascontiguousarray(dx), dw, db


# ---------------------------------------------------------------------------
# Batch normalization (biased 1/M variance, per channel over N, H, W)
# ---------------------------------------------------------------------------

BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9  # EMA decay kept on the running statistics


def batch_norm_forward(x: np.ndarray, p: BatchNormParams, mode: str = "train",
                       update_stats: bool = True) -> tuple[np.ndarray, tuple]:
    x = require_nchw(x, "batch_norm input")
    c = x.shape[1]
    if c != p.gamma.shape[0]:
        raise ShapeError(f"input has {c} channels, batch norm expects {p.gamma.shape[0]}")
    if mode == "train":
        m = x.shape[0] * x.shape[2] * x.shape[3]
        if m < 2:
            raise ShapeError("train-mode batch norm needs N*H*W >= 2 per channel")
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))  # biased (1/M)
        if update_stats:
            p.running_mean[...] = BN_MOMENTUM * p.running_mean + (1 - BN_MOMENTUM) * mean
            p.running_var[...] = BN_MOMENTUM * p.running_var + (1 - BN_MOMENTUM) * var
    elif mode == "infer":
        mean = p.running_mean
        var = p.running_var
    else:
        raise ValueError(f"unknown batch norm mode {mode!r}")
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    y = p.gamma[None, :, None, None] * xhat + p.beta[None, :, None, None]
    cache = (xhat, inv_std, p, mode)
    return y.astype(x.dtype, copy=False), cache


def batch_norm_backward(dy: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dgamma, dbeta); train mode includes the batch-statistic terms."""
    xhat, inv_std, p, mode = cache
    dgamma = (dy * xhat).sum(axis=(0, 2, 3))
    dbeta = dy.sum(axis=(0, 2, 3))
    g = (p.gamma * inv_std)[None, :, None, None]
    if mode == "infer":
        dx = dy * g
        return dx, dgamma, dbeta
    m = dy.shape[0] * dy.shape[2] * dy.shape[3]
    mean_dy = dy.mean(axis=(0, 2, 3))[None, :, None, None]
    mean_dy_xhat = (dy * xhat).sum(axis=(0, 2, 3))[None, :, None, None] / m
    dx = g * (dy - mean_dy - xhat * mean_dy_xhat)
    return dx.astype(dy.dtype, copy=False), dgamma, dbeta


# ---------------------------------------------------------------------------
# ReLU, pooling, dense head
# ---------------------------------------------------------------------------

def relu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mask = x > 0  # subgradient at exactly 0 is 0
    return np.where(mask, x, 0), mask


def relu_backward(dy: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return np.where(mask, dy, 0)


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

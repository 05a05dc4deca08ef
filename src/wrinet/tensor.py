"""Dense NCHW tensors and the two structural ops used by the block builders.

Tensors are plain ``numpy.ndarray`` objects with a fixed row-major (N, C, H, W)
layout, float32 by default and float64 when tight gradient-check tolerances are
needed. Operations never mutate their inputs and pass NaN and Inf through:
the trainer and the evaluator check what they return.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    """Raised when tensor shapes violate an operation's contract."""


def require_nchw(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    """Validate that ``x`` is a dense 4-D (N, C, H, W) float array."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise ShapeError(f"{name} must be 4-D (N, C, H, W), got shape {x.shape}")
    return x


def concat_channels(inputs: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate feature maps along the channel axis, in input order.

    All inputs must agree on N, H and W; the result has the summed channel
    count. Mismatches report the index of the offending input.
    """
    if len(inputs) == 0:
        raise ShapeError("concat_channels needs at least one input")
    arrays = [require_nchw(x, f"inputs[{i}]") for i, x in enumerate(inputs)]
    n, _, h, w = arrays[0].shape
    for i, a in enumerate(arrays[1:], start=1):
        if a.shape[0] != n or a.shape[2] != h or a.shape[3] != w:
            raise ShapeError(
                f"inputs[{i}] has shape {a.shape}, expected N={n}, H={h}, W={w}"
            )
    return np.concatenate(arrays, axis=1)


def add_elementwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise sum of two identically shaped tensors."""
    a = require_nchw(a, "a")
    b = require_nchw(b, "b")
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a + b

"""Dense NCHW tensors and the kernels of the graph's two structural ops,
``add`` and ``concat``, which :data:`~wrinet.graph.OPS` looks up here at
call time, so a tracer that replaces them on this module sees every call.

Tensors are plain ``numpy.ndarray`` objects with a fixed row-major (N, C, H, W)
layout, float32 by default and float64 when tight gradient-check tolerances are
needed. Operations never mutate their inputs and pass NaN and Inf through:
the trainer and the evaluator check what they return. Nor do they check
shapes: :meth:`~wrinet.graph.NetworkGraph.forward` applies every node's shape
rule before any node runs, so the inputs they are given always fit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    """Raised when tensor shapes violate an operation's contract."""


def concat_channels(inputs: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate feature maps, which agree on N, H and W, along the channel
    axis in input order."""
    return np.concatenate(inputs, axis=1)


def add_elementwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise sum of two identically shaped tensors."""
    return a + b

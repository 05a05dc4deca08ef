"""Independent reference implementations the test suite checks against.

These deliberately use naive loops and stay decoupled from the package's
vectorized paths. The reference executor is the exception: it runs the
package's own ops, but without any of the executor's liveness, fusions or
writes into owned arrays.
"""

from __future__ import annotations

import math

import numpy as np


def naive_conv2d(x: np.ndarray, weights: np.ndarray, bias, stride: int,
                 padding: int) -> np.ndarray:
    """Seven-loop cross-correlation with zero padding."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weights.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    xp = np.zeros((n, c_in, hp, wp), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    h_out = (hp - kh) // stride + 1
    w_out = (wp - kw) // stride + 1
    y = np.zeros((n, c_out, h_out, w_out), dtype=x.dtype)
    for b in range(n):
        for o in range(c_out):
            for i in range(h_out):
                for j in range(w_out):
                    acc = 0.0
                    for c in range(c_in):
                        for u in range(kh):
                            for v in range(kw):
                                acc += weights[o, c, u, v] * xp[b, c, i * stride + u,
                                                                j * stride + v]
                    y[b, o, i, j] = acc + (bias[o] if bias is not None else 0.0)
    return y


def naive_conv2d_backward(x: np.ndarray, weights: np.ndarray, dy: np.ndarray,
                          stride: int, padding: int) -> tuple[np.ndarray, np.ndarray]:
    """Seven-loop gradients (dx, dw) of the cross-correlation: every product
    weights[o, c, u, v] * xp[b, c, i*stride + u, j*stride + v] of the forward
    sends dy[b, o, i, j] times the other factor to each factor's gradient."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weights.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    xp = np.zeros((n, c_in, hp, wp), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(weights)
    h_out, w_out = dy.shape[2], dy.shape[3]
    for b in range(n):
        for o in range(c_out):
            for i in range(h_out):
                for j in range(w_out):
                    g = dy[b, o, i, j]
                    for c in range(c_in):
                        for u in range(kh):
                            for v in range(kw):
                                dw[o, c, u, v] += g * xp[b, c, i * stride + u,
                                                         j * stride + v]
                                dxp[b, c, i * stride + u, j * stride + v] += g * weights[o, c, u, v]
    return dxp[:, :, padding:padding + h, padding:padding + w], dw


def iou_by_pixel_count(a, b, resolution: int = 1) -> float:
    """IoU via integer rasterization; boxes must have integer corners when
    resolution is 1."""
    ax0, ay0, ax1, ay1 = (int(round(v * resolution)) for v in a)
    bx0, by0, bx1, by1 = (int(round(v * resolution)) for v in b)
    x1 = max(ax1, bx1)
    y1 = max(ay1, by1)
    grid_a = np.zeros((y1, x1), dtype=bool)
    grid_b = np.zeros((y1, x1), dtype=bool)
    grid_a[ay0:ay1, ax0:ax1] = True
    grid_b[by0:by1, bx0:bx1] = True
    inter = np.logical_and(grid_a, grid_b).sum()
    union = np.logical_or(grid_a, grid_b).sum()
    return inter / union if union else 0.0


def _iou(a, b) -> float:
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def nms_reference(boxes: np.ndarray, scores: np.ndarray, threshold: float) -> list[int]:
    """Check-all-pairs-against-kept-set formulation of greedy NMS."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    kept: list[int] = []
    for i in order:
        if all(_iou(boxes[i], boxes[k]) <= threshold for k in kept):
            kept.append(i)
    return kept


def match_reference(priors: np.ndarray, gts: np.ndarray, threshold: float) -> np.ndarray:
    """Loop formulation of prior matching: per-groundtruth forced best prior
    (claimed priors excluded), then thresholded best-groundtruth matches."""
    p_count = len(priors)
    out = np.full(p_count, -1, dtype=np.int64)
    claimed = set()
    for g in range(len(gts)):
        best_p, best_v = -1, -2.0
        for p in range(p_count):
            if p in claimed:
                continue
            v = _iou(priors[p], gts[g])
            if v > best_v:
                best_p, best_v = p, v
        if best_p == -1:
            continue  # every prior already claimed
        out[best_p] = g
        claimed.add(best_p)
    for p in range(p_count):
        if p in claimed:
            continue
        best_g, best_v = -1, -1.0
        for g in range(len(gts)):
            v = _iou(priors[p], gts[g])
            if v > best_v:
                best_g, best_v = g, v
        if best_v >= threshold:
            out[p] = best_g
    return out


def influence_receptive_field(run_forward, input_hw: tuple[int, int],
                              channels: int, probe: float = 0.5) -> int:
    """Receptive-field extent by brute force: perturb each input pixel of an
    all-ones image and record which perturbations move any channel of the
    center output of ``run_forward`` (a map from input to (C', H', W'))."""
    h, w = input_hw
    base = np.ones((1, channels, h, w), dtype=np.float64)
    ref = run_forward(base)
    ci, cj = ref.shape[1] // 2, ref.shape[2] // 2
    moved = np.zeros((h, w), dtype=bool)
    for i in range(h):
        for j in range(w):
            x = base.copy()
            x[0, :, i, j] += probe
            out = run_forward(x)
            moved[i, j] = bool(
                np.any(np.abs(out[:, ci, cj] - ref[:, ci, cj]) > 1e-9))
    rows = np.flatnonzero(moved.any(axis=1))
    cols = np.flatnonzero(moved.any(axis=0))
    extent_r = rows[-1] - rows[0] + 1 if rows.size else 0
    extent_c = cols[-1] - cols[0] + 1 if cols.size else 0
    return int(max(extent_r, extent_c))


def priors_reference(grids: list[tuple[int, int]]) -> np.ndarray:
    """Per-cell loop formulation of SSD's prior rule: scales evenly spaced
    from 0.2 to 0.9 over the maps, ratios 1, 2 and 1/2 at the map's scale s,
    then a square prior of side sqrt(s * s_next) (s_next = 1 after the last
    map); boxes in (map, row, col, prior) order, clipped to [0, 1]."""
    k = len(grids)
    scales = [0.2 if k == 1 else 0.2 + (0.9 - 0.2) * i / (k - 1) for i in range(k)]
    boxes = []
    for m, (h, w) in enumerate(grids):
        s = scales[m]
        sizes = [(s * math.sqrt(a), s / math.sqrt(a)) for a in (1.0, 2.0, 0.5)]
        extra = math.sqrt(s * (scales[m + 1] if m + 1 < k else 1.0))
        sizes.append((extra, extra))
        for i in range(h):
            cy = (i + 0.5) / h
            for j in range(w):
                cx = (j + 0.5) / w
                for bw, bh in sizes:
                    boxes.append((cx - bw / 2, cy - bh / 2, cx + bw / 2, cy + bh / 2))
    return np.clip(np.array(boxes, dtype=np.float64).reshape(-1, 4), 0.0, 1.0)


BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9


def bn_relu_reference(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                      running_mean: np.ndarray, running_var: np.ndarray,
                      mode: str = "train"):
    """Batch norm then ReLU as four textbook passes: axis reductions, a
    centred copy per use, a boolean mask and ``np.where`` (the kernels the
    fused ``bn_relu`` op ran before its lean rewrite). Nothing passed in is
    changed. Returns ``(y, running_mean, running_var, backward)``, the
    statistics as new arrays, where ``backward(dy)`` gives
    ``(dx, dgamma, dbeta)``."""
    # batch norm forward
    if mode == "train":
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))  # biased (1/M)
        running_mean = BN_MOMENTUM * running_mean + (1 - BN_MOMENTUM) * mean
        running_var = BN_MOMENTUM * running_var + (1 - BN_MOMENTUM) * var
    else:
        mean = running_mean
        var = running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    z = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    z = z.astype(x.dtype, copy=False)
    # relu forward
    mask = z > 0
    y = np.where(mask, z, 0)

    def backward(dy: np.ndarray):
        # relu backward
        dz = np.where(mask, dy, 0)
        # batch norm backward
        dgamma = (dz * xhat).sum(axis=(0, 2, 3))
        dbeta = dz.sum(axis=(0, 2, 3))
        g = (gamma * inv_std)[None, :, None, None]
        if mode == "infer":
            return dz * g, dgamma, dbeta
        m = dz.shape[0] * dz.shape[2] * dz.shape[3]
        mean_dy = dz.mean(axis=(0, 2, 3))[None, :, None, None]
        mean_dy_xhat = (dz * xhat).sum(axis=(0, 2, 3))[None, :, None, None] / m
        dx = g * (dz - mean_dy - xhat * mean_dy_xhat)
        return dx.astype(dy.dtype, copy=False), dgamma, dbeta

    return y, running_mean, running_var, backward


def _copy(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` with ``a``'s strides, so that reductions over it
    round as over ``a``: numpy's ``einsum`` can round a strided view (one
    part's channels of a pre-activation's gradient) and its compact copy
    differently."""
    if a.flags.c_contiguous or a.flags.f_contiguous or min(a.strides) < 0:
        return a.copy(order="K")
    span = sum((n - 1) * s for n, s in zip(a.shape, a.strides)) + a.itemsize
    out = np.ndarray(a.shape, a.dtype, buffer=np.empty(span, np.uint8), strides=a.strides)
    out[...] = a
    return out


def reference_forward(graph, x: np.ndarray, mode: str) -> tuple[dict, dict]:
    """Every node's output and cache, keyed by node: each node runs its
    op's own forward, unfused, on copies of its inputs, so no node can
    change another's output, and everything is kept. Copies keep their
    array's strides (:func:`_copy`). An ``affine_relu``'s output, its
    ``PreActivation``, is kept as the map it makes."""
    from wrinet.graph import OPS
    from wrinet.layers import PreActivation

    outputs, caches = {graph.input_name: x.copy()}, {}
    for name in graph.order[1:]:
        node = graph.nodes[name]
        y, caches[name] = OPS[node.op].forward(
            node, [_copy(outputs[i]) for i in node.inputs], mode)
        outputs[name] = y.array() if isinstance(y, PreActivation) else y
    return outputs, caches


def reference_backward(graph, caches: dict, out_grads: dict
                       ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """(parameter gradients, input gradient) from the caches of
    :func:`reference_forward`: each node's op backward runs on copies of
    its cache and of its output's gradient (an ``affine_relu``'s cached
    ``PreActivation`` becomes the map it makes), and the gradients of an
    output read by several nodes are summed into a fresh array per reader,
    in the order ``NetworkGraph.backward`` sums them (``out_grads`` first,
    then the readers in reverse topological order), so the sums round
    alike."""
    from wrinet.graph import OPS
    from wrinet.layers import PreActivation

    acc: dict[str, np.ndarray] = {}

    def contribute(name, g):
        acc[name] = acc[name] + g if name in acc else g

    for name, g in out_grads.items():
        contribute(name, g)
    param_grads = {}
    for name in reversed(graph.order[1:]):
        if name not in acc:
            continue
        node = graph.nodes[name]
        op = OPS[node.op]
        cache = caches[name]
        if isinstance(cache, tuple):
            cache = tuple(_copy(a) if isinstance(a, np.ndarray)
                          else a.array() if isinstance(a, PreActivation) else a
                          for a in cache)
        grads = op.backward(node, _copy(acc.pop(name)), cache)
        k = len(node.inputs)
        for entry, grad in zip(op.params(node), grads[k:]):
            param_grads[f"{name}/{entry}"] = grad
        for inp, grad in zip(node.inputs, grads[:k]):
            contribute(inp, grad)
    return param_grads, acc.get(graph.input_name)

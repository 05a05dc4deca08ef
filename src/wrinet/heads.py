"""Detection head: 3x3 class/offset predictors on two backbone feature maps.

The head is ordinary nodes of the backbone graph. :func:`build_detection_head`
extends the backbone in place: per tap ``i`` a class conv ``head/map{i}/cls``
and an offset conv ``head/map{i}/loc``, each flattened to (row, col, prior)
order, and two concats, ``head/logits`` and ``head/offsets``, whose prediction
order aligns with :func:`wrinet.detection.generate_priors` over the taps'
grids, which the head keeps as its ``layout``. Checkpoints,
MAC counts, non-finite localization and parameter gradients therefore cover
the head like any other node, and gradients flow through the predictors back
into the backbone (transfer learning with frozen early stages at toy scale).
A checkpoint must hold every entry of the graph it is loaded into, so load a
classifier checkpoint *before* adding the head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import (PRIORS_PER_CELL, encode_boxes, generate_priors, match_priors,
                        multibox_loss)
from .graph import ForwardResult, NetworkGraph
from .layers import ConvParams, make_conv, msr_initialize
from .tensor import DEFAULT_DTYPE

LOGITS, OFFSETS = "head/logits", "head/offsets"


@dataclass
class DetectionHead:
    taps: tuple[str, ...]
    cls_convs: list[ConvParams]  # the parameters of nodes head/map{i}/cls
    loc_convs: list[ConvParams]  # and head/map{i}/loc
    layout: tuple[tuple[int, int], ...]  # the taps' (H, W) grids
    priors: np.ndarray  # (P, 4) normalized, generate_priors(layout)
    num_classes: int  # foreground classes; logits carry background at index 0


def build_detection_head(backbone: NetworkGraph, taps: tuple[str, ...],
                         input_hw: tuple[int, int], num_classes: int,
                         seed: int = 0, dtype=DEFAULT_DTYPE) -> DetectionHead:
    """Add the head's nodes to ``backbone``, sized for ``input_hw``; a head
    built earlier on it is replaced. ``backbone.output_name`` is unchanged.
    The priors are :func:`~wrinet.detection.generate_priors` over the taps'
    grids: scales 0.2 to 0.9 across the taps, and per cell
    :data:`~wrinet.detection.PRIORS_PER_CELL` priors (ratios 1, 2 and 1/2,
    then the extra ratio-1 prior)."""
    if LOGITS in backbone.nodes:  # the earlier head's nodes are the graph's tail
        cut = backbone.order.index("head/map0/cls")
        for name in backbone.order[cut:]:
            del backbone.nodes[name]
        del backbone.order[cut:]
    shapes = backbone.infer_shapes(input_hw)
    grids = tuple(shapes[t][1:] for t in taps)
    rng = np.random.default_rng(seed)
    output = backbone.output_name
    convs: dict[str, list[ConvParams]] = {"cls": [], "loc": []}
    flats: dict[str, list[str]] = {"cls": [], "loc": []}
    for i, tap in enumerate(taps):
        channels, h, w = shapes[tap]
        for kind, fields in (("cls", num_classes + 1), ("loc", 4)):
            conv = make_conv(channels, PRIORS_PER_CELL * fields, 3, bias=True, dtype=dtype)
            msr_initialize(conv, rng)
            convs[kind].append(conv)
            node = backbone.add_conv(f"head/map{i}/{kind}", tap, conv)
            flats[kind].append(backbone.add_flatten(f"{node}/flat", node, (h, w)))
    backbone.add_concat(LOGITS, flats["cls"])
    backbone.add_concat(OFFSETS, flats["loc"])
    backbone.output_name = output
    return DetectionHead(taps=tuple(taps), cls_convs=convs["cls"], loc_convs=convs["loc"],
                         layout=grids, priors=generate_priors(grids),
                         num_classes=num_classes)


def detection_forward(backbone: NetworkGraph, head: DetectionHead, x: np.ndarray,
                      mode: str = "train") -> tuple[np.ndarray, np.ndarray, ForwardResult]:
    """Returns per-prior class logits (N, P, C) and offsets (N, P, 4), plus
    the graph's forward result (with caches in train mode) for backward."""
    result = backbone.forward(x, mode=mode, keep_caches=(mode == "train"),
                              keep=(LOGITS, OFFSETS))
    n = x.shape[0]
    return (result[LOGITS].reshape(n, -1, head.num_classes + 1),
            result[OFFSETS].reshape(n, -1, 4), result)


def detection_backward(backbone: NetworkGraph, caches: ForwardResult,
                       grad_logits: np.ndarray, grad_offsets: np.ndarray
                       ) -> dict[str, np.ndarray]:
    """Map per-prior gradients back through the predictor convs and the
    backbone; returns the parameter gradients of the whole graph."""
    n = grad_logits.shape[0]
    grads, _ = backbone.backward(caches, {LOGITS: grad_logits.reshape(n, -1, 1, 1),
                                          OFFSETS: grad_offsets.reshape(n, -1, 1, 1)})
    return grads


def detection_loss_batch(logits: np.ndarray, offsets: np.ndarray,
                         priors: np.ndarray, gt_boxes: list[np.ndarray],
                         gt_labels: list[np.ndarray], iou_threshold: float = 0.5,
                         negpos_ratio: int = 3
                         ) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean multibox loss over a batch with per-image matching and encoding."""
    n = logits.shape[0]
    grad_logits = np.zeros_like(logits)
    grad_offsets = np.zeros_like(offsets)
    total = 0.0
    for b in range(n):
        assignment = match_priors(priors, gt_boxes[b], iou_threshold)
        targets = np.zeros_like(offsets[b])
        pos = assignment >= 0
        if pos.any():
            targets[pos] = encode_boxes(gt_boxes[b][assignment[pos]], priors[pos])
        loss, gl, go = multibox_loss(logits[b], offsets[b], assignment,
                                     gt_labels[b], targets, negpos_ratio)
        total += loss
        grad_logits[b] = gl / n
        grad_offsets[b] = go / n
    return total / n, grad_logits, grad_offsets

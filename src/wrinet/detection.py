"""SSD-style detection mechanics: prior boxes, IoU, matching, offset coding,
multibox loss with hard-negative mining, NMS, and AP/AR evaluation.

Boxes are corner-coded (xmin, ymin, xmax, ymax). The prediction pipeline works
in coordinates normalized to [0, 1]. Evaluation takes boxes in any one
coordinate space, since IoU does not change when x and y are scaled
separately; ``wrinet detect-eval`` scores KITTI label files in their own
pixels. Priors follow one fixed rule over the tapped maps' grids
(:func:`generate_priors`), and offsets are coded with fixed
:data:`VARIANCES`. Box operations take (N, 4) arrays; the :class:`Box`
dataclass holds the single boxes of evaluation records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

BACKGROUND = -1  # assignment value for unmatched priors
VARIANCES = (0.1, 0.2)  # offset-coding scale of (center, size)


@dataclass
class Box:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if self.xmax < self.xmin or self.ymax < self.ymin:
            raise ValueError(f"degenerate box {self}")


def _boxes_array(boxes) -> np.ndarray:
    arr = np.asarray(boxes, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"expected (N, 4) boxes, got shape {arr.shape}")
    return arr


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (N, 4) and (M, 4) corner boxes; 0 where the union
    is empty."""
    a = _boxes_array(a)
    b = _boxes_array(b)
    ix = np.maximum(0.0, np.minimum(a[:, None, 2], b[None, :, 2])
                    - np.maximum(a[:, None, 0], b[None, :, 0]))
    iy = np.maximum(0.0, np.minimum(a[:, None, 3], b[None, :, 3])
                    - np.maximum(a[:, None, 1], b[None, :, 1]))
    inter = ix * iy
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


# ---------------------------------------------------------------------------
# Prior (default) boxes
# ---------------------------------------------------------------------------

ASPECT_RATIOS = (1.0, 2.0, 0.5)
PRIORS_PER_CELL = len(ASPECT_RATIOS) + 1  # the ratios, then the extra ratio-1 prior


def generate_priors(grids: Sequence[tuple[int, int]]) -> np.ndarray:
    """(P, 4) normalized corner boxes for feature maps of the given (H, W)
    grids, clipped to [0, 1] and ordered by (map, row, col, prior).

    SSD's rule: the scales s_k run evenly from 0.2 to 0.9 across the maps
    (0.2 for a single map). Each cell of map k holds one prior per aspect
    ratio a, of size (s_k sqrt(a), s_k / sqrt(a)), then a square one of side
    sqrt(s_k s_{k+1}), with s_{k+1} = 1 after the last map."""
    k = len(grids)
    scales = [0.2 if k == 1 else 0.2 + (0.9 - 0.2) * i / (k - 1) for i in range(k)]
    boxes = []
    for (h, w), s, nxt in zip(grids, scales, scales[1:] + [1.0]):
        sizes = [(s * math.sqrt(a), s / math.sqrt(a)) for a in ASPECT_RATIOS]
        half = np.array(sizes + [(math.sqrt(s * nxt),) * 2]) / 2  # per prior: (w/2, h/2)
        cy, cx = np.meshgrid((np.arange(h) + 0.5) / h, (np.arange(w) + 0.5) / w,
                             indexing="ij")
        centers = np.stack([cx, cy], axis=-1)[:, :, None, :]  # (H, W, 1, 2)
        boxes.append(np.concatenate([centers - half, centers + half], axis=-1).reshape(-1, 4))
    return np.clip(np.concatenate(boxes), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Offset coding (center-size, variance-scaled)
# ---------------------------------------------------------------------------

def _to_center(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    w = boxes[:, 2] - boxes[:, 0]
    h = boxes[:, 3] - boxes[:, 1]
    cx = boxes[:, 0] + w / 2
    cy = boxes[:, 1] + h / 2
    return cx, cy, w, h


def encode_boxes(gts: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """Offsets (t_x, t_y, t_w, t_h): centers scaled by prior size and the
    center variance, log-sizes by the size variance (:data:`VARIANCES`)."""
    gts = _boxes_array(gts)
    priors = _boxes_array(priors)
    gx, gy, gw, gh = _to_center(gts)
    px, py, pw, ph = _to_center(priors)
    if np.any(gw <= 0) or np.any(gh <= 0):
        bad = int(np.argmax((gw <= 0) | (gh <= 0)))
        raise ValueError(f"groundtruth box {bad} has nonpositive size")
    if np.any(pw <= 0) or np.any(ph <= 0):
        bad = int(np.argmax((pw <= 0) | (ph <= 0)))
        raise ValueError(f"prior box {bad} has nonpositive size")
    v_c, v_s = VARIANCES
    t = np.stack([
        (gx - px) / (pw * v_c),
        (gy - py) / (ph * v_c),
        np.log(gw / pw) / v_s,
        np.log(gh / ph) / v_s,
    ], axis=1)
    return t


def decode_boxes(offsets: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`encode_boxes`."""
    offsets = np.asarray(offsets, dtype=np.float64)
    if offsets.ndim == 1:
        offsets = offsets[None, :]
    priors = _boxes_array(priors)
    px, py, pw, ph = _to_center(priors)
    v_c, v_s = VARIANCES
    cx = offsets[:, 0] * v_c * pw + px
    cy = offsets[:, 1] * v_c * ph + py
    w = pw * np.exp(offsets[:, 2] * v_s)
    h = ph * np.exp(offsets[:, 3] * v_s)
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)


# ---------------------------------------------------------------------------
# Matching priors to groundtruth
# ---------------------------------------------------------------------------

def match_priors(priors: np.ndarray, gts: np.ndarray,
                 iou_threshold: float = 0.5) -> np.ndarray:
    """Per-prior assignment: a groundtruth index or BACKGROUND (-1).

    Each groundtruth first claims its best-IoU prior among those still
    unclaimed (in groundtruth order, ties to the lowest prior index); the
    remaining priors then match any groundtruth at IoU >= threshold, ties to
    the highest IoU then the lowest groundtruth index.
    """
    priors = _boxes_array(priors)
    if gts is None or len(gts) == 0:
        return np.full(priors.shape[0], BACKGROUND, dtype=np.int64)
    gts = _boxes_array(gts)
    overlaps = iou_matrix(priors, gts)  # (P, G)
    assignment = np.full(priors.shape[0], BACKGROUND, dtype=np.int64)
    claimed = np.zeros(priors.shape[0], dtype=bool)
    for g in range(gts.shape[0]):
        if claimed.all():
            break  # more groundtruths than priors; the rest get no forced match
        col = overlaps[:, g].copy()
        col[claimed] = -1.0
        p = int(np.argmax(col))
        assignment[p] = g
        claimed[p] = True
    best_gt = overlaps.argmax(axis=1)
    best_iou = overlaps[np.arange(priors.shape[0]), best_gt]
    takeable = (~claimed) & (best_iou >= iou_threshold)
    assignment[takeable] = best_gt[takeable]
    return assignment


# ---------------------------------------------------------------------------
# Multibox loss (softmax cross-entropy + smooth L1, hard-negative mining)
# ---------------------------------------------------------------------------

def smooth_l1(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return np.where(ax < 1.0, 0.5 * x * x, ax - 0.5)


def smooth_l1_grad(x: np.ndarray) -> np.ndarray:
    return np.clip(x, -1.0, 1.0)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def multibox_loss(class_logits: np.ndarray, offset_preds: np.ndarray,
                  assignments: np.ndarray, gt_labels: np.ndarray,
                  encoded_targets: np.ndarray, negpos_ratio: int = 3
                  ) -> tuple[float, np.ndarray, np.ndarray]:
    """(L_conf + L_loc) / N over one image's priors.

    class_logits are (P, C) with background at class 0; gt_labels holds the
    foreground class (>= 1) per groundtruth; encoded_targets are the
    per-prior regression targets (rows of unmatched priors are ignored).
    Confidence loss covers matched priors plus the negpos_ratio * N
    highest-confidence-loss background priors. N = 0 yields zero loss and
    gradients.
    """
    class_logits = np.asarray(class_logits, dtype=np.float64)
    offset_preds = np.asarray(offset_preds, dtype=np.float64)
    p_count, c_count = class_logits.shape
    pos = assignments != BACKGROUND
    n_match = int(pos.sum())
    grad_logits = np.zeros_like(class_logits)
    grad_offsets = np.zeros_like(offset_preds)
    if n_match == 0:
        return 0.0, grad_logits, grad_offsets

    # localization over matched priors
    err = offset_preds[pos] - encoded_targets[pos]
    l_loc = float(smooth_l1(err).sum())
    grad_offsets[pos] = smooth_l1_grad(err) / n_match

    # per-prior class targets: gt label for matches, background otherwise
    targets = np.zeros(p_count, dtype=np.int64)
    targets[pos] = np.asarray(gt_labels, dtype=np.int64)[assignments[pos]]
    log_probs = _log_softmax(class_logits)
    ce = -log_probs[np.arange(p_count), targets]

    neg_candidates = np.flatnonzero(~pos)
    n_neg = min(negpos_ratio * n_match, neg_candidates.size)
    if n_neg > 0:
        neg_losses = ce[neg_candidates]
        sel = np.argsort(-neg_losses, kind="stable")[:n_neg]
        negatives = neg_candidates[sel]
    else:
        negatives = np.empty(0, dtype=np.int64)
    selected = np.concatenate([np.flatnonzero(pos), negatives])
    l_conf = float(ce[selected].sum())

    probs = np.exp(log_probs[selected])
    probs[np.arange(selected.size), targets[selected]] -= 1.0
    grad_logits[selected] = probs / n_match

    loss = (l_conf + l_loc) / n_match
    return loss, grad_logits, grad_offsets


# ---------------------------------------------------------------------------
# Non-maximum suppression
# ---------------------------------------------------------------------------

def nms(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float = 0.45
        ) -> list[int]:
    """Greedy NMS: keep the highest-score box, drop boxes overlapping it with
    IoU strictly above the threshold; ties break by input order. Returns kept
    indices in selection order."""
    boxes = _boxes_array(boxes)
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("nms requires finite scores")
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    kept: list[int] = []
    suppressed = np.zeros(len(scores), dtype=bool)
    for i in order:
        if suppressed[i]:
            continue
        kept.append(i)
        # one row of IoUs per kept box, never the n x n matrix
        suppressed |= iou_matrix(boxes[i], boxes)[0] > iou_threshold
    return kept


# ---------------------------------------------------------------------------
# Evaluation: per-class AP (11-point interpolated) and AR, averaged to
# mAP / mAR. DontCare regions and difficulty-ineligible groundtruths are
# excluded from both TP and FP accounting.
# ---------------------------------------------------------------------------

@dataclass
class Detection:
    image_id: str
    class_id: str
    score: float
    box: Box


@dataclass
class GroundTruth:
    image_id: str
    class_id: str
    box: Box
    difficulty: str = "easy"  # easy|moderate|hard|ignored
    dont_care: bool = False


_ELIGIBLE = {
    "easy": {"easy"},
    "moderate": {"easy", "moderate"},
    "hard": {"easy", "moderate", "hard"},
    "all": {"easy", "moderate", "hard", "ignored"},
}


@dataclass
class ClassMetrics:
    class_id: str
    ap: float
    ar: float
    tp: int
    fp: int
    num_gt: int


@dataclass
class EvalReport:
    difficulty: str
    iou_threshold: float
    per_class: list[ClassMetrics]
    mean_ap: float
    mean_ar: float

    def to_dict(self) -> dict:
        return {
            "difficulty": self.difficulty,
            "iou_threshold": self.iou_threshold,
            "per_class": [
                {"class": m.class_id, "ap": m.ap, "ar": m.ar, "tp": m.tp,
                 "fp": m.fp, "num_gt": m.num_gt}
                for m in self.per_class
            ],
            "mAP": self.mean_ap,
            "mAR": self.mean_ar,
        }

    def to_text(self) -> str:
        head = f"{'class':<16}{'AP%':>8}{'AR%':>8}{'TP':>6}{'FP':>6}{'#gt':>6}"
        lines = [f"difficulty: {self.difficulty}  IoU >= {self.iou_threshold}",
                 head, "-" * len(head)]
        for m in self.per_class:
            lines.append(f"{m.class_id:<16}{100 * m.ap:>8.2f}{100 * m.ar:>8.2f}"
                         f"{m.tp:>6}{m.fp:>6}{m.num_gt:>6}")
        lines.append("-" * len(head))
        lines.append(f"{'mAP':<16}{100 * self.mean_ap:>8.2f}")
        lines.append(f"{'mAR':<16}{100 * self.mean_ar:>8.2f}")
        return "\n".join(lines)


def interpolated_ap(recalls: np.ndarray, precisions: np.ndarray) -> float:
    """11-point interpolated AP: the mean, over recall levels 0, 0.1, ..., 1,
    of the best precision at a recall of at least that level."""
    if recalls.size == 0:
        return 0.0
    total = 0.0
    for r in np.linspace(0.0, 1.0, 11):
        mask = recalls >= r - 1e-12
        total += precisions[mask].max() if mask.any() else 0.0
    return total / 11


def _corners(records) -> np.ndarray:
    """(N, 4) array of the records' boxes."""
    return np.array([(r.box.xmin, r.box.ymin, r.box.xmax, r.box.ymax) for r in records],
                    dtype=np.float64).reshape(-1, 4)


def _match_image(ranked: list[Detection], gts: list[GroundTruth], dontcare: list[GroundTruth],
                 iou_threshold: float, eligible: set[str]) -> list[int]:
    """Per detection of one image and class, in rank order: 1 TP, 0 FP, -1
    neither. Each takes the unused groundtruth of highest IoU >= threshold,
    the first in input order on an equal IoU."""
    boxes = _corners(ranked)
    overlaps = iou_matrix(boxes, _corners(gts)).tolist()
    in_dontcare = (iou_matrix(boxes, _corners(dontcare)) >= iou_threshold).any(axis=1)
    used = [False] * len(gts)
    flags = []
    for row, dc in zip(overlaps, in_dontcare):
        free = [j for j, v in enumerate(row) if v >= iou_threshold and not used[j]]
        if free:
            best = max(free, key=row.__getitem__)  # max keeps the first of equal maxima
            used[best] = True
            flags.append(1 if gts[best].difficulty in eligible else -1)
        else:
            flags.append(-1 if dc else 0)
    return flags


def evaluate_detections(detections: Sequence[Detection],
                        groundtruths: Sequence[GroundTruth],
                        iou_threshold: float = 0.5, difficulty: str = "all") -> EvalReport:
    """11-point interpolated AP and AR per groundtruth class.

    Inputs are grouped once by class and image. Each class's detections are
    ranked by descending score, input order among equal scores. In each
    image, one IoU matrix against the class's groundtruths and one against
    the DontCare regions decide the image's detections in rank order
    (:func:`_match_image`); the first groundtruth in input order wins an equal
    IoU. A match to a groundtruth that fails the difficulty filter, and an
    unmatched detection that overlaps a DontCare region, count as neither TP
    nor FP."""
    if difficulty not in _ELIGIBLE:
        raise ValueError(f"unknown difficulty filter {difficulty!r}")
    eligible = _ELIGIBLE[difficulty]
    gts, dontcare = {}, {}  # class -> image -> groundtruths; image -> DontCare regions
    for gt in groundtruths:
        group = dontcare if gt.dont_care else gts.setdefault(gt.class_id, {})
        group.setdefault(gt.image_id, []).append(gt)
    image_ids = {gt.image_id for gt in groundtruths}
    dets: dict[str, list[Detection]] = {}
    for d in detections:
        if d.image_id not in image_ids:
            raise ValueError(f"detection references unknown image id {d.image_id!r}")
        dets.setdefault(d.class_id, []).append(d)

    per_class: list[ClassMetrics] = []
    for class_id, class_gts in sorted(gts.items()):
        ranked = sorted(dets.get(class_id, []), key=lambda d: -d.score)
        ranks: dict[str, list[int]] = {}  # image -> ranks of its detections
        for r, d in enumerate(ranked):
            ranks.setdefault(d.image_id, []).append(r)
        flags = np.full(len(ranked), -1, dtype=np.int64)
        for image_id, idx in ranks.items():
            flags[idx] = _match_image([ranked[r] for r in idx], class_gts.get(image_id, []),
                                      dontcare.get(image_id, []), iou_threshold, eligible)
        flags = flags[flags >= 0]  # 1 TP, 0 FP, in rank order
        num_gt = sum(g.difficulty in eligible for lst in class_gts.values() for g in lst)
        tp = np.cumsum(flags)
        ap = interpolated_ap(tp / num_gt, tp / np.arange(1, tp.size + 1)) if num_gt else 0.0
        ar = float(tp[-1] / num_gt) if num_gt and tp.size else 0.0
        per_class.append(ClassMetrics(class_id, ap, ar, int(flags.sum()),
                                      int(flags.size - flags.sum()), num_gt))

    scored = [m for m in per_class if m.num_gt > 0]
    mean_ap = float(np.mean([m.ap for m in scored])) if scored else 0.0
    mean_ar = float(np.mean([m.ar for m in scored])) if scored else 0.0
    return EvalReport(difficulty, iou_threshold, per_class, mean_ap, mean_ar)

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import iou_by_pixel_count, match_reference, nms_reference, priors_reference
from wrinet.detection import (PRIORS_PER_CELL, VARIANCES, Box, Detection, GroundTruth,
                              decode_boxes, encode_boxes, evaluate_detections,
                              generate_priors, iou_matrix, match_priors,
                              multibox_loss, nms)


# ---------------------------------------------------------------------------
# IoU
# ---------------------------------------------------------------------------

def test_iou_identical_and_disjoint():
    a = (0, 0, 10, 10)
    assert iou_matrix(a, (0, 0, 10, 10))[0, 0] == 1.0
    assert iou_matrix(a, (20, 20, 30, 30))[0, 0] == 0.0
    assert iou_matrix((0, 0, 0, 0), (0, 0, 0, 0))[0, 0] == 0.0  # empty union


def test_iou_quarter_overlap():
    v = iou_matrix((0, 0, 10, 10), (5, 5, 15, 15))[0, 0]
    assert v == pytest.approx(25 / 175)
    assert v == pytest.approx(iou_by_pixel_count((0, 0, 10, 10), (5, 5, 15, 15)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=8, max_size=8))
def test_iou_matches_pixel_counting(vals):
    ax0, ay0, bx0, by0 = vals[:4]
    a = (ax0, ay0, ax0 + 1 + vals[4], ay0 + 1 + vals[5])
    b = (bx0, by0, bx0 + 1 + vals[6], by0 + 1 + vals[7])
    v = iou_matrix(a, b)[0, 0]
    assert v == pytest.approx(iou_by_pixel_count(a, b))
    assert v == pytest.approx(iou_matrix(b, a)[0, 0])
    assert 0.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# prior boxes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("grids", [[(1, 1)], [(2, 2), (1, 1)], [(3, 5), (2, 3), (1, 1)],
                                   [(64, 208), (32, 104)]])
def test_priors_equal_per_cell_loop_bit_for_bit(grids):
    priors = generate_priors(grids)
    assert priors.dtype == np.float64
    assert np.array_equal(priors, priors_reference(grids))


def test_single_centered_prior():
    priors = generate_priors([(1, 1)])
    assert priors.shape == (PRIORS_PER_CELL, 4)
    assert np.allclose(priors[0], [0.4, 0.4, 0.6, 0.6])  # ratio 1 at scale 0.2


def test_prior_count_with_extra():
    priors = generate_priors([(2, 2), (1, 1)])
    assert PRIORS_PER_CELL == 4  # ratios 1, 2 and 1/2, plus the extra ratio-1 prior
    assert priors.shape == ((2 * 2 + 1) * PRIORS_PER_CELL, 4)


def test_prior_aspect_ratio_dimensions():
    priors = generate_priors([(3, 3)])
    center = priors[4 * PRIORS_PER_CELL + 1]  # cell (1,1)'s ratio-2 prior stays unclipped
    w = center[2] - center[0]
    h = center[3] - center[1]
    assert w == pytest.approx(0.2 * math.sqrt(2), abs=1e-12)
    assert h == pytest.approx(0.2 / math.sqrt(2), abs=1e-12)


def test_priors_clipped_and_ordered():
    priors = generate_priors([(2, 2), (1, 1)])
    assert np.all(priors >= 0.0) and np.all(priors <= 1.0)
    per_cell = PRIORS_PER_CELL
    # first map occupies the first 2*2*per_cell rows, row-major by cell
    first_map = priors[:4 * per_cell].reshape(2, 2, per_cell, 4)
    cx = (first_map[..., 0] + first_map[..., 2]) / 2
    assert np.allclose(cx[0, 0], 0.25, atol=0.26)  # left column centers left of right column
    assert cx[0, 0].mean() < cx[0, 1].mean()
    cy = (first_map[..., 1] + first_map[..., 3]) / 2
    assert cy[0].mean() < cy[1].mean()


def test_extra_prior_uses_next_scale_then_unity():
    priors = generate_priors([(1, 1), (1, 1)])  # scales 0.2 and 0.9
    w0_extra = priors[3, 2] - priors[3, 0]
    assert w0_extra == pytest.approx(math.sqrt(0.2 * 0.9), abs=1e-12)
    w1_extra = priors[7, 2] - priors[7, 0]
    assert w1_extra == pytest.approx(min(1.0, math.sqrt(0.9 * 1.0)), abs=1e-12)


# ---------------------------------------------------------------------------
# offset coding
# ---------------------------------------------------------------------------

def test_encode_identity_is_zero():
    p = np.array([[0.25, 0.25, 0.75, 0.75]])
    assert np.allclose(encode_boxes(p, p), 0.0)


def test_encode_hand_computed_values():
    prior = np.array([[0.25, 0.25, 0.75, 0.75]])
    gt = np.array([[0.30, 0.30, 0.80, 0.80]])
    assert VARIANCES == (0.1, 0.2)
    (t,) = encode_boxes(gt, prior)
    assert t[0] == pytest.approx(0.05 / (0.5 * 0.1))
    assert t[1] == pytest.approx(1.0)
    assert t[2] == pytest.approx(0.0, abs=1e-12)
    assert t[3] == pytest.approx(0.0, abs=1e-12)


def test_decode_inverts_encode():
    prior = np.array([[0.2, 0.3, 0.6, 0.9]])
    gt = np.array([[0.15, 0.35, 0.58, 0.88]])
    back = decode_boxes(encode_boxes(gt, prior), prior)
    assert np.allclose(back, gt, atol=1e-9)


def test_encode_rejects_degenerate_groundtruth():
    prior = np.array([[0.2, 0.2, 0.8, 0.8]])
    with pytest.raises(ValueError, match="nonpositive"):
        encode_boxes(np.array([[0.3, 0.3, 0.3, 0.5]]), prior)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_decode_encode_identity_random(seed):
    rng = np.random.default_rng(seed)
    pri = rng.uniform(0.0, 0.8, size=(16, 2))
    priors = np.concatenate([pri, pri + rng.uniform(0.05, 0.2, size=(16, 2))], axis=1)
    gt0 = rng.uniform(0.0, 0.8, size=(16, 2))
    gts = np.concatenate([gt0, gt0 + rng.uniform(0.05, 0.2, size=(16, 2))], axis=1)
    decoded = decode_boxes(encode_boxes(gts, priors), priors)
    assert np.max(np.abs(decoded - gts)) < 1e-9


# ---------------------------------------------------------------------------
# prior matching
# ---------------------------------------------------------------------------

def test_identical_prior_matches_gt():
    priors = np.array([[0.1, 0.1, 0.4, 0.4], [0.5, 0.5, 0.9, 0.9]])
    gts = np.array([[0.5, 0.5, 0.9, 0.9]])
    out = match_priors(priors, gts)
    assert out.tolist() == [-1, 0]


def test_forced_match_when_all_ious_below_threshold():
    priors = np.array([[0.0, 0.0, 0.1, 0.1], [0.6, 0.6, 0.7, 0.7],
                       [0.8, 0.8, 1.0, 1.0]])
    gts = np.array([[0.55, 0.55, 0.78, 0.78]])
    out = match_priors(priors, gts, iou_threshold=0.5)
    assert (out >= 0).sum() == 1
    overlaps = iou_matrix(priors, gts)[:, 0]
    assert out[int(np.argmax(overlaps))] == 0


def test_no_gts_all_background():
    priors = np.array([[0.0, 0.0, 0.5, 0.5]])
    assert match_priors(priors, np.zeros((0, 4))).tolist() == [-1]


def test_match_agrees_with_bruteforce_and_covers_every_gt():
    rng = np.random.default_rng(0)
    for trial in range(50):
        g_count = int(rng.integers(1, 10))
        p_count = int(rng.integers(max(10, g_count), 50))
        pri = rng.uniform(0, 0.8, size=(p_count, 2))
        priors = np.concatenate([pri, pri + rng.uniform(0.05, 0.3, (p_count, 2))], 1)
        gt0 = rng.uniform(0, 0.8, size=(g_count, 2))
        gts = np.concatenate([gt0, gt0 + rng.uniform(0.05, 0.3, (g_count, 2))], 1)
        ours = match_priors(priors, gts)
        ref = match_reference(priors, gts, 0.5)
        assert np.array_equal(ours, ref), f"trial {trial}"
        for g in range(g_count):
            assert (ours == g).sum() >= 1


def test_match_with_more_gts_than_priors_stays_valid():
    priors = np.array([[0.0, 0.0, 0.3, 0.3], [0.5, 0.5, 0.8, 0.8]])
    gts = np.array([[0.0, 0.0, 0.3, 0.3], [0.5, 0.5, 0.8, 0.8],
                    [0.1, 0.6, 0.4, 0.9]])
    out = match_priors(priors, gts)
    assert out.tolist() == [0, 1]  # third gt has no prior left to claim
    assert np.array_equal(out, match_reference(priors, gts, 0.5))


# ---------------------------------------------------------------------------
# multibox loss
# ---------------------------------------------------------------------------

def _loss_fixture(p_count=6, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(p_count, classes + 1))
    offsets = rng.normal(size=(p_count, 4)) * 0.1
    assignments = np.full(p_count, -1)
    assignments[1] = 0
    assignments[4] = 1
    gt_labels = np.array([2, 1])
    targets = np.zeros((p_count, 4))
    targets[1] = offsets[1]  # perfect localization for prior 1
    targets[4] = offsets[4] - 0.5  # error of exactly 0.5 per coordinate
    return logits, offsets, assignments, gt_labels, targets


def test_perfect_offsets_zero_localization_loss():
    logits, offsets, assignments, gt_labels, _ = _loss_fixture()
    targets = offsets.copy()
    loss_all, _, grad_off = multibox_loss(logits, offsets, assignments, gt_labels,
                                          targets, negpos_ratio=0)
    assert np.all(grad_off == 0.0)


def test_smooth_l1_half_error_value():
    logits, offsets, assignments, gt_labels, targets = _loss_fixture()
    assignments = np.full(len(assignments), -1)
    assignments[4] = 1
    loss, _, _ = multibox_loss(logits, offsets, assignments, gt_labels, targets,
                               negpos_ratio=0)
    expected_conf = -np.log(np.exp(logits[4]) / np.exp(logits[4]).sum())[1]
    assert loss == pytest.approx((4 * 0.125 + expected_conf) / 1)


def test_zero_matches_zero_loss_and_gradients():
    logits, offsets, _, gt_labels, targets = _loss_fixture()
    assignments = np.full(len(logits), -1)
    loss, gl, go = multibox_loss(logits, offsets, assignments, gt_labels, targets)
    assert loss == 0.0
    assert np.all(gl == 0.0) and np.all(go == 0.0)


def test_hard_negative_mining_selects_top_losses():
    rng = np.random.default_rng(1)
    logits = np.zeros((8, 3))
    logits[:, 0] = np.linspace(3.0, -4.0, 8)  # decreasing background confidence
    offsets = np.zeros((8, 4))
    assignments = np.full(8, -1)
    assignments[0] = 0
    targets = np.zeros((8, 4))
    _, grad, _ = multibox_loss(logits, offsets, assignments, np.array([1]), targets,
                               negpos_ratio=3)
    touched = np.flatnonzero(np.any(grad != 0, axis=1))
    # positive prior 0 plus the 3 backgrounds with the worst background score
    assert touched.tolist() == [0, 5, 6, 7]


def test_multibox_gradients_match_finite_differences():
    from wrinet.gradcheck import fd_gradients, relative_error

    logits, offsets, assignments, gt_labels, targets = _loss_fixture(seed=3)

    def loss():
        value, _, _ = multibox_loss(logits, offsets, assignments, gt_labels,
                                    targets, negpos_ratio=3)
        return value

    _, grad_logits, grad_offsets = multibox_loss(logits, offsets, assignments,
                                                 gt_labels, targets, negpos_ratio=3)
    n_logits, n_offsets = fd_gradients(loss, [logits, offsets], 1e-6)
    assert relative_error(grad_logits, n_logits) < 1e-4
    assert relative_error(grad_offsets, n_offsets) < 1e-4


# ---------------------------------------------------------------------------
# non-maximum suppression
# ---------------------------------------------------------------------------

def test_nms_worked_example():
    boxes = np.array([[0, 0, 10, 10], [1, 1, 11, 11], [20, 20, 30, 30]], dtype=float)
    scores = np.array([0.9, 0.8, 0.7])
    assert iou_matrix(boxes[0], boxes[1])[0, 0] == pytest.approx(81 / 119)
    kept = nms(boxes, scores, iou_threshold=0.5)
    assert kept == [0, 2]


def test_nms_single_and_identical_boxes():
    assert nms(np.array([[0, 0, 1, 1.0]]), np.array([0.3])) == [0]
    boxes = np.tile(np.array([[2.0, 2, 5, 5]]), (4, 1))
    scores = np.array([0.1, 0.9, 0.5, 0.9])
    assert nms(boxes, scores, iou_threshold=0.45) == [1]


def test_nms_rejects_nonfinite_scores():
    with pytest.raises(ValueError):
        nms(np.array([[0, 0, 1, 1.0]]), np.array([np.nan]))


def test_nms_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(1, 20))
        tl = rng.uniform(0, 80, size=(n, 2))
        boxes = np.concatenate([tl, tl + rng.uniform(1, 40, size=(n, 2))], axis=1)
        scores = np.round(rng.random(n), 3)  # rounded scores exercise ties
        thr = float(rng.choice([0.3, 0.45, 0.6]))
        assert nms(boxes, scores, thr) == nms_reference(boxes, scores, thr), trial


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _det(img, cls, score, box):
    return Detection(image_id=img, class_id=cls, score=score, box=box)


def _gt(img, cls, box, difficulty="easy", dont_care=False):
    return GroundTruth(image_id=img, class_id=cls, box=box, difficulty=difficulty,
                       dont_care=dont_care)


def ranked_fixture():
    g1 = _gt("a", "car", Box(0.1, 0.1, 0.4, 0.4))
    g2 = _gt("b", "car", Box(0.5, 0.5, 0.9, 0.9))
    dets = [
        _det("a", "car", 0.9, Box(0.1, 0.1, 0.4, 0.4)),   # TP
        _det("a", "car", 0.8, Box(0.6, 0.6, 0.8, 0.8)),   # FP
        _det("b", "car", 0.7, Box(0.5, 0.5, 0.9, 0.9)),   # TP
    ]
    return dets, [g1, g2]


def test_eleven_point_ap_hand_computed():
    dets, gts = ranked_fixture()
    report = evaluate_detections(dets, gts)
    (m,) = report.per_class
    assert m.ap == pytest.approx(28 / 33)
    assert m.ar == 1.0
    assert report.mean_ap == pytest.approx(28 / 33)
    assert 0.8484 < report.mean_ap < 0.8486


def test_perfect_detections_score_one():
    gts = [_gt("a", "car", Box(0.1, 0.1, 0.3, 0.3)),
           _gt("a", "ped", Box(0.5, 0.5, 0.7, 0.7)),
           _gt("b", "car", Box(0.2, 0.2, 0.6, 0.6))]
    dets = [_det(g.image_id, g.class_id, 1.0, g.box) for g in gts]
    report = evaluate_detections(dets, gts)
    assert report.mean_ap == 1.0 and report.mean_ar == 1.0


def test_no_detections_scores_zero():
    _, gts = ranked_fixture()
    report = evaluate_detections([], gts)
    assert report.mean_ap == 0.0 and report.mean_ar == 0.0


def test_unknown_image_id_rejected():
    dets, gts = ranked_fixture()
    dets[0] = _det("nowhere", "car", 0.9, Box(0, 0, 0.1, 0.1))
    with pytest.raises(ValueError, match="unknown image id"):
        evaluate_detections(dets, gts)


def test_ap_invariant_under_monotone_score_rescale():
    dets, gts = ranked_fixture()
    base = evaluate_detections(dets, gts).mean_ap
    squashed = [
        _det(d.image_id, d.class_id, 1 / (1 + np.exp(-7 * d.score)), d.box)
        for d in dets
    ]
    assert evaluate_detections(squashed, gts).mean_ap == pytest.approx(base)


def _greedy_flags(dets, gts, thr=0.5):
    """Test-side re-derivation of per-detection TP/FP flags."""
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    used = set()
    flags = {}
    for i in order:
        best, best_v = None, thr
        for j, g in enumerate(gts):
            if j in used or g.image_id != dets[i].image_id:
                continue
            v = iou_matrix(astuple(dets[i].box), astuple(g.box))[0, 0]
            if v >= best_v and (best is None or v > best_v):
                best, best_v = j, v
        if best is not None:
            used.add(best)
            flags[i] = "tp"
        else:
            flags[i] = "fp"
    return flags


def test_deleting_a_false_positive_never_hurts_ap():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(20):
        gts = [_gt("a", "c", Box(*sorted(rng.uniform(0, 0.4, 2)),
                                 *sorted(rng.uniform(0.5, 1.0, 2))))
               for _ in range(3)]
        dets = [_det("a", "c", float(rng.random()),
                     Box(*sorted(rng.uniform(0, 0.5, 2)),
                         *sorted(rng.uniform(0.5, 1.0, 2))))
                for _ in range(6)]
        report = evaluate_detections(dets, gts)
        ap = report.per_class[0].ap
        assert 0.0 <= ap <= 1.0
        flags = _greedy_flags(dets, gts)
        for i, flag in flags.items():
            if flag != "fp":
                continue
            trimmed = dets[:i] + dets[i + 1:]
            result = evaluate_detections(trimmed, gts)
            assert result.per_class[0].ap >= ap - 1e-12
            checked += 1
    assert checked > 10


def test_dontcare_regions_absorb_overlapping_detections():
    gts = [_gt("a", "car", Box(0.1, 0.1, 0.3, 0.3)),
           _gt("a", "car", Box(0.6, 0.6, 0.9, 0.9), dont_care=True)]
    dets = [_det("a", "car", 0.9, Box(0.1, 0.1, 0.3, 0.3)),
            _det("a", "car", 0.8, Box(0.6, 0.6, 0.9, 0.9))]  # only hits DontCare
    report = evaluate_detections(dets, gts)
    (m,) = report.per_class
    assert m.tp == 1 and m.fp == 0
    assert m.ap == 1.0


def test_difficulty_filter_is_cumulative():
    gts = [_gt("a", "car", Box(0.1, 0.1, 0.3, 0.3), difficulty="easy"),
           _gt("a", "car", Box(0.5, 0.5, 0.7, 0.7), difficulty="moderate"),
           _gt("a", "car", Box(0.75, 0.1, 0.95, 0.3), difficulty="hard")]
    dets = [_det("a", "car", 0.9, gts[0].box),
            _det("a", "car", 0.8, gts[1].box),
            _det("a", "car", 0.7, gts[2].box)]
    easy = evaluate_detections(dets, gts, difficulty="easy")
    moderate = evaluate_detections(dets, gts, difficulty="moderate")
    hard = evaluate_detections(dets, gts, difficulty="hard")
    assert easy.per_class[0].num_gt == 1
    assert moderate.per_class[0].num_gt == 2
    assert hard.per_class[0].num_gt == 3
    # matches to filtered-out groundtruths count as neither TP nor FP
    assert easy.per_class[0].fp == 0
    assert easy.mean_ap == 1.0 and hard.mean_ar == 1.0


def test_report_serialization():
    dets, gts = ranked_fixture()
    report = evaluate_detections(dets, gts)
    d = report.to_dict()
    assert d["mAP"] == pytest.approx(28 / 33)
    assert "car" in report.to_text()
    assert f"{100 * 28 / 33:.2f}" in report.to_text()

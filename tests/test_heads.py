import tracemalloc

import numpy as np
import pytest

from wrinet import layers
from wrinet.analysis import analyze, count_macs
from wrinet.builder import StageConfig, NetworkConfig, build_network, builtin_config
from wrinet.blocks import UnitSpec
from wrinet.detection import match_priors
from wrinet.gradcheck import fd_gradients, relative_error
from wrinet.graph import NodeNonFiniteError, load_checkpoint, save_checkpoint
from wrinet.heads import (LOGITS, OFFSETS, build_detection_head, detection_backward,
                          detection_forward, detection_loss_batch)
from wrinet.optim import OptimizerState, sgd_nesterov_step


def tiny_backbone(seed=0, dtype=np.float32):
    stages = [
        StageConfig([UnitSpec("basic", 4, (4, 4), 1, 4)]),
        StageConfig([UnitSpec("inception", 4, (4, 3, 3, 4), 2, 4)]),
    ]
    cfg = NetworkConfig(name="toy-det", input_shape=(3, 16, 16), conv1=(3, 4),
                        stages=stages, num_classes=4)
    return build_network(cfg, seed=seed, dtype=dtype)


TAPS = ("stage1/unit0/add", "stage2/unit0/add")


def test_head_prediction_counts_match_priors():
    g = tiny_backbone()
    head = build_detection_head(g, TAPS, (16, 16), num_classes=2, seed=1)
    x = np.random.default_rng(0).normal(size=(2, 3, 16, 16)).astype(np.float32)
    logits, offsets, _ = detection_forward(g, head, x, mode="infer")
    total = head.priors.shape[0]
    # taps at 16x16 and 8x8, 4 priors per cell (3 ratios + extra)
    assert total == (16 * 16 + 8 * 8) * 4
    assert logits.shape == (2, total, 3)
    assert offsets.shape == (2, total, 4)


def test_detection_forward_keeps_only_the_head_outputs():
    g = tiny_backbone()
    head = build_detection_head(g, TAPS, (16, 16), num_classes=2, seed=1)
    x = np.random.default_rng(0).normal(size=(2, 3, 16, 16)).astype(np.float32)
    for mode in ("train", "infer"):
        _, _, result = detection_forward(g, head, x, mode=mode)
        assert set(result.outputs) == {LOGITS, OFFSETS}


def test_prediction_and_prior_orderings_align():
    """Priors enumerate (map, row, col, ratio); flattened predictions use the
    same order, so cell (i, j) owns the block starting at (i*W + j)*per_cell."""
    g = tiny_backbone(seed=3)
    head = build_detection_head(g, TAPS, (16, 16), num_classes=2, seed=2)
    # first-map priors enumerate cells row-major: prior index for cell (i,j)
    # is (i*16 + j)*4; interior cells (no boundary clipping) keep their centers
    for cell in [(3, 5), (7, 7), (12, 10)]:
        i, j = cell
        idx = (i * 16 + j) * 4
        box = head.priors[idx]
        cx = (box[0] + box[2]) / 2
        cy = (box[1] + box[3]) / 2
        assert abs(cx - (j + 0.5) / 16) < 1e-9
        assert abs(cy - (i + 0.5) / 16) < 1e-9
    # boundary cells are clipped into [0, 1]
    assert np.all(head.priors >= 0.0) and np.all(head.priors <= 1.0)


def test_head_gradients_match_finite_differences():
    g = tiny_backbone(seed=5, dtype=np.float64)
    head = build_detection_head(g, TAPS, (16, 16), num_classes=2, seed=4,
                                dtype=np.float64)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 3, 16, 16))
    p = head.priors.shape[0]
    proj_l = rng.normal(size=(1, p, 3)) / p
    proj_o = rng.normal(size=(1, p, 4)) / p

    def loss():
        logits, offsets, _ = detection_forward(g, head, x, mode="train")
        return float(np.sum(logits * proj_l) + np.sum(offsets * proj_o))

    logits, offsets, caches = detection_forward(g, head, x, mode="train")
    grads = detection_backward(g, caches, proj_l, proj_o)
    arrays = {k: v for k, v in g.parameters().items() if k.startswith("head/map")}
    # spot-check head parameters and two backbone parameters
    check = dict(list(arrays.items())[:4])
    check["conv1/weight"] = g.nodes["conv1"].conv.weights
    check["stage2/unit0/shared/weight"] = g.nodes["stage2/unit0/shared"].conv.weights
    numeric = fd_gradients(loss, list(check.values()), 1e-5)
    for (name, _), num in zip(check.items(), numeric):
        assert relative_error(grads[name], num) < 1e-4, name


def synth_scene(rng):
    """One image with two axis-aligned bright rectangles, classes 1 and 2."""
    img = np.zeros((3, 16, 16), dtype=np.float32)
    boxes, labels = [], []
    for cls, (y0, x0, y1, x1) in ((1, (2, 2, 8, 8)), (2, (9, 9, 15, 15))):
        img[cls - 1, y0:y1, x0:x1] = 1.0
        boxes.append([x0 / 16, y0 / 16, x1 / 16, y1 / 16])
        labels.append(cls)
    img += 0.05 * rng.normal(size=img.shape).astype(np.float32)
    return img, np.array(boxes), np.array(labels)


def test_toy_detection_training_reduces_loss():
    rng = np.random.default_rng(0)
    g = tiny_backbone(seed=7)
    head = build_detection_head(g, TAPS, (16, 16), num_classes=2, seed=8)
    images, gt_boxes, gt_labels = [], [], []
    for _ in range(4):
        img, boxes, labels = synth_scene(rng)
        images.append(img)
        gt_boxes.append(boxes)
        gt_labels.append(labels)
    batch = np.stack(images)

    params = g.parameters()
    state = OptimizerState.for_parameters(params)
    losses = []
    for step in range(25):
        logits, offsets, caches = detection_forward(g, head, batch, mode="train")
        loss, gl, go = detection_loss_batch(logits, offsets, head.priors,
                                            gt_boxes, gt_labels)
        grads = detection_backward(g, caches, gl, go)
        sgd_nesterov_step(params, grads, state, lr=0.01, momentum=0.9,
                          weight_decay=0.0005)
        losses.append(loss)
    assert losses[-1] < 0.5 * losses[0]


def test_matching_covers_synthetic_scene():
    rng = np.random.default_rng(1)
    g = tiny_backbone()
    head = build_detection_head(g, TAPS, (16, 16), num_classes=2)
    _, boxes, _ = synth_scene(rng)
    assignment = match_priors(head.priors, boxes)
    assert (assignment == 0).sum() >= 1
    assert (assignment == 1).sum() >= 1


def test_frozen_backbone_stays_untouched_through_detection_path():
    rng = np.random.default_rng(3)
    g = tiny_backbone(seed=9)
    head = build_detection_head(g, TAPS, (16, 16), num_classes=2, seed=10)
    img, boxes, labels = synth_scene(rng)
    batch = img[None]
    params = g.parameters()
    state = OptimizerState.for_parameters(params)
    freeze = ("conv1", "stage1/")
    frozen_before = {k: v.tobytes() for k, v in params.items() if k.startswith(freeze)}
    for _ in range(5):
        logits, offsets, caches = detection_forward(g, head, batch, mode="train")
        _, gl, go = detection_loss_batch(logits, offsets, head.priors, [boxes],
                                         [labels])
        grads = detection_backward(g, caches, gl, go)
        sgd_nesterov_step(params, grads, state, 0.01, 0.9, 0.0, freeze=freeze)
    frozen_after = {k: v.tobytes() for k, v in params.items() if k.startswith(freeze)}
    assert frozen_before == frozen_after


def test_rebuilding_head_replaces_it_in_place():
    g = tiny_backbone(seed=2)
    output = g.output_name
    build_detection_head(g, TAPS, (16, 16), num_classes=2, seed=0)
    nodes = list(g.order)
    head = build_detection_head(g, TAPS, (16, 16), num_classes=2, seed=6)
    assert g.order == nodes and g.output_name == output
    fresh = tiny_backbone(seed=2)
    fresh_head = build_detection_head(fresh, TAPS, (16, 16), num_classes=2, seed=6)
    x = np.random.default_rng(0).normal(size=(1, 3, 16, 16)).astype(np.float32)
    for a, b in zip(detection_forward(g, head, x, mode="infer")[:2],
                    detection_forward(fresh, fresh_head, x, mode="infer")[:2]):
        assert np.array_equal(a, b)


def test_head_round_trips_through_checkpoint(tmp_path):
    g = tiny_backbone(seed=1)
    head = build_detection_head(g, TAPS, (16, 16), num_classes=2, seed=3)
    path = str(tmp_path / "det.wrin")
    save_checkpoint(g, path)
    other = tiny_backbone(seed=11)
    other_head = build_detection_head(other, TAPS, (16, 16), num_classes=2, seed=12)
    x = np.random.default_rng(4).normal(size=(2, 3, 16, 16)).astype(np.float32)
    before = detection_forward(other, other_head, x, mode="infer")
    load_checkpoint(other, path)
    want = detection_forward(g, head, x, mode="infer")
    got = detection_forward(other, other_head, x, mode="infer")
    assert not np.array_equal(before[0], want[0])
    for a, b in zip(got[:2], want[:2]):
        assert np.array_equal(a, b)


def test_nonfinite_head_weight_is_localized():
    g = tiny_backbone(seed=4)
    build_detection_head(g, TAPS, (16, 16), num_classes=2, seed=5)
    g.nodes["head/map1/loc"].conv.weights[0, 0, 1, 1] = np.nan
    x = np.random.default_rng(1).normal(size=(1, 3, 16, 16)).astype(np.float32)
    with pytest.raises(NodeNonFiniteError) as info:
        g.forward(x, check_finite=True)
    assert info.value.node == "head/map1/loc"


@pytest.mark.parametrize("hw", [(15, 15), (17, 17)])
def test_analyze_runs_on_head_whatever_the_input_size(hw):
    """At 15x15 the flattened taps have stride products 1*15 and 2*8; the
    concat of these 1x1 maps takes the larger."""
    g = tiny_backbone(seed=0)
    build_detection_head(g, TAPS, hw, num_classes=2, seed=1)
    nodes = {n.name: n for n in analyze(g, input_hw=hw).per_node}
    flats = [nodes[f"head/map{i}/cls/flat"].stride_product for i in range(len(TAPS))]
    assert len(set(flats)) == 2
    assert nodes["head/logits"].stride_product == max(flats)


def test_head_macs_are_counted_with_the_backbone():
    g = tiny_backbone(seed=0)
    backbone_macs, _, _ = count_macs(g, (16, 16))
    head = build_detection_head(g, TAPS, (16, 16), num_classes=2, seed=1)
    shapes = g.infer_shapes((16, 16))
    head_macs = sum(shapes[t][1] * shapes[t][2] * (c.weights.size + l.weights.size)
                    for t, c, l in zip(head.taps, head.cls_convs, head.loc_convs))
    assert head_macs > 0
    assert count_macs(g, (16, 16))[0] == backbone_macs + head_macs
    report = analyze(g, input_hw=(16, 16))
    assert report.total_macs == backbone_macs + head_macs
    assert {n.name for n in report.per_node} >= {"head/logits", "head/offsets"}


def test_single_image_detection_holds_two_stage1_maps_and_one_tile():
    """At N=1 every 3x3 conv past the stem of ``wr-inception`` at 64x208
    tiles its input by bands of output rows, and copies only the padded
    rows of each band. A conv applies the pre-activation that only it
    reads as it copies each band, and the last conv of a unit adds its
    output into the unit input that dies at the unit's add. So the traced
    peak of an infer-mode detection forward, with the taps of perfbench's
    detect-kitti, is at most two full-size stage-1 maps (at its top,
    ``stage1/unit0/conv2``'s input, which it pre-activates band by band,
    and its output, which the projection shortcut then adds into), one
    patch-matrix tile, and half a map for the 16-channel ``bn1`` output
    the shortcut reads, the band buffer and the head. A pre-activated map,
    or an add's fresh output, would add a full map."""
    hw = (64, 208)
    g = build_network(builtin_config("wr-inception", input_shape=(3, *hw)), seed=0)
    head = build_detection_head(g, ("stage2/unit1/add", "stage3/unit1/add"), hw,
                                num_classes=3, seed=0)
    c, h, w = g.infer_shapes(hw)["stage1/unit0/add"]
    map_bytes = c * h * w * np.dtype(np.float32).itemsize
    x = np.random.default_rng(0).normal(size=(1, 3, *hw)).astype(np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        detection_forward(g, head, x, mode="infer")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    bound = 2 * map_bytes + layers.CONV_TILE_BYTES + map_bytes // 2
    assert peak <= bound, (peak, bound)

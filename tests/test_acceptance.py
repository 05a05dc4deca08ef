"""Acceptance suite: one test per primary criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

The training-sanity criterion runs on a synthetic dataset written in the
exact CIFAR-10 binary format (the real archive is not bundled); it exercises
the identical read -> normalize -> train -> evaluate path.
"""

import numpy as np
import pytest

from oracles import match_reference, nms_reference
from wrinet import data as data_io
from wrinet.analysis import count_parameters, unit_macs_per_position
from wrinet.blocks import UnitSpec, effective_receptive_paths
from wrinet.builder import build_network, builtin_config
from wrinet.detection import (Box, Detection, GroundTruth, decode_boxes,
                              encode_boxes, evaluate_detections, match_priors,
                              nms)
from wrinet.gradcheck import run_suite
from wrinet.graph import NetworkGraph, load_checkpoint, save_checkpoint
from wrinet.optim import LRSchedule, TrainConfig, train_epochs
from wrinet.builder import execute


def report(name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE [{state}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: parameter counts within 2% (and 5% for the deep baseline)
# ---------------------------------------------------------------------------

def test_parameter_count_anchors():
    windows = {
        "wrn-16-4": (2.8e6, 0.02),
        "wr-inception": (2.7e6, 0.02),
        "wr-inception-l2": (4.8e6, 0.02),
        "preact-resnet-164": (1.7e6, 0.05),
    }
    details = []
    ok = True
    for name, (target, tol) in windows.items():
        total, _ = count_parameters(build_network(builtin_config(name), seed=0))
        inside = abs(total - target) <= tol * target
        ok &= inside
        details.append(f"{name}={total:,}")
    report("parameter counts vs published totals", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# Criterion 2: unit-cost equivalence, exact integers and ratio window
# ---------------------------------------------------------------------------

def test_unit_cost_equivalence():
    basic = unit_macs_per_position(UnitSpec("basic", 128, (128, 128), 1, 128))
    inception = UnitSpec("inception", 128, (128, 64, 64, 128), 1, 128)
    full = unit_macs_per_position(inception)
    branches = full - 320 * 128
    ratio = full / basic
    ok = basic == 294912 and branches == 237568 and 0.90 <= ratio <= 1.00
    report("unit-cost equivalence", ok,
           f"basic={basic}, branches={branches}, ratio={ratio:.4f}")


# ---------------------------------------------------------------------------
# Criterion 3: finite-difference gradient suite over >= 20 seeds (64-bit)
# ---------------------------------------------------------------------------

def test_gradient_suite_twenty_seeds():
    worst: dict[str, float] = {}
    for seed in range(20):
        for r in run_suite(seed=seed):
            worst[r.name] = max(worst.get(r.name, 0.0), r.max_rel_err)
    ok = all(err < 1e-4 for err in worst.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report("gradient checks, 20 seeds, rel err < 1e-4", ok, detail)


# ---------------------------------------------------------------------------
# Criterion 4: receptive fields (engine values and brute-force agreement)
# ---------------------------------------------------------------------------

def test_receptive_fields():
    from oracles import influence_receptive_field

    g = NetworkGraph(1)
    g.add_conv("c1", "input", 1, 3)
    g.add_conv("c2", "c1", 1, 3)
    double_3x3 = g.receptive_field_map((11, 11))["c2"][0]

    inception = effective_receptive_paths(
        UnitSpec("inception", 128, (128, 64, 64, 128), 1, 128))

    # miniature all-ones network: conv, stride-2 conv, two branches, joins
    m = NetworkGraph(1, name="rf-acceptance")
    m.add_conv("c1", "input", 2, 3)
    m.add_conv("down", "c1", 2, 3, stride=2)
    m.add_bn_relu("relu", "down")
    m.add_conv("b1", "relu", 2, 1, padding=0)
    m.add_conv("b2", "relu", 2, 3)
    m.add_concat("cat", ["b1", "b2"])
    m.add_conv("proj", "cat", 2, 1, padding=0)
    m.add_conv("d", "proj", 2, 3)
    m.add_add("join", "d", "proj")
    for node in m.nodes.values():
        if node.op == "conv":
            node.conv.weights = np.ones_like(node.conv.weights, dtype=np.float64)
    rf_map = m.receptive_field_map((17, 17))
    mismatches = []
    for name in m.order:
        if name == m.input_name:
            continue

        def run(x, name=name):
            return m.forward(x, mode="infer", keep=m.order).outputs[name][0]

        measured = influence_receptive_field(run, (17, 17), channels=1)
        if measured != rf_map[name][0]:
            mismatches.append(f"{name}: engine {rf_map[name][0]} oracle {measured}")

    ok = double_3x3 == 5 and inception == {1, 3, 5} and not mismatches
    report("receptive fields", ok,
           f"double3x3={double_3x3}, inception={sorted(inception)}, "
           f"oracle mismatches={mismatches or 'none'}")


# ---------------------------------------------------------------------------
# Criterion 5: training sanity (overfit a 256-image subset, deterministic)
# ---------------------------------------------------------------------------

def overfit_setup(tmp_path, seed=0):
    path = tmp_path / "data_batch_1.bin"
    data_io.write_cifar(str(path),
                        data_io.synthesize_cifar_records(256, seed=7,
                                                         class_signal=0.6))
    items = data_io.read_cifar(str(path))
    stats = data_io.channel_stats(items)
    dataset = data_io.ClassificationDataset.from_items(
        data_io.normalize_items(items, stats))
    graph = build_network(builtin_config("wr-inception"), seed=seed)
    config = TrainConfig(lr_initial=0.05, momentum=0.9, weight_decay=0.0005,
                         batch_size=64, epochs=200, seed=seed, augment=False,
                         schedule=LRSchedule("epoch", (60, 120, 160), 0.2))
    return graph, dataset, config


def test_training_sanity_overfits_subset(tmp_path):
    import dataclasses

    graph, dataset, config = overfit_setup(tmp_path)
    # determinism: two fresh 1-epoch runs produce identical loss sequences
    probes = []
    for _ in range(2):
        g2, ds2, cfg2 = overfit_setup(tmp_path)
        log2 = train_epochs(g2, ds2, dataclasses.replace(cfg2, epochs=1))
        probes.append([r.loss for r in log2.epochs])
    deterministic = probes[0] == probes[1]

    log = train_epochs(graph, dataset, dataclasses.replace(config, stop_acc=0.996))
    ok = deterministic and log.final_acc >= 0.99 and len(log.epochs) <= 200
    report("training sanity: 256-image overfit >= 99%", ok,
           f"acc={log.final_acc:.4f} after {len(log.epochs)} epochs, "
           f"deterministic={deterministic}")


# ---------------------------------------------------------------------------
# Criterion 6: detection mechanics vs brute-force oracles
# ---------------------------------------------------------------------------

def test_detection_mechanics():
    rng = np.random.default_rng(0)

    nms_agree = True
    for _ in range(500):
        n = int(rng.integers(1, 21))
        tl = rng.uniform(0, 80, size=(n, 2))
        boxes = np.concatenate([tl, tl + rng.uniform(1, 40, size=(n, 2))], axis=1)
        scores = np.round(rng.random(n), 3)
        thr = float(rng.choice([0.3, 0.45, 0.6]))
        if nms(boxes, scores, thr) != nms_reference(boxes, scores, thr):
            nms_agree = False
            break

    match_agree = True
    every_gt_covered = True
    for _ in range(500):
        g_count = int(rng.integers(1, 11))
        p_count = int(rng.integers(max(g_count, 10), 51))
        pri = rng.uniform(0, 0.8, size=(p_count, 2))
        priors = np.concatenate([pri, pri + rng.uniform(0.05, 0.3, (p_count, 2))], 1)
        gt0 = rng.uniform(0, 0.8, size=(g_count, 2))
        gts = np.concatenate([gt0, gt0 + rng.uniform(0.05, 0.3, (g_count, 2))], 1)
        ours = match_priors(priors, gts)
        if not np.array_equal(ours, match_reference(priors, gts, 0.5)):
            match_agree = False
            break
        if any((ours == g).sum() < 1 for g in range(g_count)):
            every_gt_covered = False
            break

    pri = rng.uniform(0.0, 0.8, size=(10_000, 2))
    priors = np.concatenate([pri, pri + rng.uniform(0.05, 0.2, (10_000, 2))], axis=1)
    gt0 = rng.uniform(0.0, 0.8, size=(10_000, 2))
    gts = np.concatenate([gt0, gt0 + rng.uniform(0.05, 0.2, (10_000, 2))], axis=1)
    roundtrip = float(np.max(np.abs(
        decode_boxes(encode_boxes(gts, priors), priors) - gts)))

    fixture_gts = [GroundTruth("a", "car", Box(0.1, 0.1, 0.4, 0.4)),
                   GroundTruth("b", "car", Box(0.5, 0.5, 0.9, 0.9))]
    fixture_dets = [Detection("a", "car", 0.9, Box(0.1, 0.1, 0.4, 0.4)),
                    Detection("a", "car", 0.8, Box(0.6, 0.6, 0.8, 0.8)),
                    Detection("b", "car", 0.7, Box(0.5, 0.5, 0.9, 0.9))]
    fixture = evaluate_detections(fixture_dets, fixture_gts)
    # (6*1.0 + 5*(2/3)) / 11 vs the literal 28/33 differ by one float ulp
    ap_exact = abs(fixture.per_class[0].ap - 28 / 33) < 1e-12

    self_match = evaluate_detections(
        [Detection(g.image_id, g.class_id, 1.0, g.box) for g in fixture_gts],
        fixture_gts)
    self_perfect = self_match.mean_ap == 1.0 and self_match.mean_ar == 1.0

    ok = (nms_agree and match_agree and every_gt_covered
          and roundtrip < 1e-9 and ap_exact and self_perfect)
    report("detection mechanics", ok,
           f"nms500={nms_agree}, match500={match_agree}, "
           f"decode-encode max err={roundtrip:.1e}, AP28/33={ap_exact}, "
           f"self-match={self_perfect}")


# ---------------------------------------------------------------------------
# Criterion 7: formats (CIFAR round trip, KITTI identity, checkpoint identity)
# ---------------------------------------------------------------------------

def test_format_round_trips(tmp_path):
    rng = np.random.default_rng(1)
    records = [(int(rng.integers(0, 10)),
                rng.integers(0, 256, size=(3, 32, 32)).astype(np.uint8))
               for _ in range(8)]
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    data_io.write_cifar(str(a), records)
    items = data_io.read_cifar(str(a))
    data_io.write_cifar(str(b), [(it.label, np.round(it.image * 255).astype(np.uint8))
                                 for it in items])
    cifar_ok = a.read_bytes() == b.read_bytes()

    text = ("Car 0.00 0 1.85 387.63 181.54 423.81 203.12 "
            "1.67 1.87 3.69 -16.53 2.39 58.49 1.57\n"
            "DontCare -1 -1 -10 500 150 550 180 -1 -1 -1 -1000 -1000 -1000 -10\n")
    objs = data_io.parse_kitti_labels(text)
    kitti_ok = data_io.parse_kitti_labels(
        data_io.serialize_kitti_labels(objs)) == objs

    from wrinet.gradcheck import miniature_config

    g = build_network(miniature_config(), seed=3)
    x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
    execute(g, x, mode="train", labels=np.array([0, 1]))  # real running stats
    before = execute(g, x, mode="infer").logits
    ckpt = tmp_path / "net.wrin"
    save_checkpoint(g, str(ckpt))
    fresh = build_network(miniature_config(), seed=999)
    load_checkpoint(fresh, str(ckpt))
    after = execute(fresh, x, mode="infer").logits
    ckpt_ok = np.array_equal(before, after)

    ok = cifar_ok and kitti_ok and ckpt_ok
    report("format round trips", ok,
           f"cifar-bytes={cifar_ok}, kitti-identity={kitti_ok}, "
           f"checkpoint-infer-bits={ckpt_ok}")

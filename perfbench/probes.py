"""One-shot measurements for the traced pass: functions that run once per
run (set-up, checkpointing, evaluation) rather than once per op, and the
paper's unit-cost comparison. They are the same on every workload."""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from wrinet import analysis, blocks, builder, data, detection, graph, heads, layers

from workloads import CLASSES, DETECT_HW, DETECT_TAPS, synthesize_scenes

REPS = 3
CIFAR_RECORDS = 1024
UNIT_BATCH, UNIT_CHANNELS, UNIT_HW = 64, 128, (16, 16)
INCEPTION = blocks.UnitSpec("inception", 128, (128, 64, 64, 128), 1, 128)
BASIC = blocks.UnitSpec("basic", 128, (128, 128), 1, 128)


def _median_seconds(fn) -> float:
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _unit_passes(spec: blocks.UnitSpec, x: np.ndarray, dy: np.ndarray, seed: int):
    g, out = blocks.build_standalone_unit(spec)
    rng = np.random.default_rng(seed)
    for node in g.nodes.values():
        if node.op == "conv":
            layers.msr_initialize(node.conv, rng)

    def infer():
        g.forward(x, mode="infer")

    def train():
        result = g.forward(x, mode="train", keep_caches=True)
        g.backward(result, {out: dy})

    return infer, train


def synthetic_evaluation_inputs(seed: int):
    """Ground truth of synthetic scenes, and per image 200 detections: every
    object jittered, the rest random boxes."""
    _, truth = synthesize_scenes(8, seed)
    rng = np.random.default_rng(seed)
    h_img, w_img = DETECT_HW
    groundtruths, detections = [], []
    for i, objects in enumerate(truth):
        image_id = f"{i:06d}"
        for o in objects:
            box = detection.Box(*o.bbox)
            groundtruths.append(detection.GroundTruth(
                image_id, o.type, box, difficulty=data.kitti_difficulty(o)))
            jitter = rng.normal(0.0, 2.0, size=4)
            l, t, r, b = (np.array(o.bbox) + jitter).tolist()
            detections.append(detection.Detection(
                image_id, o.type, float(rng.uniform(0.5, 1.0)),
                detection.Box(min(l, r), min(t, b), max(l, r), max(t, b))))
        for _ in range(200 - len(objects)):
            x0, y0 = rng.uniform(0, w_img - 20), rng.uniform(0, h_img - 20)
            w, h = rng.uniform(10, 120), rng.uniform(10, 80)
            detections.append(detection.Detection(
                image_id, CLASSES[int(rng.integers(len(CLASSES)))],
                float(rng.uniform(0.0, 1.0)),
                detection.Box(x0, y0, min(x0 + w, w_img - 1), min(y0 + h, h_img - 1))))
    return detections, groundtruths


def one_shot_metrics(seed: int, workdir: str) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}

    net = builder.build_network(builder.builtin_config("wr-inception"), seed=seed)
    ckpt = os.path.join(workdir, "probe.wrin")
    s = _median_seconds(lambda: graph.save_checkpoint(net, ckpt))
    out["graph.save_checkpoint.s"] = (s, "s")
    out["graph.save_checkpoint.mb_per_s"] = (os.path.getsize(ckpt) / 1e6 / s, "MB/s")

    cifar = os.path.join(workdir, "probe.bin")
    data.write_cifar(cifar, data.synthesize_cifar_records(CIFAR_RECORDS, seed=seed))
    s = _median_seconds(lambda: data.read_cifar(cifar))
    out["data.read_cifar.s"] = (s, "s")
    out["data.read_cifar.records_per_s"] = (CIFAR_RECORDS / s, "records/s")

    backbone = builder.build_network(
        builder.builtin_config("wr-inception", input_shape=(3, *DETECT_HW)), seed=seed)
    head = heads.build_detection_head(backbone, DETECT_TAPS, DETECT_HW, len(CLASSES), seed=seed)
    out["heads.build_detection_head.s"] = (_median_seconds(
        lambda: heads.build_detection_head(backbone, DETECT_TAPS, DETECT_HW,
                                           len(CLASSES), seed=seed)), "s")
    out["detection.generate_priors.s"] = (_median_seconds(
        lambda: detection.generate_priors(head.layout)), "s")

    detections, groundtruths = synthetic_evaluation_inputs(seed)
    out["detection.evaluate_detections.s"] = (_median_seconds(
        lambda: detection.evaluate_detections(detections, groundtruths)), "s")

    rng = np.random.default_rng(seed)
    shape = (UNIT_BATCH, UNIT_CHANNELS, *UNIT_HW)
    x = rng.normal(size=shape).astype(np.float32)
    dy = rng.normal(size=shape).astype(np.float32)
    inc_infer, inc_train = _unit_passes(INCEPTION, x, dy, seed)
    bas_infer, bas_train = _unit_passes(BASIC, x, dy, seed)
    for fn in (inc_infer, inc_train, bas_infer, bas_train):
        fn()  # warm-up
    times = {fn: [] for fn in (inc_infer, inc_train, bas_infer, bas_train)}
    for _ in range(REPS):  # interleaved so drift hits both units alike
        for fn in times:
            t0 = time.perf_counter()
            fn()
            times[fn].append(time.perf_counter() - t0)
    med = {fn: statistics.median(v) for fn, v in times.items()}
    out["blocks.inception_vs_basic.mac_ratio"] = (
        analysis.compare_unit_cost(INCEPTION, BASIC), "ratio")
    out["blocks.inception_vs_basic.train_time_ratio"] = (med[inc_train] / med[bas_train], "ratio")
    out["blocks.inception_vs_basic.infer_time_ratio"] = (med[inc_infer] / med[bas_infer], "ratio")
    return out

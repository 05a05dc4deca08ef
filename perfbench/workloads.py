"""The benchmark's three workloads, each a closed loop with one caller.

A workload object is built from the seed and a scratch directory. ``setup``
builds the network (and head), generates and reads its synthetic data;
``op`` runs one operation and returns what ``check`` needs to validate it
outside the timed region. Workloads call wrinet through module attributes
(``builder.execute``, ``data.augment_batch``, ...) so that the traced pass
sees every call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from wrinet import analysis, builder, data, detection, heads, layers, optim

BATCH = 64
TRAIN_RECORDS = 512  # 8 batches; the loop reshuffles once per pass
HELDOUT_RECORDS = 256  # 4 batches, cycled
HELDOUT_SEED_OFFSET = 1_000_003

# Output checks against recorded values (reference.json): the norm of the
# first update and the loss of the second train step (the loss after the
# first update) within a relative 1e-3, and the first inference batch's
# logits within 1e-3 * max(1, max |ref|).
TRAIN_RTOL = 1e-3
LOGITS_TOL = 1e-3

DETECT_HW = (128, 416)
DETECT_TAPS = ("stage2/unit1/add", "stage3/unit1/add")
CLASSES = ("Car", "Pedestrian", "Cyclist")
SCENES = 8
SCORE_MIN = 0.01
TOP_K_PER_CLASS = 400
NMS_IOU = 0.45
KEEP_PER_IMAGE = 200


def read_synthetic_cifar(path: str, n: int, seed: int) -> data.ClassificationDataset:
    """Synthetic CIFAR-10 through the binary format: synthesize, write, read,
    then normalise with the split's own channel statistics."""
    data.write_cifar(path, data.synthesize_cifar_records(n, seed=seed))
    items = data.read_cifar(path)
    items = data.normalize_items(items, data.channel_stats(items))
    return data.ClassificationDataset.from_items(items)


class Workload:
    """Seed, scratch directory and recorded check values (None when the
    seed has none); subclasses add ``setup``, ``op``, ``check`` and
    ``fingerprint`` and set ``graph`` and ``input_hw`` in ``setup``."""

    def __init__(self, seed: int, workdir: str, reference: dict | None):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference

    def macs_per_image(self) -> int:
        return analysis.count_macs(self.graph, self.input_hw)[0]


class TrainWorkload(Workload):
    """One Nesterov-SGD step of wr-inception on 64 augmented 3x32x32 images,
    making the calls ``optim.train_epochs`` makes."""

    name = "train-wr-inception"
    images_per_op = BATCH

    def setup(self) -> None:
        self.config = builder.builtin_config("wr-inception")
        self.input_hw = self.config.input_shape[1:]
        self.graph = builder.build_network(self.config, seed=self.seed)
        ds = read_synthetic_cifar(os.path.join(self.workdir, "train.bin"),
                                  TRAIN_RECORDS, self.seed)
        self.images, self.labels = ds.images, ds.labels
        self.train = optim.classification_defaults(seed=self.seed)
        self.lr = optim.lr_at(self.train.schedule, 0, self.train.lr_initial)
        self.params = self.graph.parameters()
        self.initial = [w.copy() for w in self.params.values()]
        self.state = optim.OptimizerState.for_parameters(self.params)
        self.rng = np.random.default_rng(self.seed)
        self.order = np.empty(0, dtype=np.int64)
        self.steps = 0

    def op(self) -> float:
        if self.order.size < BATCH:
            self.order = self.rng.permutation(self.images.shape[0])
        idx, self.order = self.order[:BATCH], self.order[BATCH:]
        batch = data.augment_batch(self.images[idx], self.rng)
        result = builder.execute(self.graph, batch, mode="train", labels=self.labels[idx])
        optim.sgd_nesterov_step(self.params, result.grads, self.state, self.lr,
                                self.train.momentum, self.train.weight_decay)
        self.steps += 1
        return result.loss

    def update_norm(self) -> float:
        """L2 norm of the change of all parameters since set-up."""
        return float(np.sqrt(sum(np.sum((w.astype(np.float64) - w0) ** 2)
                                 for w, w0 in zip(self.params.values(), self.initial))))

    def check(self, loss: float) -> bool:
        if not np.isfinite(loss):
            return False
        if self.reference is None or self.steps > 2:
            return True
        key, value = (("train_update_norm_step1", self.update_norm()) if self.steps == 1
                      else ("train_loss_step2", loss))
        ref = self.reference[key]
        return abs(value - ref) <= TRAIN_RTOL * abs(ref)

    def fingerprint(self, loss: float):
        return loss


class InferWorkload(Workload):
    """Inference of wr-inception on batches of 64 held-out synthetic images."""

    name = "infer-wr-inception"
    images_per_op = BATCH

    def setup(self) -> None:
        self.config = builder.builtin_config("wr-inception")
        self.input_hw = self.config.input_shape[1:]
        self.graph = builder.build_network(self.config, seed=self.seed)
        ds = read_synthetic_cifar(os.path.join(self.workdir, "heldout.bin"),
                                  HELDOUT_RECORDS, self.seed + HELDOUT_SEED_OFFSET)
        self.images = ds.images
        self.batches = self.images.shape[0] // BATCH
        self.next_batch = 0

    def op(self) -> tuple[int, np.ndarray]:
        b = self.next_batch
        self.next_batch = (b + 1) % self.batches
        batch = self.images[b * BATCH:(b + 1) * BATCH]
        return b, builder.execute(self.graph, batch, mode="infer").logits

    def check(self, out: tuple[int, np.ndarray]) -> bool:
        b, logits = out
        if logits.shape != (BATCH, self.config.num_classes) or not np.all(np.isfinite(logits)):
            return False
        if b == 0 and self.reference is not None:
            ref = np.asarray(self.reference["infer_logits_row0"])
            tol = LOGITS_TOL * max(1.0, float(np.abs(ref).max()))
            sum_ref = self.reference["infer_logits_sum"]
            sum_tol = LOGITS_TOL * max(1.0, self.reference["infer_logits_abs_sum"])
            return bool(np.abs(logits[0] - ref).max() <= tol
                        and abs(float(logits.sum()) - sum_ref) <= sum_tol)
        return True

    def fingerprint(self, out):
        return out[1].tobytes()


# ---------------------------------------------------------------------------
# detect-kitti
# ---------------------------------------------------------------------------

def synthesize_scenes(n: int, seed: int) -> tuple[np.ndarray, list[list[data.KittiObject]]]:
    """Noise images with class-textured boxes and KITTI ground truth. Boxes
    may run off the right or bottom edge (truncation) and carry random
    occlusion levels, so every difficulty bucket gets objects."""
    rng = np.random.default_rng(seed)
    h_img, w_img = DETECT_HW
    textures = rng.normal(0.0, 1.0, size=(len(CLASSES), 3, 8, 8)).astype(np.float32)
    aspect = {"Car": (1.4, 2.6), "Pedestrian": (0.3, 0.5), "Cyclist": (0.6, 1.0)}
    images = rng.normal(0.0, 0.3, size=(n, 3, h_img, w_img)).astype(np.float32)
    labels = []
    for i in range(n):
        objects = []
        for _ in range(int(rng.integers(3, 7))):
            c = int(rng.integers(len(CLASSES)))
            name = CLASSES[c]
            bh = float(rng.uniform(20.0, 90.0))
            bw = bh * float(rng.uniform(*aspect[name]))
            left = float(rng.uniform(0.0, w_img - 0.6 * bw))
            top = float(rng.uniform(0.0, h_img - 0.6 * bh))
            right, bottom = min(left + bw, w_img - 1.0), min(top + bh, h_img - 1.0)
            truncated = 1.0 - (right - left) * (bottom - top) / (bw * bh)
            l, t, r, b = int(left), int(top), int(right), int(bottom)
            reps = (-(-(b - t) // 8), -(-(r - l) // 8))
            images[i, :, t:b, l:r] += np.tile(textures[c], (1, *reps))[:, :b - t, :r - l]
            objects.append(data.KittiObject(
                type=name, truncated=round(truncated, 2),
                occluded=int(rng.integers(0, 3)),
                alpha=round(float(rng.uniform(-np.pi, np.pi)), 2),
                bbox=(round(left, 2), round(top, 2), round(right, 2), round(bottom, 2))))
        labels.append(objects)
    return images, labels


def _iou_row(box: np.ndarray, others: np.ndarray) -> np.ndarray:
    ix = np.maximum(0.0, np.minimum(box[2], others[:, 2]) - np.maximum(box[0], others[:, 0]))
    iy = np.maximum(0.0, np.minimum(box[3], others[:, 3]) - np.maximum(box[1], others[:, 1]))
    inter = ix * iy
    union = ((box[2] - box[0]) * (box[3] - box[1])
             + (others[:, 2] - others[:, 0]) * (others[:, 3] - others[:, 1]) - inter)
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def greedy_nms_reference(boxes: np.ndarray, scores: np.ndarray, threshold: float) -> list[int]:
    """Brute-force greedy NMS: visit boxes by descending score (ties by
    index) and keep a box when no kept box overlaps it above the threshold."""
    kept: list[int] = []
    for i in sorted(range(len(scores)), key=lambda j: (-scores[j], j)):
        if not kept or _iou_row(boxes[i], boxes[kept]).max() <= threshold:
            kept.append(i)
    return kept


@dataclass
class DetectOutput:
    image_id: str
    nms_inputs: list[tuple[np.ndarray, np.ndarray]]  # per class: (boxes, scores)
    nms_kept: list[list[int]]
    objects: list[data.KittiObject]
    text: str


class DetectWorkload(Workload):
    """One 3x128x416 scene to a KITTI label file: backbone plus detection
    head, softmax, box decoding, per-class threshold / top-k / NMS, top 200
    per image in pixels, serialised and written."""

    name = "detect-kitti"
    images_per_op = 1

    def __init__(self, seed: int, workdir: str, reference: dict | None):
        super().__init__(seed, workdir, reference)
        self.out_dir = os.path.join(workdir, "detections")
        self.gt_dir = os.path.join(workdir, "groundtruth")

    def setup(self) -> None:
        config = builder.builtin_config("wr-inception", input_shape=(3, *DETECT_HW))
        self.input_hw = DETECT_HW
        self.backbone = self.graph = builder.build_network(config, seed=self.seed)
        self.head = heads.build_detection_head(self.backbone, DETECT_TAPS, DETECT_HW,
                                               num_classes=len(CLASSES), seed=self.seed)
        self.images, truth = synthesize_scenes(SCENES, self.seed)
        os.makedirs(self.gt_dir, exist_ok=True)
        os.makedirs(self.out_dir, exist_ok=True)
        self.groundtruth = {}
        for i, objects in enumerate(truth):
            path = os.path.join(self.gt_dir, f"{i:06d}.txt")
            with open(path, "w") as fh:
                fh.write(data.serialize_kitti_labels(objects))
            with open(path) as fh:
                self.groundtruth[f"{i:06d}"] = data.parse_kitti_labels(fh.read())
        self.next_image = 0
        self.latest: dict[str, list[data.KittiObject]] = {}

    def op(self) -> DetectOutput:
        i = self.next_image
        self.next_image = (i + 1) % SCENES
        image_id = f"{i:06d}"
        logits, offsets, _ = heads.detection_forward(
            self.backbone, self.head, self.images[i:i + 1], mode="infer")
        probs = layers.softmax(logits[0])
        boxes = detection.decode_boxes(offsets[0], self.head.priors)
        nms_inputs, nms_kept, candidates = [], [], []
        for c in range(1, len(CLASSES) + 1):
            scores = probs[:, c]
            idx = np.flatnonzero(scores >= SCORE_MIN)
            idx = idx[np.argsort(-scores[idx], kind="stable")[:TOP_K_PER_CLASS]]
            cls_boxes, cls_scores = boxes[idx], scores[idx]
            keep = detection.nms(cls_boxes, cls_scores, NMS_IOU)
            nms_inputs.append((cls_boxes, cls_scores))
            nms_kept.append(keep)
            candidates += [(float(cls_scores[k]), c, cls_boxes[k]) for k in keep]
        candidates.sort(key=lambda t: -t[0])
        h_img, w_img = DETECT_HW
        scale = np.array([w_img, h_img, w_img, h_img], dtype=np.float64)
        objects = []
        for score, c, box in candidates[:KEEP_PER_IMAGE]:
            px = np.clip(box * scale, 0.0, scale - 1.0)
            objects.append(data.KittiObject(
                type=CLASSES[c - 1], truncated=-1.0, occluded=-1, alpha=-10.0,
                bbox=tuple(float(v) for v in px), score=score))
        text = data.serialize_kitti_labels(objects)
        with open(os.path.join(self.out_dir, f"{image_id}.txt"), "w") as fh:
            fh.write(text)
        return DetectOutput(image_id, nms_inputs, nms_kept, objects, text)

    def check(self, out: DetectOutput) -> bool:
        for (boxes, scores), kept in zip(out.nms_inputs, out.nms_kept):
            if not np.all(np.isfinite(scores)) or not np.all(np.isfinite(boxes)):
                return False
            if list(kept) != greedy_nms_reference(boxes, scores, NMS_IOU):
                return False
        parsed = data.parse_kitti_labels(out.text)
        if [(o.type, o.bbox, o.score) for o in parsed] != \
                [(o.type, o.bbox, o.score) for o in out.objects]:
            return False
        self.latest[out.image_id] = parsed
        return True

    def fingerprint(self, out: DetectOutput):
        return out.text

    def evaluate(self) -> detection.EvalReport:
        """AP/AR of the latest label file per image against the ground truth."""
        groundtruths = [
            detection.GroundTruth(image_id, o.type, detection.Box(*o.bbox),
                                  difficulty=data.kitti_difficulty(o),
                                  dont_care=o.is_dont_care)
            for image_id, objects in self.groundtruth.items() for o in objects]
        detections = [
            detection.Detection(image_id, o.type, o.score, detection.Box(*o.bbox))
            for image_id, objects in self.latest.items() for o in objects]
        return detection.evaluate_detections(detections, groundtruths)

    def macs_per_image(self) -> int:
        """Backbone MACs from the static analysis plus the head's 3x3
        predictor convolutions at their tap resolutions."""
        total, _, _ = analysis.count_macs(self.backbone, DETECT_HW)
        shapes = self.backbone.infer_shapes(DETECT_HW)
        for tap, cls, loc in zip(self.head.taps, self.head.cls_convs, self.head.loc_convs):
            _, h, w = shapes[tap]
            total += h * w * (cls.weights.size + loc.weights.size)
        return total


WORKLOADS = {w.name: w for w in (TrainWorkload, InferWorkload, DetectWorkload)}

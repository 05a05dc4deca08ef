"""Bit-exact CIFAR binary readers, classification augmentation, and KITTI
label text parsing with difficulty bucketing.

CIFAR-10 records are 3073 bytes (1 label byte + 3072 channel-planar RGB
pixels, row-major 32x32); CIFAR-100 records are 3074 bytes (coarse then fine
label byte; the coarse byte is range-checked, and items carry the fine
label). Pixels are scaled to [0, 1]; :func:`normalize_items` then
applies per-channel statistics computed from a training split
(:func:`channel_stats`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

IMAGE_SHAPE = (3, 32, 32)
PIXELS_PER_IMAGE = 3 * 32 * 32
CIFAR10_RECORD = 1 + PIXELS_PER_IMAGE
CIFAR100_RECORD = 2 + PIXELS_PER_IMAGE
CIFAR10_CLASSES = 10
CIFAR100_FINE = 100
CIFAR100_COARSE = 20


class DatasetFormatError(ValueError):
    pass


@dataclass
class LabeledImage:
    image: np.ndarray  # (3, 32, 32) float32
    label: int


@dataclass
class ClassificationDataset:
    """Stacked images (N, 3, 32, 32) and integer labels (N,)."""

    images: np.ndarray
    labels: np.ndarray

    @classmethod
    def from_items(cls, items: Sequence[LabeledImage]) -> "ClassificationDataset":
        images = np.stack([it.image for it in items]).astype(np.float32)
        labels = np.array([it.label for it in items], dtype=np.int64)
        return cls(images=images, labels=labels)


def _record_length(variant: str) -> int:
    if variant == "cifar10":
        return CIFAR10_RECORD
    if variant == "cifar100":
        return CIFAR100_RECORD
    raise ValueError(f"unknown CIFAR variant {variant!r}")


def read_cifar(paths: Iterable[str] | str, variant: str = "cifar10"
               ) -> list[LabeledImage]:
    """Decode CIFAR binary files into labeled images scaled to [0, 1].

    Empty files are rejected by name, and truncated files and out-of-range
    label bytes (the CIFAR-100 coarse byte included) with their byte offsets.
    """
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    record = _record_length(variant)
    # (name, bound) of each label byte at the head of a record
    fields = ([("label", CIFAR10_CLASSES)] if variant == "cifar10" else
              [("coarse label", CIFAR100_COARSE), ("fine label", CIFAR100_FINE)])
    n_labels = len(fields)
    bounds = np.array([b for _, b in fields], dtype=np.uint8)
    items: list[LabeledImage] = []
    for path in paths:
        blob = np.fromfile(path, dtype=np.uint8)
        if blob.size == 0:
            raise DatasetFormatError(f"{path}: file holds no records")
        if blob.size % record != 0:
            raise DatasetFormatError(
                f"{path}: size {blob.size} is not a multiple of the "
                f"{record}-byte record")
        rows = blob.reshape(-1, record)
        labels = rows[:, :n_labels]
        bad = np.flatnonzero(labels >= bounds)
        if bad.size:
            i, byte = divmod(int(bad[0]), n_labels)  # the first in file order
            kind, bound = fields[byte]
            raise DatasetFormatError(
                f"{path}: {kind} byte {int(labels[i, byte])} >= {bound} at offset "
                f"{i * record + byte}")
        images = rows[:, n_labels:].reshape(-1, *IMAGE_SHAPE).astype(np.float32)
        images /= 255.0
        items.extend(LabeledImage(image=image, label=label)
                     for image, label in zip(images, labels[:, -1].tolist()))
    return items


def write_cifar(path: str, records: Sequence[tuple], variant: str = "cifar10") -> None:
    """Serialize (label(s), uint8 pixels (3, 32, 32)) records to the binary
    format; the inverse of :func:`read_cifar` for synthetic fixtures."""
    record = _record_length(variant)
    out = np.empty((len(records), record), dtype=np.uint8)
    for i, (label, pixels) in enumerate(records):
        pixels = np.asarray(pixels, dtype=np.uint8).reshape(-1)
        if pixels.size != PIXELS_PER_IMAGE:
            raise DatasetFormatError(f"record {i}: expected {PIXELS_PER_IMAGE} pixels")
        if variant == "cifar10":
            out[i, 0] = label
            out[i, 1:] = pixels
        else:
            coarse, fine = label
            out[i, 0] = coarse
            out[i, 1] = fine
            out[i, 2:] = pixels
    out.tofile(path)


def channel_stats(items: Sequence[LabeledImage]) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and population std over all pixels of a split."""
    stacked = np.stack([it.image for it in items])
    mean = stacked.mean(axis=(0, 2, 3))
    std = stacked.std(axis=(0, 2, 3))
    std = np.where(std > 0, std, 1.0)
    return mean.astype(np.float32), std.astype(np.float32)


def normalize_items(items: Sequence[LabeledImage],
                    stats: tuple[np.ndarray, np.ndarray]) -> list[LabeledImage]:
    """Items with each image shifted by the per-channel mean and divided by
    the per-channel std, in float32."""
    mean, std = stats
    mean = np.asarray(mean, dtype=np.float32)[:, None, None]
    std = np.asarray(std, dtype=np.float32)[:, None, None]
    return [replace(it, image=(it.image - mean) / std) for it in items]


# ---------------------------------------------------------------------------
# Augmentation: zero-pad 4, random 32x32 crop, horizontal flip with p = 0.5
# ---------------------------------------------------------------------------

PAD = 4


def crop_flip(image: np.ndarray, offset_y: int, offset_x: int, flip: bool) -> np.ndarray:
    """Deterministic core of the augmentation; offsets (4, 4) without flip
    reproduce the input exactly."""
    if image.shape != IMAGE_SHAPE:
        raise DatasetFormatError(f"augmentation expects {IMAGE_SHAPE}, got {image.shape}")
    padded = np.pad(image, ((0, 0), (PAD, PAD), (PAD, PAD)))
    out = padded[:, offset_y:offset_y + 32, offset_x:offset_x + 32]
    if flip:
        out = out[:, :, ::-1]
    return np.ascontiguousarray(out)


def augment_batch(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    out = np.empty_like(images)
    offsets = rng.integers(0, 2 * PAD + 1, size=(images.shape[0], 2))
    flips = rng.random(images.shape[0]) < 0.5
    for i in range(images.shape[0]):
        out[i] = crop_flip(images[i], int(offsets[i, 0]), int(offsets[i, 1]),
                           bool(flips[i]))
    return out


# ---------------------------------------------------------------------------
# Synthetic CIFAR-format fixtures (class-dependent pattern + noise) so the
# full binary-read / train / eval pipeline runs without the real archive.
# ---------------------------------------------------------------------------

def synthesize_cifar_records(n: int, num_classes: int = 10, seed: int = 0,
                             class_signal: float = 0.6) -> list[tuple[int, np.ndarray]]:
    """Uint8 records whose pixels mix a per-class template with noise;
    ``class_signal`` 0 gives label-independent pure noise."""
    rng = np.random.default_rng(seed)
    templates = rng.integers(0, 256, size=(num_classes, *IMAGE_SHAPE))
    records = []
    for _ in range(n):
        label = int(rng.integers(0, num_classes))
        noise = rng.integers(0, 256, size=IMAGE_SHAPE)
        pixels = np.clip(class_signal * templates[label] + (1 - class_signal) * noise,
                         0, 255).astype(np.uint8)
        records.append((label, pixels))
    return records


# ---------------------------------------------------------------------------
# KITTI label text: 15 whitespace-separated fields per object, a 16th score
# field on detection files. One file per image, named by image id.
# ---------------------------------------------------------------------------

DONT_CARE = "DontCare"

DIFFICULTY_RULES = {
    # bucket: (min box height px, max occlusion level, max truncation)
    "easy": (40.0, 0, 0.15),
    "moderate": (25.0, 1, 0.30),
    "hard": (25.0, 2, 0.50),
}


@dataclass
class KittiObject:
    type: str
    truncated: float
    occluded: int
    alpha: float
    bbox: tuple[float, float, float, float]  # left, top, right, bottom (pixels)
    dimensions: tuple[float, float, float] = (-1.0, -1.0, -1.0)
    location: tuple[float, float, float] = (-1000.0, -1000.0, -1000.0)
    rotation_y: float = -10.0
    score: Optional[float] = None

    @property
    def height(self) -> float:
        return self.bbox[3] - self.bbox[1]

    @property
    def is_dont_care(self) -> bool:
        return self.type == DONT_CARE


def parse_kitti_labels(text: str) -> list[KittiObject]:
    objects = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) < 15:
            raise DatasetFormatError(
                f"line {lineno}: expected >= 15 fields, got {len(fields)}")
        try:
            values = [float(v) for v in fields[1:16]]
        except ValueError as exc:
            raise DatasetFormatError(f"line {lineno}: {exc}") from exc
        bad = [f for f, v in zip(fields[1:16], values) if not np.isfinite(v)]
        if bad:
            raise DatasetFormatError(f"line {lineno}: non-finite value {bad[0]!r}")
        obj = KittiObject(
            type=fields[0],
            truncated=values[0],
            occluded=int(values[1]),
            alpha=values[2],
            bbox=tuple(values[3:7]),
            dimensions=tuple(values[7:10]),
            location=tuple(values[10:13]),
            rotation_y=values[13],
            score=values[14] if len(values) == 15 else None,
        )
        objects.append(obj)
    return objects


def serialize_kitti_labels(objects: Sequence[KittiObject]) -> str:
    lines = []
    for obj in objects:
        fields = [obj.type, repr(obj.truncated), str(obj.occluded), repr(obj.alpha)]
        fields += [repr(v) for v in obj.bbox]
        fields += [repr(v) for v in obj.dimensions]
        fields += [repr(v) for v in obj.location]
        fields.append(repr(obj.rotation_y))
        if obj.score is not None:
            fields.append(repr(obj.score))
        lines.append(" ".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


def kitti_difficulty(obj: KittiObject) -> str:
    """Bucket by box height, occlusion, and truncation; buckets are cumulative
    for evaluation (an easy object qualifies under all three filters)."""
    if obj.is_dont_care:
        return "ignored"
    for bucket in ("easy", "moderate", "hard"):
        min_h, max_occ, max_trunc = DIFFICULTY_RULES[bucket]
        if obj.height >= min_h and obj.occluded <= max_occ and obj.truncated <= max_trunc:
            return bucket
    return "ignored"

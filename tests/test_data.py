import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrinet.data import (CIFAR10_RECORD, CIFAR100_RECORD, DatasetFormatError,
                         KittiObject, augment_batch, channel_stats, crop_flip,
                         kitti_difficulty, normalize_items, parse_kitti_labels,
                         read_cifar, serialize_kitti_labels,
                         synthesize_cifar_records, write_cifar)


# ---------------------------------------------------------------------------
# CIFAR binary format
# ---------------------------------------------------------------------------

def test_cifar10_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    records = [(3, rng.integers(0, 256, size=(3, 32, 32)).astype(np.uint8)),
               (7, rng.integers(0, 256, size=(3, 32, 32)).astype(np.uint8))]
    path = tmp_path / "batch.bin"
    write_cifar(str(path), records)
    assert path.stat().st_size == 2 * CIFAR10_RECORD
    items = read_cifar(str(path))
    assert [it.label for it in items] == [3, 7]
    for (label, pixels), item in zip(records, items):
        restored = np.round(item.image * 255).astype(np.uint8)
        assert np.array_equal(restored, pixels)


def test_cifar10_round_trip_is_byte_exact(tmp_path):
    rng = np.random.default_rng(1)
    records = [(int(rng.integers(0, 10)),
                rng.integers(0, 256, size=(3, 32, 32)).astype(np.uint8))
               for _ in range(5)]
    path = tmp_path / "a.bin"
    write_cifar(str(path), records)
    original = path.read_bytes()
    items = read_cifar(str(path))
    rewritten = tmp_path / "b.bin"
    write_cifar(str(rewritten),
                [(it.label, np.round(it.image * 255).astype(np.uint8))
                 for it in items])
    assert rewritten.read_bytes() == original


def test_cifar100_two_label_bytes(tmp_path):
    pixels = np.zeros((3, 32, 32), dtype=np.uint8)
    path = tmp_path / "train.bin"
    write_cifar(str(path), [((4, 42), pixels)], variant="cifar100")
    assert path.stat().st_size == CIFAR100_RECORD
    (item,) = read_cifar(str(path), variant="cifar100")
    assert item.coarse_label == 4 and item.label == 42


def test_truncated_file_names_record_size(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes(CIFAR10_RECORD + 5))
    with pytest.raises(DatasetFormatError, match="3073"):
        read_cifar(str(path))


def test_out_of_range_label_names_offset(tmp_path):
    blob = bytearray(2 * CIFAR10_RECORD)
    blob[0] = 4
    blob[CIFAR10_RECORD] = 11  # second record, label >= 10
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(DatasetFormatError, match=str(CIFAR10_RECORD)):
        read_cifar(str(path))


def test_all_zero_pixels_normalize_to_minus_mean_over_std(tmp_path):
    path = tmp_path / "zeros.bin"
    write_cifar(str(path), [(0, np.zeros((3, 32, 32), dtype=np.uint8))])
    mean = np.array([0.4, 0.5, 0.6], dtype=np.float32)
    std = np.array([0.2, 0.25, 0.3], dtype=np.float32)
    (item,) = normalize_items(read_cifar(str(path)), (mean, std))
    for c in range(3):
        assert np.allclose(item.image[c], (0.0 - mean[c]) / std[c], atol=1e-6)


def test_channel_stats_and_normalize():
    import wrinet.data as data_io
    records = synthesize_cifar_records(64, seed=3)
    items = [data_io.LabeledImage(image=p.astype(np.float32) / 255.0, label=l)
             for l, p in records]
    mean, std = channel_stats(items)
    normalized = normalize_items(items, (mean, std))
    stacked = np.stack([it.image for it in normalized])
    assert np.allclose(stacked.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
    assert np.allclose(stacked.std(axis=(0, 2, 3)), 1.0, atol=1e-5)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def _item(seed=0):
    import wrinet.data as data_io
    rng = np.random.default_rng(seed)
    return data_io.LabeledImage(
        image=rng.random((3, 32, 32)).astype(np.float32), label=5)


def test_augment_deterministic_per_seed():
    """Equal seeds give equal batches, and output i is a crop-and-flip of input
    i, so the labels, which stay in input order, still fit."""
    images = np.stack([_item(seed).image for seed in range(4)])
    a = augment_batch(images, np.random.default_rng(123))
    b = augment_batch(images, np.random.default_rng(123))
    assert np.array_equal(a, b)
    for image, out in zip(images, a):
        assert any(np.array_equal(out, crop_flip(image, oy, ox, flip))
                   for oy in range(9) for ox in range(9) for flip in (False, True))


def test_center_crop_without_flip_is_identity():
    item = _item(1)
    assert np.array_equal(crop_flip(item.image, 4, 4, False), item.image)


def test_flip_reverses_width_axis():
    item = _item(2)
    flipped = crop_flip(item.image, 4, 4, True)
    assert np.array_equal(flipped, item.image[:, :, ::-1])


def test_flip_frequency_near_half():
    # every pixel holds its column number + 1, so a middle row's nonzero
    # (unpadded) values fall from left to right only when the crop is flipped
    ramp = np.broadcast_to(np.arange(1, 33, dtype=np.float32), (1000, 3, 32, 32))
    rng = np.random.default_rng(3)
    flips = 0
    for _ in range(10):
        for out in augment_batch(ramp, rng)[:, 0, 16]:
            flips += bool(np.all(np.diff(out[out > 0]) < 0))
    assert 0.47 <= flips / 10_000 <= 0.53


# ---------------------------------------------------------------------------
# KITTI labels
# ---------------------------------------------------------------------------

CAR_LINE = ("Car 0.00 0 1.85 387.63 181.54 423.81 203.12 "
            "1.67 1.87 3.69 -16.53 2.39 58.49 1.57")
DONTCARE_LINE = "DontCare -1 -1 -10 500 150 550 180 -1 -1 -1 -1000 -1000 -1000 -10"


def test_parse_car_line():
    (obj,) = parse_kitti_labels(CAR_LINE)
    assert obj.type == "Car"
    assert obj.bbox == (387.63, 181.54, 423.81, 203.12)
    assert obj.truncated == 0.0 and obj.occluded == 0
    assert obj.rotation_y == pytest.approx(1.57)
    assert obj.score is None


def test_parse_dontcare_line():
    (obj,) = parse_kitti_labels(DONTCARE_LINE)
    assert obj.is_dont_care
    assert obj.bbox == (500.0, 150.0, 550.0, 180.0)


def test_parse_score_field():
    (obj,) = parse_kitti_labels(CAR_LINE + " 0.87")
    assert obj.score == pytest.approx(0.87)


def test_empty_text_gives_empty_sequence():
    assert parse_kitti_labels("") == []
    assert parse_kitti_labels("\n\n") == []


def test_malformed_line_reports_line_number():
    text = CAR_LINE + "\nCar 1 2 3\n"
    with pytest.raises(DatasetFormatError, match="line 2"):
        parse_kitti_labels(text)


@pytest.mark.parametrize("field", [4, 6, 2, 15], ids=["bbox left", "bbox right",
                                                      "occluded", "score"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_field_is_rejected(field, value):
    fields = (CAR_LINE + " 0.87").split()
    fields[field] = value
    with pytest.raises(DatasetFormatError, match="line 2: non-finite"):
        parse_kitti_labels(CAR_LINE + "\n" + " ".join(fields))


def test_serialize_parse_identity():
    objs = parse_kitti_labels(CAR_LINE + "\n" + DONTCARE_LINE + "\n" + CAR_LINE + " 0.5")
    round_tripped = parse_kitti_labels(serialize_kitti_labels(objs))
    assert round_tripped == objs


@settings(max_examples=50, deadline=None)
@given(
    left=st.floats(0, 1000), top=st.floats(0, 400),
    width=st.floats(min_value=0.01, max_value=300),
    height=st.floats(min_value=0.01, max_value=200),
    truncated=st.floats(0, 1), occluded=st.integers(0, 3),
    score=st.one_of(st.none(), st.floats(-10, 10, allow_nan=False)),
)
def test_serialize_parse_identity_property(left, top, width, height, truncated,
                                           occluded, score):
    obj = KittiObject(type="Cyclist", truncated=truncated, occluded=occluded,
                      alpha=-1.2, bbox=(left, top, left + width, top + height),
                      dimensions=(1.5, 1.6, 1.7), location=(0.1, -0.2, 30.0),
                      rotation_y=0.5, score=score)
    (back,) = parse_kitti_labels(serialize_kitti_labels([obj]))
    assert back == obj


def _obj(height, occluded, truncated, kind="Car"):
    return KittiObject(type=kind, truncated=truncated, occluded=occluded, alpha=0.0,
                       bbox=(100.0, 100.0, 150.0, 100.0 + height))


@pytest.mark.parametrize("height,occluded,truncated,expected", [
    (50, 0, 0.0, "easy"),
    (30, 1, 0.20, "moderate"),
    (20, 0, 0.0, "ignored"),
    (40, 0, 0.15, "easy"),
    (39.9, 0, 0.0, "moderate"),
    (25, 2, 0.50, "hard"),
    (25, 3, 0.0, "ignored"),
    (100, 0, 0.6, "ignored"),
])
def test_difficulty_buckets(height, occluded, truncated, expected):
    assert kitti_difficulty(_obj(height, occluded, truncated)) == expected


def test_dontcare_is_ignored_bucket():
    (obj,) = parse_kitti_labels(DONTCARE_LINE)
    assert kitti_difficulty(obj) == "ignored"

"""Command-line front end: analyze, gradcheck, train, eval, detect-eval.

Exit codes: 0 success, 1 check failure, 2 usage or input error (every
:class:`CliError`), 3 numeric failure (a :class:`NodeNonFiniteError`, which
names the first node with a NaN or Inf). Every command supports ``--json``.
Precedence: built-in defaults, then flags, then config files (a recorded
config wins so a run, early stopping included, is reproducible from one
file). ``WRINET_DATA_DIR`` supplies the default data directory.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace

import numpy as np

from . import data as data_io
from . import detection as det
from .analysis import analyze
from .blocks import UnitSpec
from .builder import BUILTIN_NAMES, NetworkConfig, build_network, builtin_config
from .gradcheck import DEFAULT_TOLERANCE, run_suite
from .graph import NodeNonFiniteError, load_checkpoint
from .optim import LRSchedule, classification_defaults, evaluate_classifier, train_epochs

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

DATA_DIR_ENV = "WRINET_DATA_DIR"


class CliError(Exception):
    """A usage or input error; :func:`main` prints it and exits 2."""


def _parse_shape(text: str) -> tuple[int, int, int]:
    try:
        c, h, w = (int(p) for p in text.split(","))
    except ValueError:
        c = h = w = 0
    if min(c, h, w) < 1:
        raise CliError(f"--input-shape wants positive integers C,H,W, got {text!r}")
    return c, h, w


@contextmanager
def _input_file(path: str, what: str):
    """What reading the file ``path`` raises becomes a CliError naming it:
    OSError when the file cannot be read, KeyError, TypeError or ValueError
    (malformed JSON included) when it is not a ``what``."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"{path}: cannot read {what}: {exc.strerror or exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path}: not a {what} ({type(exc).__name__}: {exc})") from exc


def _json_object(path: str) -> dict:
    with open(path) as fh:
        record = json.load(fh)
    if not isinstance(record, dict):
        raise TypeError(f"top level is a JSON {type(record).__name__}, not an object")
    return record


def _resolve_config(net: str, num_classes: int,
                    input_shape: tuple[int, int, int]) -> NetworkConfig:
    if os.path.exists(net):
        with _input_file(net, "network config"):
            return NetworkConfig.from_dict(_json_object(net))
    try:
        return builtin_config(net, num_classes=num_classes, input_shape=input_shape)
    except KeyError as exc:
        raise CliError(str(exc)) from exc


def _inception_comparisons(config: NetworkConfig) -> list[tuple[UnitSpec, UnitSpec]]:
    pairs = []
    for stage in config.stages:
        for unit in stage.units:
            if unit.variant == "inception":
                twin = UnitSpec("basic", unit.in_channels,
                                (unit.out_channels, unit.out_channels), 1,
                                unit.out_channels)
                pairs.append((replace(unit, stride=1), twin))
    return pairs


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    shape = _parse_shape(args.input_shape)
    config = _resolve_config(args.net, args.num_classes, shape)
    graph = build_network(config)
    report = analyze(graph, input_hw=shape[1:],
                     comparisons=_inception_comparisons(config))
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text())
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    results = run_suite(seed=args.seed)
    if args.json:
        print(json.dumps([
            {"name": r.name, "max_rel_err": r.max_rel_err,
             "tolerance": DEFAULT_TOLERANCE, "passed": r.passed}
            for r in results
        ], indent=2))
    else:
        for r in results:
            print(f"{r.name:<24} max rel err {r.max_rel_err:.3e}  "
                  f"{'PASS' if r.passed else 'FAIL'} (tol {DEFAULT_TOLERANCE:g})")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# dataset plumbing shared by train/eval
# ---------------------------------------------------------------------------

def _data_dir(args) -> str:
    directory = args.data_dir or os.environ.get(DATA_DIR_ENV)
    if not directory:
        raise CliError(f"no data directory; pass --data-dir or set {DATA_DIR_ENV}")
    if not os.path.isdir(directory):
        raise CliError(f"data directory {directory!r} does not exist")
    return directory


def _split_paths(directory: str, dataset: str, split: str) -> list[str]:
    if dataset == "cifar10":
        names = sorted(glob.glob(os.path.join(directory, "data_batch_*.bin"))) \
            if split == "train" else [os.path.join(directory, "test_batch.bin")]
    else:
        names = [os.path.join(directory, f"{split}.bin")]
    paths = [p for p in names if os.path.exists(p)]
    if not paths:
        raise CliError(f"no {dataset} {split} files under {directory!r}")
    return paths


def _read_split(directory: str, dataset: str, split: str,
                subset: int | None = None) -> list[data_io.LabeledImage]:
    """The first ``subset`` images of a split (all when None); a nonpositive
    ``subset`` and unreadable or malformed files are a CliError."""
    if subset is not None and subset < 1:
        raise CliError(f"--subset wants a positive image count, got {subset}")
    try:
        items = data_io.read_cifar(_split_paths(directory, dataset, split), variant=dataset)
    except (data_io.DatasetFormatError, OSError) as exc:
        raise CliError(f"unreadable data: {exc}") from exc
    return items[:subset]


def _num_classes(dataset: str) -> int:
    return 100 if dataset == "cifar100" else 10


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _json_tuple(value) -> tuple:
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON list, got {value!r}")
    return tuple(value)


def _train_fields(block: dict) -> dict:
    """A run config's ``train`` block as TrainConfig fields: JSON lists become
    tuples and ``schedule`` an LRSchedule. Every key is kept, so ``replace``
    rejects one that TrainConfig lacks."""
    fields = dict(block)
    if "freeze" in fields:
        fields["freeze"] = _json_tuple(fields["freeze"])
    if "schedule" in fields:
        schedule = dict(fields["schedule"])
        if "boundaries" in schedule:
            schedule["boundaries"] = _json_tuple(schedule["boundaries"])
        fields["schedule"] = LRSchedule(**schedule)
    return fields


def cmd_train(args) -> int:
    directory = _data_dir(args)
    num_classes = _num_classes(args.dataset)
    config = _resolve_config(args.net, num_classes, (3, 32, 32))

    try:
        train_cfg = classification_defaults(
            epochs=args.epochs, seed=args.seed, batch_size=args.batch_size,
            lr_initial=args.lr, augment=not args.no_augment,
            freeze=tuple(args.freeze or ()),
            checkpoint_every=args.checkpoint_every, stop_acc=args.stop_acc)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.config:
        with _input_file(args.config, "run config"):
            overrides = _json_object(args.config)
            if "network" in overrides:
                config = NetworkConfig.from_dict(overrides["network"])
            train_cfg = replace(train_cfg, **_train_fields(overrides.get("train", {})))

    raw_items = _read_split(directory, args.dataset, "train", args.subset)
    stats = data_io.channel_stats(raw_items)
    dataset = data_io.ClassificationDataset.from_items(
        data_io.normalize_items(raw_items, stats))

    graph = build_network(config, seed=train_cfg.seed)
    if args.resume:
        with _input_file(args.resume, "checkpoint"):
            load_checkpoint(graph, args.resume)

    log = train_epochs(graph, dataset, train_cfg, out_dir=args.out)

    if args.out:
        run_record = {
            "network": config.to_dict(),
            "dataset": args.dataset,
            "normalization": {"mean": stats[0].tolist(), "std": stats[1].tolist()},
            "train": asdict(train_cfg),
        }
        with open(os.path.join(args.out, "run.json"), "w") as fh:
            json.dump(run_record, fh, indent=2)

    summary = {
        "epochs_run": len(log.epochs),
        "final_loss": log.epochs[-1].loss if log.epochs else None,
        "final_acc": log.final_acc,
        "checkpoint": os.path.join(args.out, "checkpoint-final.wrin") if args.out else None,
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"trained {summary['epochs_run']} epochs; "
              f"final loss {summary['final_loss']}; "
              f"final train acc {summary['final_acc']:.4f}")
        if args.out:
            print(f"checkpoint: {summary['checkpoint']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    directory = _data_dir(args)
    num_classes = _num_classes(args.dataset)
    normalization = None
    config = None
    if args.config:
        with _input_file(args.config, "run config"):
            record = _json_object(args.config)
            if "network" in record:
                config = NetworkConfig.from_dict(record["network"])
            if "normalization" in record:
                normalization = (
                    np.array(record["normalization"]["mean"], dtype=np.float32),
                    np.array(record["normalization"]["std"], dtype=np.float32))
    if config is None:
        config = _resolve_config(args.net, num_classes, (3, 32, 32))
    if normalization is None:
        normalization = data_io.channel_stats(_read_split(directory, args.dataset, "train"))

    dataset = data_io.ClassificationDataset.from_items(data_io.normalize_items(
        _read_split(directory, args.dataset, "test", args.subset), normalization))
    graph = build_network(config, seed=args.seed)
    if args.checkpoint:
        with _input_file(args.checkpoint, "checkpoint"):
            load_checkpoint(graph, args.checkpoint)
    accuracy = evaluate_classifier(graph, dataset)
    out = {"top1_accuracy": accuracy, "top1_error": 1.0 - accuracy,
           "samples": int(dataset.labels.shape[0])}
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        print(f"top-1 error {100 * out['top1_error']:.2f}% "
              f"(accuracy {100 * accuracy:.2f}%) on {out['samples']} samples")
    return EXIT_OK


# ---------------------------------------------------------------------------
# detect-eval
# ---------------------------------------------------------------------------

def _read_kitti_dir(directory: str, scored: bool) -> dict[str, list]:
    """Evaluation records per image id, one label file per image: Detection
    records when ``scored``, else GroundTruth records, boxes in the file's
    pixels. A file that cannot be read or parsed is a CliError naming it."""
    if not os.path.isdir(directory):
        raise CliError(f"directory {directory!r} does not exist")
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.txt"))):
        image_id = os.path.splitext(os.path.basename(path))[0]
        with _input_file(path, "KITTI label file"), open(path) as fh:
            records = []
            for obj in data_io.parse_kitti_labels(fh.read()):
                box = det.Box(*obj.bbox)
                if not scored:
                    records.append(det.GroundTruth(
                        image_id, obj.type, box, difficulty=data_io.kitti_difficulty(obj),
                        dont_care=obj.is_dont_care))
                elif obj.score is None:
                    raise ValueError(f"a {obj.type} detection lacks the score field")
                else:
                    records.append(det.Detection(image_id, obj.type, obj.score, box))
            out[image_id] = records
    return out


def cmd_detect_eval(args) -> int:
    gt_files = _read_kitti_dir(args.gt_dir, scored=False)
    det_files = _read_kitti_dir(args.det_dir, scored=True)
    orphans = sorted(set(det_files) - set(gt_files))
    if orphans:
        raise CliError(f"detection files without groundtruth: {orphans}")
    if not gt_files:
        raise CliError(f"no groundtruth files under {args.gt_dir!r}")
    groundtruths = [g for records in gt_files.values() for g in records]
    detections = [d for records in det_files.values() for d in records]

    difficulties = ([args.difficulty] if args.difficulty != "all"
                    else ["easy", "moderate", "hard", "all"])
    reports = [det.evaluate_detections(detections, groundtruths,
                                       iou_threshold=args.iou, difficulty=d)
               for d in difficulties]
    headline = reports[-1]
    if args.json:
        print(json.dumps({"reports": [r.to_dict() for r in reports],
                          "mAP": headline.mean_ap, "mAR": headline.mean_ar},
                         indent=2))
    else:
        for r in reports:
            print(r.to_text())
            print()
        print(f"mAP {100 * headline.mean_ap:.2f}%  mAR {100 * headline.mean_ar:.2f}%")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrinet",
        description="Wide residual-inception networks: analysis, training, detection evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="parameter/MAC/receptive-field report")
    p.add_argument("--net", required=True,
                   help=f"builtin name ({', '.join(BUILTIN_NAMES)}) or config JSON path")
    p.add_argument("--input-shape", default="3,32,32")
    p.add_argument("--num-classes", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train a classifier on CIFAR binaries")
    p.add_argument("--net", required=True)
    p.add_argument("--dataset", choices=("cifar10", "cifar100"), default="cifar10")
    p.add_argument("--data-dir")
    p.add_argument("--subset", type=int)
    p.add_argument("--config", help="run config JSON; overrides flags")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-augment", action="store_true")
    p.add_argument("--freeze", action="append",
                   help="parameter-name prefix to freeze (repeatable)")
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--stop-acc", type=float,
                   help="stop once train accuracy reaches this value (recorded in run.json)")
    p.add_argument("--out", help="output directory for log.csv/checkpoints/run.json")
    p.add_argument("--resume", help="checkpoint to load before training")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="top-1 error of a checkpoint on the test split")
    p.add_argument("--net", default="wrn-16-4")
    p.add_argument("--dataset", choices=("cifar10", "cifar100"), default="cifar10")
    p.add_argument("--data-dir")
    p.add_argument("--subset", type=int)
    p.add_argument("--config", help="run.json written by train")
    p.add_argument("--checkpoint")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("detect-eval",
                       help="AP/AR over KITTI-format label dirs, boxes in label-file pixels")
    p.add_argument("--gt-dir", required=True)
    p.add_argument("--det-dir", required=True)
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--difficulty", choices=("easy", "moderate", "hard", "all"),
                   default="all")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_detect_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NodeNonFiniteError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

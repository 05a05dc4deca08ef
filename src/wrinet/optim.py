"""SGD with Nesterov momentum, multiplicative learning-rate schedules,
parameter freezing, and the epoch training loop.

The update, with decayed gradient g = grad + weight_decay * w:

    v <- momentum * v + g
    w <- w - lr * (g + momentum * v)

Frozen parameters (matched by name prefix) receive no update and keep their
velocity untouched, so their bytes are identical across a run.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

import numpy as np

from . import data as data_io
from .builder import execute
from .graph import NetworkGraph, NodeNonFiniteError, save_checkpoint
from .tensor import ShapeError


@dataclass(frozen=True)
class LRSchedule:
    """Multiplicative decay: lr = lr_initial * factor^(boundaries passed).

    ``kind`` selects whether boundaries index epochs or optimizer iterations.
    """

    kind: str = "epoch"  # "epoch" | "iteration"
    boundaries: tuple[int, ...] = (60, 120, 160)
    factor: float = 0.2

    def __post_init__(self):
        if self.kind not in ("epoch", "iteration"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if list(self.boundaries) != sorted(set(self.boundaries)):
            raise ValueError("boundaries must be strictly increasing")
        if not (0.0 < self.factor < 1.0):
            raise ValueError("factor must lie in (0, 1)")


def lr_at(schedule: LRSchedule, index: int, lr_initial: float) -> float:
    if index < 0:
        raise ValueError("schedule index must be nonnegative")
    passed = sum(1 for b in schedule.boundaries if index >= b)
    return lr_initial * schedule.factor ** passed


@dataclass
class TrainConfig:
    lr_initial: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.005
    batch_size: int = 128
    schedule: LRSchedule = field(default_factory=LRSchedule)
    epochs: int = 200
    seed: int = 0
    freeze: tuple[str, ...] = ()
    augment: bool = True
    checkpoint_every: int = 0  # epochs between checkpoints; 0 = final only
    stop_acc: Optional[float] = None  # stop after an epoch whose train accuracy reaches it

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed", "checkpoint_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if min(self.epochs, self.seed, self.checkpoint_every) < 0:
            raise ValueError("epochs, seed and checkpoint_every must be nonnegative, got "
                             f"{self.epochs}, {self.seed} and {self.checkpoint_every}")
        if not isinstance(self.augment, bool):
            raise TypeError(f"augment must be true or false, got {self.augment!r}")
        if self.lr_initial <= 0 or self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("rates must be positive (momentum/decay nonnegative)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.stop_acc is not None and not isinstance(self.stop_acc, (int, float)):
            raise TypeError(f"stop_acc must be a number, got {self.stop_acc!r}")


def classification_defaults(**overrides) -> TrainConfig:
    return replace(TrainConfig(), **overrides)


def detection_defaults(**overrides) -> TrainConfig:
    cfg = TrainConfig(
        lr_initial=0.001, momentum=0.9, weight_decay=0.0005, batch_size=32,
        schedule=LRSchedule("iteration", (40000, 80000, 120000), 0.1),
        epochs=200)
    return replace(cfg, **overrides)


@dataclass
class OptimizerState:
    velocity: dict[str, np.ndarray]

    @classmethod
    def for_parameters(cls, params: dict[str, np.ndarray]) -> "OptimizerState":
        return cls(velocity={k: np.zeros_like(v) for k, v in params.items()})


def is_frozen(name: str, freeze: Iterable[str]) -> bool:
    return any(name.startswith(prefix) for prefix in freeze)


def sgd_nesterov_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                      state: OptimizerState, lr: float, momentum: float,
                      weight_decay: float, freeze: Iterable[str] = ()) -> None:
    """One in-place update over the parameter registry."""
    for name, w in params.items():
        if is_frozen(name, freeze) or name not in grads:
            continue
        g = grads[name]
        if g.shape != w.shape:
            raise ShapeError(f"gradient for {name} has shape {g.shape}, want {w.shape}")
        if weight_decay:
            g = g + weight_decay * w
        v = state.velocity[name]
        v *= momentum
        v += g
        w -= lr * (g + momentum * v)


def first_nonfinite_node(graph: NetworkGraph, x: np.ndarray, mode: str = "train",
                         grads: Optional[dict[str, np.ndarray]] = None) -> str:
    """The first node, in the order forward runs them, whose output,
    parameters or buffers hold a NaN/Inf on ``x``; failing that, the node
    of the first non-finite entry of ``grads`` (backward order, as
    :meth:`backward` returns them); failing that, ``"loss"``. The graph's
    buffers are restored after the diagnostic forward, so diagnosing
    changes no state."""
    saved = [(b, b.copy()) for b in graph.buffers().values()]
    try:
        graph.forward(x, mode=mode, check_finite=True)
    except NodeNonFiniteError as exc:
        return exc.node
    finally:
        for b, copy in saved:
            b[...] = copy
    bad = (name.rsplit("/", 1)[0] for name, g in (grads or {}).items()
           if not np.all(np.isfinite(g)))
    return next(bad, "loss")


def _check_labels(graph: NetworkGraph, labels: np.ndarray) -> None:
    """Every label must be one of the network's classes, the output
    node's channels; the first that is not is a ValueError."""
    classes = graph.nodes[graph.output_name].channels
    bad = labels[(labels < 0) | (labels >= classes)]
    if bad.size:
        raise ValueError(f"label {bad[0]} is not one of the {classes} classes "
                         f"of network {graph.name!r}")


@dataclass
class EpochRecord:
    epoch: int
    step: int
    lr: float
    loss: float
    acc: float


@dataclass
class TrainingLog:
    epochs: list[EpochRecord] = field(default_factory=list)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "step", "lr", "loss", "acc"])
            for r in self.epochs:
                writer.writerow([r.epoch, r.step, f"{r.lr:.8g}",
                                 f"{r.loss:.8g}", f"{r.acc:.6g}"])

    @property
    def final_acc(self) -> float:
        return self.epochs[-1].acc if self.epochs else 0.0


def train_epochs(graph: NetworkGraph, dataset: "data_io.ClassificationDataset",
                 config: TrainConfig, out_dir: Optional[str] = None) -> TrainingLog:
    """Seeded epoch loop: shuffle, optional augmentation, Nesterov SGD steps,
    per-epoch mean loss / train accuracy / last-step lr records. Training
    stops early after an epoch whose accuracy reaches ``config.stop_acc``.
    Checkpoints use the binary graph format. A NaN/Inf loss or gradient
    raises :class:`NodeNonFiniteError`, with the step, before the update. A
    label the network cannot predict is a ValueError before the first step.
    """
    images, labels = dataset.images, dataset.labels
    n = images.shape[0]
    if n == 0:
        raise ValueError("dataset is empty")
    _check_labels(graph, labels)
    params = graph.parameters()
    state = OptimizerState.for_parameters(params)
    rng = np.random.default_rng(config.seed)
    log = TrainingLog()
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    def checkpoint(tag: str) -> None:
        if out_dir:
            save_checkpoint(graph, os.path.join(out_dir, f"checkpoint-{tag}.wrin"))

    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        correct = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch = images[idx]
            if config.augment:
                batch = data_io.augment_batch(batch, rng)
            batch_labels = labels[idx]
            lr = lr_at(config.schedule, epoch if config.schedule.kind == "epoch" else step,
                       config.lr_initial)
            result = execute(graph, batch, mode="train", labels=batch_labels)
            grads = result.grads
            if not (np.isfinite(result.loss) and all(
                    np.all(np.isfinite(g)) for g in grads.values())):
                raise NodeNonFiniteError(first_nonfinite_node(graph, batch, grads=grads), step)
            sgd_nesterov_step(params, grads, state, lr, config.momentum,
                              config.weight_decay, config.freeze)
            losses.append(result.loss)
            correct += int((result.logits.argmax(axis=1) == batch_labels).sum())
            step += 1
        record = EpochRecord(epoch=epoch, step=step, lr=lr,
                             loss=float(np.mean(losses)), acc=correct / n)
        log.epochs.append(record)
        if config.checkpoint_every and (epoch + 1) % config.checkpoint_every == 0:
            checkpoint(f"epoch{epoch + 1}")
        if config.stop_acc is not None and record.acc >= config.stop_acc:
            break
    checkpoint("final")
    if out_dir:
        log.to_csv(os.path.join(out_dir, "log.csv"))
    return log


def evaluate_classifier(graph: NetworkGraph, dataset: "data_io.ClassificationDataset",
                        batch_size: int = 256) -> float:
    """Top-1 accuracy in inference mode. A NaN/Inf logit raises
    :class:`NodeNonFiniteError` naming the first node that holds or makes a
    NaN/Inf; one that a later ReLU clamps away leaves the logits finite. A
    label the network cannot predict is a ValueError before any batch runs.
    ``batch_size`` does not set the passes' peak memory: each infer pass
    runs its batch in chunks sized by ``layers.CONV_TILE_BYTES`` (see
    :meth:`NetworkGraph.forward`), so a larger batch adds only the few
    values per image that the fc reads and makes. The checked pass that
    names a bad node runs its batch whole."""
    images, labels = dataset.images, dataset.labels
    _check_labels(graph, labels)
    correct = 0
    for start in range(0, images.shape[0], batch_size):
        batch = images[start:start + batch_size]
        logits = execute(graph, batch, mode="infer").logits
        if not np.all(np.isfinite(logits)):
            raise NodeNonFiniteError(first_nonfinite_node(graph, batch, mode="infer"))
        correct += int((logits.argmax(axis=1) == labels[start:start + batch_size]).sum())
    return correct / images.shape[0]

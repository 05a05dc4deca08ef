"""Whole-network assembly from declarative stage configurations.

A network is: 3x3 stem convolution, a sequence of stages (each a run of
residual units whose first unit may downsample), a final BN -> ReLU, global
average pooling, and a fully connected classifier. The four built-in
configurations cover the 16-layer wide nets (widths 64/128/256), their
inception variants, and the 164-layer bottleneck baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import layers
from .blocks import UnitSpec, make_unit
from .graph import NetworkGraph
from .layers import msr_initialize
from .tensor import DEFAULT_DTYPE, ShapeError

BUILTIN_NAMES = ("wrn-16-4", "wr-inception", "wr-inception-l2", "preact-resnet-164")


@dataclass
class StageConfig:
    """A run of units; only the first may downsample."""

    units: list[UnitSpec]

    def __post_init__(self):
        if not self.units:
            raise ValueError("stage needs at least one unit")
        for i, u in enumerate(self.units[1:], start=1):
            if u.stride != 1:
                raise ValueError(f"unit {i} must have stride 1 inside a stage")


@dataclass
class NetworkConfig:
    name: str
    input_shape: tuple[int, int, int]  # (C, H, W)
    conv1: tuple[int, int]  # (kernel, out_channels)
    stages: list[StageConfig]
    num_classes: int

    def validate_chaining(self) -> None:
        channels = self.conv1[1]
        for idx, stage in enumerate(self.stages):
            for unit in stage.units:
                if unit.in_channels != channels:
                    raise ShapeError(
                        f"stage {idx}: unit expects {unit.in_channels} input "
                        f"channels but receives {channels}")
                channels = unit.out_channels

    # -- JSON round trip -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "input_shape": list(self.input_shape),
            "conv1": {"kernel": self.conv1[0], "out_channels": self.conv1[1]},
            "num_classes": self.num_classes,
            "stages": [
                {
                    "units": [
                        {
                            "variant": u.variant,
                            "in_channels": u.in_channels,
                            "widths": list(u.widths),
                            "stride": u.stride,
                            "out_channels": u.out_channels,
                        }
                        for u in s.units
                    ],
                }
                for s in self.stages
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkConfig":
        """The inverse of :meth:`to_dict`. A stage's keys other than
        ``units`` (earlier versions also wrote a copy of the first unit's
        stride) are ignored."""
        stages = [StageConfig([UnitSpec(**u) for u in s["units"]]) for s in d["stages"]]
        cfg = cls(
            name=d["name"],
            input_shape=tuple(d["input_shape"]),
            conv1=(d["conv1"]["kernel"], d["conv1"]["out_channels"]),
            stages=stages,
            num_classes=d["num_classes"],
        )
        cfg.validate_chaining()
        return cfg


def _basic(cin: int, w: int, stride: int = 1) -> UnitSpec:
    return UnitSpec("basic", cin, (w, w), stride, w)


def _bottleneck(cin: int, internal: int, w: int, stride: int = 1) -> UnitSpec:
    return UnitSpec("bottleneck", cin, (internal, internal, w), stride, w)


def builtin_config(name: str, num_classes: int = 10,
                   input_shape: tuple[int, int, int] = (3, 32, 32)) -> NetworkConfig:
    """Canonical configurations of the built-in network family."""
    if name == "wrn-16-4":
        stages = [
            StageConfig([_basic(16, 64), _basic(64, 64)]),
            StageConfig([_basic(64, 128, 2), _basic(128, 128)]),
            StageConfig([_basic(128, 256, 2), _basic(256, 256)]),
        ]
        conv1 = (3, 16)
    elif name == "wr-inception":
        stages = [
            StageConfig([_basic(16, 64), _basic(64, 64)]),
            StageConfig(
                [_basic(64, 128, 2),
                 UnitSpec("inception", 128, (128, 64, 64, 128), 1, 128)]),
            StageConfig([_basic(128, 256, 2), _basic(256, 256)]),
        ]
        conv1 = (3, 16)
    elif name == "wr-inception-l2":
        stages = [
            StageConfig([_basic(64, 64), _basic(64, 64)]),
            StageConfig(
                [_basic(64, 256, 2),
                 UnitSpec("inception", 256, (256, 256, 128, 256), 1, 256)]),
            StageConfig([_basic(256, 256, 2), _basic(256, 256)]),
        ]
        conv1 = (3, 64)
    elif name == "preact-resnet-164":
        # 18 bottleneck units per stage; internal widths follow the 164-layer
        # pre-activation baseline (16/32/64 inside 64/128/256).
        def stage(cin: int, internal: int, w: int, stride: int) -> StageConfig:
            units = [_bottleneck(cin, internal, w, stride)]
            units += [_bottleneck(w, internal, w) for _ in range(17)]
            return StageConfig(units)

        stages = [stage(16, 16, 64, 1), stage(64, 32, 128, 2), stage(128, 64, 256, 2)]
        conv1 = (3, 16)
    else:
        raise KeyError(f"unknown network name {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    cfg = NetworkConfig(name=name, input_shape=input_shape, conv1=conv1,
                        stages=stages, num_classes=num_classes)
    cfg.validate_chaining()
    return cfg


def build_network(config: NetworkConfig, seed: int = 0, dtype=DEFAULT_DTYPE) -> NetworkGraph:
    """Materialize a graph of ``dtype`` with MSR-initialized parameters,
    deterministically for a given (config, seed)."""
    config.validate_chaining()
    g = NetworkGraph(config.input_shape[0], name=config.name, dtype=dtype)
    kernel, stem_out = config.conv1
    x = g.add_conv("conv1", g.input_name, stem_out, kernel)
    for s_idx, stage in enumerate(config.stages, start=1):
        for u_idx, unit in enumerate(stage.units):
            x = make_unit(g, x, unit, f"stage{s_idx}/unit{u_idx}")
    x = g.add_bn_relu("head/bn", x)
    x = g.add_global_avg_pool("head/gap", x)
    g.add_fc("head/fc", x, config.num_classes)

    rng = np.random.default_rng(seed)
    for node in g.nodes.values():
        if node.params is not None:
            msr_initialize(node.params, rng)
    return g


@dataclass
class ExecutionResult:
    logits: np.ndarray
    loss: Optional[float] = None
    grads: Optional[dict[str, np.ndarray]] = None


def execute(graph: NetworkGraph, x: np.ndarray, mode: str = "infer",
            labels: Optional[np.ndarray] = None) -> ExecutionResult:
    """Run the classifier graph. Train mode takes labels and returns loss and
    gradients for every parameter (the optimizer skips frozen ones); infer
    mode takes none, uses running batch-norm statistics and returns only
    the logits."""
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "infer":
        if labels is not None:
            raise ValueError("infer mode takes no labels")
        return ExecutionResult(logits=graph.forward(x, mode="infer")[graph.output_name])
    if labels is None:
        raise ValueError("train mode requires labels")
    result = graph.forward(x, mode="train", keep_caches=True)
    logits = result[graph.output_name]
    loss, dlogits = layers.softmax_cross_entropy(logits, labels)
    grads, _ = graph.backward(result, {graph.output_name: dlogits})
    return ExecutionResult(logits=logits, loss=loss, grads=grads)

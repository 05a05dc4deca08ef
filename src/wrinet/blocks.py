"""Pre-activation residual units: basic, bottleneck, and residual-inception.

Every convolution is preceded by BN -> ReLU, added by
:meth:`NetworkGraph.add_bn_relu` as an ``affine_relu`` node named
``<scope>/bn<tag>`` that reads the ``<tensor>/norm`` node of its input; a
tensor read by several pre-activations is normalised once. A unit's shortcut
is the raw input when neither channels nor resolution change; otherwise it
is a strided 1x1 projection applied to the shared pre-activated input, which
is the wide residual network convention this family follows. A unit states
only its widths: the graph sizes each conv from the node it reads, in the
graph's dtype.

The residual-inception unit shares one 1x1 convolution across three branches
(the shared output itself, one 3x3, and a stacked 3x3 pair whose composite
receptive field matches a 5x5), joins them along channels, and projects the
widened map back to the unit width with a 1x1 convolution before the
shortcut add. The join is the projection's pre-activation ``proj/bn``, which
reads the three branches' normalisations in that order: per-channel batch
norm of a concat is the concat of per-branch batch norms, so ``shared`` is
normalised once for ``b/bn``, ``c/bn1`` and ``proj/bn``, and no concatenated
copy is made.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .graph import NetworkGraph
from .tensor import DEFAULT_DTYPE, ShapeError

_WIDTH_COUNT = {"basic": 2, "bottleneck": 3, "inception": 4}
_CHAIN_KERNELS = {"basic": (3, 3), "bottleneck": (1, 3, 1)}


@dataclass
class UnitSpec:
    """Declarative description of one residual unit.

    widths by variant: basic [w, w]; bottleneck [reduce, reduce, w];
    inception [shared, branch_b, branch_c_mid, branch_c_out].
    """

    variant: str
    in_channels: int
    widths: tuple[int, ...]
    stride: int
    out_channels: int

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        if self.variant not in _WIDTH_COUNT:
            raise ValueError(f"unknown unit variant {self.variant!r}")
        expected = _WIDTH_COUNT[self.variant]
        if len(self.widths) != expected:
            raise ValueError(
                f"{self.variant} unit needs {expected} widths, got {len(self.widths)}")
        if self.stride not in (1, 2):
            raise ValueError(f"unit stride must be 1 or 2, got {self.stride}")
        if self.variant in ("basic", "bottleneck") and self.widths[-1] != self.out_channels:
            raise ValueError(
                f"{self.variant} unit last width {self.widths[-1]} must equal "
                f"out_channels {self.out_channels}")
        if min(self.in_channels, self.out_channels, *self.widths) < 1:
            raise ValueError("channel counts must be positive")

    @property
    def concat_width(self) -> int:
        shared, branch_b, _, branch_c_out = self.widths
        return shared + branch_b + branch_c_out

    def needs_projection(self) -> bool:
        return self.stride != 1 or self.in_channels != self.out_channels


def _shortcut(g: NetworkGraph, raw: str, preact: str, spec: UnitSpec, scope: str) -> str:
    if not spec.needs_projection():
        return raw
    return g.add_conv(f"{scope}/shortcut", preact, spec.out_channels, 1, stride=spec.stride)


def _chain_unit(g: NetworkGraph, inp: str, spec: UnitSpec, scope: str) -> str:
    """BN-ReLU-conv once per width, with 3x3, 3x3 kernels (basic) or 1x1,
    3x3, 1x1 (bottleneck); the first 3x3 carries the unit stride. Plus
    shortcut, which projects the first pre-activation ``bn1``."""
    kernels = _CHAIN_KERNELS[spec.variant]
    strided = kernels.index(3)
    x = inp
    for i, (k, width) in enumerate(zip(kernels, spec.widths)):
        x = g.add_bn_relu(f"{scope}/bn{i + 1}", x)
        stride = spec.stride if i == strided else 1
        x = g.add_conv(f"{scope}/conv{i + 1}", x, width, k, stride=stride)
    sc = _shortcut(g, inp, f"{scope}/bn1", spec, scope)
    return g.add_add(f"{scope}/add", x, sc)


def _inception_unit(g: NetworkGraph, inp: str, spec: UnitSpec, scope: str) -> str:
    """Shared 1x1 (carrying the unit stride) feeding three branches of
    receptive extents 1/3/5, joined by the projection's pre-activation and
    projected back by a 1x1."""
    w_shared, w_b, w_c1, w_c2 = spec.widths
    pre = g.add_bn_relu(f"{scope}/bn1", inp)
    shared = g.add_conv(f"{scope}/shared", pre, w_shared, 1, stride=spec.stride)

    b = g.add_bn_relu(f"{scope}/b/bn", shared)
    b = g.add_conv(f"{scope}/b/conv", b, w_b, 3)

    c = g.add_bn_relu(f"{scope}/c/bn1", shared)
    c = g.add_conv(f"{scope}/c/conv1", c, w_c1, 3)
    c = g.add_bn_relu(f"{scope}/c/bn2", c)
    c = g.add_conv(f"{scope}/c/conv2", c, w_c2, 3)

    x = g.add_bn_relu(f"{scope}/proj/bn", [shared, b, c])
    x = g.add_conv(f"{scope}/proj/conv", x, spec.out_channels, 1)
    sc = _shortcut(g, inp, pre, spec, scope)
    return g.add_add(f"{scope}/add", x, sc)


_BUILDERS = {
    "basic": _chain_unit,
    "bottleneck": _chain_unit,
    "inception": _inception_unit,
}


def make_unit(g: NetworkGraph, inp: str, spec: UnitSpec, scope: str) -> str:
    """Add the unit ``spec`` on ``inp`` under ``scope``; returns its output
    node. The spec's ``in_channels`` is the one stated input width that
    meets the graph, so a mismatch with ``inp``'s channels is a ShapeError."""
    have = g.nodes[inp].channels
    if spec.in_channels != have:
        raise ShapeError(f"unit {scope!r} expects {spec.in_channels} input channels, "
                         f"node {inp!r} provides {have}")
    return _BUILDERS[spec.variant](g, inp, spec, scope)


def build_standalone_unit(spec: UnitSpec, dtype=DEFAULT_DTYPE) -> tuple[NetworkGraph, str]:
    """A unit on its own graph of ``dtype``, for per-unit analysis and
    gradient checks."""
    g = NetworkGraph(spec.in_channels, name=f"{spec.variant}-unit", dtype=dtype)
    return g, make_unit(g, g.input_name, spec, "unit")


def effective_receptive_paths(spec: UnitSpec) -> set[int]:
    """Receptive-field extents the unit exposes where its branches meet,
    measured relative to the unit input with all strides forced to 1.

    The inception unit reports {1, 3, 5}; basic and bottleneck units report
    the single extent of their convolution path ({5} and {3}).
    """
    flat = replace(spec, stride=1)
    g, out = build_standalone_unit(flat)
    rf_map = g.receptive_field_map((64, 64))
    if spec.variant == "inception":
        _, _, per_branch = rf_map["unit/proj/bn"]
    else:
        add_node = g.nodes[out]
        residual = add_node.inputs[0]  # conv path; inputs[1] is the shortcut
        _, _, per_branch = rf_map[residual]
    return set(per_branch)

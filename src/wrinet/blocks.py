"""Pre-activation residual units: basic, bottleneck, and residual-inception.

Every convolution is preceded by BN -> ReLU. A unit's shortcut is the raw
input when neither channels nor resolution change; otherwise it is a strided
1x1 projection applied to the shared pre-activated input, which is the wide
residual network convention this family follows.

The residual-inception unit shares one 1x1 convolution across three branches
(the shared output itself, one 3x3, and a stacked 3x3 pair whose composite
receptive field matches a 5x5), concatenates them, and projects the widened
map back to the unit width with a 1x1 convolution before the shortcut add.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .graph import NetworkGraph
from .layers import make_batch_norm, make_conv
from .tensor import DEFAULT_DTYPE

_WIDTH_COUNT = {"basic": 2, "bottleneck": 3, "inception": 4}


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
        if self.variant != "inception":
            raise ValueError("concat width is defined only for inception units")
        shared, branch_b, _, branch_c_out = self.widths
        return shared + branch_b + branch_c_out

    def needs_projection(self) -> bool:
        return self.stride != 1 or self.in_channels != self.out_channels


def _pre_activation(g: NetworkGraph, inp: str, channels: int, scope: str,
                    tag: str, dtype) -> str:
    bn = g.add_bn(f"{scope}/bn{tag}", inp, make_batch_norm(channels, dtype=dtype))
    return g.add_relu(f"{scope}/relu{tag}", bn)


def _shortcut(g: NetworkGraph, raw: str, preact: str, spec: UnitSpec, scope: str,
              dtype) -> str:
    if not spec.needs_projection():
        return raw
    proj = make_conv(spec.in_channels, spec.out_channels, kernel=1,
                     stride=spec.stride, padding=0, dtype=dtype)
    return g.add_conv(f"{scope}/shortcut", preact, proj)


def make_basic_unit(g: NetworkGraph, inp: str, spec: UnitSpec, scope: str,
                    dtype=DEFAULT_DTYPE) -> str:
    """BN-ReLU-conv3x3(stride s)-BN-ReLU-conv3x3 plus shortcut."""
    if spec.variant != "basic":
        raise ValueError(f"expected basic unit spec, got {spec.variant!r}")
    w = spec.widths[0]
    pre = _pre_activation(g, inp, spec.in_channels, scope, "1", dtype)
    x = g.add_conv(f"{scope}/conv1", pre,
                   make_conv(spec.in_channels, w, 3, stride=spec.stride, dtype=dtype))
    x = _pre_activation(g, x, w, scope, "2", dtype)
    x = g.add_conv(f"{scope}/conv2", x, make_conv(w, spec.out_channels, 3, dtype=dtype))
    sc = _shortcut(g, inp, pre, spec, scope, dtype)
    return g.add_add(f"{scope}/add", x, sc)


def make_bottleneck_unit(g: NetworkGraph, inp: str, spec: UnitSpec, scope: str,
                         dtype=DEFAULT_DTYPE) -> str:
    """1x1 reduce, 3x3 (carrying the unit stride), 1x1 restore, plus shortcut."""
    if spec.variant != "bottleneck":
        raise ValueError(f"expected bottleneck unit spec, got {spec.variant!r}")
    w_reduce, w_mid, w_out = spec.widths
    pre = _pre_activation(g, inp, spec.in_channels, scope, "1", dtype)
    x = g.add_conv(f"{scope}/conv1", pre,
                   make_conv(spec.in_channels, w_reduce, 1, padding=0, dtype=dtype))
    x = _pre_activation(g, x, w_reduce, scope, "2", dtype)
    x = g.add_conv(f"{scope}/conv2", x,
                   make_conv(w_reduce, w_mid, 3, stride=spec.stride, dtype=dtype))
    x = _pre_activation(g, x, w_mid, scope, "3", dtype)
    x = g.add_conv(f"{scope}/conv3", x, make_conv(w_mid, w_out, 1, padding=0, dtype=dtype))
    sc = _shortcut(g, inp, pre, spec, scope, dtype)
    return g.add_add(f"{scope}/add", x, sc)


def make_residual_inception_unit(g: NetworkGraph, inp: str, spec: UnitSpec,
                                 scope: str, dtype=DEFAULT_DTYPE) -> str:
    """Shared 1x1 (carrying the unit stride) feeding three branches of
    receptive extents 1/3/5, concatenated and projected back by a 1x1."""
    if spec.variant != "inception":
        raise ValueError(f"expected inception unit spec, got {spec.variant!r}")
    w_shared, w_b, w_c1, w_c2 = spec.widths
    pre = _pre_activation(g, inp, spec.in_channels, scope, "1", dtype)
    shared = g.add_conv(f"{scope}/shared", pre,
                        make_conv(spec.in_channels, w_shared, 1, stride=spec.stride,
                                  padding=0, dtype=dtype))

    b = _pre_activation(g, shared, w_shared, f"{scope}/b", "", dtype)
    b = g.add_conv(f"{scope}/b/conv", b, make_conv(w_shared, w_b, 3, dtype=dtype))

    c = _pre_activation(g, shared, w_shared, f"{scope}/c", "1", dtype)
    c = g.add_conv(f"{scope}/c/conv1", c, make_conv(w_shared, w_c1, 3, dtype=dtype))
    c = _pre_activation(g, c, w_c1, f"{scope}/c", "2", dtype)
    c = g.add_conv(f"{scope}/c/conv2", c, make_conv(w_c1, w_c2, 3, dtype=dtype))

    cat = g.add_concat(f"{scope}/concat", [shared, b, c])
    x = _pre_activation(g, cat, spec.concat_width, f"{scope}/proj", "", dtype)
    x = g.add_conv(f"{scope}/proj/conv", x,
                   make_conv(spec.concat_width, spec.out_channels, 1, padding=0,
                             dtype=dtype))
    sc = _shortcut(g, inp, pre, spec, scope, dtype)
    return g.add_add(f"{scope}/add", x, sc)


_BUILDERS = {
    "basic": make_basic_unit,
    "bottleneck": make_bottleneck_unit,
    "inception": make_residual_inception_unit,
}


def make_unit(g: NetworkGraph, inp: str, spec: UnitSpec, scope: str,
              dtype=DEFAULT_DTYPE) -> str:
    return _BUILDERS[spec.variant](g, inp, spec, scope, dtype=dtype)


def build_standalone_unit(spec: UnitSpec, dtype=DEFAULT_DTYPE) -> tuple[NetworkGraph, str]:
    """A unit on its own graph, for per-unit analysis and gradient checks."""
    g = NetworkGraph(spec.in_channels, name=f"{spec.variant}-unit")
    out = make_unit(g, g.input_name, spec, "unit", dtype=dtype)
    return g, out


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
        _, _, per_branch = rf_map["unit/concat"]
    else:
        add_node = g.nodes[out]
        residual = add_node.inputs[0]  # conv path; inputs[1] is the shortcut
        _, _, per_branch = rf_map[residual]
    return set(per_branch)

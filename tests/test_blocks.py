import numpy as np
import pytest

from wrinet import gradcheck
from wrinet.analysis import count_parameters, unit_macs_per_position
from wrinet.blocks import (UnitSpec, build_standalone_unit,
                           effective_receptive_paths)
from wrinet.layers import msr_initialize


def conv_weight_count(graph) -> int:
    return sum(n.conv.weights.size for n in graph.nodes.values() if n.op == "conv")


def zero_residual(graph, shortcut_names=("unit/shortcut",)) -> None:
    """Zero every conv except the shortcut projection and make BN an identity."""
    for name, node in graph.nodes.items():
        if node.op == "conv" and name not in shortcut_names:
            node.conv.weights[...] = 0.0
        elif node.op == "bn_relu":
            msr_initialize(node.bn, 0)


def test_basic_unit_conv_weight_count_at_width_128():
    g, _ = build_standalone_unit(UnitSpec("basic", 128, (128, 128), 1, 128))
    assert conv_weight_count(g) == 2 * (128 * 9 * 128) == 294912


def test_basic_unit_projection_shortcut_weights():
    g, _ = build_standalone_unit(UnitSpec("basic", 64, (128, 128), 2, 128))
    sc = g.nodes["unit/shortcut"]
    assert sc.conv.weights.shape == (128, 64, 1, 1)
    assert sc.conv.stride == 2
    assert sc.conv.weights.size == 64 * 128 == 8192


def test_bottleneck_unit_conv_weight_count():
    g, _ = build_standalone_unit(UnitSpec("bottleneck", 256, (64, 64, 256), 1, 256))
    assert conv_weight_count(g) == 256 * 64 + 64 * 9 * 64 + 64 * 256 == 69632


@pytest.mark.parametrize("spec", [
    UnitSpec("basic", 6, (6, 6), 1, 6),
    UnitSpec("bottleneck", 8, (2, 2, 8), 1, 8),
    UnitSpec("inception", 6, (6, 4, 4, 6), 1, 6),
])
def test_zero_residual_branch_equals_identity_shortcut(spec):
    g, out = build_standalone_unit(spec, dtype=np.float64)
    rng = np.random.default_rng(0)
    for node in g.nodes.values():
        if node.op == "conv":
            msr_initialize(node.conv, rng)
    zero_residual(g)
    x = rng.normal(size=(2, spec.in_channels, 6, 6))
    result = g.forward(x, mode="train")
    assert np.array_equal(result.outputs[out], x)


def test_zero_residual_branch_equals_projection_shortcut():
    spec = UnitSpec("basic", 4, (8, 8), 2, 8)
    g, out = build_standalone_unit(spec, dtype=np.float64)
    rng = np.random.default_rng(1)
    for node in g.nodes.values():
        if node.op == "conv":
            msr_initialize(node.conv, rng)
    zero_residual(g)
    x = rng.normal(size=(2, 4, 8, 8))
    result = g.forward(x, mode="train")
    assert np.array_equal(result.outputs[out], result.outputs["unit/shortcut"])


def test_inception_branch_macs_per_position():
    spec = UnitSpec("inception", 128, (128, 64, 64, 128), 1, 128)
    g, _ = build_standalone_unit(spec)
    branch_macs = sum(
        n.conv.weights.size for name, n in g.nodes.items()
        if n.op == "conv" and "proj" not in name)
    assert branch_macs == 128 * 1 * 128 + 128 * 9 * 64 + 128 * 9 * 64 + 64 * 9 * 128
    assert branch_macs == 237568
    assert unit_macs_per_position(spec) == 237568 + 320 * 128 == 278528


def test_inception_concat_width_and_projection():
    spec = UnitSpec("inception", 128, (128, 64, 64, 128), 1, 128)
    assert spec.concat_width == 320
    g, _ = build_standalone_unit(spec)
    proj = g.nodes["unit/proj/conv"]
    assert proj.conv.weights.shape == (128, 320, 1, 1)
    cat = g.nodes["unit/concat"]
    assert cat.channels == 320


def test_inception_unit_within_6_percent_of_basic():
    inc = unit_macs_per_position(UnitSpec("inception", 128, (128, 64, 64, 128), 1, 128))
    basic = unit_macs_per_position(UnitSpec("basic", 128, (128, 128), 1, 128))
    assert inc == 278528 and basic == 294912
    assert abs(inc - basic) / basic < 0.06


def test_concat_branch_order_is_shared_b_c():
    spec = UnitSpec("inception", 4, (4, 3, 3, 5), 1, 4)
    g, _ = build_standalone_unit(spec, dtype=np.float64)
    cat = g.nodes["unit/concat"]
    assert cat.inputs == ["unit/shared", "unit/b/conv", "unit/c/conv2"]
    rng = np.random.default_rng(2)
    for node in g.nodes.values():
        if node.op == "conv":
            msr_initialize(node.conv, rng)
    x = rng.normal(size=(1, 4, 6, 6))
    result = g.forward(x, mode="train")
    out = result.outputs["unit/concat"]
    assert np.array_equal(out[:, :4], result.outputs["unit/shared"])
    assert np.array_equal(out[:, 4:7], result.outputs["unit/b/conv"])
    assert np.array_equal(out[:, 7:], result.outputs["unit/c/conv2"])


def test_receptive_paths_per_variant():
    inception = UnitSpec("inception", 128, (128, 64, 64, 128), 1, 128)
    assert effective_receptive_paths(inception) == {1, 3, 5}
    assert effective_receptive_paths(UnitSpec("basic", 64, (64, 64), 1, 64)) == {5}
    assert effective_receptive_paths(
        UnitSpec("bottleneck", 64, (16, 16, 64), 1, 64)) == {3}


def test_receptive_paths_unchanged_by_stride():
    strided = UnitSpec("inception", 128, (128, 64, 64, 128), 2, 128)
    assert effective_receptive_paths(strided) == {1, 3, 5}


def test_unit_spec_validation():
    with pytest.raises(ValueError):
        UnitSpec("basic", 4, (4, 4, 4), 1, 4)  # wrong width count
    with pytest.raises(ValueError):
        UnitSpec("bottleneck", 4, (2, 2), 1, 4)
    with pytest.raises(ValueError):
        UnitSpec("inception", 4, (4, 4), 1, 4)
    with pytest.raises(ValueError):
        UnitSpec("basic", 4, (4, 4), 3, 4)  # bad stride
    with pytest.raises(ValueError):
        UnitSpec("nosuch", 4, (4, 4), 1, 4)


@pytest.mark.parametrize("name", sorted(gradcheck.UNIT_SPECS))
def test_unit_gradients_match_finite_differences(name):
    assert gradcheck.check_unit(gradcheck.UNIT_SPECS[name], seed=0) < 1e-4

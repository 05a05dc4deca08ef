import numpy as np
import pytest

from wrinet import gradcheck, layers
from wrinet.analysis import unit_macs_per_position
from wrinet.blocks import (UnitSpec, build_standalone_unit,
                           effective_receptive_paths)
from wrinet.layers import batch_norm_forward, make_batch_norm, msr_initialize


def conv_weight_count(graph) -> int:
    return sum(n.conv.weights.size for n in graph.nodes.values() if n.op == "conv")


def zero_residual(graph, shortcut_names=("unit/shortcut",)) -> None:
    """Zero every conv except the shortcut projection and make BN an identity."""
    for name, node in graph.nodes.items():
        if node.op == "conv" and name not in shortcut_names:
            node.conv.weights[...] = 0.0
        elif node.op == "affine_relu":
            msr_initialize(node.affine, 0)


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
    result = g.forward(x, mode="train", keep=g.order)
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
    join = g.nodes["unit/proj/bn"]
    assert join.channels == 320


def test_inception_unit_within_6_percent_of_basic():
    inc = unit_macs_per_position(UnitSpec("inception", 128, (128, 64, 64, 128), 1, 128))
    basic = unit_macs_per_position(UnitSpec("basic", 128, (128, 128), 1, 128))
    assert inc == 278528 and basic == 294912
    assert abs(inc - basic) / basic < 0.06


def test_concat_branch_order_is_shared_b_c():
    """The projection's pre-activation joins the branches' normalisations
    in the order shared, b, c; with the identity affine each block of its
    output is the ReLU of that branch's normalised output."""
    spec = UnitSpec("inception", 4, (4, 3, 3, 5), 1, 4)
    g, _ = build_standalone_unit(spec, dtype=np.float64)
    branches = ["unit/shared", "unit/b/conv", "unit/c/conv2"]
    join = g.nodes["unit/proj/bn"]
    assert join.inputs == [f"{b}/norm" for b in branches]
    assert [g.nodes[norm].inputs for norm in join.inputs] == [[b] for b in branches]
    rng = np.random.default_rng(2)
    for node in g.nodes.values():
        if node.op == "conv":
            msr_initialize(node.conv, rng)
    x = rng.normal(size=(1, 4, 6, 6))
    result = g.forward(x, mode="train", keep=g.order)
    out = result.outputs["unit/proj/bn"]
    for norm, channels in zip(join.inputs, (slice(0, 4), slice(4, 7), slice(7, 12))):
        assert np.array_equal(out[:, channels], np.maximum(result.outputs[norm], 0)), norm


def test_bn_relu_never_clamps_its_input():
    """A pre-activation clamps its affine's fresh output in place. In an
    inception unit the input feeds bn1 and the shortcut, and ``shared``'s
    one normalisation feeds three pre-activations (``b/bn``, ``c/bn1`` and
    ``proj/bn``): all must keep their values."""
    spec = UnitSpec("inception", 4, (4, 3, 3, 4), 1, 4)
    g, _ = build_standalone_unit(spec, dtype=np.float64)
    rng = np.random.default_rng(3)
    for node in g.nodes.values():
        if node.op == "conv":
            msr_initialize(node.conv, rng)
    x = rng.normal(size=(2, 4, 6, 6))
    x_before = x.copy()
    result = g.forward(x, mode="train", keep_caches=True, keep=g.order)
    shared = result.outputs["unit/shared/norm"]
    assert (shared < 0).any()
    want = batch_norm_forward(result.outputs["unit/shared"], make_batch_norm(4, np.float64))[0]
    assert np.array_equal(shared, want)
    assert [n for n, node in g.nodes.items() if "unit/shared/norm" in node.inputs] == [
        "unit/b/bn", "unit/c/bn1", "unit/proj/bn"]
    assert np.array_equal(x, x_before)
    for name, node in g.nodes.items():
        if node.op == "affine_relu":
            assert not any(np.shares_memory(result.outputs[name], result.outputs[i])
                           for i in node.inputs), name


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


def test_inception_unit_normalises_each_tensor_once(monkeypatch):
    """A train forward of the standalone inception unit runs the
    normalisation kernel once per distinct tensor it normalises (the
    input, ``shared`` and the three branch convs), over 512 channels in
    all; normalising per pre-activation took 768 (``shared`` three times)."""
    spec = UnitSpec("inception", 128, (128, 64, 64, 128), 1, 128)
    g, out = build_standalone_unit(spec)
    normalised = []
    real = layers.batch_norm_forward

    def counting(x, p, mode):
        normalised.append((id(x), x.shape[1]))
        return real(x, p, mode)

    monkeypatch.setattr(layers, "batch_norm_forward", counting)
    x = np.random.default_rng(0).normal(size=(2, 128, 4, 4)).astype(np.float32)
    result = g.forward(x, mode="train", keep=g.order)
    tensors = [g.input_name, "unit/shared", "unit/b/conv", "unit/c/conv1", "unit/c/conv2"]
    assert sorted(normalised) == sorted((id(result[t]), result[t].shape[1]) for t in tensors)
    assert sum(c for _, c in normalised) == 512

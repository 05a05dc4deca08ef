import json

import numpy as np
import pytest

from wrinet.analysis import count_parameters
from wrinet.builder import (BUILTIN_NAMES, NetworkConfig, StageConfig,
                            build_network, builtin_config, execute)
from wrinet.blocks import UnitSpec
from wrinet.gradcheck import miniature_config
from wrinet import layers, tensor
from wrinet.graph import NetworkGraph, load_checkpoint, save_checkpoint
from wrinet.heads import build_detection_head
from wrinet.tensor import ShapeError

PARAM_WINDOWS = {
    "wrn-16-4": (2.8e6 * 0.98, 2.8e6 * 1.02),
    "wr-inception": (2.7e6 * 0.98, 2.7e6 * 1.02),
    "wr-inception-l2": (4.8e6 * 0.98, 4.8e6 * 1.02),
    "preact-resnet-164": (1.7e6 * 0.95, 1.7e6 * 1.05),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_parameter_totals(name):
    g = build_network(builtin_config(name), seed=0)
    total, _ = count_parameters(g)
    lo, hi = PARAM_WINDOWS[name]
    assert lo <= total <= hi


def test_unknown_name_rejected():
    with pytest.raises(KeyError, match="nosuch"):
        builtin_config("nosuch")


def test_build_is_deterministic_per_seed():
    a = build_network(builtin_config("wr-inception"), seed=11)
    b = build_network(builtin_config("wr-inception"), seed=11)
    c = build_network(builtin_config("wr-inception"), seed=12)
    for (ka, va), (kb, vb) in zip(a.parameters().items(), b.parameters().items()):
        assert ka == kb and va.tobytes() == vb.tobytes()
    assert any(va.tobytes() != vc.tobytes()
               for va, vc in zip(a.parameters().values(), c.parameters().values()))


def test_wrn_16_4_has_three_projection_shortcuts():
    g = build_network(builtin_config("wrn-16-4"), seed=0)
    shortcuts = [n for n in g.order if n.endswith("/shortcut")]
    assert len(shortcuts) == 3


def test_pre_head_feature_shape():
    g = build_network(builtin_config("wr-inception"), seed=0)
    shapes = g.infer_shapes((32, 32))
    assert shapes["head/bn"] == (256, 8, 8)


def test_execute_shapes_and_logits():
    g = build_network(builtin_config("wr-inception"), seed=0)
    x = np.random.default_rng(0).normal(size=(1, 3, 32, 32)).astype(np.float32)
    out = execute(g, x, mode="infer")
    assert out.logits.shape == (1, 10)
    assert out.loss is None and out.grads is None


def test_infer_mode_rows_are_per_sample():
    g = build_network(builtin_config("wrn-16-4"), seed=3)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 3, 32, 32)).astype(np.float32)
    batch = np.concatenate([x, rng.normal(size=(2, 3, 32, 32)).astype(np.float32), x])
    logits = execute(g, batch, mode="infer").logits
    assert np.array_equal(logits[0], logits[3])


def test_train_mode_requires_labels():
    g = build_network(miniature_config(), seed=0)
    x = np.zeros((2, 3, 8, 8), dtype=np.float32)
    with pytest.raises(ValueError, match="labels"):
        execute(g, x, mode="train")


def test_execute_rejects_wrong_input_channels():
    g = build_network(miniature_config(), seed=0)
    with pytest.raises(ShapeError):
        execute(g, np.zeros((1, 4, 8, 8), dtype=np.float32), mode="infer")


def test_forward_rejects_unknown_mode():
    g = build_network(miniature_config(), seed=0)
    with pytest.raises(ValueError, match="'trian'"):
        g.forward(np.zeros((2, 3, 8, 8), dtype=np.float32), mode="trian")


def test_backward_without_caches_says_so():
    g = build_network(miniature_config(), seed=0)
    result = g.forward(np.ones((2, 3, 8, 8), dtype=np.float32), mode="train")
    with pytest.raises(ValueError, match="keep_caches=True"):
        g.backward(result, {g.output_name: np.ones((2, 4), dtype=np.float32)})


def test_empty_concat_rejected_when_added():
    g = NetworkGraph(3)
    with pytest.raises(ValueError, match="'cat' needs at least one input"):
        g.add_concat("cat", [])
    assert "cat" not in g.nodes


def test_flatten_rejects_other_input_size():
    """A detection graph evaluated at a size it was not built for must fail
    at the flatten node, not report a different prior count."""
    g = build_network(miniature_config(), seed=0)
    build_detection_head(g, ("stage1/unit0/add", "stage2/unit0/add"), (8, 8),
                         num_classes=2, seed=0)
    assert g.infer_shapes((8, 8))["head/logits"] == (3 * 4 * (8 * 8 + 4 * 4), 1, 1)
    with pytest.raises(ShapeError, match="flatten 'head/map0/cls/flat'"):
        g.infer_shapes((16, 16))


def test_graph_looks_kernels_up_at_call_time(monkeypatch):
    """Kernel wrappers installed on the modules (as a tracer does) must see
    every node's call, forward and backward."""
    g = build_network(miniature_config(), seed=0, dtype=np.float64)
    seen = {"conv_fwd": [], "conv_bwd": 0, "add": 0}
    conv_fwd, conv_bwd = layers.conv2d_forward, layers.conv2d_backward
    add = tensor.add_elementwise

    def counting_conv_fwd(x, p, **kwargs):
        seen["conv_fwd"].append(id(p))
        return conv_fwd(x, p, **kwargs)

    def counting_conv_bwd(dy, cache):
        seen["conv_bwd"] += 1
        return conv_bwd(dy, cache)

    def counting_add(a, b):
        seen["add"] += 1
        return add(a, b)

    monkeypatch.setattr(layers, "conv2d_forward", counting_conv_fwd)
    monkeypatch.setattr(layers, "conv2d_backward", counting_conv_bwd)
    monkeypatch.setattr(tensor, "add_elementwise", counting_add)
    # bn_relu composes four kernels; a tracer times each on its own
    pre_activation = ("batch_norm_forward", "relu_forward",
                      "relu_backward", "batch_norm_backward")
    for kernel in pre_activation:
        seen[kernel] = 0

        def counting(*args, kernel=kernel, real=getattr(layers, kernel), **kwargs):
            seen[kernel] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(layers, kernel, counting)
    x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
    result = g.forward(x, mode="train", keep_caches=True)
    g.backward(result, {g.output_name: np.ones_like(result[g.output_name])})
    convs = [id(n.conv) for n in g.nodes.values() if n.op == "conv"]
    assert sorted(seen["conv_fwd"]) == sorted(convs)
    assert seen["conv_bwd"] == len(convs)
    assert seen["add"] == sum(n.op == "add" for n in g.nodes.values()) > 0
    pre_activations = sum(n.op == "bn_relu" for n in g.nodes.values())
    assert pre_activations > 0
    assert all(seen[kernel] == pre_activations for kernel in pre_activation)


def test_chaining_violation_reports_stage_index():
    cfg = builtin_config("wrn-16-4")
    cfg.stages[1] = StageConfig(
        [UnitSpec("basic", 32, (128, 128), 2, 128),
         UnitSpec("basic", 128, (128, 128), 1, 128)], 2)
    with pytest.raises(ShapeError, match="stage 1"):
        build_network(cfg, seed=0)


def test_config_json_round_trip():
    cfg = builtin_config("wr-inception-l2")
    restored = NetworkConfig.from_json(cfg.to_json())
    assert restored == cfg
    parsed = json.loads(cfg.to_json())
    assert parsed["conv1"]["out_channels"] == 64


def test_checkpoint_round_trip_is_bit_identical(tmp_path):
    g = build_network(miniature_config(), seed=9)
    x = np.random.default_rng(4).normal(size=(2, 3, 8, 8)).astype(np.float32)
    # touch the running stats so they are nontrivial
    execute(g, x, mode="train", labels=np.array([0, 1]))
    before = execute(g, x, mode="infer").logits
    path = tmp_path / "net.wrin"
    save_checkpoint(g, str(path))

    fresh = build_network(miniature_config(), seed=1234)
    load_checkpoint(fresh, str(path))
    for (ka, va), (kb, vb) in zip(g.state_entries().items(),
                                  fresh.state_entries().items()):
        assert ka == kb and va.tobytes() == vb.tobytes()
    after = execute(fresh, x, mode="infer").logits
    assert np.array_equal(before, after)


def test_checkpoint_format_layout(tmp_path):
    g = build_network(miniature_config(), seed=0)
    path = tmp_path / "net.wrin"
    save_checkpoint(g, str(path))
    blob = path.read_bytes()
    assert blob[:4] == b"WRIN"
    assert blob[4] == 1
    count = int.from_bytes(blob[-8:], "little")
    assert count == len(g.state_entries())
    # first entry is conv1/weight: uint32 name length + name
    name_len = int.from_bytes(blob[5:9], "little")
    assert blob[9:9 + name_len].decode() == "conv1/weight"
    rank = blob[9 + name_len]
    assert rank == 4


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wrin"
    path.write_bytes(b"NOPE" + bytes(16))
    g = build_network(miniature_config(), seed=0)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(g, str(path))


def test_checkpoint_rejects_wrong_graph(tmp_path):
    g = build_network(miniature_config(), seed=0)
    path = tmp_path / "net.wrin"
    save_checkpoint(g, str(path))
    other = build_network(builtin_config("wrn-16-4"), seed=0)
    with pytest.raises(ValueError):
        load_checkpoint(other, str(path))

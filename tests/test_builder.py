import builtins
import dataclasses
import errno
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wrinet.analysis import count_parameters
from wrinet.builder import (BUILTIN_NAMES, NetworkConfig, StageConfig,
                            build_network, builtin_config, execute)
from wrinet.blocks import UnitSpec
from wrinet.gradcheck import miniature_config
from wrinet import graph as graph_module
from wrinet import layers, tensor
from wrinet.graph import NetworkGraph, load_checkpoint, save_checkpoint
from wrinet.heads import build_detection_head, detection_forward
from wrinet.layers import make_conv
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


def test_infer_mode_takes_no_labels():
    g = build_network(miniature_config(), seed=0)
    x = np.zeros((2, 3, 8, 8), dtype=np.float32)
    with pytest.raises(ValueError, match="infer mode takes no labels"):
        execute(g, x, mode="infer", labels=np.array([0, 1]))


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


@pytest.mark.parametrize("grad", [np.ones((2, 4), dtype=np.float64),
                                  np.ones((2, 5), dtype=np.float32)], ids=["dtype", "shape"])
def test_backward_rejects_out_grads_unlike_the_output(grad):
    """An injected gradient must match its node's output in dtype and
    shape: float64 gradients into a float32 net would be rounded to float32
    in the in-place kernels. Nothing is consumed, so the pass can still run
    backward with a gradient that matches."""
    g = build_network(miniature_config(), seed=0)
    result = g.forward(np.ones((2, 3, 8, 8), dtype=np.float32), mode="train", keep_caches=True)
    with pytest.raises(ValueError, match=re.escape(
            f"out_grads for node 'head/fc' is {grad.dtype} {grad.shape}, "
            "but its output is float32 (2, 4)")):
        g.backward(result, {g.output_name: grad})
    with pytest.raises(ValueError, match="'head/gap', whose output the forward pass did not keep"):
        g.backward(result, {"head/gap": np.ones((2, 6, 1, 1), dtype=np.float32)})
    grads, _ = g.backward(result, {g.output_name: np.ones((2, 4), dtype=np.float32)})
    assert all(v.dtype == np.float32 for v in grads.values())


def test_forward_plan_follows_the_graph_and_the_input_size():
    """Forward reuses its plan until a node is added, and plans shapes per
    input size: a node added after a pass runs in the next one, and a size
    that collapses a conv is still refused after a size that does not."""
    g = NetworkGraph(3)
    g.add_conv("a", g.input_name, make_conv(3, 4, 3, padding=0))
    x = np.ones((2, 3, 5, 5), dtype=np.float32)
    assert g.forward(x).outputs["a"].shape == (2, 4, 3, 3)
    g.add_bn_relu("pre", "a")
    g.add_conv("b", "pre", make_conv(4, 2, 3, padding=0))
    assert list(g.forward(x, mode="train").outputs) == ["b"]
    assert g.forward(x)["b"].shape == (2, 2, 1, 1)
    with pytest.raises(ShapeError, match="'b' output collapses"):
        g.forward(np.ones((2, 3, 4, 4), dtype=np.float32))
    assert g.forward(x)["b"].shape == (2, 2, 1, 1)


def test_second_backward_on_one_result_says_so():
    """backward releases each node's cache once used: the first backward's
    gradients equal those of a fresh pass, and a second one is refused."""
    g = build_network(miniature_config(), seed=0, dtype=np.float64)
    x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
    dy = {g.output_name: np.ones((2, 4))}
    want, want_dx = g.backward(g.forward(x, mode="train", keep_caches=True), dy)
    result = g.forward(x, mode="train", keep_caches=True)
    got, got_dx = g.backward(result, dy)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[k], want[k]) for k in want)
    assert np.array_equal(got_dx, want_dx)
    with pytest.raises(ValueError, match="keep_caches=True and runs once per pass"):
        g.backward(result, dy)


def test_forward_keeps_only_the_output_by_default():
    g = build_network(miniature_config(), seed=0)
    x = np.random.default_rng(0).normal(size=(2, 3, 8, 8)).astype(np.float32)
    default = g.forward(x)
    assert list(default.outputs) == [g.output_name]
    everything = g.forward(x, keep=g.order)
    assert list(everything.outputs) == g.order
    assert np.array_equal(everything[g.output_name], default[g.output_name])


def test_forward_rejects_unknown_keep_name():
    g = build_network(miniature_config(), seed=0)
    with pytest.raises(ValueError, match="'nosuch'"):
        g.forward(np.zeros((2, 3, 8, 8), dtype=np.float32), keep=("nosuch",))


def test_train_step_is_bit_identical_whatever_is_kept():
    """Backward reads only caches, so dropping dead outputs changes no bit
    of the loss or of any gradient."""
    g = build_network(miniature_config(), seed=0, dtype=np.float64)
    rng = np.random.default_rng(1)
    x, labels = rng.normal(size=(4, 3, 8, 8)), rng.integers(0, 4, size=4)
    want = execute(g, x, mode="train", labels=labels)
    result = g.forward(x, mode="train", keep_caches=True, keep=g.order)
    loss, dlogits = layers.softmax_cross_entropy(result[g.output_name], labels)
    grads, _ = g.backward(result, {g.output_name: dlogits})
    assert loss == want.loss
    assert list(grads) == list(want.grads)
    assert all(np.array_equal(grads[k], want.grads[k]) for k in grads)


def test_dropping_dead_outputs_bounds_inference_memory():
    """A wr-inception infer forward at N=8 holds only live outputs: its
    traced peak is under a quarter of a pass that keeps every output."""
    g = build_network(builtin_config("wr-inception"), seed=0)
    x = np.random.default_rng(0).normal(size=(8, 3, 32, 32)).astype(np.float32)

    def peak(**kwargs) -> int:
        tracemalloc.start()
        try:
            g.forward(x, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() < peak(keep=g.order) / 4


def test_empty_concat_rejected_when_added():
    g = NetworkGraph(3)
    with pytest.raises(ValueError, match="'cat' needs at least one input"):
        g.add_concat("cat", [])
    assert "cat" not in g.nodes


def test_flatten_rejects_other_input_size():
    """A detection graph evaluated at a size it was not built for must fail
    at the flatten node, not report a different prior count, and a forward
    must fail before any node runs: no batch-norm buffer moves."""
    g = build_network(miniature_config(), seed=0)
    head = build_detection_head(g, ("stage1/unit0/add", "stage2/unit0/add"), (8, 8),
                                num_classes=2, seed=0)
    assert g.infer_shapes((8, 8))["head/logits"] == (3 * 4 * (8 * 8 + 4 * 4), 1, 1)
    with pytest.raises(ShapeError, match="flatten 'head/map0/cls/flat'"):
        g.infer_shapes((16, 16))
    before = {k: v.copy() for k, v in g.buffers().items()}
    x = np.random.default_rng(0).normal(size=(2, 3, 16, 16)).astype(np.float32)
    with pytest.raises(ShapeError, match="flatten 'head/map0/cls/flat'"):
        detection_forward(g, head, x, mode="train")
    assert all(np.array_equal(before[k], v) for k, v in g.buffers().items())


def test_train_batch_too_small_for_a_batch_norm_moves_no_buffer():
    """A train-mode batch norm needs N*H*W >= 2 per channel: one sample
    whose maps shrink to 1x1 fails before any node runs, naming the first
    batch norm it is too small for, and moves no buffer. Inference runs,
    and so does training on two samples."""
    g = build_network(miniature_config(), seed=0)
    x = np.random.default_rng(0).normal(size=(1, 3, 4, 4)).astype(np.float32)
    shapes = g.infer_shapes((4, 4))
    first = next(name for name in g.order
                 if g.nodes[name].op == "norm" and shapes[name][1:] == (1, 1))
    before = {k: v.tobytes() for k, v in g.buffers().items()}
    with pytest.raises(ShapeError, match=re.escape(f"norm '{first}' normalises "
                                                    "over N*H*W = 1*1*1")):
        execute(g, x, mode="train", labels=np.zeros(1, dtype=np.int64))
    assert {k: v.tobytes() for k, v in g.buffers().items()} == before
    assert execute(g, x, mode="infer").logits.shape == (1, 4)
    execute(g, np.concatenate([x, x]), mode="train", labels=np.zeros(2, dtype=np.int64))


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_backward_rebuilds_each_bn_relu_output_once_bit_for_bit(monkeypatch, mode):
    """No kept cache holds a pre-activation's (``affine_relu``) output:
    backward rebuilds each one once per pass, when its first reader runs,
    equal bit for bit to the forward's, also one read by two convs (``bn1``
    by ``conv1`` and ``shortcut``) and the inception projection's, which
    joins three normalised branches."""
    g = build_network(miniature_config(), seed=0, dtype=np.float64)
    x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
    affines = [name for name, node in g.nodes.items() if node.op == "affine_relu"]
    readers = {name: sum(name in node.inputs for node in g.nodes.values() if node.op == "conv")
               for name in affines}
    assert max(readers.values()) == 2
    assert len(g.nodes["stage2/unit0/proj/bn"].inputs) == 3
    rebuilt = []
    op = graph_module.OPS["affine_relu"]

    def counting(node, cache):
        y = op.rebuild(node, cache)
        rebuilt.append((node.name, y.tobytes()))
        return y

    monkeypatch.setitem(graph_module.OPS, "affine_relu",
                        dataclasses.replace(op, rebuild=counting))
    for _ in range(2):
        result = g.forward(x, mode=mode, keep_caches=True, keep=g.order)
        assert rebuilt == []
        forward = {name: result[name].tobytes() for name in affines}
        g.backward(result, {g.output_name: np.ones_like(result[g.output_name])})
        assert sorted(name for name, _ in rebuilt) == sorted(affines)
        assert all(forward[name] == y for name, y in rebuilt)
        rebuilt.clear()


def _strided_join(g: NetworkGraph) -> None:
    pre = g.add_bn_relu("pre", "input")
    a = g.add_conv("a", pre, make_conv(3, 4, 3, stride=2))
    b = g.add_conv("b", pre, make_conv(3, 4, 3))
    g.add_add("join", a, b)


def _collapsing_conv(g: NetworkGraph) -> None:
    pre = g.add_bn_relu("pre", "input")
    g.add_conv("c", pre, make_conv(3, 4, 2))  # 2x2, padding 0


@pytest.mark.parametrize("build, input_hw, match", [
    pytest.param(lambda g: g.add_conv("c", "input", make_conv(4, 8, 3)), None,
                 "'c' expects 4 input channels, node 'input' provides 3",
                 id="conv-channels"),
    pytest.param(lambda g: g.add_add("sum", g.add_conv("a", "input", make_conv(3, 4, 1)),
                                     "input"),
                 None, "add 'sum': channel mismatch 4 vs 3", id="add-channels"),
    pytest.param(_strided_join, (8, 8), "add 'join': spatial mismatch", id="add-strides"),
    pytest.param(_collapsing_conv, (1, 1), "'c' output collapses", id="conv-collapse"),
])
def test_graph_checks_shapes_before_any_node_runs(build, input_hw, match):
    """Shapes are checked by the graph: channels when a node is added, and
    spatial sizes by every node's shape rule at the start of forward, so a
    bad input fails naming its node before any batch-norm buffer moves."""
    g = NetworkGraph(3)
    if input_hw is None:
        with pytest.raises(ShapeError, match=match):
            build(g)
        return
    build(g)
    before = {k: v.copy() for k, v in g.buffers().items()}
    x = np.random.default_rng(0).normal(size=(2, 3, *input_hw)).astype(np.float32)
    with pytest.raises(ShapeError, match=match):
        g.forward(x, mode="train")
    assert all(np.array_equal(before[k], v) for k, v in g.buffers().items())


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

    def counting_conv_bwd(dy, cache, **kwargs):
        seen["conv_bwd"] += 1
        return conv_bwd(dy, cache, **kwargs)

    def counting_add(a, b):
        seen["add"] += 1
        return add(a, b)

    monkeypatch.setattr(layers, "conv2d_forward", counting_conv_fwd)
    monkeypatch.setattr(layers, "conv2d_backward", counting_conv_bwd)
    monkeypatch.setattr(tensor, "add_elementwise", counting_add)
    # a pre-activation is a norm node (batch_norm_*) and an affine_relu
    # node, whose ReLU clamps the affine's output in place and whose output
    # backward rebuilds once (affine_forward and relu_forward again), unless
    # its one reader is a conv, which applies it to the pixels it copies
    # (no affine_forward or relu_forward in forward); a tracer times each
    # kernel on its own
    pre_activation = ("batch_norm_forward", "batch_norm_backward", "affine_forward",
                      "affine_backward", "relu_forward", "relu_backward")
    for kernel in pre_activation:
        seen[kernel] = 0

        def counting(*args, kernel=kernel, real=getattr(layers, kernel), **kwargs):
            seen[kernel] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(layers, kernel, counting)
    x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
    result = g.forward(x, mode="train", keep_caches=True)
    convs = [id(n.conv) for n in g.nodes.values() if n.op == "conv"]
    assert sorted(seen["conv_fwd"]) == sorted(convs)
    g.backward(result, {g.output_name: np.ones_like(result[g.output_name])})
    assert seen["conv_bwd"] == len(convs)
    # backward calls no conv2d_forward
    assert sorted(seen["conv_fwd"]) == sorted(convs)
    ops = {name: node.op for name, node in g.nodes.items()}
    readers = {name: [r for r, node in g.nodes.items() if name in node.inputs]
               for name in g.nodes}
    # an add runs no kernel when its later input, a conv that only the add
    # reads, adds its output into the other, a conv or add output that only
    # norms (which, in train mode, do not pass it through) read besides
    adds = {name: sorted(node.inputs, key=g.order.index)
            for name, node in g.nodes.items() if node.op == "add"}
    passed = [name for name, (into, conv) in adds.items()
              if ops[conv] == "conv" and readers[conv] == [name]
              and ops[into] in ("conv", "add")
              and all(r == name or ops[r] == "norm" for r in readers[into])]
    assert len(adds) > 0 and len(passed) > 0
    assert seen["add"] == len(adds) - len(passed)
    norms = sum(op == "norm" for op in ops.values())
    affines = [name for name, op in ops.items() if op == "affine_relu"]
    applied = [name for name in affines if [ops[r] for r in readers[name]] == ["conv"]]
    assert norms > 0 and 0 < len(applied) < len(affines)
    assert seen["batch_norm_forward"] == seen["batch_norm_backward"] == norms
    assert seen["affine_backward"] == len(affines)
    # the first conv to read an affine (kernel at least its stride) runs the
    # last backward of its readers and applies the ReLU's backward itself
    first = [g.nodes[readers[name][0]] for name in affines]
    fused = [r for r in first if r.op == "conv" and r.conv.kernel[0] >= r.conv.stride]
    assert 0 < len(fused) < len(affines)
    assert seen["relu_backward"] == len(affines) - len(fused)
    assert seen["affine_forward"] == seen["relu_forward"] == 2 * len(affines) - len(applied)


def test_chaining_violation_reports_stage_index():
    cfg = builtin_config("wrn-16-4")
    cfg.stages[1] = StageConfig(
        [UnitSpec("basic", 32, (128, 128), 2, 128),
         UnitSpec("basic", 128, (128, 128), 1, 128)])
    with pytest.raises(ShapeError, match="stage 1"):
        build_network(cfg, seed=0)


def test_config_json_round_trip():
    cfg = builtin_config("wr-inception-l2")
    text = json.dumps(cfg.to_dict())
    restored = NetworkConfig.from_dict(json.loads(text))
    assert restored == cfg
    parsed = json.loads(text)
    assert parsed["conv1"]["out_channels"] == 64


@pytest.mark.parametrize("name", ["wr-inception", "preact-resnet-164"])
def test_config_with_recorded_stage_stride_still_loads(name):
    """Earlier run.json files hold each stage's stride, a copy of its first
    unit's; such a file loads and builds a bit-identical graph."""
    cfg = builtin_config(name)
    old = cfg.to_dict()
    for stage in old["stages"]:
        assert "stage_stride" not in stage
        stage["stage_stride"] = stage["units"][0]["stride"]
    restored = NetworkConfig.from_dict(json.loads(json.dumps(old)))
    assert restored == cfg
    want = build_network(cfg, seed=3).state_entries()
    got = build_network(restored, seed=3).state_entries()
    assert list(got) == list(want)
    assert all(got[k].tobytes() == want[k].tobytes() for k in want)


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


def test_failed_checkpoint_save_keeps_the_previous_file(tmp_path, monkeypatch):
    """A save that fails mid-write (here: the disk fills after half the
    bytes) leaves the previous checkpoint byte for byte and no stray file."""
    path = tmp_path / "net.wrin"
    save_checkpoint(build_network(miniature_config(), seed=0), str(path))
    before = path.read_bytes()

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(graph_module, "open",
                        lambda *args, **kwargs: FullDisk(builtins.open(*args, **kwargs)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(build_network(miniature_config(), seed=1), str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["net.wrin"]


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wrin"
    path.write_bytes(b"NOPE" + bytes(16))
    g = build_network(miniature_config(), seed=0)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(g, str(path))


FUSED_CHECKPOINT = Path(__file__).parent / "data" / "miniature-fused-bn.wrin"


def test_checkpoint_of_fused_batch_norms_loads_bit_identically(tmp_path):
    """A checkpoint written when every pre-activation was one fused batch
    norm (by commit c76dd5f, after three train steps of the miniature net,
    seed 5) holds each normalised tensor's running statistics once per
    pre-activation: ``stage2/unit0/shared``'s three times. It loads, gives
    that code's infer logits bit for bit, and saves back to the same bytes."""
    g = build_network(miniature_config(), seed=0)
    layout = graph_module.checkpoint_layout(g)
    shared = "stage2/unit0/shared/norm/running_mean"
    assert [name for name, sources in layout.items() if shared in sources] == [
        "stage2/unit0/b/bn/running_mean", "stage2/unit0/c/bn1/running_mean",
        "stage2/unit0/proj/bn/running_mean"]
    load_checkpoint(g, str(FUSED_CHECKPOINT))
    x = np.random.default_rng(0).normal(size=(4, 3, 8, 8)).astype(np.float32)
    want = np.load(FUSED_CHECKPOINT.with_name("miniature-fused-bn-logits.npy"))
    assert execute(g, x, mode="infer").logits.tobytes() == want.tobytes()
    save_checkpoint(g, str(tmp_path / "again.wrin"))
    assert (tmp_path / "again.wrin").read_bytes() == FUSED_CHECKPOINT.read_bytes()


@pytest.mark.parametrize("entry, first", [
    ("stage2/unit0/c/bn1/running_mean", "stage2/unit0/b/bn/running_mean"),
    ("stage2/unit0/proj/bn/running_var", "stage2/unit0/b/bn/running_var"),
])
def test_checkpoint_copies_that_disagree_are_rejected(tmp_path, entry, first):
    """The copies of one normalisation's running statistics must agree: a
    file where one differs (here in the first channel of ``shared``) is a
    ValueError naming the file and both entries, and nothing is written."""
    blob = bytearray(FUSED_CHECKPOINT.read_bytes())
    # name, then the rank byte and one uint32 dim, then the float32 values
    values = blob.index(entry.encode() + bytes([1])) + len(entry) + 5
    blob[values:values + 4] = np.float32(0.625).tobytes()
    path = tmp_path / "disagrees.wrin"
    path.write_bytes(bytes(blob))
    g = build_network(miniature_config(), seed=0)
    before = {k: v.tobytes() for k, v in g.state_entries().items()}
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: entry {entry!r} disagrees with entry {first!r} on the running "
            "statistics of 'stage2/unit0/shared/norm'")):
        load_checkpoint(g, str(path))
    assert {k: v.tobytes() for k, v in g.state_entries().items()} == before


def test_checkpoint_rejects_wrong_graph(tmp_path):
    g = build_network(miniature_config(), seed=0)
    path = tmp_path / "net.wrin"
    save_checkpoint(g, str(path))
    other = build_network(builtin_config("wrn-16-4"), seed=0)
    with pytest.raises(ValueError):
        load_checkpoint(other, str(path))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_checkpoint_value_names_its_node_and_writes_nothing(tmp_path, value):
    source = build_network(miniature_config(), seed=0)
    source.nodes["stage1/unit0/conv1"].conv.weights[0, 0, 0, 0] = value
    path = tmp_path / "net.wrin"
    save_checkpoint(source, str(path))
    target = build_network(miniature_config(), seed=1)
    before = {k: v.tobytes() for k, v in target.state_entries().items()}
    with pytest.raises(graph_module.NodeNonFiniteError) as err:
        load_checkpoint(target, str(path))
    assert err.value.node == "stage1/unit0/conv1"
    assert {k: v.tobytes() for k, v in target.state_entries().items()} == before


def test_truncated_checkpoint_is_a_value_error_and_writes_nothing(tmp_path):
    """Every proper prefix of a checkpoint fails with a ValueError naming the
    file, before any entry of the graph is written; so does each byte's
    one-bit flip (bit i % 8 of byte i) that does not load, except that a
    flip that makes a value NaN or Inf is a NodeNonFiniteError."""
    def conv_bn_relu() -> NetworkGraph:
        g = NetworkGraph(3)
        g.add_bn_relu("bn", g.add_conv("c", g.input_name, layers.make_conv(3, 2, 3)))
        return g

    source = conv_bn_relu()
    layers.msr_initialize(source.nodes["c"].conv, np.random.default_rng(0))
    full = tmp_path / "full.wrin"
    save_checkpoint(source, str(full))
    blob = full.read_bytes()
    target = conv_bn_relu()
    for array in target.state_entries().values():
        array[...] = -7.0  # differs from every saved value
    before = {k: v.tobytes() for k, v in target.state_entries().items()}
    cut = tmp_path / "cut.wrin"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(ValueError) as err:
            load_checkpoint(target, str(cut))
        assert err.type is ValueError and str(cut) in str(err.value), size
        assert {k: v.tobytes() for k, v in target.state_entries().items()} == before, size
    for i in range(len(blob)):
        flipped = bytearray(blob)
        flipped[i] ^= 1 << i % 8
        cut.write_bytes(flipped)
        try:
            load_checkpoint(target, str(cut))
        except ValueError as err:
            assert type(err) is ValueError and str(cut) in str(err), i
            assert {k: v.tobytes() for k, v in target.state_entries().items()} == before, i
        except graph_module.NodeNonFiniteError as err:  # the flip made a value NaN or Inf
            assert err.node in ("c", "bn"), i
            assert {k: v.tobytes() for k, v in target.state_entries().items()} == before, i
        else:  # a flip inside a value loads; put the marker back
            for array in target.state_entries().values():
                array[...] = -7.0
    load_checkpoint(target, str(full))
    assert all(a.tobytes() == b.tobytes() for a, b in
               zip(source.state_entries().values(), target.state_entries().values()))

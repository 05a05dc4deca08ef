"""The graph executor against an unfused reference, and as a tracer sees it.

``NetworkGraph.forward`` drops outputs after their last reader, lets a conv
apply the pre-activation it reads and add its output into the input of the
add that reads it, and ``backward`` rebuilds outputs and writes into arrays
it owns: the first conv to read a pre-activation writes, in its backward,
the pre-activation's ReLU gradient into its rebuilt output. None of that may change a value: every output, running statistic
and gradient must equal, bit for bit, what running each node's op on its
own, on copies, gives (``oracles.reference_forward``/``reference_backward``).
"""

import numpy as np
import pytest

from oracles import reference_backward, reference_forward
from wrinet import analysis, layers, tensor
from wrinet.blocks import UnitSpec, build_standalone_unit
from wrinet.builder import build_network, builtin_config
from wrinet.heads import LOGITS, OFFSETS, build_detection_head

DETECT_HW = (64, 208)
TAPS = ("stage2/unit1/add", "stage3/unit1/add")


def _graph(name: str):
    """(graph, input, keep sets) for one graph of the differential check:
    float32, with random scales, shifts and running statistics, so that
    neither mode's pre-activation is the identity. The keep sets name an
    output an add accumulates into when it is not kept, and a
    pre-activation a conv applies when it is not kept. In the projection
    unit, ``bn1`` is read by ``conv1``, whose backward runs last and takes
    the shortcut's gradient, and, when kept, an output gradient too; a kept
    ``bn2``, read by ``conv2`` alone, takes only its output gradient."""
    rng = np.random.default_rng(0)
    if name in ("inception-unit", "projection-unit"):
        if name == "inception-unit":
            g, _ = build_standalone_unit(UnitSpec("inception", 8, (8, 4, 4, 8), 2, 16))
            keeps = [None, ("unit/add", "unit/proj/conv", "unit/proj/bn")]
        else:
            g, _ = build_standalone_unit(UnitSpec("basic", 8, (16, 16), 2, 16))
            keeps = [None, ("unit/add", "unit/bn1"), ("unit/add", "unit/bn2")]
        for node in g.nodes.values():
            if node.conv is not None:
                layers.msr_initialize(node.conv, rng)
        x = rng.normal(size=(2, 8, 8, 8))
    elif name == "detect":
        g = build_network(builtin_config("wr-inception", input_shape=(3, *DETECT_HW)), seed=0)
        build_detection_head(g, TAPS, DETECT_HW, num_classes=3, seed=0)
        x = rng.normal(size=(1, 3, *DETECT_HW))
        keeps = [(LOGITS, OFFSETS), (LOGITS, OFFSETS, "stage1/unit0/add", "stage1/unit1/bn2")]
    else:
        g = build_network(builtin_config(name), seed=0)
        x = rng.normal(size=(2, 3, 32, 32))
        keeps = [None, (g.output_name, "stage1/unit0/add", "stage1/unit1/bn2")]
    for entry, a in g.state_entries().items():
        if entry.endswith(("gamma", "running_var")):
            a[...] = rng.uniform(0.5, 1.5, a.shape)
        elif entry.endswith(("beta", "running_mean")):
            a[...] = rng.normal(0.0, 0.2, a.shape)
    return g, x.astype(np.float32), keeps


def _bytes(arrays: dict) -> dict:
    return {k: (v.dtype, v.shape, v.tobytes()) for k, v in arrays.items()}


@pytest.mark.parametrize("name", ["wr-inception", "wrn-16-4", "preact-resnet-164",
                                  "inception-unit", "projection-unit", "detect"])
@pytest.mark.parametrize("mode", ["train", "infer"])
def test_executor_matches_the_unfused_reference(name, mode, monkeypatch):
    """Per keep set, with and without caches: the kept outputs and the
    running statistics a forward leaves, and the parameter and input
    gradients of a backward from random output gradients, equal the
    reference's byte for byte; ``x`` and the kept outputs are unchanged by
    both passes. The default keep set runs fused: fewer adds and affines
    run than the graph has, and every backward runs fewer ReLU backwards."""
    g, x, keeps = _graph(name)
    start = _bytes(g.buffers())
    ref_outputs, ref_caches = reference_forward(g, x, mode)
    ref_buffers = _bytes(g.buffers())
    x_bytes = x.tobytes()
    calls = {"add_elementwise": 0, "affine_forward": 0, "relu_backward": 0}
    for module, kernel in ((tensor, "add_elementwise"), (layers, "affine_forward"),
                           (layers, "relu_backward")):
        def counting(*args, kernel=kernel, real=getattr(module, kernel)):
            calls[kernel] += 1
            return real(*args)
        monkeypatch.setattr(module, kernel, counting)
    rng = np.random.default_rng(1)
    for i, keep in enumerate(keeps):
        for keep_caches in (False, True):
            for buffer, (_, _, values) in zip(g.buffers().values(), start.values()):
                buffer[...] = np.frombuffer(values, dtype=buffer.dtype).reshape(buffer.shape)
            calls.update(add_elementwise=0, affine_forward=0)
            result = g.forward(x, mode=mode, keep_caches=keep_caches, keep=keep)
            kept = _bytes(result.outputs)
            assert kept == _bytes({k: ref_outputs[k] for k in result.outputs})
            assert _bytes(g.buffers()) == ref_buffers
            nodes = [n.op for n in g.nodes.values()]
            if i == 0 and not keep_caches:
                assert calls["add_elementwise"] < nodes.count("add")
                assert calls["affine_forward"] < nodes.count("affine_relu")
            if keep_caches:
                out_grads = {k: rng.normal(size=v.shape).astype(v.dtype)
                             for k, v in sorted(result.outputs.items())}
                calls["relu_backward"] = 0
                grads, dx = g.backward(result, {k: v.copy() for k, v in out_grads.items()})
                assert calls["relu_backward"] < nodes.count("affine_relu")
                ref_grads, ref_dx = reference_backward(g, ref_caches, out_grads)
                assert _bytes(grads) == _bytes(ref_grads)
                assert _bytes({"x": dx}) == _bytes({"x": ref_dx})
                assert _bytes(result.outputs) == kept
            assert x.tobytes() == x_bytes


@pytest.mark.parametrize("name, mode", [("wr-inception", "train"), ("wr-inception", "infer"),
                                        ("detect", "infer")])
def test_traced_convs_see_their_input_shape_and_count_every_mac(name, mode, monkeypatch):
    """A tracer wraps ``layers.conv2d_forward`` and
    ``layers.fully_connected_forward`` on their module and counts MACs from
    the shape of each call's first argument, as perfbench's does. That
    argument's ``shape`` is the (N, C_in, H, W) of the node's input, a
    pre-activation the conv applies included, and the counted MACs sum to
    ``analysis.count_macs`` times N."""
    g, x, keeps = _graph(name)
    shapes = g.infer_shapes(x.shape[2:])
    node_of = {id(n.params): n for n in g.nodes.values() if n.op in ("conv", "fc")}
    macs = []
    real_conv, real_fc = layers.conv2d_forward, layers.fully_connected_forward

    def traced_conv(*args, **kwargs):
        inp, p = args[0], args[1]
        assert inp.shape == (len(x), *shapes[node_of[id(p)].inputs[0]])
        n, c_in, h, w = inp.shape
        c_out, _, kh, kw = p.weights.shape
        macs.append(n * c_out * c_in * kh * kw
                    * ((h + 2 * p.padding - kh) // p.stride + 1)
                    * ((w + 2 * p.padding - kw) // p.stride + 1))
        return real_conv(*args, **kwargs)

    def traced_fc(*args, **kwargs):
        macs.append(args[0].shape[0] * args[1].weights.size)
        return real_fc(*args, **kwargs)

    monkeypatch.setattr(layers, "conv2d_forward", traced_conv)
    monkeypatch.setattr(layers, "fully_connected_forward", traced_fc)
    g.forward(x, mode=mode, keep_caches=(mode == "train"), keep=keeps[0])
    assert len(macs) == sum(n.op in ("conv", "fc") for n in g.nodes.values())
    assert sum(macs) == analysis.count_macs(g, x.shape[2:])[0] * len(x)

"""The graph executor against an unfused reference, and as a tracer sees it.

``NetworkGraph.forward`` drops outputs after their last reader, lets convs
apply the pre-activation they read and add their output into the input of
the add that reads it, and ``backward`` makes each pre-activated map once
from its ``PreActivation`` and writes into arrays it owns: the first conv
to apply a pre-activation writes, in its backward, the pre-activation's
ReLU gradient into that map. None of that may change a value: every
output, running statistic and gradient must equal, bit for bit, what
running each node's op on its own, on copies, gives
(``oracles.reference_forward``/``reference_backward``), on the built-in
graphs and on small random ones. Nor may running an infer pass's batch in
chunks, which also must not let the pass's peak grow with the batch.
"""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_backward, reference_forward
from wrinet import analysis, gradcheck, layers, tensor
from wrinet.blocks import UnitSpec, build_standalone_unit
from wrinet.builder import build_network, builtin_config
from wrinet.graph import NetworkGraph
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
    ``bn2``, read by ``conv2`` alone, takes only its output gradient. The
    built-in networks' second keep set keeps a ``norm``, whose train-mode
    backward would otherwise write into its output."""
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
        keeps = [None, (g.output_name, "stage1/unit0/add", "stage1/unit1/bn2",
                        "stage1/unit0/conv1/norm")]
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


def _sample_bytes(g: NetworkGraph, x: np.ndarray) -> int:
    """The bytes of the largest per-sample output of ``g`` on ``x``."""
    return max(map(math.prod, g.infer_shapes(x.shape[2:]).values())) * x.itemsize


@pytest.mark.parametrize("name", ["wr-inception", "wrn-16-4", "preact-resnet-164",
                                  "inception-unit", "projection-unit", "detect"])
def test_chunked_infer_passes_match_the_unfused_reference(name, monkeypatch):
    """With ``layers.CONV_TILE_BYTES`` set to hold two samples' largest
    output and N=3, an infer pass that keeps no caches and is not checked
    runs each conv once per chunk, twice, and each fc once, on the whole
    batch. Its kept outputs (the graph output, or the detection head's
    logits and offsets; with them the input, the first ``norm``, which
    passes its input through, and the first ``affine_relu``) equal the
    reference's on the whole batch bit for bit, and ``x`` is unchanged. A
    pass that keeps caches, a checked pass and a train pass run each conv
    once."""
    g, x, keeps = _graph(name)
    x = np.random.default_rng(2).normal(size=(3, *x.shape[1:])).astype(np.float32)
    monkeypatch.setattr(layers, "CONV_TILE_BYTES", 2 * _sample_bytes(g, x))
    ref_outputs, _ = reference_forward(g, x, "infer")
    x_bytes = x.tobytes()
    node_of = {id(n.params): n.name for n in g.nodes.values() if n.op in ("conv", "fc")}
    calls = Counter()
    for kernel in ("conv2d_forward", "fully_connected_forward"):
        def counting(*args, real=getattr(layers, kernel), **kwargs):
            calls[node_of[id(args[1])]] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(layers, kernel, counting)
    first = {op: next(k for k in g.order if g.nodes[k].op == op) for op in ("norm", "affine_relu")}
    outputs = keeps[0] or (g.output_name,)
    for keep in (outputs, (*outputs, g.input_name, first["norm"], first["affine_relu"])):
        calls.clear()
        result = g.forward(x, keep=keep)
        assert sorted(result.outputs) == sorted(keep)
        assert _bytes(result.outputs) == _bytes({k: ref_outputs[k] for k in keep})
        assert calls == {k: 2 if g.nodes[k].op == "conv" else 1 for k in node_of.values()}
        assert x.tobytes() == x_bytes
    for kwargs in ({"keep_caches": True}, {"check_finite": True}, {"mode": "train"}):
        calls.clear()
        g.forward(x, **kwargs)
        assert calls == dict.fromkeys(node_of.values(), 1)


@pytest.mark.parametrize("n", [64, 128])
def test_an_infer_pass_holds_the_maps_of_one_chunk(n):
    """wr-inception's float32 infer forward at 3x32x32 runs 12 samples at a
    time: its traced peak is at most two maps of one chunk, one conv tile
    budget and the kept logits, whatever N (a pass that holds whole-batch
    maps reads 38.6 MiB at N=64)."""
    g = build_network(builtin_config("wr-inception"), seed=0)
    x = np.random.default_rng(0).normal(size=(n, 3, 32, 32)).astype(np.float32)
    sample = _sample_bytes(g, x)
    assert layers.CONV_TILE_BYTES // sample == 12
    tracemalloc.start()
    try:
        logits = g.forward(x)[g.output_name]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 12 * sample + layers.CONV_TILE_BYTES + logits.nbytes


@st.composite
def _dags(draw):
    """A small random graph as (input channels, input size, steps).
    A step is a conv (k in {1, 3}, stride in {1, 2}, with or without
    bias), an add or concat of tensors of one size, a residual add (a
    tensor plus a new stride-1 conv of its size), or a pre-activation of
    1-3 tensors of one size (later pre-activations of a tensor share its
    norm), followed at once by its readers: convs only, a conv and a
    concat, or a 1x1 stride-2 conv first, and no other. Steps name the
    tensors they read by index among the input and the steps' outputs."""
    channels, size = draw(st.integers(1, 3)), draw(st.integers(3, 5))
    shapes = [(channels, size)]  # (channels, size) of each tensor, by index
    steps, pres = [], set()

    def step(kind, *args, shape):
        steps.append((kind, *args))
        shapes.append(shape)
        return len(shapes) - 1

    def alike(i, channels=False):  # the tensors that can join tensor i
        return [j for j, s in enumerate(shapes) if j not in pres
                and s[1] == shapes[i][1] and (not channels or s[0] == shapes[i][0])]

    def joined(parts):
        return sum(shapes[j][0] for j in parts), shapes[parts[0]][1]

    def conv(src, k=None, stride=None, c_out=None):
        k = draw(st.sampled_from([1, 3])) if k is None else k
        stride = draw(st.sampled_from([1, 2])) if stride is None else stride
        c_out = draw(st.integers(1, 3)) if c_out is None else c_out
        out = (shapes[src][1] + 2 * ((k - 1) // 2) - k) // stride + 1
        return step("conv", src, k, stride, c_out, draw(st.booleans()), shape=(c_out, out))

    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(["conv", "add", "residual", "concat", "pre", "pre"]))
        first = draw(st.sampled_from([j for j in range(len(shapes)) if j not in pres]))
        if kind == "conv":
            conv(first)
        elif kind == "residual":
            branch = conv(draw(st.sampled_from(alike(first))), stride=1, c_out=shapes[first][0])
            step("add", first, branch, shape=shapes[first])
        elif kind == "add":
            step("add", first, draw(st.sampled_from(alike(first, channels=True))),
                 shape=shapes[first])
        elif kind == "concat":
            parts = [first, *draw(st.lists(st.sampled_from(alike(first)), max_size=2))]
            step("concat", parts, shape=joined(parts))
        else:
            others = [j for j in alike(first) if j != first]
            parts = [first, *(draw(st.lists(st.sampled_from(others), max_size=2, unique=True))
                              if others else [])]
            pre = step("pre", parts, shape=joined(parts))
            pres.add(pre)
            readers = draw(st.sampled_from(["convs", "mix", "pointwise first"]))
            if readers == "pointwise first":
                conv(pre, k=1, stride=2)
            conv(pre)
            if readers == "mix":
                partner = draw(st.sampled_from([pre, *alike(pre)]))
                step("concat", [pre, partner], shape=joined([pre, partner]))
            elif draw(st.booleans()):
                conv(pre)
    return channels, size, steps


def _dag(channels, size, steps) -> NetworkGraph:
    """The float64 graph of a :func:`_dags` draw, its parameters unset,
    with a tail that every tensor no step reads feeds: a global average
    pool of each, joined along channels, and an fc."""
    g = NetworkGraph(channels, dtype=np.float64)
    names = [g.input_name]
    for i, (kind, *args) in enumerate(steps):
        name = f"n{i}"
        if kind == "conv":
            src, k, stride, c_out, bias = args
            names.append(g.add_conv(name, names[src], c_out, k, stride, bias=bias))
        elif kind == "add":
            names.append(g.add_add(name, names[args[0]], names[args[1]]))
        elif kind == "concat":
            names.append(g.add_concat(name, [names[j] for j in args[0]]))
        else:
            names.append(g.add_bn_relu(name, [names[j] for j in args[0]]))
    read = {i for node in g.nodes.values() for i in node.inputs}
    pools = [g.add_global_avg_pool(f"{name}/gap", name) for name in names if name not in read]
    tail = g.add_concat("tail", pools)
    g.add_fc("fc", tail, 2)
    return g


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dag=_dags(), data=st.data())
def test_random_dags_match_the_unfused_reference(dag, data):
    """On a random float64 graph, in both modes, with and without caches,
    for the graph output and a random keep set: the kept outputs, running
    statistics and every gradient equal the reference's bit for bit; ``x``
    and the kept outputs are unchanged; every conv that reads an
    ``affine_relu`` output that is not kept caches that affine's own
    ``PreActivation``, whatever else reads it; no backward makes a
    pre-activated map (``PreActivation.array``) twice; and, on an instance
    whose ReLU inputs all clear ``gradcheck.KINK_MARGIN`` in train mode, the
    train-mode gradients of a few random coordinates agree with central
    differences within ``gradcheck.DEFAULT_TOLERANCE``. An infer pass run in
    chunks of a drawn 1-3 samples, at N=5, keeps the reference's outputs of
    the whole batch too, and leaves its input unchanged."""
    g = _dag(*dag)
    keep = data.draw(st.sets(st.sampled_from(g.order[1:]), min_size=1), label="keep")

    def instance(rng, attempt):
        for entry, a in g.state_entries().items():
            if entry.endswith(("gamma", "running_var")):
                a[...] = rng.uniform(0.5, 1.5, a.shape)
            else:
                a[...] = rng.normal(0.0, 0.5, a.shape)
        return g, rng.normal(size=(2, dag[0], dag[1], dag[1]))

    _, x, rng = gradcheck._kink_free(instance, data.draw(st.integers(0, 2**16), label="seed"))
    x_bytes = x.tobytes()
    made = Counter()
    array = layers.PreActivation.array

    def counted(pre):
        made[id(pre.p)] += 1
        return array(pre)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layers.PreActivation, "array", counted)
        for mode in ("train", "infer"):
            start = {k: v.copy() for k, v in g.buffers().items()}
            ref_outputs, ref_caches = reference_forward(g, x, mode)
            ref_buffers = _bytes(g.buffers())
            for kept_names in (None, keep):
                for keep_caches in (False, True):
                    for name, buffer in g.buffers().items():
                        buffer[...] = start[name]
                    result = g.forward(x, mode=mode, keep_caches=keep_caches, keep=kept_names)
                    kept = _bytes(result.outputs)
                    assert kept == _bytes({k: ref_outputs[k] for k in result.outputs})
                    assert _bytes(g.buffers()) == ref_buffers
                    if keep_caches:
                        for name, node in g.nodes.items():
                            if (node.op == "conv" and node.inputs[0] not in result.outputs
                                    and g.nodes[node.inputs[0]].op == "affine_relu"):
                                assert result.caches[name][0] is result.caches[node.inputs[0]][0]
                        out_grads = {k: rng.normal(size=v.shape)
                                     for k, v in sorted(result.outputs.items())}
                        made.clear()
                        grads, dx = g.backward(result, {k: v.copy() for k, v in out_grads.items()})
                        assert max(made.values(), default=0) <= 1
                        ref_grads, ref_dx = reference_backward(g, ref_caches, out_grads)
                        assert _bytes(grads) == _bytes(ref_grads)
                        assert (dx is None and ref_dx is None) or dx.tobytes() == ref_dx.tobytes()
                        assert _bytes(result.outputs) == kept
                    assert x.tobytes() == x_bytes
        # an infer pass in chunks of 1-3 samples, at N=5
        x5 = np.random.default_rng(1).normal(size=(5, *x.shape[1:]))
        chunk = data.draw(st.integers(1, 3), label="chunk")
        patch.setattr(layers, "CONV_TILE_BYTES", chunk * _sample_bytes(g, x5))
        ref_outputs, _ = reference_forward(g, x5, "infer")
        x5_bytes = x5.tobytes()
        for kept_names in (None, keep):
            result = g.forward(x5, keep=kept_names)
            assert _bytes(result.outputs) == _bytes({k: ref_outputs[k] for k in result.outputs})
        assert x5.tobytes() == x5_bytes

    result = g.forward(x, mode="train", keep_caches=True, keep=keep)
    proj = {k: gradcheck._projection(v, rng) for k, v in sorted(result.outputs.items())}
    grads, dx = g.backward(result, proj)
    grads["x"] = np.zeros_like(x) if dx is None else dx

    def loss() -> float:
        outputs = g.forward(x, mode="train", keep=keep).outputs
        return sum(float(np.sum(outputs[k] * p)) for k, p in proj.items())

    arrays = {**g.parameters(), "x": x}
    for name in rng.choice(sorted(arrays), size=4):
        flat = arrays[name].reshape(-1)
        i = rng.integers(flat.size)
        analytic = grads[name].reshape(-1)[i] if name in grads else 0.0
        numeric = gradcheck.fd_gradients(loss, [flat[i:i + 1]])[0][0]
        assert gradcheck.relative_error(analytic, numeric) < gradcheck.DEFAULT_TOLERANCE, name


def test_a_pre_activation_read_by_a_conv_and_a_concat_is_held_by_no_cache_as_a_map():
    """An ``affine_relu`` that is not kept, read by a 3x3 conv and by a
    concat, is made as a map for the concat alone: the conv applies its
    ``PreActivation`` and caches that. So a kept float32 train forward at
    N=16, 16x32x32 (1 MiB a map) holds the norm's output, the concat's
    (2 MiB) and the four convs' after it, 7 MiB, and not the map too."""
    g = NetworkGraph(16)
    pre = g.add_bn_relu("pre", g.input_name)
    conv = g.add_conv("conv", pre, 16, 3)
    name = g.add_concat("concat", [pre, conv])
    for i in range(4):
        name = g.add_conv(f"conv{i}", name, 16, 3)
    x = np.random.default_rng(0).normal(size=(16, 16, 32, 32)).astype(np.float32)
    tracemalloc.start()
    try:
        result = g.forward(x, mode="train", keep_caches=True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 7.5 * 2**20
    assert result.caches[conv][0] is result.caches[pre][0]


def test_a_projection_unit_runs_its_shortcut_beside_conv1(monkeypatch):
    """Each conv that reads a pre-activation runs right after the first
    conv that reads it, and backward runs the reverse. In a stride-2
    projection unit, built ``conv1, conv2, shortcut``, forward runs
    ``conv1`` and then ``shortcut``, one after the other, and ``conv2``
    adds its output into the shortcut's; backward runs ``shortcut`` right
    before ``conv1``, whose backward is the last of ``bn1``'s readers.
    That holds in both modes with caches, and per chunk in an infer pass
    without them; kept outputs come back in construction order."""
    g, out = build_standalone_unit(UnitSpec("basic", 8, (16, 16), 2, 16))
    assert [n for n in g.order if g.nodes[n].op == "conv"] == [
        "unit/conv1", "unit/conv2", "unit/shortcut"]
    conv_of = {id(node.conv): name for name, node in g.nodes.items() if node.conv is not None}
    calls = []
    real_forward, real_backward = layers.conv2d_forward, layers.conv2d_backward

    def forward(x, p, add_to=None):
        calls.append(("forward", conv_of[id(p)], add_to is not None))
        return real_forward(x, p, add_to=add_to)

    def backward(dy, cache, **kwargs):
        calls.append(("backward", conv_of[id(cache[1])], kwargs.get("relu_into_x", False)))
        return real_backward(dy, cache, **kwargs)

    monkeypatch.setattr(layers, "conv2d_forward", forward)
    monkeypatch.setattr(layers, "conv2d_backward", backward)
    runs = [("forward", "unit/conv1", False), ("forward", "unit/shortcut", False),
            ("forward", "unit/conv2", True)]
    x = np.random.default_rng(0).normal(size=(4, 8, 8, 8)).astype(np.float32)
    for mode in ("train", "infer"):
        calls.clear()
        result = g.forward(x, mode=mode, keep_caches=True)
        g.backward(result, {out: np.ones_like(result[out])})
        assert calls == runs + [("backward", "unit/conv2", True),
                                ("backward", "unit/shortcut", False),
                                ("backward", "unit/conv1", True)]
    monkeypatch.setattr(layers, "CONV_TILE_BYTES", 2 * _sample_bytes(g, x))
    calls.clear()
    g.forward(x)
    assert calls == runs * 2  # two chunks of two samples
    assert list(g.forward(x, keep=g.order[::-1]).outputs) == g.order

"""Directed acyclic network graphs with deterministic evaluation order.

A :class:`NetworkGraph` is a list of named layer nodes in construction
(topological) order. Forward evaluation walks that order and drops each node's
output right after its last reader has run, so only the outputs a caller
names in ``keep`` outlive the pass (memory sharing by liveness, Chen et al.
2016, on a static DAG). Backward walks the order in reverse, accumulating
gradients from the caches and the outputs each op's backward reads.

A pre-activation (batch norm, then ReLU) is two kinds of node. A ``norm``
node normalises one tensor by its batch statistics and owns its running
statistics; it is made once per tensor, by the first pre-activation that
reads the tensor, and named ``<tensor>/norm``. An ``affine_relu`` node,
one per consumer, applies its own ``gamma`` and ``beta`` and a ReLU to one
or more normalised tensors joined along channels. So a tensor that feeds
three pre-activations is normalised once, and the inception unit's
projection reads its three normalised branches without a concat (Ioffe &
Szegedy 2015; Pleiss et al. 2017). A kept pass holds one full-size array
per ``norm``, its normalised output, which its consumers' backward read.
An ``affine_relu`` output is not kept for backward: it is rebuilt once from
its inputs, when backward first reads it, and dropped after its producer's
backward (the recompute half of Chen et al. 2016). The first conv to read
an ``affine_relu`` output, if its kernel is at least its stride, runs the
last backward of its readers; it writes the output's ReLU gradient, with
what the other readers sent, into the rebuilt output, so no conv ``dx``,
ReLU pass or sum of that size is made. Where no such conv does, the
``affine_relu`` backward writes its ReLU gradient into its rebuilt output
itself; either way it then writes its inputs' gradient there, and a
``norm`` backward writes its input's gradient into its normalised output,
so neither allocates an array of its output's size (in-place activated
batch norm, Rota Bulo et al. 2018).

Forward fuses two steps, so that a value read once is not written out as a
map of its own. An ``affine_relu`` whose one reader is a conv is applied by
the conv to the pixels it copies into each tile, and a conv whose one
reader is an add adds its output, tile by tile, into the add's other input
when the pass owns that array and nothing reads it after the add, which
then passes the sum on. So a residual unit's forward holds the unit input
and one conv's input or output, not a third map. Each pixel takes the
float ops it took unfused, so every value is bit for bit the same.
Parameters live in a registry keyed by
hierarchical names (``stage1/unit0/conv1/weight``) so optimizers, freeze masks,
and checkpoints all address the same namespace.

Each node kind is defined once, as an :class:`Op` in the table :data:`OPS`;
evaluation, shape and receptive-field inference, the registry and cost
analysis all read that table.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import uuid
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from . import layers, tensor
from .layers import AffineParams, BatchNormParams, ConvParams, FCParams
from .tensor import DEFAULT_DTYPE, ShapeError

CHECKPOINT_MAGIC = b"WRIN"
CHECKPOINT_VERSION = 1


class NodeNonFiniteError(FloatingPointError):
    """The one non-finite failure: a NaN/Inf loss, gradient or logit found by
    the trainer or evaluator, a checked forward, or a checkpoint load. Names
    the first offending node and, in training, the optimizer step."""

    def __init__(self, node: str, step: Optional[int] = None):
        at = "" if step is None else f" (step {step})"
        super().__init__(f"non-finite values first appear at node {node!r}{at}")
        self.node = node
        self.step = step


@dataclass
class Node:
    name: str
    op: str  # "input" or a key of OPS
    inputs: list[str]
    conv: Optional[ConvParams] = None
    bn: Optional[BatchNormParams] = None  # a norm's running statistics
    affine: Optional[AffineParams] = None
    fc: Optional[FCParams] = None
    channels: int = 0  # output channels (D_out for fc)

    @property
    def params(self):
        """The node's parameter object (conv, bn, affine or fc), or None."""
        return next((p for p in (self.conv, self.bn, self.affine, self.fc)
                     if p is not None), None)


@dataclass
class ForwardResult:
    """What one :meth:`NetworkGraph.forward` leaves: the outputs it was asked
    to keep (every other output was dropped after its last reader ran), and
    with ``keep_caches`` each node's backward cache, holding None in place
    of each output that backward rebuilds (see :class:`Op`)."""

    outputs: dict[str, np.ndarray]
    caches: dict[str, tuple]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.outputs[name]


Shape = tuple[int, int, int]


@dataclass(frozen=True)
class Op:
    """What one node kind means.

    ``forward(node, inputs, mode)`` returns ``(y, cache)``, the cache
    holding all that backward needs; ``backward(node, dy, cache)`` returns
    one gradient per input, then one per ``params`` entry (the kernels' dx,
    dw, db order). ``reads(node)`` names the nodes whose outputs backward
    reads (a conv's or fc's input, a ``norm``'s own normalised output, an
    ``affine_relu``'s own output for its ReLU mask and its normalised
    inputs); the cache is then a tuple that starts with those outputs, in
    that order. ``rebuild(node, cache)``, where set, gives the node's output
    again, bit for bit, from the rest of its cache: a kept forward stores
    None in the output's place in every cache, and backward rebuilds it for
    the first node that reads it. Backward runs every reader before the
    producer, so an ``affine_relu`` backward consumes the rebuilt output it
    is handed (it writes its gradients there; a ``dy`` that is that
    output already holds the ReLU's gradient, which a conv that read it
    wrote there) and, in train mode, a ``norm`` backward consumes its
    normalised output (it writes ``dx`` there) after every consumer has
    read it. ``batch_statistics`` marks an
    op that normalises by per-channel statistics over N, H and W in train
    mode, which needs N*H*W >= 2.
    ``shape(node, input shapes)`` gives the per-sample (C, H, W) and raises
    ShapeError naming the node; ``NetworkGraph.forward`` applies it to every
    node before any node runs. ``window(node, input shape)`` gives the
    (kernel, stride) step of the receptive-field recurrence. ``params`` and
    ``buffers(node)`` map entry names to arrays, registered as
    ``<node>/<entry>``. The defaults describe an op that keeps its input's
    shape, sees one position at a time and holds no state.

    Entries look kernels up on their module at call time (``lambda ...:
    layers.conv2d_forward(...)``), never through a reference stored here:
    tracers and tests observe kernels by replacing module attributes, and a
    stored reference would bypass them.
    """

    forward: Callable[..., tuple[np.ndarray, object]]
    backward: Callable[[Node, np.ndarray, object], tuple]
    shape: Callable[[Node, list[Shape]], Shape] = lambda node, shapes: shapes[0]
    window: Callable[[Node, Shape], tuple[int, int]] = lambda node, shape: (1, 1)
    params: Callable[[Node], dict[str, np.ndarray]] = lambda node: {}
    buffers: Callable[[Node], dict[str, np.ndarray]] = lambda node: {}
    reads: Callable[[Node], list[str]] = lambda node: []
    rebuild: Optional[Callable[[Node, object], np.ndarray]] = None
    batch_statistics: bool = False


def _conv_shape(node: Node, shapes: list[Shape]) -> Shape:
    _, h, w = shapes[0]
    p = node.conv
    kh, kw = p.kernel
    h = layers.conv_output_size(h, kh, p.stride, p.padding)
    w = layers.conv_output_size(w, kw, p.stride, p.padding)
    if h < 1 or w < 1:
        raise ShapeError(f"node {node.name!r} output collapses to {h}x{w}")
    return (p.out_channels, h, w)


def _join_shape(node: Node, shapes: list[Shape]) -> Shape:
    hw = shapes[0][1:]
    if any(s[1:] != hw for s in shapes[1:]):
        raise ShapeError(f"{node.op} {node.name!r}: spatial mismatch {shapes}")
    return (node.channels, *hw)


def _fc_shape(node: Node, shapes: list[Shape]) -> Shape:
    c, h, w = shapes[0]
    d_out, d_in = node.fc.weights.shape
    if d_in != c * h * w:
        raise ShapeError(
            f"fc {node.name!r} expects {d_in} input features, node "
            f"{node.inputs[0]!r} provides {c}x{h}x{w} = {c * h * w}")
    return (d_out, 1, 1)


def _flatten_shape(node: Node, shapes: list[Shape]) -> Shape:
    c, h, w = shapes[0]
    if c * h * w != node.channels:
        raise ShapeError(
            f"flatten {node.name!r} was built for {node.channels} features, node "
            f"{node.inputs[0]!r} provides {c}x{h}x{w} = {c * h * w}")
    return (node.channels, 1, 1)


def _affine_relu_forward(node: Node, parts: list[np.ndarray], mode: str
                         ) -> tuple[np.ndarray, tuple]:
    # the affine's output is fresh, so the ReLU may clamp it in place
    y, _ = layers.relu_forward(layers.affine_forward(parts, node.affine, mode))
    return y, (y, *parts, mode)


def _affine_relu_rebuild(node: Node, cache: tuple) -> np.ndarray:
    *parts, mode = cache[1:]
    return layers.relu_forward(layers.affine_forward(parts, node.affine, mode))[0]


def _preactivation(node: Node, parts: list[np.ndarray], mode: str
                   ) -> tuple[layers.PreActivation, tuple]:
    """An ``affine_relu`` forward that its one reader, a conv, applies: the
    output stands for the map it does not make, and the cache is
    :func:`_affine_relu_forward`'s with no output in it."""
    return layers.PreActivation(parts, node.affine, mode), (None, *parts, mode)


def _affine_relu_backward(node: Node, dy: np.ndarray, cache: tuple) -> tuple:
    y, *parts, mode = cache
    # a conv that read y last wrote the ReLU's gradient into y (see backward)
    dz = dy if dy is y else layers.relu_backward(dy, y)
    dparts, dgamma, dbeta = layers.affine_backward(dz, parts, node.affine, mode)
    return (*dparts, dgamma, dbeta)


def _fc_forward(node: Node, xs: list[np.ndarray], *_) -> tuple[np.ndarray, tuple]:
    x = xs[0]
    return layers.fully_connected_forward(x.reshape(x.shape[0], -1), node.fc)[0], (x,)


def _fc_backward(node: Node, dy: np.ndarray, cache: tuple) -> tuple:
    (x,) = cache
    dx, dw, db = layers.fully_connected_backward(dy, (x.reshape(x.shape[0], -1), node.fc))
    return dx.reshape(x.shape), dw, db


OPS: dict[str, Op] = {
    "conv": Op(
        # the kernel's cache is (x, params)
        forward=lambda n, xs, *_: layers.conv2d_forward(xs[0], n.conv),
        backward=lambda n, dy, cache: layers.conv2d_backward(dy, cache),
        shape=_conv_shape,
        window=lambda n, shape: (n.conv.kernel[0], n.conv.stride),
        params=lambda n: {k: v for k, v in (("weight", n.conv.weights),
                                            ("bias", n.conv.bias)) if v is not None},
        reads=lambda n: n.inputs),
    "norm": Op(
        # the kernel's cache is (output, inv_std)
        forward=lambda n, xs, mode: layers.batch_norm_forward(xs[0], n.bn, mode),
        backward=lambda n, dy, cache: (layers.batch_norm_backward(dy, cache),),
        buffers=lambda n: {"running_mean": n.bn.running_mean,
                           "running_var": n.bn.running_var},
        reads=lambda n: [n.name],
        batch_statistics=True),
    "affine_relu": Op(
        forward=_affine_relu_forward,
        backward=_affine_relu_backward,
        shape=_join_shape,
        params=lambda n: {"gamma": n.affine.gamma, "beta": n.affine.beta},
        reads=lambda n: [n.name, *n.inputs],
        rebuild=_affine_relu_rebuild),
    "add": Op(
        forward=lambda n, xs, *_: (tensor.add_elementwise(xs[0], xs[1]), None),
        backward=lambda n, dy, cache: (dy, dy),
        shape=_join_shape),
    "concat": Op(
        forward=lambda n, xs, *_: (tensor.concat_channels(xs),
                                   tuple(a.shape[1] for a in xs)),
        backward=lambda n, dy, sizes: np.split(dy, np.cumsum(sizes)[:-1], axis=1),
        shape=_join_shape),
    "gap": Op(
        forward=lambda n, xs, *_: layers.global_avg_pool_forward(xs[0]),
        backward=lambda n, dy, cache: (layers.global_avg_pool_backward(dy, cache),),
        shape=lambda n, shapes: (shapes[0][0], 1, 1),
        window=lambda n, shape: (shape[1], shape[1])),
    # (N, C, H, W) -> (N, H*W*C, 1, 1) in (row, col, channel) order
    "flatten": Op(
        forward=lambda n, xs, *_: (xs[0].transpose(0, 2, 3, 1).reshape(len(xs[0]), -1, 1, 1),
                                   xs[0].shape),
        backward=lambda n, dy, shape:
            (dy.reshape(shape[0], *shape[2:], shape[1]).transpose(0, 3, 1, 2),),
        shape=_flatten_shape,
        window=lambda n, shape: (shape[1], shape[1])),
    "fc": Op(
        forward=_fc_forward,
        backward=_fc_backward,
        shape=_fc_shape,
        params=lambda n: {"weight": n.fc.weights, "bias": n.fc.bias},
        reads=lambda n: n.inputs),
}


@dataclass(frozen=True)
class _Fusion:
    """What one kind of forward pass runs fused (see
    :meth:`NetworkGraph.forward`): the ``affine_relu`` nodes that their
    conv applies (``preact``), each conv that adds its output into the
    other input of the add that reads it (``add_into``: conv -> that
    input), and each such add, which passes the sum on (``passed``: add ->
    conv)."""

    preact: frozenset[str]
    add_into: dict[str, str]
    passed: dict[str, str]


_UNFUSED = _Fusion(frozenset(), {}, {})


@dataclass
class _Plan:
    """What :meth:`NetworkGraph.forward` plans from the graph alone, cached
    on the graph until it changes: per node the outputs its backward reads
    (``steps``), its readers in order, the outputs backward
    rebuilds, the convs whose backward writes their input's ReLU gradient
    into it (``relu_into_x``, see :meth:`NetworkGraph.backward`) and the
    nodes that take batch statistics; and, filled as they
    are asked for, the shapes per input H x W, the outputs that die after
    each step per ``keep`` set and the fusions per ``keep`` set, mode and
    ``keep_caches``."""

    steps: list[tuple[str, Node, list[str]]]
    readers: dict[str, list[str]]
    rebuildable: frozenset[str]
    relu_into_x: frozenset[str]
    batch_statistics: list[str]
    shapes: dict[tuple[int, int], dict[str, Shape]]
    dies_after: dict[frozenset[str], dict[str, list[str]]]
    fusions: dict[tuple[frozenset[str], str, bool], _Fusion]


class NetworkGraph:
    """Layer DAG plus parameter registry. Construction is single-threaded;
    a built graph is evaluated without mutation (batch-norm running statistics
    are the one exception, updated only in train mode)."""

    def __init__(self, input_channels: int, name: str = "net"):
        self.name = name
        self.nodes: dict[str, Node] = {}
        self.order: list[str] = []
        self._plan: Optional[_Plan] = None
        self.input_name = "input"
        self._add(Node(self.input_name, "input", [], channels=input_channels))
        self.output_name = self.input_name

    # -- construction ------------------------------------------------------

    def _add(self, node: Node) -> str:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        for inp in node.inputs:
            if inp not in self.nodes:
                raise ValueError(f"node {node.name!r} references unknown input {inp!r}")
        self.nodes[node.name] = node
        self.order.append(node.name)
        self.output_name = node.name
        self._plan = None
        return node.name

    def remove_from(self, name: str) -> None:
        """Remove ``name`` and every node added after it."""
        cut = self.order.index(name)
        for dropped in self.order[cut:]:
            del self.nodes[dropped]
        del self.order[cut:]
        self._plan = None

    def add_conv(self, name: str, inp: str, params: ConvParams) -> str:
        have = self.nodes[inp].channels
        if params.in_channels != have:
            raise ShapeError(
                f"conv {name!r} expects {params.in_channels} input channels, "
                f"node {inp!r} provides {have}")
        return self._add(Node(name, "conv", [inp], conv=params,
                              channels=params.out_channels))

    def add_bn_relu(self, name: str, inputs: str | list[str], dtype=DEFAULT_DTYPE) -> str:
        """Batch norm over the channels of ``inputs`` (one node or several,
        joined in order), then ReLU, as the node ``name``: an
        ``affine_relu`` with its own ``gamma`` and ``beta``, reading the
        ``<input>/norm`` node of each input, which the first pre-activation
        of that input makes and every later one shares."""
        if name in self.nodes:  # before any normalisation is made
            raise ValueError(f"duplicate node name {name!r}")
        norms = []
        for inp in [inputs] if isinstance(inputs, str) else inputs:
            norm = f"{inp}/norm"
            if norm not in self.nodes:
                channels = self.nodes[inp].channels
                self._add(Node(norm, "norm", [inp], channels=channels,
                               bn=layers.make_batch_norm(channels, dtype=dtype)))
            norms.append(norm)
        affine = layers.make_affine(tuple(self.nodes[n].bn for n in norms), dtype=dtype)
        return self._add(Node(name, "affine_relu", norms, affine=affine,
                              channels=affine.gamma.size))

    def add_add(self, name: str, a: str, b: str) -> str:
        ca, cb = self.nodes[a].channels, self.nodes[b].channels
        if ca != cb:
            raise ShapeError(f"add {name!r}: channel mismatch {ca} vs {cb}")
        return self._add(Node(name, "add", [a, b], channels=ca))

    def add_concat(self, name: str, inputs: list[str]) -> str:
        if not inputs:
            raise ShapeError(f"concat {name!r} needs at least one input")
        channels = sum(self.nodes[i].channels for i in inputs)
        return self._add(Node(name, "concat", list(inputs), channels=channels))

    def add_global_avg_pool(self, name: str, inp: str) -> str:
        return self._add(Node(name, "gap", [inp], channels=self.nodes[inp].channels))

    def add_flatten(self, name: str, inp: str, hw: tuple[int, int]) -> str:
        """Flatten ``inp``, whose maps are ``hw`` in size; other sizes are a ShapeError."""
        features = self.nodes[inp].channels * hw[0] * hw[1]
        return self._add(Node(name, "flatten", [inp], channels=features))

    def add_fc(self, name: str, inp: str, params: FCParams) -> str:
        return self._add(Node(name, "fc", [inp], fc=params,
                              channels=params.weights.shape[0]))

    # -- parameter registry --------------------------------------------------

    def _entries(self, kind: str) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for name in self.order[1:]:
            node = self.nodes[name]
            for entry, array in getattr(OPS[node.op], kind)(node).items():
                out[f"{name}/{entry}"] = array
        return out

    def parameters(self) -> dict[str, np.ndarray]:
        """Learnable arrays in construction order, hierarchically named."""
        return self._entries("params")

    def buffers(self) -> dict[str, np.ndarray]:
        """Non-learnable state (batch-norm running statistics)."""
        return self._entries("buffers")

    def state_entries(self) -> dict[str, np.ndarray]:
        entries = self.parameters()
        entries.update(self.buffers())
        return entries

    # -- evaluation ----------------------------------------------------------

    def _graph_plan(self) -> _Plan:
        """The graph's plan, made once and reused until a node is added or
        removed."""
        if self._plan is None:
            nodes = self.nodes
            steps = [(name, nodes[name], OPS[nodes[name].op]) for name in self.order[1:]]
            readers: dict[str, list[str]] = {name: [] for name in self.order}
            for name in self.order:
                for inp in nodes[name].inputs:
                    readers[inp].append(name)
            # each affine_relu's first reader, if a conv whose kernel is at
            # least its stride (see conv2d_backward's relu_into_x)
            first = (readers[name][0] for name, node, _ in steps
                     if node.op == "affine_relu" and readers[name])
            relu_into_x = frozenset(r for r in first if nodes[r].op == "conv"
                                    and nodes[r].conv.kernel[0] >= nodes[r].conv.stride)
            self._plan = _Plan(
                steps=[(name, node, op.reads(node)) for name, node, op in steps],
                readers=readers,
                rebuildable=frozenset(name for name, _, op in steps if op.rebuild is not None),
                relu_into_x=relu_into_x,
                batch_statistics=[name for name, _, op in steps if op.batch_statistics],
                shapes={}, dies_after={}, fusions={})
        return self._plan

    def _planned(self, hw: tuple[int, int], keep: frozenset[str]
                 ) -> tuple[_Plan, dict[str, Shape], dict[str, list[str]]]:
        """The graph's plan, with every node's shape for an input of ``hw``
        and the outputs that die after each step when ``keep`` is kept."""
        plan = self._graph_plan()
        shapes = plan.shapes.get(hw)
        if shapes is None:
            shapes = plan.shapes[hw] = self.infer_shapes(hw)
        dies_after = plan.dies_after.get(keep)
        if dies_after is None:
            dies_after = plan.dies_after[keep] = {}
            for name, readers in plan.readers.items():
                if name not in keep:  # an unread output dies at once
                    dies_after.setdefault(readers[-1] if readers else name, []).append(name)
        return plan, shapes, dies_after

    def _fused(self, plan: _Plan, keep: frozenset[str], mode: str,
               keep_caches: bool) -> _Fusion:
        """The fusions :meth:`forward` runs for ``keep``, ``mode`` and
        ``keep_caches``, found once per graph plan.

        An ``affine_relu`` that is not kept and whose one reader is a conv
        is applied by that conv. A conv whose one reader is an add, and
        that is not kept, adds its output into the add's other input when
        that input is made before the conv by a conv or an add (so the pass
        owns the array), and no use of the array outlives the add: no
        output that is the array or reads it later (an infer-mode ``norm``,
        which passes its input through, a flatten, an applied
        ``affine_relu``) is kept, every use but the add's runs before the
        conv, and with ``keep_caches`` no cache holds the array."""
        key = (keep, mode, keep_caches)
        fusion = plan.fusions.get(key)
        if fusion is not None:
            return fusion
        nodes, readers = self.nodes, plan.readers
        at = {name: i for i, name in enumerate(self.order)}
        preact = frozenset(
            name for name, node, _ in plan.steps
            if node.op == "affine_relu" and name not in keep
            and [nodes[r].op for r in readers[name]] == ["conv"])

        def passes_on(name: str) -> bool:  # its output is its input's array, or reads it later
            op = nodes[name].op
            return name in preact or op == "flatten" or (op == "norm" and mode == "infer")

        def uses(name: str):
            for reader in readers[name]:
                yield reader
                if passes_on(reader):
                    yield from uses(reader)

        add_into, passed = {}, {}
        for name, node, _ in plan.steps:
            if node.op != "add":
                continue
            into, conv = sorted(node.inputs, key=at.__getitem__)  # add(a, a): a has 2 readers
            if (nodes[conv].op != "conv" or readers[conv] != [name] or conv in keep
                    or nodes[into].op not in ("conv", "add")):
                continue
            users = list(uses(into))
            arrays = {into, *(u for u in users if passes_on(u) and u not in preact)}
            held = keep_caches and any(arrays.intersection(OPS[nodes[u].op].reads(nodes[u]))
                                       for u in users)
            if (not arrays & keep and not held
                    and all(u == name or at[u] < at[conv] for u in users)):
                add_into[conv], passed[name] = into, conv
        fusion = plan.fusions[key] = _Fusion(preact, add_into, passed)
        return fusion

    def forward(self, x: np.ndarray, mode: str = "infer", keep_caches: bool = False,
                check_finite: bool = False,
                keep: Optional[Iterable[str]] = None) -> ForwardResult:
        """Evaluate all nodes in topological order. ``mode`` is ``"train"``
        (batch statistics, folded into each normalisation's running
        statistics) or ``"infer"`` (running statistics).
        ``x`` must be (N, C, H, W) with the graph's input channels, and every
        node's shape rule (:meth:`infer_shapes`) must accept its H x W, and
        in train mode every op with ``batch_statistics`` must see N*H*W >= 2:
        a ShapeError naming the first node that does not comes before any
        node runs, so a rejected input changes no state. The kernels check no
        shapes of their own.
        ``keep`` names the outputs returned in ``outputs`` (default: the
        graph output; a name that is not a node is a ValueError). Every other
        output is dropped right after the last node that reads it has run,
        or at once if none does, so the pass holds only live outputs.
        ``keep_caches`` keeps every node's cache for one :meth:`backward`,
        which releases each once used, together with the outputs named by
        each op's ``reads``, except those whose op can ``rebuild`` them:
        backward rebuilds those, so no ``affine_relu`` output outlives its
        last forward reader. Without ``keep_caches`` each cache is released
        before the next node runs.
        Without ``check_finite`` no value is scanned and NaN/Inf propagate.
        With it, every node's output, parameters and buffers are checked (a
        ReLU maps NaN to 0) and :class:`NodeNonFiniteError` is raised at the
        first offender: the diagnostic pass of :func:`optim.first_nonfinite_node`.
        A checked pass fuses nothing (see :meth:`_fused`), so each output it
        checks is made by its own node, and an ``affine_relu`` whose
        output overflows is named, not the conv that would apply it.

        No node changes ``x``, a returned output, or an array that a cache
        or a later node reads. The one array a node writes into is an
        input of an add that the pass made (a conv or add output), that is
        not kept and that nothing reads after the add: the add's other
        input, a conv, adds its output into it (see :meth:`_fused`).
        Backward reads the arrays a kept pass
        holds, so until :meth:`backward` has run, callers must not write into
        ``x`` or into a returned output that a conv or fc reads and that no
        ``affine_relu`` produced (a detection tap, the fc input), nor, in
        infer mode, where a ``norm`` passes its input through, into a
        ``norm``'s input. No cache holds any other output, ``affine_relu``
        outputs included."""
        if mode not in ("train", "infer"):
            raise ValueError(f"unknown mode {mode!r}; expected 'train' or 'infer'")
        keep = frozenset((self.output_name,) if keep is None else keep)
        unknown = keep - self.nodes.keys()
        if unknown:
            raise ValueError(f"cannot keep unknown nodes {sorted(unknown)}")
        x = np.asarray(x)
        if x.ndim != 4:
            raise ShapeError(f"network input must be 4-D (N, C, H, W), got shape {x.shape}")
        if x.shape[1] != self.nodes[self.input_name].channels:
            raise ShapeError(
                f"input has {x.shape[1]} channels, graph expects "
                f"{self.nodes[self.input_name].channels}")
        plan, shapes, dies_after = self._planned(x.shape[2:], keep)
        if mode == "train":
            for name in plan.batch_statistics:
                _, h, w = shapes[name]
                if x.shape[0] * h * w < 2:
                    raise ShapeError(
                        f"{self.nodes[name].op} {name!r} normalises over N*H*W = "
                        f"{x.shape[0]}*{h}*{w} values per channel in train mode, "
                        "which needs at least 2")
        fusion = _UNFUSED if check_finite else self._fused(plan, keep, mode, keep_caches)
        outputs: dict[str, np.ndarray] = {self.input_name: x}
        caches: dict[str, tuple] = {}
        for name, node, reads in plan.steps:
            op = OPS[node.op]  # looked up at call time, as the kernels are
            xs = [outputs[i] for i in node.inputs]
            if name in fusion.preact:
                y, cache = _preactivation(node, xs, mode)
            elif name in fusion.add_into:
                y, cache = layers.conv2d_forward(xs[0], node.conv,
                                                 add_to=outputs[fusion.add_into[name]])
            elif name in fusion.passed:
                y, cache = outputs[fusion.passed[name]], None
            else:
                y, cache = op.forward(node, xs, mode)
            if check_finite and not all(np.all(np.isfinite(a)) for a in (
                    y, *op.params(node).values(), *op.buffers(node).values())):
                raise NodeNonFiniteError(name)
            outputs[name] = y
            if keep_caches:
                if reads:
                    cache = (*(None if src in plan.rebuildable else a
                               for src, a in zip(reads, cache)),
                             *cache[len(reads):])
                caches[name] = cache
            del xs, y, cache  # without keep_caches, a train-mode norm's xhat dies here
            for dead in dies_after.get(name, ()):
                del outputs[dead]
        return ForwardResult(outputs=outputs, caches=caches)

    def backward(self, result: ForwardResult, out_grads: dict[str, np.ndarray]
                 ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Backpropagate from injected output gradients.

        ``out_grads`` maps node names to gradients of the scalar objective with
        respect to those nodes' outputs; each must be an output ``result``
        kept, and match it in shape and dtype (a ValueError naming the node
        otherwise). ``result`` must come from a forward
        pass with ``keep_caches=True``. Each node's cache is released from
        ``result`` once its backward has run, so peak memory falls as the pass
        proceeds and one forward result supports one backward. An output the
        forward did not keep for backward is rebuilt from its producer's cache
        when the first node that reads it runs, and dropped after the
        producer's backward, so each is rebuilt once; an ``affine_relu``'s
        backward, which runs after every reader's, consumes its rebuilt
        output, and a train-mode ``norm``'s backward, which runs after every
        consumer's, its normalised output. The gradients of an output read
        by several nodes are summed before its producer's backward runs, so
        a ``norm`` read by several pre-activations runs one backward. The
        first conv to read an ``affine_relu`` output, if its kernel is at
        least its stride, runs after every other reader; its backward
        (``conv2d_backward(relu_into_x=True)``) writes the ReLU gradient of
        the output's summed gradient into the rebuilt output, tile by tile,
        and hands that array to the ``affine_relu``, which skips its ReLU.
        Returns (parameter gradients, input gradient). Backward writes only
        into arrays the passes made: rebuilt outputs, train-mode normalised
        outputs (kept ones too, which then hold ``dx``) and its own sums;
        ``out_grads`` are only read.
        """
        acc: dict[str, np.ndarray] = {}
        rebuilt: dict[str, np.ndarray] = {}

        def contribute(name: str, g: np.ndarray) -> None:
            if name in acc:
                acc[name] = acc[name] + g
            else:
                acc[name] = g

        def output(name: str, stored: Optional[np.ndarray]) -> np.ndarray:
            if stored is not None:
                return stored
            if name not in rebuilt:
                node = self.nodes[name]
                rebuilt[name] = OPS[node.op].rebuild(node, result.caches[name])
            return rebuilt[name]

        for name, g in out_grads.items():
            if name not in self.nodes:
                raise ValueError(f"unknown node {name!r} in out_grads")
            if name not in result.outputs:
                raise ValueError(f"out_grads names node {name!r}, whose output the "
                                 "forward pass did not keep")
            y = result.outputs[name]
            if getattr(g, "dtype", None) != y.dtype or np.shape(g) != y.shape:
                raise ValueError(
                    f"out_grads for node {name!r} is {getattr(g, 'dtype', type(g).__name__)} "
                    f"{np.shape(g)}, but its output is {y.dtype} {y.shape}")
            contribute(name, g)

        relu_into_x = self._graph_plan().relu_into_x
        param_grads: dict[str, np.ndarray] = {}
        for name in reversed(self.order[1:]):
            if name not in acc:
                continue
            if name not in result.caches:
                raise ValueError(f"no cache for node {name!r}: backward needs a forward "
                                 "pass made with keep_caches=True and runs once per pass")
            node = self.nodes[name]
            op = OPS[node.op]
            cache = result.caches[name]
            reads = op.reads(node)
            if reads:
                cache = (*(output(src, a) for src, a in zip(reads, cache)),
                         *cache[len(reads):])
            del result.caches[name]
            if name in relu_into_x:
                # the last of its input's readers to run: it writes the
                # input's ReLU gradient, with what the others sent, into it
                grads = layers.conv2d_backward(acc.pop(name), cache, relu_into_x=True,
                                               pending=acc.pop(node.inputs[0], None))
            else:
                grads = op.backward(node, acc.pop(name), cache)
            del cache  # an affine_relu's rebuilt output, now its dz, dies on the next line
            rebuilt.pop(name, None)
            k = len(node.inputs)
            # zip stops at the node's entries: a conv without bias has no
            # "bias" entry and its kernel returns db=None.
            for entry, grad in zip(op.params(node), grads[k:]):
                param_grads[f"{name}/{entry}"] = grad
            for inp, grad in zip(node.inputs, grads[:k]):
                contribute(inp, grad)
        input_grad = acc.get(self.input_name)
        return param_grads, input_grad

    # -- static shape inference ----------------------------------------------

    def infer_shapes(self, input_hw: tuple[int, int]) -> dict[str, Shape]:
        """Per-node output shape (C, H, W) for a single sample; fc and flatten
        yield (D, 1, 1)."""
        shapes: dict[str, Shape] = {
            self.input_name: (self.nodes[self.input_name].channels, *input_hw)
        }
        for name in self.order[1:]:
            node = self.nodes[name]
            shapes[name] = OPS[node.op].shape(node, [shapes[i] for i in node.inputs])
        return shapes

    # -- receptive fields ------------------------------------------------------

    def receptive_field_map(self, input_hw: tuple[int, int]
                            ) -> dict[str, tuple[int, int, tuple[int, ...]]]:
        """Receptive field extent and effective stride per node.

        Computed by the recurrence rf' = rf + (k - 1) * stride_product along
        each path, with (k, stride) the node's window: the kernel for a conv,
        the whole incoming map for global average pooling and flatten, (1, 1)
        otherwise. At add/concat joins the per-branch extents are recorded and
        the maximum becomes the node's extent. Joined paths must share one
        stride product, except into a 1x1 map (after flatten or gap), whose
        single position takes the largest.

        Returns name -> (rf, stride_product, per-branch rf tuple).
        """
        shapes = self.infer_shapes(input_hw)
        rf: dict[str, int] = {self.input_name: 1}
        sp: dict[str, int] = {self.input_name: 1}
        branches: dict[str, tuple[int, ...]] = {self.input_name: (1,)}
        for name in self.order[1:]:
            node = self.nodes[name]
            ins = node.inputs
            per = tuple(rf[i] for i in ins)
            strides = {sp[i] for i in ins}
            if len(strides) != 1 and shapes[name][1:] != (1, 1):
                raise ShapeError(f"join {name!r} merges paths of unequal stride")
            stride_in = max(strides)
            k, s = OPS[node.op].window(node, shapes[ins[0]])
            rf[name] = max(per) + (k - 1) * stride_in
            sp[name] = stride_in * s
            branches[name] = per if len(ins) > 1 else (rf[name],)
        return {n: (rf[n], sp[n], branches[n]) for n in self.order}

# ---------------------------------------------------------------------------
# Checkpoint format: magic "WRIN", version byte, then per entry
#   uint32 LE name length | UTF-8 name | rank byte | uint32 LE dims |
#   float32 LE values
# and a trailing uint64 LE entry count. Batch-norm running statistics are
# stored alongside learnable parameters so a reload reproduces inference
# bit for bit.
# ---------------------------------------------------------------------------

def checkpoint_layout(graph: NetworkGraph) -> dict[str, list[str]]:
    """Each checkpoint entry's name, in file order, and the registry
    entries (:meth:`NetworkGraph.state_entries`) whose values it holds,
    joined in order. Parameters are stored under their own names, then the
    running statistics per pre-activation, as a fused batch norm held them:
    ``<affine_relu>/running_mean`` joins those of the ``norm`` nodes it
    reads. A tensor that feeds k pre-activations is thus stored k times,
    and files written before normalisations were shared load unchanged."""
    layout = {name: [name] for name in graph.parameters()}
    for name in graph.order[1:]:
        node = graph.nodes[name]
        if node.op == "affine_relu":
            for entry in ("running_mean", "running_var"):
                layout[f"{name}/{entry}"] = [f"{norm}/{entry}" for norm in node.inputs]
    return layout


def save_checkpoint(graph: NetworkGraph, path: str) -> None:
    """Write ``graph``'s parameters and buffers to ``path`` atomically, in
    the entries of :func:`checkpoint_layout`: the bytes go to a temporary
    file in the same directory, which then replaces ``path``, so a failed
    save leaves any previous checkpoint intact."""
    chunks = [CHECKPOINT_MAGIC, bytes([CHECKPOINT_VERSION])]
    state = graph.state_entries()
    layout = checkpoint_layout(graph)
    for name, sources in layout.items():
        array = np.concatenate([state[source] for source in sources])
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(bytes([array.ndim]))
        for dim in array.shape:
            chunks.append(struct.pack("<I", dim))
        chunks.append(np.ascontiguousarray(array, dtype="<f4").tobytes())
    chunks.append(struct.pack("<Q", len(layout)))
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:  # created with the umask's mode, as path was
            fh.write(b"".join(chunks))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(graph: NetworkGraph, path: str) -> None:
    """Load ``path`` into ``graph``'s parameters and buffers. The whole file is
    parsed and checked against the graph before any entry is written, so a
    file that does not fit leaves the graph as it was; every fault of the
    file's layout is a ValueError naming the path and, where it has one, the
    offset, and a NaN or Inf value is a NodeNonFiniteError naming its node.
    The copies of one normalisation's running statistics (see
    :func:`checkpoint_layout`) must agree bit for bit; an entry whose copy
    differs from an earlier one is a ValueError naming both."""
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic {bytes(blob[:4])!r})")
    if len(blob) < 13:
        raise ValueError(f"{path}: truncated: {len(blob)} bytes cannot hold the header "
                         "and the entry count")
    if blob[4] != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {blob[4]}")
    declared = struct.unpack("<Q", blob[-8:])[0]
    end = len(blob) - 8
    pos = 5

    def take(size: int, what: str) -> memoryview:
        nonlocal pos
        if size > end - pos:
            raise ValueError(f"{path}: truncated at byte {pos}: {what} needs {size} bytes, "
                             f"{end - pos} remain before the entry count")
        pos += size
        return blob[pos - size:pos]

    state = graph.state_entries()
    layout = checkpoint_layout(graph)
    shapes = {name: (sum(state[s].shape[0] for s in sources), *state[sources[0]].shape[1:])
              for name, sources in layout.items()}
    parsed: dict[str, np.ndarray] = {}
    while pos < end:
        start = pos
        (name_len,) = struct.unpack("<I", take(4, "a name length"))
        try:
            name = bytes(take(name_len, "an entry name")).decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: entry name at byte {start + 4} is not UTF-8") from None
        if name not in layout:
            raise ValueError(f"{path}: unknown entry {name!r} at byte {start} "
                             f"for graph {graph.name!r}")
        if name in parsed:
            raise ValueError(f"{path}: entry {name!r} at byte {start} appears twice")
        rank = take(1, f"the rank of {name!r}")[0]
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"the dims of {name!r}"))
        if dims != shapes[name]:
            raise ValueError(f"{path}: entry {name!r} has shape {dims}, "
                             f"expected {shapes[name]}")
        values = take(4 * math.prod(dims), f"the values of {name!r}")
        parsed[name] = np.frombuffer(values, dtype="<f4").reshape(dims)
    if len(parsed) != declared:
        raise ValueError(
            f"{path}: trailing count says {declared} entries, found {len(parsed)}")
    if len(parsed) != len(layout):
        missing = sorted(set(layout) - set(parsed))
        raise ValueError(f"{path}: checkpoint is missing entries {missing[:5]}")
    for name, values in parsed.items():
        if not np.all(np.isfinite(values)):
            raise NodeNonFiniteError(name.rsplit("/", 1)[0])
    loaded: dict[str, tuple[str, np.ndarray]] = {}  # registry entry -> (file entry, values)
    for name, sources in layout.items():
        offset = 0
        for source in sources:
            values = parsed[name][offset:offset + state[source].shape[0]]
            offset += state[source].shape[0]
            first = loaded.setdefault(source, (name, values))
            if first[1].tobytes() != values.tobytes():
                raise ValueError(f"{path}: entry {name!r} disagrees with entry {first[0]!r} "
                                 f"on the running statistics of {source.rsplit('/', 1)[0]!r}")
    for source, (_, values) in loaded.items():
        state[source][...] = values.astype(state[source].dtype)

"""Directed acyclic network graphs with deterministic evaluation order.

A :class:`NetworkGraph` is a list of named layer nodes in construction
(topological) order. Forward evaluation walks that order and drops each node's
output right after its last reader has run, so only the outputs a caller
names in ``keep`` outlive the pass (memory sharing by liveness, Chen et al.
2016, on a static DAG). Backward walks the order in reverse, accumulating
gradients from the caches alone. Parameters live in a registry keyed by
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
from .layers import BatchNormParams, ConvParams, FCParams
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
    bn: Optional[BatchNormParams] = None
    fc: Optional[FCParams] = None
    channels: int = 0  # output channels (D_out for fc)

    @property
    def params(self):
        """The node's parameter object (conv, bn or fc), or None."""
        return next((p for p in (self.conv, self.bn, self.fc) if p is not None), None)


@dataclass
class ForwardResult:
    """What one :meth:`NetworkGraph.forward` leaves: the outputs it was asked
    to keep (every other output was dropped after its last reader ran), and
    with ``keep_caches`` each node's backward cache."""

    outputs: dict[str, np.ndarray]
    caches: dict[str, tuple]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.outputs[name]


Shape = tuple[int, int, int]


@dataclass(frozen=True)
class Op:
    """What one node kind means.

    ``forward(node, inputs, mode)`` returns ``(y, cache)``,
    the cache holding all that backward needs; ``backward(node, dy, cache)``
    returns one gradient per input, then one per ``params`` entry (the
    kernels' dx, dw, db order).
    ``shape(node, input shapes)`` gives the per-sample (C, H, W) and raises
    ShapeError naming the node; ``window(node, input shape)`` gives the
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


def _bn_relu_forward(node: Node, xs: list[np.ndarray], mode: str
                     ) -> tuple[np.ndarray, tuple]:
    z, bn_cache = layers.batch_norm_forward(xs[0], node.bn, mode=mode)
    # z is the batch norm's fresh output, so the ReLU may clamp it in place;
    # the output doubles as the ReLU's cache
    y, relu_cache = layers.relu_forward(z)
    return y, (bn_cache, relu_cache)


def _bn_relu_backward(node: Node, dy: np.ndarray, cache: tuple) -> tuple:
    bn_cache, relu_cache = cache
    return layers.batch_norm_backward(layers.relu_backward(dy, relu_cache), bn_cache)


def _fc_forward(node: Node, xs: list[np.ndarray], *_) -> tuple[np.ndarray, tuple]:
    x = xs[0]
    y, cache = layers.fully_connected_forward(x.reshape(x.shape[0], -1), node.fc)
    return y, (cache, x.shape)


def _fc_backward(node: Node, dy: np.ndarray, cache: tuple) -> tuple:
    fc_cache, in_shape = cache
    dx, dw, db = layers.fully_connected_backward(dy, fc_cache)
    return dx.reshape(in_shape), dw, db


OPS: dict[str, Op] = {
    "conv": Op(
        forward=lambda n, xs, *_: layers.conv2d_forward(xs[0], n.conv),
        backward=lambda n, dy, cache: layers.conv2d_backward(dy, cache),
        shape=_conv_shape,
        window=lambda n, shape: (n.conv.kernel[0], n.conv.stride),
        params=lambda n: {k: v for k, v in (("weight", n.conv.weights),
                                            ("bias", n.conv.bias)) if v is not None}),
    "bn_relu": Op(
        forward=_bn_relu_forward,
        backward=_bn_relu_backward,
        params=lambda n: {"gamma": n.bn.gamma, "beta": n.bn.beta},
        buffers=lambda n: {"running_mean": n.bn.running_mean,
                           "running_var": n.bn.running_var}),
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
        params=lambda n: {"weight": n.fc.weights, "bias": n.fc.bias}),
}


class NetworkGraph:
    """Layer DAG plus parameter registry. Construction is single-threaded;
    a built graph is evaluated without mutation (batch-norm running statistics
    are the one exception, updated only in train mode)."""

    def __init__(self, input_channels: int, name: str = "net"):
        self.name = name
        self.nodes: dict[str, Node] = {}
        self.order: list[str] = []
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
        return node.name

    def add_conv(self, name: str, inp: str, params: ConvParams) -> str:
        have = self.nodes[inp].channels
        if params.in_channels != have:
            raise ShapeError(
                f"conv {name!r} expects {params.in_channels} input channels, "
                f"node {inp!r} provides {have}")
        return self._add(Node(name, "conv", [inp], conv=params,
                              channels=params.out_channels))

    def add_bn_relu(self, name: str, inp: str, dtype=DEFAULT_DTYPE) -> str:
        """Batch norm over ``inp``'s channels (parameters made here), then ReLU."""
        channels = self.nodes[inp].channels
        return self._add(Node(name, "bn_relu", [inp], channels=channels,
                              bn=layers.make_batch_norm(channels, dtype=dtype)))

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

    def forward(self, x: np.ndarray, mode: str = "infer", keep_caches: bool = False,
                check_finite: bool = False,
                keep: Optional[Iterable[str]] = None) -> ForwardResult:
        """Evaluate all nodes in topological order. ``mode`` is ``"train"``
        (batch statistics, folded into each batch norm's running statistics)
        or ``"infer"`` (running statistics).
        ``keep`` names the outputs returned in ``outputs`` (default: the
        graph output; a name that is not a node is a ValueError). Every other
        output is dropped right after the last node that reads it has run,
        or at once if none does, so the pass holds only live outputs.
        ``keep_caches`` keeps every node's cache for one :meth:`backward`,
        which reads only caches and releases each once used; without it each
        cache is released before the next node runs.
        Without ``check_finite`` no value is scanned and NaN/Inf propagate.
        With it, every node's output, parameters and buffers are checked (a
        ReLU maps NaN to 0) and :class:`NodeNonFiniteError` is raised at the
        first offender: the diagnostic pass of :func:`optim.first_nonfinite_node`.

        No node changes its inputs. A ``bn_relu`` output is also that node's
        backward cache, so callers must not write into returned outputs
        before :meth:`backward` has run."""
        if mode not in ("train", "infer"):
            raise ValueError(f"unknown mode {mode!r}; expected 'train' or 'infer'")
        keep = {self.output_name} if keep is None else set(keep)
        unknown = keep - self.nodes.keys()
        if unknown:
            raise ValueError(f"cannot keep unknown nodes {sorted(unknown)}")
        x = tensor.require_nchw(x, "network input")
        if x.shape[1] != self.nodes[self.input_name].channels:
            raise ShapeError(
                f"input has {x.shape[1]} channels, graph expects "
                f"{self.nodes[self.input_name].channels}")
        last_reader = {name: name for name in self.order}  # unread: dies at once
        for name in self.order:
            for inp in self.nodes[name].inputs:
                last_reader[inp] = name
        dies_after: dict[str, list[str]] = {}
        for name, reader in last_reader.items():
            if name not in keep:
                dies_after.setdefault(reader, []).append(name)
        outputs: dict[str, np.ndarray] = {self.input_name: x}
        caches: dict[str, tuple] = {}
        for name in self.order[1:]:
            node = self.nodes[name]
            op = OPS[node.op]
            y, cache = op.forward(node, [outputs[i] for i in node.inputs], mode)
            if check_finite and not all(np.all(np.isfinite(a)) for a in (
                    y, *op.params(node).values(), *op.buffers(node).values())):
                raise NodeNonFiniteError(name)
            outputs[name] = y
            if keep_caches:
                caches[name] = cache
            del y, cache  # without keep_caches, a train-mode batch norm's xhat dies here
            for dead in dies_after.get(name, ()):
                del outputs[dead]
        return ForwardResult(outputs=outputs, caches=caches)

    def backward(self, result: ForwardResult, out_grads: dict[str, np.ndarray]
                 ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Backpropagate from injected output gradients.

        ``out_grads`` maps node names to gradients of the scalar objective with
        respect to those nodes' outputs. ``result`` must come from a forward
        pass with ``keep_caches=True``. Each node's cache is released from
        ``result`` once its backward has run, so peak memory falls as the pass
        proceeds and one forward result supports one backward. Returns
        (parameter gradients, input gradient). Gradients are accumulated
        without mutating shared arrays.
        """
        acc: dict[str, np.ndarray] = {}

        def contribute(name: str, g: np.ndarray) -> None:
            if name in acc:
                acc[name] = acc[name] + g
            else:
                acc[name] = g

        for name, g in out_grads.items():
            if name not in self.nodes:
                raise ValueError(f"unknown node {name!r} in out_grads")
            contribute(name, g)

        param_grads: dict[str, np.ndarray] = {}
        for name in reversed(self.order[1:]):
            if name not in acc:
                continue
            if name not in result.caches:
                raise ValueError(f"no cache for node {name!r}: backward needs a forward "
                                 "pass made with keep_caches=True and runs once per pass")
            node = self.nodes[name]
            op = OPS[node.op]
            grads = op.backward(node, acc.pop(name), result.caches.pop(name))
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

def save_checkpoint(graph: NetworkGraph, path: str) -> None:
    """Write ``graph``'s parameters and buffers to ``path`` atomically: the
    bytes go to a temporary file in the same directory, which then replaces
    ``path``, so a failed save leaves any previous checkpoint intact."""
    chunks = [CHECKPOINT_MAGIC, bytes([CHECKPOINT_VERSION])]
    entries = graph.state_entries()
    for name, array in entries.items():
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(bytes([array.ndim]))
        for dim in array.shape:
            chunks.append(struct.pack("<I", dim))
        chunks.append(np.ascontiguousarray(array, dtype="<f4").tobytes())
    chunks.append(struct.pack("<Q", len(entries)))
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
    offset, and a NaN or Inf value is a NodeNonFiniteError naming its node."""
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

    entries = graph.state_entries()
    parsed: dict[str, np.ndarray] = {}
    while pos < end:
        start = pos
        (name_len,) = struct.unpack("<I", take(4, "a name length"))
        try:
            name = bytes(take(name_len, "an entry name")).decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: entry name at byte {start + 4} is not UTF-8") from None
        if name not in entries:
            raise ValueError(f"{path}: unknown entry {name!r} at byte {start} "
                             f"for graph {graph.name!r}")
        if name in parsed:
            raise ValueError(f"{path}: entry {name!r} at byte {start} appears twice")
        rank = take(1, f"the rank of {name!r}")[0]
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"the dims of {name!r}"))
        if dims != entries[name].shape:
            raise ValueError(f"{path}: entry {name!r} has shape {dims}, "
                             f"expected {entries[name].shape}")
        values = take(4 * math.prod(dims), f"the values of {name!r}")
        parsed[name] = np.frombuffer(values, dtype="<f4").reshape(dims)
    if len(parsed) != declared:
        raise ValueError(
            f"{path}: trailing count says {declared} entries, found {len(parsed)}")
    if len(parsed) != len(entries):
        missing = sorted(set(entries) - set(parsed))
        raise ValueError(f"{path}: checkpoint is missing entries {missing[:5]}")
    for name, values in parsed.items():
        if not np.all(np.isfinite(values)):
            raise NodeNonFiniteError(name.rsplit("/", 1)[0])
    for name, values in parsed.items():
        entries[name][...] = values.astype(entries[name].dtype)

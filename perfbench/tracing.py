"""Spans for the traced pass of the benchmark.

A :class:`Tracer` replaces public wrinet functions with timing wrappers at the
place their callers look them up (a module attribute, or a method on
``NetworkGraph``), records one span per call with a link to the enclosing
span, and restores the originals on exit. Wrappers exist only inside
``with tracer.installed():``, so untraced passes run the unmodified program.

Kernel spans (``wrinet.layers`` and ``wrinet.tensor``) are not nested: a
kernel called from inside another kernel is charged to the outer one, so the
kernel shares partition the time the kernels take.

Work counters are computed from argument and result shapes after the call
returns, outside the span:

* conv MACs: N*C_out*H_out*W_out*C_in*kh*kw per forward call, with H_out and
  W_out derived here from the input shape, stride and padding; a backward call
  counts dx plus dw, twice the forward count. Dense layers count N*D_in*D_out.
* bytes: the ``nbytes`` of the array arguments plus the array results, each
  counted once (computed bytes, not measured memory traffic).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from wrinet import builder, data, detection, graph, heads, layers, optim, tensor


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans; -1 for a root span
    start: float
    end: float = 0.0
    child_time: float = 0.0
    macs: int = 0
    nbytes: int = 0
    items_in: int = 0
    items_out: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _array_bytes(values) -> int:
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, tuple):
            total += sum(a.nbytes for a in v if isinstance(a, np.ndarray))
    return total


def _kernel_work(span: Span, args, result) -> None:
    span.nbytes = _array_bytes(args) + _array_bytes(
        result if isinstance(result, tuple) else (result,))


def _conv_forward_work(span: Span, args, result) -> None:
    x, p = args[0], args[1]
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = p.weights.shape
    h_out = (h + 2 * p.padding - kh) // p.stride + 1
    w_out = (w + 2 * p.padding - kw) // p.stride + 1
    span.macs = n * c_out * h_out * w_out * c_in * kh * kw
    _kernel_work(span, args, result)


def _conv_backward_work(span: Span, args, result) -> None:
    dy, dw = args[0], result[1]
    n, c_out, h_out, w_out = dy.shape
    _, c_in, kh, kw = dw.shape
    span.macs = 2 * n * c_out * h_out * w_out * c_in * kh * kw
    _kernel_work(span, args, result)


def _fc_forward_work(span: Span, args, result) -> None:
    x, p = args[0], args[1]
    span.macs = x.shape[0] * p.weights.size
    _kernel_work(span, args, result)


def _fc_backward_work(span: Span, args, result) -> None:
    dy, dw = args[0], result[1]
    span.macs = 2 * dy.shape[0] * dw.size
    _kernel_work(span, args, result)


def _sgd_work(span: Span, args, result) -> None:
    params, grads, state = args[0], args[1], args[2]
    span.nbytes = sum(a.nbytes for d in (params, grads, state.velocity)
                      for a in d.values())


def _nms_work(span: Span, args, result) -> None:
    span.items_in = len(args[1])
    span.items_out = len(result)


_KERNEL_WORK = {
    "conv2d_forward": _conv_forward_work,
    "conv2d_backward": _conv_backward_work,
    "fully_connected_forward": _fc_forward_work,
    "fully_connected_backward": _fc_backward_work,
}


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._in_kernel = False
        self._patches: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _finish(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._finish(index)

    def _wrap(self, owner, attr: str, name: str, kernel: bool = False, work=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if kernel and tracer._in_kernel:
                return original(*args, **kwargs)
            index = tracer._begin(name)
            if kernel:
                tracer._in_kernel = True
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._finish(index)
                if kernel:
                    tracer._in_kernel = False
            if work is not None:
                work(tracer.spans[index], args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        try:
            for module in (layers, tensor):
                short = module.__name__.rsplit(".", 1)[1]
                for attr, fn in inspect.getmembers(module, inspect.isfunction):
                    if attr.startswith("_") or fn.__module__ != module.__name__:
                        continue
                    self._wrap(module, attr, f"{short}.{attr}", kernel=True,
                               work=_KERNEL_WORK.get(attr, _kernel_work))
            self._wrap(graph.NetworkGraph, "forward", "graph.forward")
            self._wrap(graph.NetworkGraph, "backward", "graph.backward")
            self._wrap(builder, "execute", "builder.execute")
            self._wrap(optim, "sgd_nesterov_step", "optim.sgd_nesterov_step",
                       work=_sgd_work)
            self._wrap(data, "augment_batch", "data.augment_batch")
            self._wrap(data, "serialize_kitti_labels", "data.serialize_kitti_labels")
            self._wrap(heads, "detection_forward", "heads.detection_forward")
            self._wrap(detection, "nms", "detection.nms", work=_nms_work)
            self._wrap(detection, "decode_boxes", "detection.decode_boxes")
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def forward_macs(self) -> list[int]:
        """MACs counted inside each ``graph.forward`` span, in call order."""
        totals: dict[int, int] = {}
        for i, s in enumerate(self.spans):
            if s.name == "graph.forward":
                totals[i] = 0
            elif s.macs and s.parent in totals:
                totals[s.parent] += s.macs
        return list(totals.values())

    def to_records(self) -> list[list]:
        return [[s.name, s.parent, s.start, s.end, s.macs, s.nbytes]
                for s in self.spans]


# name -> (stats reported). Every other layers.* / tensor.* kernel is "other".
NAMED_KERNELS = {
    "layers.conv2d_forward": ("share", "s_per_op", "gmac_per_s"),
    "layers.conv2d_backward": ("share", "s_per_op", "gmac_per_s"),
    "layers.batch_norm_forward": ("share", "gb_per_s"),
    "layers.batch_norm_backward": ("share", "gb_per_s"),
    "layers.relu_forward": ("share", "gb_per_s"),
    "layers.relu_backward": ("share", "gb_per_s"),
    "tensor.add_elementwise": ("share",),
    "tensor.concat_channels": ("share",),
    "optim.sgd_nesterov_step": ("share", "gb_per_s"),
    "data.augment_batch": ("share",),
    "data.serialize_kitti_labels": ("share",),
    "detection.nms": ("share", "calls", "boxes_in", "kept"),
    "detection.decode_boxes": ("share",),
}
SELF_SHARES = ("graph.forward", "graph.backward", "builder.execute",
               "heads.detection_forward")
UNITS = {"share": "fraction", "s_per_op": "s",
         "gmac_per_s": "GMAC/s", "gb_per_s": "GB/s", "calls": "count/op",
         "boxes_in": "count/op", "kept": "count/op"}


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the root ``op`` spans: each share is a span
    group's self time over the summed op time, so the shares together with
    ``unattributed.share`` add up to 1."""
    ops = [s for s in spans if s.name == "op" and s.parent < 0]
    total = sum(s.duration for s in ops)
    n_ops = len(ops)
    agg = defaultdict(lambda: {"time": 0.0, "calls": 0, "macs": 0, "bytes": 0,
                               "in": 0, "out": 0})
    for s in spans:
        if s.parent < 0:
            continue
        name = s.name
        if name not in NAMED_KERNELS and name.startswith(("layers.", "tensor.")):
            name = "layers.other"
        a = agg[name]
        a["time"] += s.self_time
        a["calls"] += 1
        a["macs"] += s.macs
        a["bytes"] += s.nbytes
        a["in"] += s.items_in
        a["out"] += s.items_out

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name, stats in NAMED_KERNELS.items():
        a = agg[name]
        values = {
            "share": ratio(a["time"], total),
            "s_per_op": ratio(a["time"], n_ops),
            "gmac_per_s": ratio(a["macs"] / 1e9, a["time"]),
            "gb_per_s": ratio(a["bytes"] / 1e9, a["time"]),
            "calls": ratio(a["calls"], n_ops),
            "boxes_in": ratio(a["in"], n_ops),
            "kept": ratio(a["out"], n_ops),
        }
        for stat in stats:
            out[f"{name}.{stat}"] = (values[stat], UNITS[stat])
    out["layers.other.share"] = (ratio(agg["layers.other"]["time"], total), "fraction")
    for name in SELF_SHARES:
        out[f"{name}.self_share"] = (ratio(agg[name]["time"], total), "fraction")
    out["unattributed.share"] = (ratio(sum(s.self_time for s in ops), total), "fraction")
    return out

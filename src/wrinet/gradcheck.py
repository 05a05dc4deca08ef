"""Central finite-difference verification of every backward pass.

Each check builds a small float64 instance, computes analytic gradients, and
compares against (f(x+h) - f(x-h)) / 2h over every coordinate. The error
measure is |a - n| / max(|a|, |n|, 1e-6): central differences on a loss of
order 1 carry ~2e-11 of cancellation noise, so gradients below the 1e-6 floor
are compared at that absolute scale instead of a meaningless ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import layers
from .blocks import UnitSpec, build_standalone_unit
from .builder import NetworkConfig, StageConfig, build_network
from .graph import NetworkGraph

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4

# Central differences are invalid when any ReLU input sits within the probe
# step of 0 (the +/- h evaluations straddle the kink). Graph-level checks
# redraw their instance, deterministically, until pre-activations clear this
# band.
KINK_MARGIN = 2e-4
MAX_REDRAWS = 64


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    rel = np.abs(a - n) / scale
    return float(rel.max()) if rel.size else 0.0


def fd_gradients(f: Callable[[], float], arrays: Iterable[np.ndarray],
                 step: float = DEFAULT_STEP) -> list[np.ndarray]:
    """Central differences of a scalar function over every array coordinate;
    arrays are perturbed in place and restored."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = f()
            flat[i] = orig - step
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * step)
        grads.append(g)
    return grads


@dataclass
class CheckResult:
    name: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < DEFAULT_TOLERANCE


def _projection(y0: np.ndarray, rng) -> np.ndarray:
    """Random projection scaled so the scalar objective sum(y * proj) is O(1)
    at the base point, keeping the finite-difference noise floor uniform."""
    p = rng.normal(size=y0.shape)
    return p / max(1.0, abs(float(np.sum(y0 * p))))


# ---------------------------------------------------------------------------
# Layer-level checks: each case draws a float64 instance from the generator
# and returns (objective, analytic gradients, arrays the gradients are for).
# ---------------------------------------------------------------------------

def _projected(rng, forward: Callable[[], tuple], backward: Callable[..., tuple],
               arrays: list[np.ndarray]) -> tuple[Callable[[], float], tuple, list]:
    """The objective sum(forward() * proj) for a random projection drawn at
    the base point, with its gradients from ``backward(proj, cache)``."""
    y0, _ = forward()
    proj = _projection(y0, rng)

    def loss() -> float:
        y, _ = forward()
        return float(np.sum(y * proj))

    _, cache = forward()
    return loss, backward(proj, cache), arrays


def _conv_case(rng):
    x = rng.normal(size=(2, 3, 8, 8))
    p = layers.make_conv(3, 4, 3, stride=2, bias=True, dtype=np.float64)
    layers.msr_initialize(p, rng)
    return _projected(rng, lambda: layers.conv2d_forward(x, p),
                      layers.conv2d_backward, [x, p.weights, p.bias])


def _batch_norm_case(rng):
    """Two tensors, each normalised by its batch statistics, joined along
    channels by one affine: the batch norm of a concat, as it is split."""
    xs = [rng.normal(size=(3, c, 5, 5)) * 2.0 + 0.3 for c in (4, 2)]
    stats = tuple(layers.make_batch_norm(x.shape[1], dtype=np.float64) for x in xs)
    p = layers.make_affine(stats, dtype=np.float64)
    p.gamma[...] = rng.normal(1.0, 0.2, size=6)
    p.beta[...] = rng.normal(0.0, 0.2, size=6)

    def forward():
        xhats, caches = zip(*(layers.batch_norm_forward(x, s, mode="train")
                              for x, s in zip(xs, stats)))
        return layers.affine_forward(xhats, p, "train"), (xhats, caches)

    def backward(dy, cache):
        xhats, caches = cache
        dxhats, dgamma, dbeta = layers.affine_backward(dy.copy(), xhats, p, "train")
        return (*map(layers.batch_norm_backward, dxhats, caches), dgamma, dbeta)

    return _projected(rng, forward, backward, [*xs, p.gamma, p.beta])


def _relu_case(rng):
    x = rng.normal(size=(2, 3, 6, 6))
    x = np.where(np.abs(x) < 1e-3, 1e-3, x)  # keep clear of the kink
    # relu_forward clamps its argument in place; the probes perturb x itself
    return _projected(rng, lambda: layers.relu_forward(x.copy()),
                      lambda dy, y: (layers.relu_backward(dy, y),), [x])


def _global_avg_pool_case(rng):
    x = rng.normal(size=(2, 3, 4, 4))
    return _projected(rng, lambda: layers.global_avg_pool_forward(x),
                      lambda dy, cache: (layers.global_avg_pool_backward(dy, cache),),
                      [x])


def _fully_connected_case(rng):
    x = rng.normal(size=(3, 7))
    p = layers.make_fc(7, 4, dtype=np.float64)
    layers.msr_initialize(p, rng)
    p.bias[...] = rng.normal(size=4)
    return _projected(rng, lambda: layers.fully_connected_forward(x, p),
                      layers.fully_connected_backward, [x, p.weights, p.bias])


def _softmax_cross_entropy_case(rng):
    logits = rng.normal(size=(4, 5))
    labels = rng.integers(0, 5, size=4)
    _, grad = layers.softmax_cross_entropy(logits, labels)
    return (lambda: layers.softmax_cross_entropy(logits, labels)[0]), (grad,), [logits]


LAYER_CASES: dict[str, Callable[[np.random.Generator], tuple]] = {
    "conv2d": _conv_case,
    "batch_norm": _batch_norm_case,
    "relu": _relu_case,
    "global_avg_pool": _global_avg_pool_case,
    "fully_connected": _fully_connected_case,
    "softmax_cross_entropy": _softmax_cross_entropy_case,
}


def _worst_error(loss: Callable[[], float], analytic, arrays: list[np.ndarray]) -> float:
    numeric = fd_gradients(loss, arrays)
    return max(relative_error(a, n) for a, n in zip(analytic, numeric))


def check_layer(name: str, seed: int = 0) -> float:
    """Worst relative error of one layer's backward pass, over every array."""
    return _worst_error(*LAYER_CASES[name](np.random.default_rng(seed)))


# ---------------------------------------------------------------------------
# Unit-level and network-level checks
# ---------------------------------------------------------------------------

UNIT_SPECS = {
    "unit-basic": UnitSpec("basic", 3, (4, 4), 2, 4),
    "unit-bottleneck": UnitSpec("bottleneck", 4, (2, 2, 4), 1, 4),
    "unit-inception": UnitSpec("inception", 4, (4, 3, 2, 4), 2, 5),
}


def _init_graph_params(g: NetworkGraph, rng: np.random.Generator) -> None:
    for node in g.nodes.values():
        if node.params is not None:
            layers.msr_initialize(node.params, rng)
        if node.affine is not None:
            node.affine.gamma[...] = rng.normal(1.0, 0.1, size=node.affine.gamma.shape)
            node.affine.beta[...] = rng.normal(0.0, 0.1, size=node.affine.beta.shape)


def _min_relu_input(g: NetworkGraph, x: np.ndarray) -> float:
    """Smallest |ReLU input| over the graph: each affine_relu's affine of
    its normalised inputs."""
    affines = [node for node in g.nodes.values() if node.op == "affine_relu"]
    outputs = g.forward(x, mode="train",
                        keep=[norm for node in affines for norm in node.inputs]).outputs
    margin = np.inf
    for node in affines:
        z = layers.affine_forward([outputs[n] for n in node.inputs], node.affine, "train")
        margin = min(margin, float(np.abs(z).min()))
    return margin


def _kink_free(draw: Callable[[np.random.Generator, int], tuple[NetworkGraph, np.ndarray]],
               seed: int) -> tuple[NetworkGraph, np.ndarray, np.random.Generator]:
    """The first instance ``draw(rng, attempt)`` whose ReLU inputs all clear
    KINK_MARGIN, with the generator it was drawn from."""
    for attempt in range(MAX_REDRAWS):
        rng = np.random.default_rng((seed, attempt))
        g, x = draw(rng, attempt)
        if _min_relu_input(g, x) >= KINK_MARGIN:
            return g, x, rng
    raise RuntimeError(f"no kink-free instance found for seed {seed}")


def _graph_error(g: NetworkGraph, x: np.ndarray,
                 objective: Callable[[np.ndarray], tuple[float, np.ndarray]]) -> float:
    """Worst relative error over every parameter and the input, for the scalar
    ``objective(graph output) -> (value, gradient)``."""
    def loss() -> float:
        r = g.forward(x, mode="train")
        return objective(r.outputs[g.output_name])[0]

    result = g.forward(x, mode="train", keep_caches=True)
    _, dout = objective(result.outputs[g.output_name])
    analytic, input_grad = g.backward(result, {g.output_name: dout})
    params = g.parameters()
    return _worst_error(loss, [analytic[name] for name in params] + [input_grad],
                        list(params.values()) + [x])


def check_unit(spec: UnitSpec, seed: int = 0) -> float:
    def draw(rng, attempt):
        g, _ = build_standalone_unit(spec, dtype=np.float64)
        _init_graph_params(g, rng)
        return g, rng.normal(size=(2, spec.in_channels, 8, 8))

    g, x, rng = _kink_free(draw, seed)
    first = g.forward(x, mode="train")
    proj = _projection(first.outputs[g.output_name], rng)
    return _graph_error(g, x, lambda y: (float(np.sum(y * proj)), proj))


def miniature_config(num_classes: int = 4) -> NetworkConfig:
    stages = [
        StageConfig([UnitSpec("basic", 4, (4, 4), 1, 4)]),
        StageConfig([UnitSpec("inception", 4, (4, 3, 3, 4), 2, 4)]),
        StageConfig([UnitSpec("bottleneck", 4, (2, 2, 6), 2, 6)]),
    ]
    return NetworkConfig(name="miniature", input_shape=(3, 8, 8), conv1=(3, 4),
                         stages=stages, num_classes=num_classes)


def check_miniature_network(seed: int = 0) -> float:
    def draw(rng, attempt):
        g = build_network(miniature_config(), seed=seed + 7919 * attempt,
                          dtype=np.float64)
        return g, rng.normal(size=(2, 3, 8, 8))

    g, x, rng = _kink_free(draw, seed)
    labels = rng.integers(0, 4, size=2)
    return _graph_error(g, x, lambda y: layers.softmax_cross_entropy(y, labels))


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------

def run_suite(seed: int = 0) -> list[CheckResult]:
    """All layer, unit, and miniature-network checks for one seed, at step
    DEFAULT_STEP and tolerance DEFAULT_TOLERANCE."""
    results = [CheckResult(name, check_layer(name, seed)) for name in LAYER_CASES]
    results += [CheckResult(name, check_unit(spec, seed)) for name, spec in UNIT_SPECS.items()]
    results.append(CheckResult("miniature-network", check_miniature_network(seed)))
    return results

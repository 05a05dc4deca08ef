import numpy as np
import pytest

from oracles import bn_relu_reference, naive_conv2d, naive_conv2d_backward
from wrinet import gradcheck, layers
from wrinet.builder import build_network
from wrinet.gradcheck import miniature_config
from wrinet.graph import OPS, Node
from wrinet.layers import (BatchNormParams, ConvParams, FCParams,
                           batch_norm_backward, batch_norm_forward,
                           conv2d_backward, conv2d_forward,
                           fully_connected_backward, fully_connected_forward,
                           global_avg_pool_backward, global_avg_pool_forward,
                           make_batch_norm, make_conv, make_fc, msr_initialize,
                           relu_backward, relu_forward, softmax,
                           softmax_cross_entropy)
from wrinet.tensor import ShapeError

TOL = gradcheck.DEFAULT_TOLERANCE


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_conv_all_ones_overlap_counts():
    x = np.ones((1, 1, 3, 3))
    p = ConvParams(weights=np.ones((1, 1, 3, 3)), stride=1, padding=1)
    y, _ = conv2d_forward(x, p)
    assert np.array_equal(y[0, 0], [[4, 6, 4], [6, 9, 6], [4, 6, 4]])


def test_conv_identity_1x1_stride2_samples_grid():
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    p = ConvParams(weights=np.ones((1, 1, 1, 1)), stride=2, padding=0)
    y, _ = conv2d_forward(x, p)
    assert np.array_equal(y[0, 0], [[0, 2], [8, 10]])


def test_conv_identity_1x1_kernel_is_identity_map():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 5, 5))
    w = np.zeros((3, 3, 1, 1))
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    y, _ = conv2d_forward(x, ConvParams(weights=w, stride=1, padding=0))
    assert np.allclose(y, x)


CONV_CASES = [  # (shape, cout, k, stride, pad, bias), one patch-matrix tile
    ((2, 3, 8, 8), 4, 3, 1, 1, True),
    ((1, 2, 7, 7), 3, 3, 2, 1, False),
    ((2, 4, 5, 5), 2, 1, 1, 0, True),
    ((1, 3, 6, 6), 5, 3, 2, 0, False),
    ((2, 2, 9, 9), 3, 1, 2, 0, True),
    ((2, 3, 7, 10), 4, 3, 1, 1, False),  # non-square, as detect's 128x416 maps
    ((2, 4, 9, 6), 5, 1, 2, 0, False),  # 1x1 stride-2 shortcut
]

# explicit-id cases for the stride-phase maths of conv2d_backward, each run in
# float64 and float32
PHASE_CONV_CASES = {
    "k3-s3-p1-nonsquare": ((2, 3, 7, 11), 4, 3, 3, 1, False),
    "k3-s4-p2-tapless-phase": ((2, 2, 9, 10), 3, 3, 4, 2, True),  # phase 3 has no taps
    "k5-s2-p2-uneven-taps": ((2, 3, 8, 9), 4, 5, 2, 2, False),  # phases of 3 and 2 taps
    "k2-s2-p1-even-kernel": ((2, 3, 6, 7), 2, 2, 2, 1, True),
    "k3-s2-p1-ragged": ((2, 3, 8, 10), 3, 3, 2, 1, False),  # (H+2p-k) mod s = 1 both ways
}

# (case, tile, dtype): the tile budget is set to hold ``count`` samples or
# output rows, so that the tiles below leave a remainder
TILED_CONV_CASES = [
    (((5, 3, 7, 10), 4, 3, 1, 1, True), ("samples", 2), np.float64),  # blocks 2, 2, 1
    (((5, 3, 7, 10), 4, 3, 1, 1, False), ("rows", 3), np.float32),  # bands 3, 3, 1
    (((3, 2, 9, 6), 3, 3, 2, 2, True), ("rows", 4), np.float64),  # bands 4, 2
    (((4, 2, 8, 7), 3, 3, 2, 0, False), ("samples", 3), np.float32),  # blocks 3, 1
    (((2, 3, 11, 5), 2, 3, 1, 0, False), ("rows", 4), np.float64),  # bands 4, 4, 1
    (((2, 2, 6, 9), 3, 5, 1, 2, True), ("rows", 1), np.float32),  # one row per band
    # tiles of the backward's patch matrix of dy, over the phase grid
    (((5, 3, 7, 10), 4, 3, 1, 1, True), ("dy samples", 2), np.float64),  # blocks 2, 2, 1
    (((2, 3, 11, 6), 4, 3, 1, 1, False), ("dy rows", 4), np.float32),  # bands 4, 4, 3
    (((5, 2, 9, 7), 3, 3, 2, 1, False), ("dy samples", 2), np.float32),  # blocks 2, 2, 1
    (((2, 2, 11, 8), 3, 3, 2, 1, True), ("dy rows", 4), np.float64),  # grid 6: bands 4, 2
    (((2, 2, 9, 9), 3, 5, 2, 2, False), ("dy rows", 2), np.float64),  # grid 5: bands 2, 2, 1
]


def _tiled_matrix(shape, cout, k, stride, pad, of):
    """(rows, H, W) of the patch matrix a conv tiles: the forward's of ``x``
    (``of == "x"``), C_in*k*k rows over the output; or the backward's of
    ``dy`` (``of == "dy"``), C_out*u*u rows with u = ceil(k/stride) over the
    phase grid, the grid rows q of the padded input rows s*q..s*q+s-1 that
    hold input rows."""
    if of == "x":
        return (shape[1] * k * k,
                *(layers.conv_output_size(size, k, stride, pad) for size in shape[2:]))
    u = -(-k // stride)
    return (cout * u * u,
            *((pad + size - 1) // stride - pad // stride + 1 for size in shape[2:]))


def _set_tile(monkeypatch, shape, cout, k, stride, pad, tile, dtype):
    """Set ``layers.CONV_TILE_BYTES`` to hold ``tile = (unit, count)``
    samples or rows of the case's patch matrix of ``x``, or, for units
    ``"dy samples"`` and ``"dy rows"``, of ``dy``; check that the tiling is
    so, and return the ``(rows, H, W, samples, rows per tile)`` that the
    conv passes to ``_patch_tiles``."""
    unit, count = tile
    of = "dy" if unit.startswith("dy") else "x"
    rows_k, h_out, w_out = _tiled_matrix(shape, cout, k, stride, pad, of)
    row_bytes = rows_k * w_out * np.dtype(dtype).itemsize
    monkeypatch.setattr(layers, "CONV_TILE_BYTES",
                        count * row_bytes * (h_out if unit.endswith("samples") else 1))
    tiling = layers._tile_shape(shape[0], rows_k, h_out, w_out, np.dtype(dtype).itemsize)
    assert tiling == ((count, h_out) if unit.endswith("samples") else (1, count))
    return (rows_k, h_out, w_out, *tiling)


def _record_patch_tiles(monkeypatch):
    """Wrap ``layers._patch_tiles`` and return the list it fills, one
    ``(input, (rows, H, W, samples, rows per tile))`` per call."""
    calls, real = [], layers._patch_tiles

    def recording(x, k, stride, lead, h_out, w_out, samples, rows):
        calls.append((x, (x.shape[1] * k * k, h_out, w_out, samples, rows)))
        return real(x, k, stride, lead, h_out, w_out, samples, rows)

    monkeypatch.setattr(layers, "_patch_tiles", recording)
    return calls


@pytest.mark.parametrize("shape,cout,k,stride,pad,bias,tile,dtype", [
    pytest.param(*case, None, np.float64,
                 id=f"shape{i}-" + "-".join(map(str, case[1:])))
    for i, case in enumerate(CONV_CASES)
] + [
    pytest.param(*case, None, dtype, id=f"{name}-" + np.dtype(dtype).name)
    for name, case in PHASE_CONV_CASES.items() for dtype in (np.float64, np.float32)
] + [
    pytest.param(*case, tile, dtype, id="x".join(map(str, case[0])) +
                 f"-k{case[2]}-s{case[3]}-p{case[4]}-{tile[1]} {tile[0]} per tile-"
                 + np.dtype(dtype).name)
    for case, tile, dtype in TILED_CONV_CASES
])
def test_conv_matches_naive_seven_loop_kernel(shape, cout, k, stride, pad, bias, tile,
                                              dtype, monkeypatch):
    """Forward and backward against the 7-loop kernels, in float64 within
    1e-12 (forward) and 1e-10 (backward), in float32 within 1e-5 of the
    float64 oracle on the same inputs; ``dx`` is exactly 0 wherever the
    oracle's is (input pixels no window reads, and phases without taps). A
    tiled case checks that its tiles are the ones the conv builds."""
    calls = _record_patch_tiles(monkeypatch)
    if tile is not None:
        tiling = _set_tile(monkeypatch, shape, cout, k, stride, pad, tile, dtype)
    tol = 1e-10 if dtype == np.float64 else 1e-5
    fwd_tol = 1e-12 if dtype == np.float64 else 1e-5
    rng = np.random.default_rng(hash((shape, cout, k, stride, pad)) % 2**32)
    x = rng.normal(size=shape).astype(dtype)
    p = make_conv(shape[1], cout, k, stride=stride, padding=pad, bias=bias, dtype=dtype)
    msr_initialize(p, rng)
    if bias:
        p.bias[...] = rng.normal(size=cout)
    y, cache = conv2d_forward(x, p)
    assert y.dtype == dtype
    w64 = p.weights.astype(np.float64)
    b64 = None if p.bias is None else p.bias.astype(np.float64)
    expected = naive_conv2d(x.astype(np.float64), w64, b64, stride, pad)
    assert np.allclose(y, expected, rtol=fwd_tol, atol=fwd_tol)

    dy = rng.normal(size=y.shape).astype(dtype)
    dx, dw, db = conv2d_backward(dy, cache)
    dx_ref, dw_ref = naive_conv2d_backward(x.astype(np.float64), w64,
                                           dy.astype(np.float64), stride, pad)
    assert dx.dtype == dtype and dw.dtype == dtype
    assert _scaled_error(dx, dx_ref) <= tol
    assert _scaled_error(dw, dw_ref) <= tol
    assert not dx[dx_ref == 0].any()
    if bias:
        assert _scaled_error(db, dy.astype(np.float64).sum(axis=(0, 2, 3))) <= tol
    else:
        assert db is None
    if tile is not None:
        tiled = dy if tile[0].startswith("dy") else x
        assert tiling in [args for a, args in calls if a is tiled]


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_backward_tiles_only_dy(stride, monkeypatch):
    """One conv backward builds one patch matrix, of ``dy``: ``_patch_tiles``
    runs once, on ``dy``, and never on ``x``."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 8, 8))
    p = make_conv(3, 4, 3, stride=stride, dtype=np.float64)
    msr_initialize(p, rng)
    y, cache = conv2d_forward(x, p)
    calls = _record_patch_tiles(monkeypatch)
    dy = rng.normal(size=y.shape)
    conv2d_backward(dy, cache)
    assert [a is dy for a, _ in calls] == [True]


def test_conv_rejects_bad_inputs():
    p = make_conv(3, 4, 3)
    with pytest.raises(ShapeError):
        conv2d_forward(np.zeros((1, 2, 8, 8)), p)  # channel mismatch
    with pytest.raises(ShapeError):
        conv2d_forward(np.zeros((1, 3, 8, 8)),
                       ConvParams(weights=np.zeros((4, 3, 3, 3)), stride=0, padding=1))
    with pytest.raises(ShapeError):
        conv2d_forward(np.zeros((1, 3, 2, 2)),
                       ConvParams(weights=np.zeros((4, 3, 3, 3)), stride=1, padding=0))
    with pytest.raises(ShapeError, match="square"):
        conv2d_forward(np.zeros((1, 3, 8, 8)),
                       ConvParams(weights=np.zeros((4, 3, 3, 1)), stride=1, padding=0))
    with pytest.raises(ShapeError, match="less than kernel"):
        conv2d_forward(np.zeros((1, 3, 8, 8)),
                       ConvParams(weights=np.zeros((4, 3, 3, 3)), stride=1, padding=3))


def test_conv_gradients_match_finite_differences():
    assert gradcheck.check_layer("conv2d", seed=0) < TOL


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

def test_batch_norm_two_point_channel():
    x = np.array([1.0, 3.0]).reshape(2, 1, 1, 1)
    p = make_batch_norm(1, dtype=np.float64)
    y, _ = batch_norm_forward(x, p, mode="train")
    assert np.allclose(y.ravel(), [-1.0, 1.0], atol=1e-4)


def test_batch_norm_constant_input_returns_beta():
    p = make_batch_norm(2, dtype=np.float64)
    p.gamma[...] = [3.0, 0.5]
    p.beta[...] = [0.25, -1.5]
    x = np.ones((2, 2, 3, 3)) * np.array([5.0, -2.0])[None, :, None, None]
    y, _ = batch_norm_forward(x, p, mode="train")
    for c, b in enumerate(p.beta):
        assert np.allclose(y[:, c], b, atol=1e-3)


def test_batch_norm_train_statistics_are_normalized():
    rng = np.random.default_rng(5)
    x = rng.normal(3.0, 2.5, size=(4, 3, 8, 8))
    p = make_batch_norm(3, dtype=np.float64)
    y, _ = batch_norm_forward(x, p, mode="train")
    mean = y.mean(axis=(0, 2, 3))
    var = y.var(axis=(0, 2, 3))
    assert np.all(np.abs(mean) < 1e-5)
    assert np.all(var >= 0.99) and np.all(var <= 1.0)


def test_batch_norm_running_stats_ema_and_infer():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 2, 4, 4))
    p = make_batch_norm(2, dtype=np.float64)
    batch_norm_forward(x, p, mode="train")
    expected_mean = 0.9 * 0.0 + 0.1 * x.mean(axis=(0, 2, 3))
    expected_var = 0.9 * 1.0 + 0.1 * x.var(axis=(0, 2, 3))
    assert np.allclose(p.running_mean, expected_mean)
    assert np.allclose(p.running_var, expected_var)
    y_infer, _ = batch_norm_forward(x, p, mode="infer")
    manual = (x - p.running_mean[None, :, None, None]) / np.sqrt(
        p.running_var[None, :, None, None] + layers.BN_EPSILON)
    assert np.allclose(y_infer, manual)


def test_batch_norm_rejects_single_element_batch():
    p = make_batch_norm(1)
    with pytest.raises(ShapeError):
        batch_norm_forward(np.zeros((1, 1, 1, 1)), p, mode="train")


def test_batch_norm_gradients_match_finite_differences():
    assert gradcheck.check_layer("batch_norm", seed=0) < TOL


# ---------------------------------------------------------------------------
# bn_relu pre-activation against the textbook kernels
# ---------------------------------------------------------------------------

PRE_ACTIVATION_SHAPES = [(4, 64, 32, 32), (4, 128, 16, 16), (4, 320, 16, 16),
                         (4, 256, 8, 8), (3, 5, 7, 3)]


def _scaled_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest absolute difference over max(1, largest |want|): relative for
    arrays of magnitude above 1, absolute for unit-scale ones."""
    return float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max()))


def _bn_relu_op(x, p, mode):
    """Forward and backward of the graph's ``bn_relu`` op; returns (y, the
    backward as a function of dy)."""
    node = Node("bn", "bn_relu", ["input"], bn=p, channels=p.gamma.shape[0])
    y, cache = OPS["bn_relu"].forward(node, [x], mode)
    return y, lambda dy: OPS["bn_relu"].backward(node, dy, cache)


@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
@pytest.mark.parametrize("shape", PRE_ACTIVATION_SHAPES, ids=str)
def test_bn_relu_matches_textbook_kernels(shape, dtype, tol, mode):
    rng = np.random.default_rng(list(shape))
    c = shape[1]
    x = (rng.normal(size=shape) * 1.5 + 0.3).astype(dtype)
    dy = rng.normal(size=shape).astype(dtype)
    p = make_batch_norm(c, dtype=dtype)
    p.gamma[...] = rng.normal(1.0, 0.2, size=c)
    p.beta[...] = rng.normal(0.0, 0.2, size=c)
    p.running_mean[...] = rng.normal(0.3, 0.1, size=c)
    p.running_var[...] = rng.uniform(1.5, 3.0, size=c)
    y_ref, mean_ref, var_ref, backward_ref = bn_relu_reference(
        x, p.gamma, p.beta, p.running_mean, p.running_var, mode)
    x_before, dy_before = x.copy(), dy.copy()
    y, backward = _bn_relu_op(x, p, mode)
    got = (y, p.running_mean, p.running_var, *backward(dy))
    want = (y_ref, mean_ref, var_ref, *backward_ref(dy))
    for name, a, b in zip(("y", "running_mean", "running_var", "dx", "dgamma", "dbeta"),
                          got, want):
        assert a.dtype == dtype, name
        assert _scaled_error(a, b) <= tol, name
    assert np.array_equal(x, x_before) and np.array_equal(dy, dy_before)


@pytest.mark.parametrize("mean,bound", [(0.0, 2e-6), (100.0, 6e-5), (1000.0, 6e-4)])
def test_bn_relu_float32_error_against_float64(mean, bound):
    """Centring once in float32 keeps the output's error at a large input
    mean (65,536 values per channel) near that of the textbook kernels:
    8e-7, 2.8e-5 and 2.3e-4 at means 0, 100 and 1000."""
    rng = np.random.default_rng(0)
    x = (rng.normal(size=(64, 64, 32, 32)) + mean).astype(np.float32)
    p = make_batch_norm(64)
    exact, *_ = bn_relu_reference(x.astype(np.float64), np.ones(64), np.zeros(64),
                                  np.zeros(64), np.ones(64))
    y, _ = _bn_relu_op(x, p, "train")
    assert float(np.abs(y - exact).max()) <= bound


# ---------------------------------------------------------------------------
# relu / pooling / dense
# ---------------------------------------------------------------------------

def test_relu_basics():
    """The forward clamps its argument in place and returns it twice: as
    the output and as the backward cache."""
    x = np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3)
    y, cache = relu_forward(x)
    assert y is x and cache is x
    assert np.array_equal(x.ravel(), [0.0, 0.0, 2.0])
    dy = np.array([5.0, 6.0, 7.0]).reshape(x.shape)
    assert np.array_equal(relu_backward(dy, cache).ravel(), [0.0, 0.0, 7.0])
    positive = np.abs(np.random.default_rng(0).normal(size=(1, 2, 3, 3))) + 0.1
    assert np.array_equal(relu_forward(positive.copy())[0], positive)


def test_relu_forward_maps_nan_to_zero():
    x = np.array([np.nan, -np.inf, np.inf, -2.0, 3.0]).reshape(1, 1, 1, 5)
    y, _ = relu_forward(x)
    assert np.array_equal(y.ravel(), [0.0, 0.0, np.inf, 0.0, 3.0])


def test_relu_backward_propagates_non_finite_gradients():
    """A NaN or Inf gradient is not masked where the output is 0: it turns
    into NaN, so a non-finite gradient stays visible downstream."""
    y = np.array([0.0, 0.0, 1.0, 2.0]).reshape(1, 1, 1, 4)
    dy = np.array([np.nan, np.inf, 3.0, np.nan]).reshape(y.shape)
    with np.errstate(invalid="ignore"):
        dx = relu_backward(dy, y).ravel()
    assert np.isnan(dx[0]) and np.isnan(dx[1]) and np.isnan(dx[3])
    assert dx[2] == 3.0


def test_relu_gradients_match_finite_differences():
    assert gradcheck.check_layer("relu", seed=0) < TOL


def test_global_avg_pool_values():
    x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
    y, _ = global_avg_pool_forward(x)
    assert y.reshape(()) == pytest.approx(2.5)
    const = np.full((2, 3, 4, 4), 7.25)
    assert np.allclose(global_avg_pool_forward(const)[0], 7.25)


def test_global_avg_pool_gradient_is_uniform():
    x = np.random.default_rng(1).normal(size=(1, 2, 4, 4))
    y, cache = global_avg_pool_forward(x)
    dx = global_avg_pool_backward(np.ones_like(y), cache)
    assert np.allclose(dx, 1.0 / 16.0)
    assert gradcheck.check_layer("global_avg_pool", seed=0) < TOL


def test_fully_connected_identity_and_constant():
    x = np.random.default_rng(2).normal(size=(3, 4))
    p = FCParams(weights=np.eye(4), bias=np.zeros(4))
    y, _ = fully_connected_forward(x, p)
    assert np.allclose(y, x)
    v = np.array([1.0, -2.0, 0.5])
    p0 = FCParams(weights=np.zeros((3, 4)), bias=v)
    y0, _ = fully_connected_forward(x, p0)
    assert np.allclose(y0, np.tile(v, (3, 1)))


def test_fully_connected_rejects_dim_mismatch():
    with pytest.raises(ShapeError):
        fully_connected_forward(np.zeros((2, 5)), make_fc(4, 3))


def test_fully_connected_gradients_match_finite_differences():
    assert gradcheck.check_layer("fully_connected", seed=0) < TOL


# ---------------------------------------------------------------------------
# kernels only read their array arguments
# ---------------------------------------------------------------------------

def _cached_arrays(cache):
    for item in cache:
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, tuple):
            yield from _cached_arrays(item)


# (kernel, stride, padding, tile) of each conv case; tiles as in _set_tile
READ_ONLY_CONVS = {
    "conv 3x3 s2 p1": (3, 2, 1, None),
    "conv pointwise": (1, 1, 0, None),
    "conv 3x3 s1 p2 row bands": (3, 1, 2, ("rows", 4)),
    "conv 3x3 s2 p0 sample blocks": (3, 2, 0, ("samples", 2)),
    "conv 3x3 s2 p1 dy row bands": (3, 2, 1, ("dy rows", 3)),  # grid 4: bands 3, 1
}


def _read_only_kernel(name, rng, monkeypatch):
    """(input, forward as a function of the input, backward) for one kernel
    pair; ``relu_forward`` is not among them, as it clamps in place."""
    x = rng.normal(size=(3, 4, 7, 9))
    if name.startswith("conv"):
        k, stride, pad, tile = READ_ONLY_CONVS[name]
        if tile is not None:
            _set_tile(monkeypatch, x.shape, 6, k, stride, pad, tile, x.dtype)
        p = make_conv(4, 6, k, stride=stride, padding=pad, bias=True, dtype=np.float64)
        msr_initialize(p, rng)
        return x, lambda x: conv2d_forward(x, p), conv2d_backward
    if name.startswith("batch_norm"):
        p = make_batch_norm(4, dtype=np.float64)
        mode = name.split()[1]
        return x, lambda x: batch_norm_forward(x, p, mode=mode), batch_norm_backward
    if name == "global_avg_pool":
        return x, global_avg_pool_forward, global_avg_pool_backward
    p = make_fc(4 * 7 * 9, 5, dtype=np.float64)
    msr_initialize(p, rng)
    return x.reshape(3, -1), lambda x: fully_connected_forward(x, p), fully_connected_backward


@pytest.mark.parametrize("name", [*READ_ONLY_CONVS, "batch_norm train", "batch_norm infer",
                                  "global_avg_pool", "fully_connected"])
def test_kernels_only_read_their_arrays(name, monkeypatch):
    """``x``, ``dy`` and every array a cache holds are bitwise unchanged by
    the forward and the backward, and conv's ``y`` and ``dx`` are
    C-contiguous NCHW."""
    rng = np.random.default_rng(0)
    x, forward, backward = _read_only_kernel(name, rng, monkeypatch)
    x_bytes = x.tobytes()
    y, cache = forward(x)
    assert x.tobytes() == x_bytes
    cached = list(_cached_arrays(cache))
    cached_bytes = [a.tobytes() for a in cached]
    dy = rng.normal(size=y.shape)
    dy_bytes = dy.tobytes()
    dx = backward(dy, cache)
    assert x.tobytes() == x_bytes and dy.tobytes() == dy_bytes
    assert [a.tobytes() for a in cached] == cached_bytes
    if name.startswith("conv"):
        dx = dx[0]
        assert y.ndim == 4 and y.shape[:2] == (3, 6) and y.flags.c_contiguous
        assert dx.shape == x.shape and dx.flags.c_contiguous


def test_train_mode_conv_caches_hold_only_their_input():
    """No conv keeps a patch matrix for backward: the arrays in each conv
    node's train-mode cache add up to its input's bytes."""
    g = build_network(miniature_config(), seed=0)
    x = np.random.default_rng(0).normal(size=(2, 3, 8, 8)).astype(np.float32)
    result = g.forward(x, mode="train", keep_caches=True, keep=g.order)
    convs = [node for node in g.nodes.values() if node.op == "conv"]
    assert any(not layers._is_pointwise(node.conv) for node in convs)
    for node in convs:
        cached = sum(a.nbytes for a in _cached_arrays(result.caches[node.name]))
        assert cached == result.outputs[node.inputs[0]].nbytes, node.name


# ---------------------------------------------------------------------------
# softmax cross-entropy
# ---------------------------------------------------------------------------

def test_softmax_ce_uniform_logits():
    loss, _ = softmax_cross_entropy(np.zeros((4, 10)), np.array([0, 3, 5, 9]))
    assert loss == pytest.approx(np.log(10.0), abs=1e-12)


def test_softmax_ce_saturated_correct_prediction():
    logits = np.zeros((2, 5))
    logits[0, 2] = 1000.0
    logits[1, 4] = 1000.0
    loss, _ = softmax_cross_entropy(logits, np.array([2, 4]))
    assert loss < 1e-6


def test_softmax_ce_two_class_gradient():
    logits = np.zeros((2, 2))
    labels = np.array([0, 0])
    _, grad = softmax_cross_entropy(logits, labels)
    assert np.allclose(grad, [[-0.25, 0.25], [-0.25, 0.25]])


def test_softmax_probabilities_sum_to_one():
    rng = np.random.default_rng(7)
    logits = rng.normal(scale=5.0, size=(8, 12))
    probs = softmax(logits)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_ce_rejects_bad_labels():
    with pytest.raises(ValueError, match="label"):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValueError, match="label"):
        softmax_cross_entropy(np.zeros((1, 3)), np.array([-1]))


def test_softmax_ce_gradients_match_finite_differences():
    assert gradcheck.check_layer("softmax_cross_entropy", seed=0) < TOL


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_msr_conv_std_matches_fan_in():
    p = make_conv(128, 96, 3, dtype=np.float64)  # fan_in 1152, >1e5 draws
    msr_initialize(p, seed=0)
    target = np.sqrt(2.0 / 1152.0)
    assert p.weights.size >= 1e5
    assert abs(p.weights.std() - target) / target < 0.02
    assert abs(p.weights.mean()) < 0.01 * target * 10


def test_msr_fc_std_matches_fan_in():
    p = make_fc(512, 256, dtype=np.float64)
    msr_initialize(p, seed=1)
    target = np.sqrt(2.0 / 512.0)
    assert abs(p.weights.std() - target) / target < 0.02
    assert np.all(p.bias == 0.0)


def test_msr_deterministic_and_zero_bias():
    a = msr_initialize(make_conv(4, 8, 3, bias=True), seed=42)
    b = msr_initialize(make_conv(4, 8, 3, bias=True), seed=42)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert np.all(a.bias == 0.0)
    bn = msr_initialize(make_batch_norm(6), seed=0)
    assert np.all(bn.gamma == 1.0) and np.all(bn.beta == 0.0)

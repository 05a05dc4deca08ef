import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracles import bn_relu_reference, naive_conv2d, naive_conv2d_backward
from wrinet import gradcheck, layers
from wrinet.builder import build_network, execute
from wrinet.gradcheck import miniature_config
from wrinet.graph import OPS, Node
from wrinet.layers import (BatchNormParams, ConvParams, FCParams,
                           affine_backward, affine_forward,
                           batch_norm_backward, batch_norm_forward,
                           conv2d_backward, conv2d_forward,
                           fully_connected_backward, fully_connected_forward,
                           global_avg_pool_backward, global_avg_pool_forward,
                           make_affine, make_batch_norm, make_conv, make_fc,
                           msr_initialize,
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
    # stride 2, padding 0: input row 7 is read by no window, so no band copies it
    (((2, 2, 8, 7), 3, 3, 2, 0, False), ("rows", 1), np.float64),  # bands 1, 1, 1
    (((2, 3, 9, 8), 3, 5, 2, 2, True), ("rows", 2), np.float32),  # 5x5 s2: bands 2, 2, 1
    # tiles of the backward's patch matrix of dy, over the phase grid
    (((5, 3, 7, 10), 4, 3, 1, 1, True), ("dy samples", 2), np.float64),  # blocks 2, 2, 1
    (((2, 3, 11, 6), 4, 3, 1, 1, False), ("dy rows", 4), np.float32),  # bands 4, 4, 3
    (((5, 2, 9, 7), 3, 3, 2, 1, False), ("dy samples", 2), np.float32),  # blocks 2, 2, 1
    (((2, 2, 11, 8), 3, 3, 2, 1, True), ("dy rows", 4), np.float64),  # grid 6: bands 4, 2
    (((2, 2, 9, 9), 3, 5, 2, 2, False), ("dy rows", 2), np.float64),  # grid 5: bands 2, 2, 1
    # stride above the kernel: grid row 1 holds input rows no window reads, so
    # its band's window is only the bottom zero border of dy
    (((2, 2, 4, 5), 3, 2, 3, 0, False), ("dy rows", 1), np.float64),  # grid 2: bands 1, 1
    # a 1x1 6->2 conv: the copy of x by phase, not dy, sizes the tiles
    (((5, 6, 5, 7), 2, 1, 1, 0, True), ("dy samples", 2), np.float64),  # blocks 2, 2, 1
]


def _tiled_matrix(shape, cout, k, stride, pad, of):
    """(rows, sizing rows, H, W) of the patch matrix a conv tiles: the
    forward's of ``x`` (``of == "x"``), C_in*k*k rows over the output, its
    tiles sized by those rows; or the backward's of ``dy`` (``of == "dy"``),
    C_out*u*u rows with u = ceil(k/stride) over the phase grid, the grid
    rows q of the padded input rows s*q..s*q+s-1 that hold input rows, its
    tiles sized by the larger of those rows and the p*p*C_in rows of each
    tile's copy of ``x`` by phase, p = min(stride, k)."""
    if of == "x":
        rows = shape[1] * k * k
        return (rows, rows,
                *(layers.conv_output_size(size, k, stride, pad) for size in shape[2:]))
    u, phases = -(-k // stride), min(stride, k)
    return (cout * u * u, max(cout * u * u, phases * phases * shape[1]),
            *((pad + size - 1) // stride - pad // stride + 1 for size in shape[2:]))


def _set_tile(monkeypatch, shape, cout, k, stride, pad, tile, dtype):
    """Set ``layers.CONV_TILE_BYTES`` to hold ``tile = (unit, count)``
    samples or rows of the case's patch matrix of ``x``, or, for units
    ``"dy samples"`` and ``"dy rows"``, of ``dy``, each counted in the rows
    that size its tiles (see ``_tiled_matrix``); check that the tiling is
    so, and return the ``(rows, H, W, samples, rows per tile)`` that the
    conv passes to ``_patch_tiles``."""
    unit, count = tile
    of = "dy" if unit.startswith("dy") else "x"
    rows_k, sizing, h_out, w_out = _tiled_matrix(shape, cout, k, stride, pad, of)
    row_bytes = sizing * w_out * np.dtype(dtype).itemsize
    monkeypatch.setattr(layers, "CONV_TILE_BYTES",
                        count * row_bytes * (h_out if unit.endswith("samples") else 1))
    tiling = layers._tile_shape(shape[0], sizing, h_out, w_out, np.dtype(dtype).itemsize)
    assert tiling == ((count, h_out) if unit.endswith("samples") else (1, count))
    return (rows_k, h_out, w_out, *tiling)


def _record_patch_tiles(monkeypatch):
    """Wrap ``layers._patch_tiles`` and ``layers._take`` and return the list
    they fill, one ``(input, (rows, H, W, samples, rows per tile), direct)``
    per call, where ``direct`` holds, for each tile yielded so far, whether
    ``_take`` copied an array input straight into the tile rather than
    into a band of the padded input."""
    calls, real, take, outs = [], layers._patch_tiles, layers._take, []

    def recording_take(x, out, *args):
        outs.append(out)
        take(x, out, *args)

    def recording(x, k, stride, lead, h_out, w_out, samples, rows):
        direct = []
        calls.append((x, (x.shape[1] * k * k, h_out, w_out, samples, rows), direct))
        for tile in real(x, k, stride, lead, h_out, w_out, samples, rows):
            direct.append(any(np.shares_memory(out, tile[-1]) for out in outs))
            outs.clear()
            yield tile

    monkeypatch.setattr(layers, "_take", recording_take)
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
    tiled case checks that its tiles are the ones the conv builds. Every
    tile is copied straight from its input where the window is one tap and
    reads no zero border: the forward's of a 1x1 conv, and the backward's
    where the kernel is at most the stride and ``dy`` covers the phase grid
    (the 1x1 cases, and ``k3-s3-p1-nonsquare``, ``k3-s4-p2-tapless-phase``
    and ``k2-s2-p1-even-kernel``); every other tile, as in the
    stride-above-the-kernel case, from a band."""
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
        assert tiling in [args for a, args, _ in calls if a is tiled]
    grid = _tiled_matrix(shape, cout, k, stride, pad, "dy")[2:]
    dy_direct = k <= stride and all(g <= d for g, d in zip(grid, dy.shape[2:]))
    assert [(a is x, set(direct)) for a, _, direct in calls] == [(True, {k == 1}),
                                                                (False, {dy_direct})]


@pytest.mark.parametrize("k, stride, tile", [(3, 1, None), (3, 1, 1 << 12), (3, 2, 1 << 12),
                                             (5, 1, 1 << 12), (1, 1, None), (1, 2, 1 << 9)])
@pytest.mark.parametrize("mode", ["train", "infer"])
def test_conv_applies_a_preactivation_and_adds_into_add_to(k, stride, tile, mode,
                                                          monkeypatch):
    """A conv handed a ``PreActivation`` of two parts gives, byte for byte,
    the conv of ``relu(affine_forward(parts))``, and one handed ``add_to``
    gives ``add_to + y`` in ``add_to``'s own memory, by whole samples and
    (at a small tile budget) by bands of rows that share input rows; the
    parts are only read."""
    if tile is not None:
        monkeypatch.setattr(layers, "CONV_TILE_BYTES", tile)
    rng = np.random.default_rng(k * 10 + stride)
    parts = [rng.normal(size=(2, c, 9, 11)).astype(np.float32) for c in (3, 2)]
    before = [part.tobytes() for part in parts]
    stats = (make_batch_norm(3), make_batch_norm(2))
    for bn in stats:
        bn.running_mean[...] = rng.normal(size=bn.running_mean.shape)
        bn.running_var[...] = rng.uniform(0.5, 2.0, size=bn.running_var.shape)
    affine = make_affine(stats)
    affine.gamma[...] = rng.normal(size=5)
    affine.beta[...] = rng.normal(size=5)
    p = make_conv(5, 4, k, stride=stride, bias=True)
    msr_initialize(p, rng)
    p.bias[...] = rng.normal(size=4)
    z = relu_forward(affine_forward(parts, affine, mode))[0]
    pre = layers.PreActivation(parts, affine, mode)
    assert pre.shape == z.shape and pre.dtype == z.dtype
    y, _ = conv2d_forward(z, p)
    assert conv2d_forward(pre, p)[0].tobytes() == y.tobytes()
    into = rng.normal(size=y.shape).astype(np.float32)
    expected = (into + y).tobytes()
    for x in (z, pre):
        acc = into.copy()
        out, _ = conv2d_forward(x, p, add_to=acc)
        assert out.tobytes() == expected and np.shares_memory(out, acc)
    assert [part.tobytes() for part in parts] == before


@pytest.mark.parametrize("k, stride", [(3, 1), (3, 2), (1, 1), (1, 2)],
                         ids=["1", "2", "1x1-1", "1x1-2"])  # the stride, and 1x1 kernels
def test_conv_backward_tiles_only_dy(k, stride, monkeypatch):
    """One conv backward builds one patch matrix, of ``dy``: ``_patch_tiles``
    runs once, on ``dy``, and never on ``x``."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 8, 8))
    p = make_conv(3, 4, k, stride=stride, dtype=np.float64)
    msr_initialize(p, rng)
    y, cache = conv2d_forward(x, p)
    calls = _record_patch_tiles(monkeypatch)
    dy = rng.normal(size=y.shape)
    conv2d_backward(dy, cache)
    assert [a is dy for a, *_ in calls] == [True]


# (k, stride, padding), each kernel at least its stride; stride 2 without
# padding leaves an input row that no window reads
RELU_INTO_X_CASES = [(1, 1, 0), (3, 1, 1), (3, 2, 1), (3, 2, 0)]


def _relu_conv_case(k, stride, pad, dtype, seed):
    """A ReLU output ``x`` (with exact zeros), a biased conv of it and
    ``(dy, cache, other readers' gradient)``."""
    rng = np.random.default_rng(seed)
    x = relu_forward(rng.normal(size=(3, 4, 9, 11)).astype(dtype))[0]
    p = make_conv(4, 5, k, stride=stride, padding=pad, bias=True, dtype=dtype)
    msr_initialize(p, rng)
    p.bias[...] = rng.normal(size=5)
    y, cache = conv2d_forward(x, p)
    return rng.normal(size=y.shape).astype(dtype), cache, rng.normal(size=x.shape).astype(dtype)


@pytest.mark.parametrize("k, stride, pad", RELU_INTO_X_CASES)
@pytest.mark.parametrize("tile", [None, 1 << 9])
@pytest.mark.parametrize("with_pending", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_conv_backward_writes_its_inputs_relu_gradient_into_it(k, stride, pad, tile,
                                                               with_pending, dtype,
                                                               monkeypatch):
    """With ``relu_into_x`` the backward returns ``x`` holding, byte for
    byte, ``relu_backward(pending + dx, x)`` of the plain backward's ``dx``
    (``relu_backward(dx, x)`` without ``pending``), by whole samples and by
    bands of rows; ``dw`` and ``db`` are the plain backward's and
    ``pending`` is only read."""
    calls = _record_patch_tiles(monkeypatch)
    if tile is not None:
        monkeypatch.setattr(layers, "CONV_TILE_BYTES", tile)
    dy, (x, p), other = _relu_conv_case(k, stride, pad, dtype, seed=k * 10 + stride + pad)
    pending = other if with_pending else None
    dx, dw, db = conv2d_backward(dy, (x, p))
    expected = relu_backward(dx if pending is None else pending + dx, x.copy()).tobytes()
    other_bytes = other.tobytes()
    got, dw_fused, db_fused = conv2d_backward(dy, (x, p), relu_into_x=True, pending=pending)
    assert got is x and x.tobytes() == expected
    assert dw_fused.tobytes() == dw.tobytes() and db_fused.tobytes() == db.tobytes()
    assert other.tobytes() == other_bytes
    _, grid_h, _, _, rows = calls[-1][1]
    assert (rows < grid_h) == (tile is not None)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_conv_backward_relu_into_x_propagates_non_finite_gradients():
    """As ``relu_backward`` documents, a NaN gradient where ``x <= 0`` gives
    NaN, not 0: from ``pending`` at one pixel, and from ``dy`` over the
    input window of one output pixel."""
    dy, (x, p), pending = _relu_conv_case(3, 1, 1, np.float64, seed=0)
    zero = tuple(np.argwhere(x[:, :, 2:-2, 2:-2] == 0)[0] + (0, 0, 2, 2))
    pending[zero] = np.nan
    dy[zero[0], 0, zero[2], zero[3]] = np.nan
    dx = conv2d_backward(dy, (x, p))[0]
    expected = relu_backward(pending + dx, x.copy())
    got = conv2d_backward(dy, (x, p), relu_into_x=True, pending=pending)[0]
    assert np.array_equal(got, expected, equal_nan=True)
    window = got[zero[0], :, zero[2] - 1:zero[2] + 2, zero[3] - 1:zero[3] + 2]
    assert np.isnan(got[zero]) and np.isnan(window).all()


def _traced_peak(fn, *args):
    """``fn(*args)`` and the bytes of its traced peak above what was
    allocated when it was called."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stride", [1, 2])
def test_row_band_conv_copies_less_than_one_padded_sample(stride, monkeypatch):
    """A conv that tiles one sample by bands of output rows copies into its
    padded buffer only the rows each band reads. So at N=1 the forward's
    traced peak, less ``y``, stays below one zero-padded sample of ``x``,
    and the backward's, less ``dx`` and the weight-sized arrays of ``dw``,
    below one zero-padded sample of ``dy``, the array it tiles."""
    rng = np.random.default_rng(0)
    c, size, k, pad = 8, 64, 3, 1
    x = rng.normal(size=(1, c, size, size))
    p = make_conv(c, c, k, stride=stride, padding=pad, dtype=np.float64)
    msr_initialize(p, rng)
    monkeypatch.setattr(layers, "CONV_TILE_BYTES", 1 << 14)
    h_out = layers.conv_output_size(size, k, stride, pad)
    assert layers._tile_shape(1, c * k * k, h_out, h_out, 8)[1] < h_out
    padded_x = x[0].nbytes * (stride * (h_out - 1) + k) ** 2 // size ** 2
    (y, cache), peak = _traced_peak(conv2d_forward, x, p)
    assert peak - y.nbytes < padded_x, (peak - y.nbytes, padded_x)

    dy = rng.normal(size=y.shape)
    u = -(-k // stride)
    grid = (pad + size - 1) // stride - pad // stride + 1
    assert layers._tile_shape(1, c * u * u, grid, grid, 8)[1] < grid
    padded_dy = dy[0].nbytes * (grid + u - 1) ** 2 // h_out ** 2
    # w_pad, its phase matrix, dw by phase, dw_pad and dw
    dw_bytes = 5 * p.weights.nbytes * (stride * u) ** 2 // k ** 2
    (dx, dw, _), peak = _traced_peak(conv2d_backward, dy, cache)
    assert peak - dx.nbytes - dw_bytes < padded_dy, (peak - dx.nbytes - dw_bytes, padded_dy)


def test_conv_rejects_bad_inputs():
    """The conv's own invariants are checked once, when its parameters are
    built; the graph checks the shapes of what flows into it."""
    with pytest.raises(ShapeError, match="stride must be positive"):
        ConvParams(weights=np.zeros((4, 3, 3, 3)), stride=0, padding=1)
    with pytest.raises(ShapeError, match="square"):
        ConvParams(weights=np.zeros((4, 3, 3, 1)), stride=1, padding=0)
    with pytest.raises(ShapeError, match="less than kernel"):
        ConvParams(weights=np.zeros((4, 3, 3, 3)), stride=1, padding=3)
    with pytest.raises(ShapeError, match="nonnegative"):
        ConvParams(weights=np.zeros((4, 3, 3, 3)), stride=1, padding=-1)


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
    a = make_affine((p,), dtype=np.float64)
    a.gamma[...] = [3.0, 0.5]
    a.beta[...] = [0.25, -1.5]
    x = np.ones((2, 2, 3, 3)) * np.array([5.0, -2.0])[None, :, None, None]
    xhat, _ = batch_norm_forward(x, p, mode="train")
    y = affine_forward([xhat], a, "train")
    for c, b in enumerate(a.beta):
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
    # infer mode passes x through; the affine applies the folded statistics
    passed, _ = batch_norm_forward(x, p, mode="infer")
    assert passed is x
    y_infer = affine_forward([passed], make_affine((p,), dtype=np.float64), "infer")
    manual = (x - p.running_mean[None, :, None, None]) / np.sqrt(
        p.running_var[None, :, None, None] + layers.BN_EPSILON)
    assert np.allclose(y_infer, manual)


def test_batch_norm_gradients_match_finite_differences():
    assert gradcheck.check_layer("batch_norm", seed=0) < TOL


# ---------------------------------------------------------------------------
# the bn_relu pre-activation (norm, then affine_relu) against the textbook kernels
# ---------------------------------------------------------------------------

PRE_ACTIVATION_SHAPES = [(4, 64, 32, 32), (4, 128, 16, 16), (4, 320, 16, 16),
                         (4, 256, 8, 8), (3, 5, 7, 3)]


def _scaled_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest absolute difference over max(1, largest |want|): relative for
    arrays of magnitude above 1, absolute for unit-scale ones."""
    return float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max()))


def _bn_relu_op(x, p, a, mode):
    """Forward and backward of a pre-activation as the graph runs it, the
    ``norm`` op with running statistics ``p`` and then the ``affine_relu``
    op with ``a``; returns (y, the backward as a function of dy, giving
    (dx, dgamma, dbeta)). The affine's backward consumes the map it is
    handed, so it gets one made from the cached ``PreActivation``, as
    ``graph.backward`` gives it, and ``y`` keeps its values."""
    norm = Node("bn/norm", "norm", ["input"], bn=p, channels=a.gamma.size)
    node = Node("bn", "affine_relu", [norm.name], affine=a, channels=a.gamma.size)
    xhat, norm_cache = OPS["norm"].forward(norm, [x], mode)
    op = OPS["affine_relu"]
    pre, cache = op.forward(node, [xhat], mode)
    y = pre.array()

    def backward(dy):
        dxhat, dgamma, dbeta = op.backward(node, dy, (cache[0].array(), *cache[1:]))
        return (*OPS["norm"].backward(norm, dxhat, norm_cache), dgamma, dbeta)

    return y, backward


@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
@pytest.mark.parametrize("shape", PRE_ACTIVATION_SHAPES, ids=str)
def test_bn_relu_matches_textbook_kernels(shape, dtype, tol, mode):
    rng = np.random.default_rng(list(shape))
    c = shape[1]
    x = (rng.normal(size=shape) * 1.5 + 0.3).astype(dtype)
    dy = rng.normal(size=shape).astype(dtype)
    p = make_batch_norm(c, dtype=dtype)
    a = make_affine((p,), dtype=dtype)
    a.gamma[...] = rng.normal(1.0, 0.2, size=c)
    a.beta[...] = rng.normal(0.0, 0.2, size=c)
    p.running_mean[...] = rng.normal(0.3, 0.1, size=c)
    p.running_var[...] = rng.uniform(1.5, 3.0, size=c)
    y_ref, mean_ref, var_ref, backward_ref = bn_relu_reference(
        x, a.gamma, a.beta, p.running_mean, p.running_var, mode)
    x_before, dy_before = x.copy(), dy.copy()
    y, backward = _bn_relu_op(x, p, a, mode)
    got = (y, p.running_mean, p.running_var, *backward(dy))
    want = (y_ref, mean_ref, var_ref, *backward_ref(dy))
    for name, a, b in zip(("y", "running_mean", "running_var", "dx", "dgamma", "dbeta"),
                          got, want):
        assert a.dtype == dtype, name
        assert _scaled_error(a, b) <= tol, name
    assert np.array_equal(x, x_before) and np.array_equal(dy, dy_before)


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_affine_of_parts_is_the_affine_of_their_concat(mode):
    """An affine over several parts gives what it gives over their concat:
    the same output bit for bit, and the concat's gradients split by part.
    The parts are only read; ``dz`` is consumed, its channels holding the
    parts' gradients."""
    rng = np.random.default_rng(4)
    parts = [rng.normal(size=(3, c, 5, 4)) for c in (4, 2, 3)]
    stats = tuple(make_batch_norm(c, dtype=np.float64) for c in (4, 2, 3))
    for p in stats:
        p.running_mean[...] = rng.normal(0.3, 0.1, size=p.running_mean.size)
        p.running_var[...] = rng.uniform(1.5, 3.0, size=p.running_var.size)
    a = make_affine(stats, dtype=np.float64)
    a.gamma[...] = rng.normal(1.0, 0.2, size=9)
    a.beta[...] = rng.normal(0.0, 0.2, size=9)
    joined = make_batch_norm(9, dtype=np.float64)
    joined.running_mean[...] = np.concatenate([p.running_mean for p in stats])
    joined.running_var[...] = np.concatenate([p.running_var for p in stats])
    b = make_affine((joined,), dtype=np.float64)
    b.gamma[...], b.beta[...] = a.gamma, a.beta
    concat = np.concatenate(parts, axis=1)
    before = [part.tobytes() for part in parts]
    y = affine_forward(parts, a, mode)
    assert y.tobytes() == affine_forward([concat], b, mode).tobytes()
    dz = rng.normal(size=y.shape)
    consumed = dz.copy()
    dparts, dgamma, dbeta = affine_backward(consumed, parts, a, mode)
    (want_dx,), want_dgamma, want_dbeta = affine_backward(dz.copy(), [concat], b, mode)
    assert all(np.shares_memory(d, consumed) for d in dparts)
    assert np.array_equal(np.concatenate(dparts, axis=1), want_dx)
    assert np.allclose(dgamma, want_dgamma, rtol=1e-13, atol=0)
    assert np.array_equal(dbeta, want_dbeta)
    assert [part.tobytes() for part in parts] == before


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
    y, _ = _bn_relu_op(x, p, make_affine((p,)), "train")
    assert float(np.abs(y - exact).max()) <= bound


# ---------------------------------------------------------------------------
# relu / pooling / dense
# ---------------------------------------------------------------------------

def test_relu_basics():
    """The forward clamps its argument in place and returns it twice: as
    the output and as the backward cache. The backward consumes that cache,
    writing its result there, and leaves ``dy`` unchanged."""
    x = np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3)
    y, cache = relu_forward(x)
    assert y is x and cache is x
    assert np.array_equal(x.ravel(), [0.0, 0.0, 2.0])
    dy = np.array([5.0, 6.0, 7.0]).reshape(x.shape)
    dx = relu_backward(dy, cache)
    assert dx is cache
    assert np.array_equal(dx.ravel(), [0.0, 0.0, 7.0])
    assert np.array_equal(dy.ravel(), [5.0, 6.0, 7.0])
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
    "conv 3x3 s2 p0 row bands": (3, 2, 0, ("rows", 1)),  # bands 1, 1, 1
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
        return (x, lambda x: batch_norm_forward(x, p, mode=mode),
                lambda dy, cache: (batch_norm_backward(dy, cache),))
    if name == "global_avg_pool":
        return x, global_avg_pool_forward, global_avg_pool_backward
    p = make_fc(4 * 7 * 9, 5, dtype=np.float64)
    msr_initialize(p, rng)
    return x.reshape(3, -1), lambda x: fully_connected_forward(x, p), fully_connected_backward


@pytest.mark.parametrize("name", [*READ_ONLY_CONVS, "batch_norm train", "batch_norm infer",
                                  "global_avg_pool", "fully_connected"])
def test_kernels_only_read_their_arrays(name, monkeypatch):
    """``x``, ``dy`` and every array a cache holds are bitwise unchanged by
    the forward and the backward, except the one documented consumer: a
    train-mode batch norm's backward writes ``dx`` into its cached
    ``xhat``. Conv's ``y`` and ``dx`` are C-contiguous NCHW."""
    rng = np.random.default_rng(0)
    x, forward, backward = _read_only_kernel(name, rng, monkeypatch)
    x_bytes = x.tobytes()
    y, cache = forward(x)
    assert x.tobytes() == x_bytes
    consumed = cache[0] if name == "batch_norm train" else None
    cached = [a for a in _cached_arrays(cache) if a is not consumed]
    cached_bytes = [a.tobytes() for a in cached]
    dy = rng.normal(size=y.shape)
    dy_bytes = dy.tobytes()
    dx = backward(dy, cache)
    assert x.tobytes() == x_bytes and dy.tobytes() == dy_bytes
    assert [a.tobytes() for a in cached] == cached_bytes
    if consumed is not None:
        assert dx[0] is consumed
    if name.startswith("conv"):
        dx = dx[0]
        assert y.ndim == 4 and y.shape[:2] == (3, 6) and y.flags.c_contiguous
        assert dx.shape == x.shape and dx.flags.c_contiguous


def test_train_mode_conv_caches_hold_only_their_input():
    """No conv keeps a patch matrix for backward, nor a pre-activated input
    it applied: a conv that reads an ``affine_relu`` output that is not
    kept caches that output's ``PreActivation`` and no array, and every
    other conv caches exactly its input."""
    g = build_network(miniature_config(), seed=0)
    x = np.random.default_rng(0).normal(size=(2, 3, 8, 8)).astype(np.float32)
    result = g.forward(x, mode="train", keep_caches=True,
                       keep=[name for name in g.order if g.nodes[name].op != "affine_relu"])
    convs = [node for node in g.nodes.values() if node.op == "conv"]
    assert any(node.conv.kernel != (1, 1) for node in convs)
    applied = [node for node in convs if g.nodes[node.inputs[0]].op == "affine_relu"]
    assert 0 < len(applied) < len(convs)
    for node in convs:
        cache = result.caches[node.name]
        cached = list(_cached_arrays(cache))
        if node in applied:
            assert cached == [], node.name
            assert cache[0] is result.caches[node.inputs[0]][0], node.name
            assert isinstance(cache[0], layers.PreActivation), node.name
        else:
            assert [a.nbytes for a in cached] == [result.outputs[node.inputs[0]].nbytes]
            assert cached[0] is result.outputs[node.inputs[0]], node.name


def test_train_mode_caches_hold_one_full_size_array_per_bn_relu():
    """After a kept train forward the caches hold one full-size array per
    normalised tensor, not per pre-activation: each ``norm`` node's
    normalised output and per-channel ``inv_std``, which the
    pre-activations that read it share, and the inputs of each conv and fc
    that no ``affine_relu`` produced; no ``affine_relu`` output itself,
    only its ``PreActivation``, whose parts are the normalised outputs."""
    g = build_network(miniature_config(), seed=0)
    x = np.random.default_rng(0).normal(size=(2, 3, 8, 8)).astype(np.float32)
    result = g.forward(x, mode="train", keep_caches=True)
    cached = {id(a): a for a in _cached_arrays(tuple(result.caches.values()))}
    norms = [node for node in g.nodes.values() if node.op == "norm"]
    affines = [node for node in g.nodes.values() if node.op == "affine_relu"]
    assert len(g.nodes["stage2/unit0/shared/norm"].inputs) == 1
    assert sum("stage2/unit0/shared/norm" in node.inputs for node in affines) == 3
    xhats = {node.name: result.caches[node.name][0] for node in norms}
    inputs = {id(a): a for a in (result.caches[node.name][0] for node in g.nodes.values()
                                 if node.op in ("conv", "fc")) if isinstance(a, np.ndarray)}
    assert any(a is x for a in inputs.values())
    want = sum(xhats[node.name].nbytes + node.bn.running_mean.nbytes for node in norms)
    want += sum(a.nbytes for a in inputs.values())
    assert sum(a.nbytes for a in cached.values()) == want
    for node in affines:
        pre, *parts, _ = result.caches[node.name]
        assert isinstance(pre, layers.PreActivation), node.name
        assert all(a is b is xhats[norm] for a, b, norm in zip(pre.parts, parts, node.inputs))


def test_bn_relu_backward_allocates_less_than_its_output(monkeypatch):
    """In a kept float64 train step of the miniature net, each
    ``affine_relu`` backward writes its ReLU gradient and its inputs'
    gradient into the rebuilt output it is handed, and each ``norm``
    backward writes ``dx`` into its normalised output: no call allocates as
    many bytes as its output holds (a one-byte mask, per-channel sums and
    numpy's 8,192-element ufunc buffers remain, so the input is large
    enough that the smallest output, 2 channels at 16x16, holds 256 KiB)."""
    g = build_network(miniature_config(), seed=0, dtype=np.float64)
    rng = np.random.default_rng(0)
    x, labels = rng.normal(size=(64, 3, 64, 64)), rng.integers(0, 4, size=64)
    calls = []

    def measured(backward):
        def run(node, dy, cache):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            grads = backward(node, dy, cache)
            calls.append((node.name, tracemalloc.get_traced_memory()[1] - before,
                          cache[0].nbytes))
            return grads
        return run

    for kind in ("norm", "affine_relu"):
        monkeypatch.setitem(OPS, kind, dataclasses.replace(
            OPS[kind], backward=measured(OPS[kind].backward)))
    tracemalloc.start()
    try:
        execute(g, x, mode="train", labels=labels)
    finally:
        tracemalloc.stop()
    assert sorted(name for name, *_ in calls) == sorted(
        name for name, node in g.nodes.items() if node.op in ("norm", "affine_relu"))
    assert all(peak < nbytes for _, peak, nbytes in calls), calls


def test_relu_into_x_conv_backward_allocates_less_than_its_input(monkeypatch):
    """In a kept float64 train step of the miniature net, the first conv to
    read each ``affine_relu`` output (when its kernel is at least its
    stride) runs the last backward of that output's readers, and writes the
    output's ReLU gradient into the rebuilt output it is handed: it returns
    that array as ``dx`` and allocates fewer bytes than it holds, traced
    from the call's start to its end. The tile budget is cut to 16 KiB, so
    that the tiles' buffers, which do not scale with the input, are small
    beside the smallest input, 2 channels at 16x16 (256 KiB)."""
    g = build_network(miniature_config(), seed=0, dtype=np.float64)
    rng = np.random.default_rng(0)
    x, labels = rng.normal(size=(64, 3, 64, 64)), rng.integers(0, 4, size=64)
    monkeypatch.setattr(layers, "CONV_TILE_BYTES", 1 << 14)
    conv_of = {id(node.conv): name for name, node in g.nodes.items() if node.op == "conv"}
    calls, real = [], layers.conv2d_backward

    def measured(dy, cache, **kwargs):
        if not kwargs.get("relu_into_x"):
            return real(dy, cache, **kwargs)
        grads, peak = _traced_peak(lambda: real(dy, cache, **kwargs))
        assert grads[0] is cache[0]
        calls.append((conv_of[id(cache[1])], peak, cache[0].nbytes))
        return grads

    monkeypatch.setattr(layers, "conv2d_backward", measured)
    execute(g, x, mode="train", labels=labels)
    readers = {name: [r for r in g.order if name in g.nodes[r].inputs] for name in g.order}
    first = [readers[name][0] for name, node in g.nodes.items() if node.op == "affine_relu"]
    fused = [r for r in first if g.nodes[r].op == "conv"
             and g.nodes[r].conv.kernel[0] >= g.nodes[r].conv.stride]
    assert 0 < len(fused) < len(first)
    assert sorted(name for name, *_ in calls) == sorted(fused)
    assert all(peak < nbytes for _, peak, nbytes in calls), calls


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
    stats = make_batch_norm(6)
    stats.running_mean[...], stats.running_var[...] = 3.0, 4.0
    affine = make_affine((stats,))
    affine.gamma[...], affine.beta[...] = 2.0, 5.0
    assert msr_initialize(affine, seed=0) is affine and msr_initialize(stats, seed=0) is stats
    assert np.all(affine.gamma == 1.0) and np.all(affine.beta == 0.0)
    assert np.all(stats.running_mean == 0.0) and np.all(stats.running_var == 1.0)

import numpy as np
import pytest

from oracles import naive_conv2d
from wrinet import gradcheck, layers
from wrinet.layers import (BatchNormParams, ConvParams, FCParams,
                           batch_norm_forward, conv2d_forward,
                           fully_connected_forward, global_avg_pool_backward,
                           global_avg_pool_forward, make_batch_norm, make_conv,
                           make_fc, msr_initialize, relu_forward, softmax,
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


@pytest.mark.parametrize("shape,cout,k,stride,pad,bias", [
    ((2, 3, 8, 8), 4, 3, 1, 1, True),
    ((1, 2, 7, 7), 3, 3, 2, 1, False),
    ((2, 4, 5, 5), 2, 1, 1, 0, True),
    ((1, 3, 6, 6), 5, 3, 2, 0, False),
    ((2, 2, 9, 9), 3, 1, 2, 0, True),
])
def test_conv_matches_naive_seven_loop_kernel(shape, cout, k, stride, pad, bias):
    rng = np.random.default_rng(hash((shape, cout, k, stride, pad)) % 2**32)
    x = rng.normal(size=shape)
    p = make_conv(shape[1], cout, k, stride=stride, padding=pad, bias=bias,
                  dtype=np.float64)
    msr_initialize(p, rng)
    if bias:
        p.bias[...] = rng.normal(size=cout)
    y, _ = conv2d_forward(x, p)
    expected = naive_conv2d(x, p.weights, p.bias, stride, pad)
    assert np.allclose(y, expected, rtol=1e-12, atol=1e-12)


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
# relu / pooling / dense
# ---------------------------------------------------------------------------

def test_relu_basics():
    x = np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3)
    y, mask = relu_forward(x)
    assert np.array_equal(y.ravel(), [0.0, 0.0, 2.0])
    assert np.array_equal(mask.ravel(), [False, False, True])
    positive = np.abs(np.random.default_rng(0).normal(size=(1, 2, 3, 3))) + 0.1
    assert np.array_equal(relu_forward(positive)[0], positive)


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

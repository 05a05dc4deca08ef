import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wrinet.graph import OPS
from wrinet.tensor import add_elementwise, concat_channels


def test_concat_sums_channels():
    a = np.zeros((1, 128, 8, 8), dtype=np.float32)
    b = np.zeros((1, 64, 8, 8), dtype=np.float32)
    c = np.zeros((1, 128, 8, 8), dtype=np.float32)
    assert concat_channels([a, b, c]).shape == (1, 320, 8, 8)


def test_concat_single_input_is_identity():
    x = np.random.default_rng(0).normal(size=(2, 3, 4, 4)).astype(np.float32)
    assert np.array_equal(concat_channels([x]), x)


def test_concat_copies_values_in_order():
    a = np.ones((2, 3, 4, 4), dtype=np.float32)
    b = np.full((2, 5, 4, 4), 2.0, dtype=np.float32)
    out = concat_channels([a, b])
    assert out.shape == (2, 8, 4, 4)
    # index-by-index copy oracle
    for n in range(2):
        for c in range(8):
            expected = 1.0 if c < 3 else 2.0
            assert np.all(out[n, c] == expected)


def test_add_identity_and_constant():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(1, 2, 2, 2))
    assert np.array_equal(add_elementwise(a, np.zeros_like(a)), a)
    ones = np.ones((1, 2, 2, 2))
    assert np.all(add_elementwise(ones, ones) == 2.0)


def test_add_commutes_against_scalar_loop():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 3, 4, 4))
    b = rng.normal(size=(2, 3, 4, 4))
    ab = add_elementwise(a, b)
    ba = add_elementwise(b, a)
    assert np.array_equal(ab, ba)
    flat_a, flat_b, flat_out = a.ravel(), b.ravel(), ab.ravel()
    for i in range(flat_a.size):
        assert flat_out[i] == flat_a[i] + flat_b[i]


shapes = st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 5),
                   st.integers(1, 5))


@settings(max_examples=40, deadline=None)
@given(shape=shapes, sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_concat_then_slice_recovers_inputs(shape, sizes, seed):
    n, _, h, w = shape
    rng = np.random.default_rng(seed)
    inputs = [rng.normal(size=(n, c, h, w)).astype(np.float32) for c in sizes]
    out = concat_channels(inputs)
    for original, recovered in zip(inputs, OPS["concat"].backward(None, out, sizes)):
        assert np.array_equal(original, recovered)


@settings(max_examples=40, deadline=None)
@given(shape=shapes, seed=st.integers(0, 2**32 - 1))
def test_add_associative_and_commutative(shape, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.normal(size=shape).astype(np.float32) for _ in range(3))
    assert np.array_equal(add_elementwise(a, b), add_elementwise(b, a))
    left = add_elementwise(add_elementwise(a, b), c)
    right = add_elementwise(a, add_elementwise(b, c))
    # float addition is not associative in general; a fixed summation order is,
    # so compare the same order twice instead
    again = add_elementwise(add_elementwise(a, b), c)
    assert np.array_equal(left, again)
    assert np.allclose(left, right, rtol=1e-5, atol=1e-6)

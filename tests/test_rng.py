import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibimpute.rng import SplitMix64, derive, mix64


def test_mix64_known_values():
    # the first outputs of splitmix64 seeded with 0, as published with the
    # reference C implementation
    s = SplitMix64(0)
    assert [s.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_derive_is_order_sensitive():
    assert derive(1, 2, 3) != derive(1, 3, 2)
    assert derive(0, 1) != derive(1, 0)
    assert derive(5) != derive(6)


def test_derive_spreads_consecutive_tags():
    children = [derive(123, k) for k in range(100)]
    assert len(set(children)) == 100


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=500))
@settings(max_examples=30, deadline=None)
def test_bulk_uniforms_match_sequential(seed, n):
    a = SplitMix64(seed)
    seq = np.array([a.uniform() for _ in range(n)])
    b = SplitMix64(seed)
    bulk = b.uniforms(n)
    assert np.array_equal(seq, bulk)
    assert a._state == b._state


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65])
def test_bulk_u64s_match_sequential(n):
    a, b = SplitMix64(derive(17, n)), SplitMix64(derive(17, n))
    bulk = a.u64s(n)
    assert bulk.dtype == np.uint64
    assert bulk.tolist() == [b.next_u64() for _ in range(n)]
    assert a._state == b._state


def test_uniform_range():
    s = SplitMix64(derive(9, 9))
    u = s.uniforms(100000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_normals_moments():
    s = SplitMix64(derive(3, 1))
    z = s.normals(200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02


def test_normals_shape_and_determinism():
    a = SplitMix64(derive(4, 2)).normals((3, 5))
    b = SplitMix64(derive(4, 2)).normals((3, 5))
    assert a.shape == (3, 5)
    assert np.array_equal(a, b)


def test_normals_odd_count_consistent_prefix():
    a = SplitMix64(derive(8, 1)).normals(7)
    b = SplitMix64(derive(8, 1)).normals(8)
    assert np.array_equal(a, b[:7])


def test_below_bounds():
    s = SplitMix64(derive(2, 2))
    draws = [s.below(7) for _ in range(1000)]
    assert min(draws) >= 0
    assert max(draws) <= 6
    assert len(set(draws)) == 7


@given(st.integers(min_value=1, max_value=200))
@settings(max_examples=25, deadline=None)
def test_permutation_is_a_permutation(n):
    perm = SplitMix64(derive(11, n)).permutation(n)
    assert sorted(perm.tolist()) == list(range(n))


def _sequential_permutation(rng, n):
    """Fisher-Yates with one ``below`` draw per swap, the oracle for the
    bulk-drawn ``SplitMix64.permutation``."""
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.mark.parametrize("n", [0, 1, 2, 249])
def test_permutation_matches_sequential_oracle(n):
    a, b = SplitMix64(derive(23, n)), SplitMix64(derive(23, n))
    got, want = a.permutation(n), _sequential_permutation(b, n)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert a._state == b._state


def test_permutation_deterministic_and_seed_sensitive():
    a = SplitMix64(derive(1, 1)).permutation(50)
    b = SplitMix64(derive(1, 1)).permutation(50)
    c = SplitMix64(derive(1, 2)).permutation(50)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mix64_matches_vectorized():
    from ibimpute.rng import _mix64_array

    xs = np.arange(1000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    vec = _mix64_array(xs)
    ref = np.array([mix64(int(x)) for x in xs], dtype=np.uint64)
    assert np.array_equal(vec, ref)


def _reference_normals(rng, shape):
    """The out-of-place Box-Muller formula ``SplitMix64.normals`` computes in place."""
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    half = (n + 1) // 2
    u = rng.uniforms(2 * half)
    u1 = 1.0 - u[:half]
    u2 = u[half:]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * half, dtype=np.float64)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n].reshape(shape)


@pytest.mark.parametrize("shape", [(), 1, (7,), 8, (3, 5), (64, 21, 256)])
def test_normals_are_bits_of_the_reference_formula(shape):
    seed = derive(21, 4)
    a, b = SplitMix64(seed), SplitMix64(seed)
    for _ in range(2):  # the second draw starts from the advanced state
        got, want = a.normals(shape), _reference_normals(b, shape)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert a._state == b._state

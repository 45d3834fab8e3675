import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcslp.realify import (build_real_channel, build_real_distortion,
                           embed_vector, pair_rows)


def complex_vectors(min_size=1, max_size=6):
    scalars = st.complex_numbers(min_magnitude=0, max_magnitude=1e6,
                                 allow_nan=False, allow_infinity=False)
    return st.lists(scalars, min_size=min_size, max_size=max_size)


def test_pair_rows_examples():
    np.testing.assert_allclose(pair_rows([1 + 2j]), [[1, -2], [2, 1]])
    np.testing.assert_allclose(pair_rows([1, 1j]),
                               [[1, 0, 0, -1], [0, 1, 1, 0]])
    np.testing.assert_allclose(pair_rows([0]), np.zeros((2, 2)))
    np.testing.assert_allclose(pair_rows([[1j], [2]]), [[0, -1], [1, 0], [2, 0], [0, 2]])
    for bad in ([[1, 2], [1]], [np.nan], np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            pair_rows(bad)


def test_embed_examples():
    np.testing.assert_allclose(embed_vector([1 + 2j]), [1, 2])
    np.testing.assert_allclose(embed_vector([1j, 1]), [0, 1, 1, 0])
    np.testing.assert_allclose(embed_vector([0, 0]), np.zeros(4))


def test_embed_unembed_roundtrip():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    # the solver reads interleaved pairs as complex numbers in place
    np.testing.assert_array_equal(embed_vector(v).view(complex), v)


@given(complex_vectors())
@settings(deadline=None)
def test_norm_preservation(v):
    v = np.asarray(v)
    assert np.isclose(np.linalg.norm(embed_vector(v)), np.linalg.norm(v),
                      rtol=1e-12, atol=1e-9)


def test_build_real_channel_examples():
    np.testing.assert_allclose(build_real_channel([[1.0]]).matrix, np.eye(2))
    np.testing.assert_allclose(build_real_channel([[1j]]).matrix,
                               [[0, -1], [1, 0]])


def test_build_real_channel_rejects_ragged():
    with pytest.raises(ValueError):
        build_real_channel([[1.0, 2.0], [1.0]])


def test_channel_isomorphism_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n_r, n_t = rng.integers(1, 5), rng.integers(1, 5)
        h = rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t))
        x = rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)
        chan = build_real_channel(h)
        got = chan.matrix @ embed_vector(x)
        expected = embed_vector(h @ x)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        for i in range(n_r):
            np.testing.assert_allclose(chan.matrix[2 * i:2 * i + 2] @ embed_vector(x),
                                       [np.real(h[i] @ x), np.imag(h[i] @ x)],
                                       atol=1e-12)


def test_build_real_distortion_examples():
    np.testing.assert_allclose(build_real_distortion(np.eye(3)).matrix, np.eye(6))
    g = build_real_distortion(np.diag([1j, 1j]))
    np.testing.assert_allclose(g.matrix @ embed_vector([1, 1]), [0, 1, 0, 1])


def test_distortion_isomorphism_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = rng.integers(1, 6)
        gbar = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = build_real_distortion(gbar)
        np.testing.assert_allclose(g.matrix @ embed_vector(u),
                                   embed_vector(gbar @ u), atol=1e-10)


def test_distortion_invertibility_matches_complex():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(1, 5)
        gbar = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = build_real_distortion(gbar)
        # the real embedding squares the complex condition number's spread
        cond_c = np.linalg.cond(gbar)
        cond_r = np.linalg.cond(g.matrix)
        assert np.isclose(cond_r, cond_c, rtol=1e-6)
    singular = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    s = np.linalg.svd(build_real_distortion(singular).matrix, compute_uv=False)
    assert s[-1] < 1e-12


@given(complex_vectors(), complex_vectors())
@settings(deadline=None, max_examples=50)
def test_pair_rows_matches_complex_product(v, x):
    n = min(len(v), len(x))
    v, x = np.asarray(v[:n]), np.asarray(x[:n])
    got = pair_rows(v) @ embed_vector(x)
    z = np.dot(v, x)
    scale = max(1.0, abs(z))
    assert abs(got[0] - z.real) <= 1e-9 * scale
    assert abs(got[1] - z.imag) <= 1e-9 * scale

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcslp.constellation import (PskConstellation, UnsupportedConstellationError,
                                 build_ci_geometry, ci_margin, ci_normals,
                                 ml_detect, ml_detect_many)
from wcslp.realify import embed_vector

QPSK = PskConstellation(4)
COS675 = math.cos(math.radians(67.5))
SIN675 = math.sin(math.radians(67.5))


def test_default_offset_is_diagonal_qpsk():
    assert QPSK.phase_offset == pytest.approx(math.pi / 4)
    assert np.allclose(np.abs(QPSK.points), 1.0)
    assert np.mean(np.abs(QPSK.points) ** 2) == pytest.approx(1.0)


def test_equality_is_order_and_offset():
    assert PskConstellation(4) == PskConstellation(4)
    assert PskConstellation(4) == PskConstellation(4, math.pi / 4)
    assert PskConstellation(4, 0.0) != PskConstellation(4)
    assert PskConstellation(8) != PskConstellation(4)


def test_small_orders_rejected():
    with pytest.raises(UnsupportedConstellationError):
        PskConstellation(2)
    with pytest.raises(UnsupportedConstellationError):
        PskConstellation(3)


@pytest.mark.parametrize("offset", [math.nan, math.inf])
def test_non_finite_offset_rejected(offset):
    with pytest.raises(ValueError, match="phase offset"):
        PskConstellation(4, offset)


def test_qpsk_normals_are_permuted_identity():
    a = ci_normals(0, QPSK)
    np.testing.assert_allclose(a, [[0, 1], [1, 0]], atol=1e-12)
    assert np.linalg.det(a) != 0


def test_8psk_normals_at_zero_angle():
    const = PskConstellation(8, phase_offset=0.0)
    a = ci_normals(0, const)
    np.testing.assert_allclose(a, [[COS675, SIN675], [COS675, -SIN675]],
                               atol=1e-12)


@given(st.sampled_from([4, 8, 16]), st.floats(-math.pi, math.pi))
@settings(deadline=None)
def test_normals_rotate_with_the_constellation(order, alpha):
    base = PskConstellation(order, phase_offset=0.0)
    rotated = PskConstellation(order, phase_offset=alpha)
    rot = np.array([[math.cos(alpha), -math.sin(alpha)],
                    [math.sin(alpha), math.cos(alpha)]])
    for m in range(order):
        np.testing.assert_allclose(ci_normals(m, rotated),
                                   ci_normals(m, base) @ rot.T, atol=1e-9)


def test_normals_unit_rows_and_invertible():
    for order in (4, 8, 16, 32):
        const = PskConstellation(order)
        for m in range(order):
            a = ci_normals(m, const)
            np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0)
            assert abs(np.linalg.det(a)) > 1e-6


@pytest.mark.parametrize("order", [4, 8, 16, 32])
def test_normal_table_closed_forms(order):
    rng = np.random.default_rng(order)
    for offset in rng.uniform(-math.pi, math.pi, 5):
        const = PskConstellation(order, offset)
        for m in range(order):
            a = ci_normals(m, const)
            np.testing.assert_array_equal(const.normals[m], a)
            np.testing.assert_array_equal(const.normals_inv[m], np.linalg.inv(a))
            # svd's error is relative to ||A||: at M = 32 its sigma_min is
            # off the exact value of the rounded A by up to 8e-15 relative
            svals = np.linalg.svd(a, compute_uv=False)
            assert abs(const.sigma_max - svals[0]) <= 2e-15 * svals[0]
            assert abs(const.sigma_min - svals[1]) <= 2e-15 * svals[0]
        geom = build_ci_geometry(rng.integers(0, order, 5), rng.uniform(1, 10, 5),
                                 1.0, const)
        for m, blk, inv in zip(geom.symbols, geom.a_blocks, geom.a_inv_blocks):
            np.testing.assert_array_equal(blk, ci_normals(m, const))
            np.testing.assert_array_equal(inv, np.linalg.inv(blk))
        if order == 4:
            # orthonormal normals: the accelerated slack step has no momentum
            assert const.sigma_min == const.sigma_max == 1.0


def test_geometry_scaling_matrix():
    # D s scales each user's symbol by sigma_i sqrt(gamma_i)
    geom = build_ci_geometry([0], [4.0], [1.0], QPSK)
    np.testing.assert_allclose(geom.ds, 2 * QPSK.point(0))
    geom2 = build_ci_geometry([0, 1], [1.0, 9.0], [1.0, 1.0], QPSK)
    np.testing.assert_allclose(geom2.ds, np.concatenate([QPSK.point(0), 3 * QPSK.point(1)]))


def test_geometry_ds_bitwise_equals_the_embedded_points():
    # D s is read from the constellation's interleaved point table
    rng = np.random.default_rng(3)
    for order in (4, 8, 16):
        const = PskConstellation(order, rng.uniform(0.0, 2.0 * math.pi))
        np.testing.assert_array_equal(const.points_real.ravel(), embed_vector(const.points))
        for _ in range(20):
            symbols = rng.integers(0, order, 6)
            gammas, sigmas = rng.uniform(0.5, 40.0, 6), rng.uniform(0.1, 3.0, 6)
            geom = build_ci_geometry(symbols, gammas, sigmas, const)
            expected = (np.repeat(sigmas * np.sqrt(gammas), 2)
                        * embed_vector(const.points[symbols]))
            np.testing.assert_array_equal(geom.ds, expected)
        np.testing.assert_array_equal(build_ci_geometry(symbols, 2.5, 0.5, const).gammas,
                                      np.full(6, 2.5))


def test_geometry_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_ci_geometry([0, 7], [1.0, 1.0], [1.0, 1.0], QPSK)
    with pytest.raises(ValueError):
        build_ci_geometry([-1, 0], [1.0, 1.0], [1.0, 1.0], QPSK)
    for bad in (-1.0, 0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            build_ci_geometry([0, 1], [bad, 4.0], [1.0, 1.0], QPSK)
        with pytest.raises(ValueError):
            build_ci_geometry([0, 1], [4.0, 4.0], [1.0, bad], QPSK)
    with pytest.raises(ValueError, match="got shape"):      # symbols on three axes
        build_ci_geometry(np.zeros((2, 3, 2), dtype=int), 1.0, 1.0, QPSK)
    with pytest.raises(ValueError, match="got shape"):      # a stack of no slots
        build_ci_geometry(np.zeros((0, 2), dtype=int), 1.0, 1.0, QPSK)
    with pytest.raises(ValueError, match="integers"):
        build_ci_geometry([1.7, 0.2], 4.0, 1.0, QPSK)


def test_stacked_geometry_rows_equal_the_slots_alone():
    # row j of a stack is the geometry of slot j; indexing returns it, and
    # one slot's geometry has no slot axis to index
    rng = np.random.default_rng(5)
    const = PskConstellation(8, rng.uniform(0.0, 2.0 * math.pi))
    symbols = rng.integers(0, 8, (6, 4))
    gammas, sigmas = rng.uniform(0.5, 40.0, 4), rng.uniform(0.1, 3.0, 4)
    stack = build_ci_geometry(symbols, gammas, sigmas, const)
    assert stack.ds.shape == (6, 8) and stack.n_r == 4
    for j, row in enumerate(stack):
        alone = build_ci_geometry(symbols[j], gammas, sigmas, const)
        for geom in (row, stack[j]):
            for name in ("symbols", "gammas", "sigmas", "ds", "a_inv_blocks"):
                np.testing.assert_array_equal(getattr(geom, name), getattr(alone, name),
                                              err_msg=name)
    assert j == 5
    with pytest.raises(TypeError, match="no slot axis"):
        stack[0][0]


def test_geometry_permutation_equivariance():
    rng = np.random.default_rng(0)
    symbols = [1, 3, 0, 2]
    gammas = rng.uniform(1, 10, 4)
    sigmas = rng.uniform(0.5, 2, 4)
    geom = build_ci_geometry(symbols, gammas, sigmas, QPSK)
    perm = [2, 0, 3, 1]
    geom_p = build_ci_geometry([symbols[p] for p in perm], gammas[perm],
                               sigmas[perm], QPSK)
    for new_i, old_i in enumerate(perm):
        np.testing.assert_allclose(geom_p.a_blocks[new_i], geom.a_blocks[old_i])
        np.testing.assert_allclose(geom_p.ds[2 * new_i:2 * new_i + 2],
                                   geom.ds[2 * old_i:2 * old_i + 2])


def test_ml_detect_examples():
    assert ml_detect([0.9, 0.2], QPSK) == 0
    # exactly on the boundary between symbols 0 and 3: lowest index wins
    assert ml_detect([1.0, 0.0], QPSK) == 0
    assert ml_detect([0.0, 0.0], QPSK) == 0
    for m in range(4):
        point = 10 * np.array([QPSK.points[m].real, QPSK.points[m].imag])
        assert ml_detect(point, QPSK) == m


def test_ml_detect_many_matches_scalar():
    rng = np.random.default_rng(1)
    ys = rng.standard_normal((100, 2))
    many = ml_detect_many(ys, QPSK)
    assert all(many[i] == ml_detect(ys[i], QPSK) for i in range(100))


def test_ci_margin_examples():
    apex = 2 * QPSK.points_real[0]       # sigma sqrt(gamma) s_0 at gamma 4
    np.testing.assert_allclose(ci_margin(apex, apex, 0, QPSK), [0, 0], atol=1e-12)
    margin = ci_margin([2.5, 2.1], apex, 0, QPSK)
    np.testing.assert_allclose(sorted(margin),
                               sorted([2.5 - math.sqrt(2), 2.1 - math.sqrt(2)]))
    # deep in the opposite sector: some component negative
    wrong = ci_margin([-3.0, -2.0], apex, 0, QPSK)
    assert wrong.min() < 0
    # stacked points, one symbol each, as the sweep's tally takes them
    ys = np.array([[[2.5, 2.1], [-3.0, -2.0]]])
    apexes = np.array([[apex, 2 * QPSK.points_real[2]]])
    np.testing.assert_allclose(ci_margin(ys, apexes, np.array([[0, 2]]), QPSK),
                               [[margin, ci_margin(ys[0, 1], apexes[0, 1], 2, QPSK)]],
                               rtol=1e-15)


@given(st.sampled_from([4, 8]), st.integers(0, 7),
       st.floats(0.05, 5.0), st.floats(0.05, 5.0), st.floats(1.0, 20.0))
@settings(deadline=None, max_examples=200)
def test_ci_region_inside_ml_region(order, m, a1, a2, gamma):
    # any point with non-negative margins must detect as its symbol
    const = PskConstellation(order)
    m = m % order
    normals = ci_normals(m, const)
    apex = math.sqrt(gamma) * const.point(m)
    y = apex + np.linalg.solve(normals, [a1, a2])  # margins exactly (a1, a2)
    margins = ci_margin(y, apex, m, const)
    assert margins.min() >= -1e-9
    assert ml_detect(y, const) == m


def test_gray_labels():
    np.testing.assert_array_equal(QPSK.gray_labels, [0, 1, 3, 2])
    assert QPSK.bits_per_symbol == 2
    with pytest.raises(UnsupportedConstellationError):
        PskConstellation(6).gray_labels

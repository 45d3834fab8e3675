import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from wcslp.constellation import (PskConstellation, UnsupportedConstellationError,
                                 build_ci_geometry, ci_margin, ci_normals,
                                 ml_detect, ml_detect_many)

QPSK = PskConstellation(4)
COS675 = math.cos(math.radians(67.5))
SIN675 = math.sin(math.radians(67.5))


def test_default_offset_is_diagonal_qpsk():
    assert QPSK.phase_offset == pytest.approx(math.pi / 4)
    assert np.allclose(np.abs(QPSK.points), 1.0)
    assert np.mean(np.abs(QPSK.points) ** 2) == pytest.approx(1.0)


def test_small_orders_rejected():
    with pytest.raises(UnsupportedConstellationError):
        PskConstellation(2)
    with pytest.raises(UnsupportedConstellationError):
        PskConstellation(3)


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
        np.testing.assert_array_equal(geom.a, block_diag(*geom.a_blocks))
        np.testing.assert_array_equal(geom.a_inv, block_diag(*geom.a_inv_blocks))
        assert not (geom.a.flags.writeable or geom.a_inv.flags.writeable)
        if order == 4:
            # orthonormal normals: the accelerated slack step has no momentum
            assert const.sigma_min == const.sigma_max == 1.0


def test_geometry_scaling_matrix():
    # D s scales each user's symbol by sigma_i sqrt(gamma_i)
    geom = build_ci_geometry([0], [4.0], [1.0], QPSK)
    np.testing.assert_allclose(geom.ds, 2 * QPSK.point(0))
    geom2 = build_ci_geometry([0, 1], [1.0, 9.0], [1.0, 1.0], QPSK)
    np.testing.assert_allclose(geom2.ds, np.concatenate([QPSK.point(0), 3 * QPSK.point(1)]))


def test_geometry_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_ci_geometry([0, 7], [1.0, 1.0], [1.0, 1.0], QPSK)
    with pytest.raises(ValueError):
        build_ci_geometry([0], [-1.0], [1.0], QPSK)


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
    apex = ci_margin(2 * np.array([QPSK.points[0].real, QPSK.points[0].imag]),
                     0, 4.0, 1.0, QPSK)
    np.testing.assert_allclose(apex, [0, 0], atol=1e-12)
    margin = ci_margin([2.5, 2.1], 0, 4.0, 1.0, QPSK)
    np.testing.assert_allclose(sorted(margin),
                               sorted([2.5 - math.sqrt(2), 2.1 - math.sqrt(2)]))
    # deep in the opposite sector: some component negative
    wrong = ci_margin([-3.0, -2.0], 0, 4.0, 1.0, QPSK)
    assert wrong.min() < 0


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
    margins = ci_margin(y, m, gamma, 1.0, const)
    assert margins.min() >= -1e-9
    assert ml_detect(y, const) == m


def test_gray_labels():
    np.testing.assert_array_equal(QPSK.gray_labels, [0, 1, 3, 2])
    assert QPSK.bits_per_symbol == 2
    with pytest.raises(UnsupportedConstellationError):
        PskConstellation(6).gray_labels

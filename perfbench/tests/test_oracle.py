"""Checks of the benchmark's oracle on small random instances.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from oracle import MinMaxOracle, ci_target, realify  # noqa: E402

CASES = [(seed, n, beta) for seed in range(4) for n in (2, 3, 4)
         for beta in (1.0, 100.0, 1e4)]


def _instance(seed: int, n: int, beta: float, eps: float = 0.56):
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    gbar = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    order = (4, 8)[seed % 2]
    ds, a_inv = ci_target(rng.integers(0, order, n), order, 10.0 ** rng.uniform(0.0, 1.6))
    return rng, MinMaxOracle(realify(h), realify(gbar), beta, eps), ds, a_inv


def _embed(z):
    out = np.empty(2 * z.size)
    out[0::2], out[1::2] = z.real, z.imag
    return out


def test_realify_acts_like_the_complex_matrix():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.allclose(realify(m) @ _embed(x), _embed(m @ x))


@pytest.mark.parametrize("order", (4, 8))
def test_ci_regions_detect_as_their_symbol(order):
    rng = np.random.default_rng(order)
    symbols = np.arange(order)
    ds, a_inv = ci_target(symbols, order, 10.0)
    points = np.exp(1j * (np.pi / order + 2 * np.pi * np.arange(order) / order))
    for _ in range(200):
        y = ds + a_inv @ rng.exponential(size=2 * order)
        z = y[0::2] + 1j * y[1::2]
        detected = np.argmin(np.abs(z[:, None] - points[None, :]), axis=1)
        assert np.array_equal(detected, symbols)


@pytest.mark.parametrize("seed,n,beta", CASES)
def test_sphere_samples_never_beat_the_worst_case(seed, n, beta):
    rng, orc, ds, a_inv = _instance(seed, n, beta)
    u = rng.standard_normal(2 * n)
    t = np.abs(rng.standard_normal(2 * n))
    value, w = orc.worst_case(u, t, ds, a_inv)
    assert np.linalg.norm(w) == pytest.approx(orc.eps, rel=1e-9)
    assert orc.objective(u, t, w, ds, a_inv) == pytest.approx(value, rel=1e-12)
    dirs = rng.standard_normal((2000, 2 * n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = orc.eps * np.where(np.arange(2000) < 1500, 1.0, rng.uniform(size=2000))
    sampled = max(orc.objective(u, t, r * d, ds, a_inv) for r, d in zip(radii, dirs))
    assert sampled <= value * (1.0 + 1e-12)


@pytest.mark.parametrize("seed,n,beta", CASES)
def test_perturbed_optimum_never_goes_below_f_star(seed, n, beta):
    rng, orc, ds, a_inv = _instance(seed, n, beta)
    f_star, u_star, t_star = orc.optimum(ds, a_inv)
    at_star, _ = orc.worst_case(u_star, t_star, ds, a_inv)
    assert at_star == pytest.approx(f_star, rel=1e-9)
    for scale in (1e-6, 1e-3, 1e-1, 1.0):
        for _ in range(25):
            u = u_star + scale * rng.standard_normal(u_star.size)
            t = np.maximum(t_star + scale * rng.standard_normal(t_star.size), 0.0)
            value, _ = orc.worst_case(u, t, ds, a_inv)
            assert value >= f_star * (1.0 - 1e-9)


def test_zero_radius_is_the_plain_objective():
    rng, orc, ds, a_inv = _instance(0, 3, 100.0, eps=0.0)
    u, t = rng.standard_normal(6), np.abs(rng.standard_normal(6))
    value, w = orc.worst_case(u, t, ds, a_inv)
    assert not np.any(w)
    assert value == orc.objective(u, t, np.zeros(6), ds, a_inv)

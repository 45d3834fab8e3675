import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace

import numpy as np
import pytest

import wcslp.realify as realify_module
import wcslp.simulator as simulator_module
from wcslp.constellation import PskConstellation, build_ci_geometry
from wcslp.realify import RealDistortionMatrix, build_real_channel
from wcslp.simulator import (DISTORTION_PRESETS, DistortionSpec, SweepConfig,
                             calibrate_epsilon, energy_efficiency,
                             estimate_ber, estimate_mi, run_sweep,
                             sample_channel, sample_distortion,
                             transmit_receive)
from wcslp.solver import SolverConfig

QPSK = PskConstellation(4)


def test_sample_channel_statistics():
    rng = np.random.default_rng(0)
    h = np.stack([sample_channel(4, 2, rng).h for _ in range(5000)])
    # E||h_i||^2 = n_t per user; mean ~ 0; both within 3 sigma
    norms = np.sum(np.abs(h) ** 2, axis=2)
    assert abs(norms.mean() - 4.0) < 3 * norms.std() / math.sqrt(norms.size)
    assert abs(h.real.mean()) < 3 * 0.5 / math.sqrt(h.size)


def test_sample_channel_deterministic():
    a = sample_channel(4, 3, np.random.default_rng(42)).h
    b = sample_channel(4, 3, np.random.default_rng(42)).h
    np.testing.assert_array_equal(a, b)


def test_calibrate_epsilon_reference_value():
    # chi-square(16) 0.99-quantile is 32.0 to three digits, giving eps ~ 0.566
    eps = calibrate_epsilon(0.99, 0.02, 8)
    assert eps == pytest.approx(0.5657, abs=1e-3)
    assert eps == pytest.approx(math.sqrt(0.01 * 31.999926908815176), rel=1e-12)
    assert calibrate_epsilon(0.99, 0.0, 8) == 0.0


def test_calibrate_epsilon_monotone():
    base = calibrate_epsilon(0.99, 0.02, 8)
    assert calibrate_epsilon(0.995, 0.02, 8) > base
    assert calibrate_epsilon(0.99, 0.03, 8) > base
    with pytest.raises(ValueError):
        calibrate_epsilon(1.5, 0.02, 8)


def test_sample_distortion_statistics():
    rng = np.random.default_rng(1)
    draws = np.stack([sample_distortion(0.02, 8, rng) for _ in range(20000)])
    norms_sq = np.sum(draws ** 2, axis=1)
    assert norms_sq.mean() == pytest.approx(8 * 0.02, rel=0.05)
    assert np.all(sample_distortion(0.0, 8, rng) == 0.0)


def test_distortion_exceeds_radius_at_stated_rate():
    rng = np.random.default_rng(2)
    eps = calibrate_epsilon(0.99, 0.02, 8)
    draws = math.sqrt(0.01) * rng.standard_normal((100_000, 16))
    frac = np.mean(np.linalg.norm(draws, axis=1) > eps)
    assert frac == pytest.approx(0.01, abs=0.003)


def test_transmit_receive_noiseless():
    chan = build_real_channel([[1.0 + 0j, 1j]])
    g = RealDistortionMatrix(np.eye(4), 2)
    u = np.array([1.0, 0.0, 0.0, 0.0])
    r = transmit_receive(u, np.zeros(4), chan, g, 0.0, np.random.default_rng(0))
    np.testing.assert_allclose(r, (chan.matrix @ u).reshape(1, 2))


def test_transmit_receive_noise_variance():
    chan = build_real_channel([[1.0 + 0j]])
    g = RealDistortionMatrix(np.eye(2), 1)
    rng = np.random.default_rng(3)
    rs = np.stack([transmit_receive(np.zeros(2), np.zeros(2), chan, g, 2.0, rng)
                   for _ in range(20000)])
    # per real component variance sigma^2 / 2 = 2.0
    assert rs.var() == pytest.approx(2.0, rel=0.05)


def test_transmit_receive_linear_in_u():
    chan = build_real_channel([[0.3 - 0.7j, 1.1 + 0j]])
    g = RealDistortionMatrix(np.eye(4), 2)
    rng = np.random.default_rng(4)
    u1, u2 = rng.standard_normal(4), rng.standard_normal(4)
    r1 = transmit_receive(u1, np.zeros(4), chan, g, 0.0, rng)
    r2 = transmit_receive(u2, np.zeros(4), chan, g, 0.0, rng)
    r12 = transmit_receive(u1 + u2, np.zeros(4), chan, g, 0.0, rng)
    np.testing.assert_allclose(r12, r1 + r2, atol=1e-12)


def test_estimate_ber_cases():
    sent = np.arange(4).repeat(10)
    assert estimate_ber(sent, sent, QPSK) == 0.0
    assert estimate_ber((sent + 2) % 4, sent, QPSK) == 1.0
    rng = np.random.default_rng(5)
    sent = rng.integers(0, 4, 200_000)
    detected = rng.integers(0, 4, 200_000)
    assert estimate_ber(detected, sent, QPSK) == pytest.approx(0.5, abs=0.01)


def test_estimate_mi_noiseless_qpsk():
    points = np.array([[p.real, p.imag] for p in QPSK.points])
    sent = np.tile(np.arange(4), 64)
    received = points[sent]
    assert estimate_mi(received, sent, 4, bins=16) == pytest.approx(2.0)


def test_estimate_mi_shuffled_is_near_zero():
    rng = np.random.default_rng(6)
    sent = rng.integers(0, 4, 40_000)
    received = rng.standard_normal((40_000, 2))  # independent of sent
    mi = estimate_mi(received, sent, 4, bins=8)
    # plug-in bias is at most ~(cells)/(2 N ln 2)
    assert 0.0 <= mi <= 8 * 8 * 3 / (2 * 40_000 * math.log(2)) + 0.01


def test_estimate_mi_clamped_and_validated():
    rng = np.random.default_rng(7)
    received = rng.standard_normal((100, 2))
    sent = rng.integers(0, 4, 100)
    assert 0.0 <= estimate_mi(received, sent, 4, bins=4) <= 2.0
    with pytest.raises(ValueError):
        estimate_mi(np.zeros((0, 2)), np.zeros(0, dtype=int), 4)
    with pytest.raises(ValueError):
        estimate_mi(received, sent, 4, bins=1)


def test_energy_efficiency_formula():
    assert energy_efficiency(0.01, 1.9, 10.0) == pytest.approx(0.0019)
    assert energy_efficiency(0.01, 1.9, 20.0) == pytest.approx(0.00095)
    assert energy_efficiency(0.0, 1.9, 10.0) == 0.0
    with pytest.raises(ValueError):
        energy_efficiency(0.01, 1.9, 0.0)


def small_config(**kw):
    base = dict(n_t=4, n_r=4, gamma_db_grid=(4.0, 12.0), beta_grid=(1.0,),
                blocks=3, symbols_per_block=12, seed=11, mi_bins=8,
                schemes=("wc-slp", "nominal-slp", "nominal-under-distortion"))
    base.update(kw)
    return SweepConfig(**base)


def test_run_sweep_shapes_and_determinism():
    cfg = small_config()
    recs1 = run_sweep(cfg)
    recs2 = run_sweep(cfg)
    assert len(recs1) == 2 * 1 * 3
    assert [asdict(r) for r in recs1] == [asdict(r) for r in recs2]
    for r in recs1:
        assert 0.0 <= r.ber <= 1.0
        assert 0.0 <= r.mi_bits_per_user <= 2.0
        assert r.mean_power > 0
        assert r.solver_failures == 0


def test_run_sweep_parallel_invariant():
    cfg = small_config()
    serial = run_sweep(cfg)
    parallel = run_sweep(replace(cfg, parallel=4))
    assert [asdict(r) for r in serial] == [asdict(r) for r in parallel]


def _blas_threads():
    return [get() for get in simulator_module._openblas_threads("get")]


def test_pool_workers_run_one_blas_thread(monkeypatch):
    getters = simulator_module._openblas_threads("get")
    if not getters:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    seen = []

    class Probed(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append(self.submit(_blas_threads).result(timeout=120))

    monkeypatch.setattr(simulator_module, "ProcessPoolExecutor", Probed)
    run_sweep(replace(small_config(), parallel=2))
    assert seen == [[1] * len(getters)]


def test_block_is_the_work_unit(monkeypatch):
    calls = Counter()
    counted_calls = [(simulator_module, name)
                     for name in ("_block_draws", "nominal_slp", "solve_batch")]
    for module, name in counted_calls + [(realify_module, "cholesky")]:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    cfg = small_config(beta_grid=(1.0, 100.0))
    records = run_sweep(cfg)
    gammas, betas = cfg.gamma_db_grid, cfg.beta_grid
    assert calls["_block_draws"] == cfg.blocks
    assert calls["cholesky"] == cfg.blocks      # one factor per channel
    assert calls["nominal_slp"] == cfg.blocks * len(gammas) * cfg.symbols_per_block
    assert calls["solve_batch"] == cfg.blocks * len(gammas) * len(betas)
    got = {(r.gamma_db, r.beta, r.scheme): asdict(r) for r in records}
    for g in gammas:
        for scheme in ("nominal-slp", "nominal-under-distortion"):
            rows = [got[(g, b, scheme)] | {"beta": None} for b in betas]
            assert all(row == rows[0] for row in rows)
        assert got[(g, 1.0, "nominal-slp")]["mean_power"] == \
            got[(g, 1.0, "nominal-under-distortion")]["mean_power"]


def test_run_sweep_zero_noise_nominal_ber_zero():
    cfg = small_config(noise_draw_scale=0.0, schemes=("nominal-slp",),
                       distortion=DistortionSpec(sigma_w_sq=0.0, epsilon=0.0))
    for rec in run_sweep(cfg):
        assert rec.ber == 0.0
        assert rec.ci_violation_rate == 0.0


def test_rounding_is_not_a_ci_violation():
    # block 2 has cond(H) = 3337 and a nominal design with ||x||^2 = 3.4e8,
    # whose margins round to about -1e-8: far below an absolute -1e-9, yet
    # only -2.5e-13 of ||H_i|| ||x||
    cfg = SweepConfig(n_t=4, n_r=4, gamma_db_grid=(0, 4, 8, 12, 16, 20),
                      beta_grid=(1, 100, 1e4), blocks=4, symbols_per_block=5,
                      schemes=("nominal-slp", "nominal-under-distortion"),
                      distortion=DistortionSpec(0.02, 0.56), seed=1369000605,
                      solver=SolverConfig(max_iterations=4000, outer_tol=1e-3))
    rates = [r.ci_violation_rate for r in run_sweep(cfg) if r.scheme == "nominal-slp"]
    assert len(rates) == 18 and all(rate == 0.0 for rate in rates)


@pytest.mark.parametrize("gamma", [10.0, 1e12])
def test_ci_violation_threshold_scales_with_the_design(gamma):
    rng = np.random.default_rng(8)
    h = sample_channel(4, 4, rng).real.matrix
    symbols = rng.integers(0, 4, (1, 4))
    geom = build_ci_geometry(symbols[0], gamma, 1.0, QPSK)
    pinv = np.linalg.pinv(h)

    def violations(miss):
        # a design whose margins are 1, except user 0's first one: -miss of
        # ||H_0|| ||x|| (x changes little with it)
        margins = np.ones(8)
        x = pinv @ (geom.ds + geom.a_inv @ margins)
        margins[0] = -miss * np.linalg.norm(h[:2]) * np.linalg.norm(x)
        x = pinv @ (geom.ds + geom.a_inv @ margins)
        return simulator_module._tally(h, symbols, np.zeros((1, 4, 2)), geom.ds[None], QPSK,
                                       x[None], np.ones(1), np.ones(1, dtype=bool)).violations

    assert violations(1e-6) == 1
    assert violations(1e-12) == 0   # below -1e-9 in absolute terms at the large gamma


def test_run_sweep_rejects_overloaded_system():
    with pytest.raises(ValueError):
        SweepConfig(n_t=2, n_r=4)
    with pytest.raises(ValueError):
        small_config(schemes=("zf-slp",))


def test_run_sweep_ee_complement():
    cfg = small_config(schemes=("wc-slp",))
    rec = run_sweep(cfg)[0]
    rec_c = run_sweep(replace(cfg, ee_complement=True))[0]
    assert rec_c.energy_efficiency == pytest.approx(
        (1 - rec.ber) * rec.mi_bits_per_user / rec.mean_power)


def test_distortion_presets():
    lit = DISTORTION_PRESETS["literal"]
    cal = DISTORTION_PRESETS["calibrated"]
    assert lit["sigma_w_sq"] == 0.1 and lit["epsilon"] == 0.56
    assert cal["sigma_w_sq"] == 0.02 and cal["epsilon"] == 0.56
    # the calibrated preset's radius really is the 0.99-confidence radius
    assert calibrate_epsilon(0.99, cal["sigma_w_sq"], 8) == pytest.approx(0.56,
                                                                          abs=0.006)

import math
import multiprocessing
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.linalg import block_diag

import wcslp.realify as realify_module
import wcslp.simulator as simulator_module
from wcslp.constellation import PskConstellation, build_ci_geometry
from wcslp.realify import embed_vector
from wcslp.simulator import (DISTORTION_PRESETS, DistortionSpec, SweepConfig,
                             calibrate_epsilon, energy_efficiency,
                             estimate_mi, run_sweep, sample_channel)
from wcslp.solver import SolverConfig, nominal_slp, phi

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
    # the sweep's distortion draws: E||w||^2 = n_t sigma_w^2 per slot, w = 0
    # at sigma_w^2 = 0
    cfg = small_config(n_t=8, symbols_per_block=20_000,
                       distortion=DistortionSpec(sigma_w_sq=0.02, epsilon=0.56))
    w = simulator_module._block_draws(cfg, 0)[2]
    assert w.shape == (20_000, 16)
    assert np.sum(w * w, axis=1).mean() == pytest.approx(8 * 0.02, rel=0.05)
    cfg = replace(cfg, distortion=DistortionSpec(sigma_w_sq=0.0, epsilon=0.0))
    assert np.all(simulator_module._block_draws(cfg, 0)[2] == 0.0)


def test_distortion_exceeds_radius_at_stated_rate():
    rng = np.random.default_rng(2)
    eps = calibrate_epsilon(0.99, 0.02, 8)
    draws = math.sqrt(0.01) * rng.standard_normal((100_000, 16))
    frac = np.mean(np.linalg.norm(draws, axis=1) > eps)
    assert frac == pytest.approx(0.01, abs=0.003)


def _received(x, noise):
    """The tally's received points (n_r, slots, 2) of signals x (slots, 2 n_t)
    through a 4x3 channel, as a one-cell stack, and that channel's complex
    matrix."""
    rng = np.random.default_rng(9)
    chan = sample_channel(4, 3, rng)
    symbols = rng.integers(0, 4, (len(x), 3))
    [tally] = simulator_module._tally(chan.real.matrix, symbols, noise,
                                      np.zeros((1, len(x), 6)), QPSK, x[None],
                                      np.ones((1, len(x))), np.ones((1, len(x)), dtype=bool))
    return tally.received, chan.h


def test_transmit_receive_noiseless():
    # at zero noise the tally receives h_i x at user i, in (Re, Im) pairs
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    received, h = _received(np.stack([embed_vector(row) for row in x]), np.zeros((5, 3, 2)))
    np.testing.assert_allclose(received[..., 0] + 1j * received[..., 1], h @ x.T,
                               rtol=0, atol=1e-12)


def test_transmit_receive_noise_variance():
    # the sweep's receiver noise: variance (noise_sigma * noise_draw_scale)^2 / 2
    # per real component, so E|z_i|^2 = (noise_sigma * noise_draw_scale)^2
    for sigma, scale in ((2.0, 1.0), (1.0, 0.5)):
        cfg = small_config(noise_sigma=sigma, noise_draw_scale=scale,
                           symbols_per_block=20_000)
        noise = simulator_module._block_draws(cfg, 0)[3]
        assert noise.shape == (20_000, 4, 2)
        assert noise.var() == pytest.approx((sigma * scale) ** 2 / 2.0, rel=0.05)
    cfg = replace(cfg, noise_draw_scale=0.0)
    assert np.all(simulator_module._block_draws(cfg, 0)[3] == 0.0)


def test_transmit_receive_linear_in_u():
    # received points are H x plus the block's noise draw: linear in the signal
    rng = np.random.default_rng(4)
    x1, x2 = rng.standard_normal((2, 6, 8))
    noise, zeros = rng.standard_normal((6, 3, 2)), np.zeros((6, 3, 2))
    r1, r2, r12 = (_received(x, zeros)[0] for x in (x1, x2, x1 + x2))
    np.testing.assert_allclose(r12, r1 + r2, atol=1e-12)
    np.testing.assert_allclose(_received(x1, noise)[0], r1 + noise.transpose(1, 0, 2),
                               atol=1e-12)


def test_estimate_ber_cases():
    # the tally's bit errors under reflected Gray labels of the phase index
    bit_errors = simulator_module._bit_errors
    sent = np.arange(4).repeat(10)
    assert bit_errors(sent, sent, QPSK) == 0
    # antipodal QPSK symbols differ in both bits
    assert bit_errors((sent + 2) % 4, sent, QPSK) == 2 * sent.size
    rng = np.random.default_rng(5)
    sent = rng.integers(0, 4, 200_000)
    detected = rng.integers(0, 4, 200_000)
    assert bit_errors(detected, sent, QPSK) / (2 * sent.size) == pytest.approx(0.5, abs=0.01)


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


def _dense_mi(received, sent, order, bins):
    """Reference plug-in MI of one (N, 2) group from the dense order x bins^2
    joint histogram of probabilities, with the same binning as estimate_mi."""
    n = len(received)
    idx2 = np.empty((2, n), dtype=int)
    for axis in range(2):
        vals = received[:, axis]
        center, sd = vals.mean(), vals.std()
        half = 4.0 * sd if sd > 0 else 1.0
        scaled = (vals - (center - half)) * (bins / (2.0 * half))
        idx2[axis] = np.clip(scaled.astype(int), 0, bins - 1)
    cell = idx2[0] * bins + idx2[1]
    joint = np.bincount(sent * (bins * bins) + cell, minlength=order * bins * bins)
    joint = joint.reshape(order, bins * bins) / n
    mask = joint > 0
    denom = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    mi = float(np.sum(joint[mask] * np.log2(joint[mask] / denom[mask])))
    return min(max(mi, 0.0), math.log2(order))


def _mi_groups(n, order, seed):
    """Four (n, 2) groups of noisy PSK points: plain, one zero-variance axis,
    far outliers that clip into the edge bins, and noiseless."""
    rng = np.random.default_rng(seed)
    const = PskConstellation(order)
    sent = rng.integers(0, order, (4, n))
    received = 2.0 * const.points_real[sent] + rng.standard_normal((4, n, 2))
    received[1, :, 0] = 0.3
    received[2, : max(1, n // 10)] = [[1e6, -1e6]]
    received[3] = const.points_real[sent[3]]
    return received, sent


@pytest.mark.parametrize("bins", [2, 8, 64])
@pytest.mark.parametrize("n", [1, 2, 20, 5000])
def test_stacked_estimate_mi_is_one_estimate_per_group(n, bins):
    for order in (4, 8):
        received, sent = _mi_groups(n, order, seed=n * bins + order)
        stacked = estimate_mi(received, sent, order, bins)
        assert stacked.shape == (4,)
        for g in range(4):
            one = estimate_mi(received[g], sent[g], order, bins)
            assert type(one) is float
            assert one == stacked[g]      # bitwise
            assert abs(one - _dense_mi(received[g], sent[g], order, bins)) <= 1e-14
        # any leading shape, one value per leading index
        grid = estimate_mi(received.reshape(2, 2, n, 2), sent.reshape(2, 2, n), order, bins)
        np.testing.assert_array_equal(grid, stacked.reshape(2, 2))


def test_stacked_estimate_mi_is_validated():
    received, sent = _mi_groups(20, 4, seed=1)
    for bad_received, bad_sent in ((np.zeros((3, 0, 2)), np.zeros((3, 0), dtype=int)),
                                   (received[..., :1], sent),
                                   (received, sent[:, :-1]),
                                   (received, sent[0]),
                                   (received[0], sent),
                                   (received, sent.T)):
        with pytest.raises(ValueError):
            estimate_mi(bad_received, bad_sent, 4)
    with pytest.raises(ValueError):
        estimate_mi(received, sent, 4, bins=1)
    sent[2, 5] = 4
    with pytest.raises(ValueError):
        estimate_mi(received, sent, 4)


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


def test_pool_starts_at_most_one_worker_per_block(monkeypatch):
    # the pool forks all of its workers at the first submit, so a worker
    # count above the block count would start processes with nothing to do,
    # and one above the core count processes that only compete for cores
    seen = []

    class InProcess:
        def __init__(self, max_workers, **kwargs):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    cfg = small_config(blocks=3)
    serial = run_sweep(cfg)
    monkeypatch.setattr(simulator_module, "ProcessPoolExecutor", InProcess)
    for cores, workers in ((2, 2), (8, 3)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)),
                            raising=False)
        pooled = run_sweep(replace(cfg, parallel=64))
        assert seen.pop() == workers
        assert [asdict(r) for r in pooled] == [asdict(r) for r in serial]
    # without an affinity mask, the machine's core count caps the pool
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    run_sweep(replace(cfg, parallel=64))
    assert seen == [2]
    assert multiprocessing.active_children() == []


def test_block_is_the_work_unit(monkeypatch):
    calls = Counter()
    counted_calls = [(simulator_module, name) for name in
                     ("_block_draws", "build_ci_geometry", "nominal_slp", "solve_batch",
                      "_tally", "ml_detect_many")]
    for module, name in counted_calls + [(realify_module, "cholesky")]:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    cfg = small_config(beta_grid=(1.0, 100.0))
    records = run_sweep(cfg)
    gammas, betas = cfg.gamma_db_grid, cfg.beta_grid
    assert calls["_block_draws"] == cfg.blocks
    # one factor per channel for the nominal designs, and one per (channel,
    # beta) for the exact designs that start wc-slp
    assert calls["cholesky"] == cfg.blocks * (1 + len(betas))
    assert calls["build_ci_geometry"] == cfg.blocks * len(gammas)   # one stack of slots
    assert calls["nominal_slp"] == cfg.blocks * cfg.symbols_per_block   # shared by every gamma
    assert calls["solve_batch"] == cfg.blocks * len(gammas) * len(betas)
    assert calls["_tally"] == calls["ml_detect_many"] == cfg.blocks   # every cell at once
    got = {(r.gamma_db, r.beta, r.scheme): asdict(r) for r in records}
    for g in gammas:
        for scheme in ("nominal-slp", "nominal-under-distortion"):
            rows = [got[(g, b, scheme)] | {"beta": None} for b in betas]
            assert all(row == rows[0] for row in rows)
        assert got[(g, 1.0, "nominal-slp")]["mean_power"] == \
            got[(g, 1.0, "nominal-under-distortion")]["mean_power"]


def test_wc_slp_power_is_read_on_the_designed_output(monkeypatch):
    # every scheme's power is ||x||^2 of its designed output x = G u; at
    # G = 2I that is 4 ||u||^2, not ||u||^2
    def doubled(matrix, n_t):
        return realify_module.RealDistortionMatrix(matrix=2.0 * matrix, n_t=n_t)

    def captured(*args, _original=simulator_module.solve_batch, **kwargs):
        results.append(_original(*args, **kwargs))
        return results[-1]
    results = []
    monkeypatch.setattr(simulator_module, "RealDistortionMatrix", doubled)
    monkeypatch.setattr(simulator_module, "solve_batch", captured)
    cfg = small_config(schemes=("wc-slp",))
    tallies = simulator_module._run_block(cfg, 0)
    assert len(results) == len(cfg.gamma_db_grid)
    for gamma_db, result in zip(cfg.gamma_db_grid, results):
        assert result.converged.any()
        x = 2.0 * result.u[result.converged]
        assert tallies[gamma_db, 1.0, "wc-slp"].power_sum == pytest.approx(
            float(np.sum(x * x)), rel=1e-12)


def count_mi_calls(monkeypatch) -> list:
    """Patch the sweep's estimate_mi to log each call's (cells, n_r, N)."""
    calls = []

    def counted(received, *args, **kwargs):
        calls.append(np.shape(received)[:-1])
        return estimate_mi(received, *args, **kwargs)

    monkeypatch.setattr(simulator_module, "estimate_mi", counted)
    return calls


def per_cell_reference(cfg) -> list:
    """The sweep's records reduced cell by cell, each cell's MI from its own
    estimate_mi call over its users."""
    per_block = [simulator_module._run_block(cfg, b) for b in range(cfg.blocks)]
    records = []
    for g in cfg.gamma_db_grid:
        for b in cfg.beta_grid:
            for s in cfg.schemes:
                tallies = [t[g, b if s == "wc-slp" else None, s] for t in per_block]
                mi = math.nan
                if sum(t.used_symbols for t in tallies):
                    received = np.concatenate([t.received for t in tallies], axis=1)
                    sent = np.concatenate([t.sent for t in tallies]).T
                    mi = float(np.mean(estimate_mi(received, sent, cfg.constellation_order,
                                                   cfg.mi_bins)))
                records.append(simulator_module._reduce_cell(cfg, g, b, s, tallies, mi))
    return records


@pytest.mark.parametrize("parallel", [1, 2])
def test_each_distinct_tally_is_reduced_once(monkeypatch, parallel):
    # a nominal scheme's tally serves every beta: its users are estimated
    # once per (gamma, scheme), where wc-slp's are once per (gamma, beta); a
    # repeated grid entry is a cell already reduced, and the records read
    # the same as the grid's without repeats, put in the grid's order.  All
    # cells with the same number of used slots share one estimate_mi call.
    calls = count_mi_calls(monkeypatch)
    cfg = small_config(beta_grid=(1.0, 10.0, 100.0), parallel=parallel)
    records = run_sweep(cfg)
    n_nominal = len(cfg.schemes) - 1
    cells = len(cfg.gamma_db_grid) * (len(cfg.beta_grid) + n_nominal)
    assert all(r.solver_failures == 0 for r in records)
    assert [n for _, _, n in calls] == [cfg.blocks * cfg.symbols_per_block]
    assert sum(c * n_r for c, n_r, _ in calls) == cfg.n_r * cells
    assert [asdict(r) for r in records] == [asdict(r) for r in per_cell_reference(cfg)]

    calls.clear()
    repeats = replace(cfg, gamma_db_grid=(12.0, 4.0, 12.0), beta_grid=(10.0, 1.0, 10.0, 100.0))
    repeated = run_sweep(repeats)
    assert len(calls) == 1
    assert sum(c * n_r for c, n_r, _ in calls) == cfg.n_r * cells
    by_cell = {(r.gamma_db, r.beta, r.scheme): asdict(r) for r in records}
    assert [asdict(r) for r in repeated] == [
        by_cell[g, b, s] for g in repeats.gamma_db_grid for b in repeats.beta_grid
        for s in repeats.schemes]


def test_cells_with_unequal_sample_counts(monkeypatch):
    # three BCD iterations from the exact designs' slack leave wc-slp cells
    # with 1, 5 or no converged slot of 36; each count is one estimate_mi
    # call, and a cell without one is estimated in none of them
    calls = count_mi_calls(monkeypatch)
    cfg = small_config(gamma_db_grid=(0.0, 8.0, 16.0), beta_grid=(1.0, 100.0),
                       solver=SolverConfig(max_iterations=3, outer_tol=1e-3))
    records = run_sweep(cfg)
    slots = cfg.blocks * cfg.symbols_per_block
    counts = {slots - r.solver_failures for r in records}
    assert counts == {0, 1, 5, 36}
    assert sorted(n for _, _, n in calls) == sorted(counts - {0})
    assert all(n_r == cfg.n_r for _, n_r, _ in calls)
    failed = [r for r in records if r.solver_failures == slots]
    assert failed and all(math.isnan(r.mi_bits_per_user) for r in failed)
    cells = len(cfg.gamma_db_grid) * (len(cfg.beta_grid) + len(cfg.schemes) - 1)
    assert sum(c for c, _, _ in calls) == cells - len(failed)
    assert repr(records) == repr(per_cell_reference(cfg))


@pytest.mark.parametrize("budget_cells, chunk", [(0.5, 1), (2.5, 2), (4, 4)])
def test_mi_calls_stay_under_the_sample_budget(monkeypatch, budget_cells, chunk):
    # a sample count's cells are estimated in chunks of at most _MI_SAMPLES
    # samples (cells x users x N), and at least one cell, with the records of
    # one estimate per cell
    calls = count_mi_calls(monkeypatch)
    cfg = small_config(beta_grid=(1.0, 10.0, 100.0))
    samples = cfg.n_r * cfg.blocks * cfg.symbols_per_block      # one cell's
    budget = int(budget_cells * samples)
    monkeypatch.setattr(simulator_module, "_MI_SAMPLES", budget)
    records = run_sweep(cfg)
    cells = len(cfg.gamma_db_grid) * (len(cfg.beta_grid) + len(cfg.schemes) - 1)
    assert all(r.solver_failures == 0 for r in records)
    assert [c for c, _, _ in calls] == [chunk] * (cells // chunk) + [cells % chunk] * (
        cells % chunk > 0)
    assert all(c * n_r * n <= budget or c == 1 for c, n_r, n in calls)
    assert [asdict(r) for r in records] == [asdict(r) for r in per_cell_reference(cfg)]


def test_estimate_mi_rejects_unknown_symbols():
    received = np.zeros((3, 2))
    for sent in ([0, 1, 4], [0, -1, 2]):
        with pytest.raises(ValueError):
            estimate_mi(received, np.array(sent), 4)


def test_run_sweep_zero_noise_nominal_ber_zero():
    cfg = small_config(noise_draw_scale=0.0, schemes=("nominal-slp",),
                       distortion=DistortionSpec(sigma_w_sq=0.0, epsilon=0.0))
    for rec in run_sweep(cfg):
        assert rec.ber == 0.0
        assert rec.ci_violation_rate == 0.0


def test_rounding_is_not_a_ci_violation(monkeypatch):
    # block 2 has cond(H) = 3337 and a nominal design with ||x||^2 = 3.4e8,
    # whose margins round to about -1e-8: far below an absolute -1e-9, yet
    # only -2.5e-13 of ||H_i|| ||x||.  Every nominal design meets H x = Phi(t)
    # within 1.6e-9 of max(1, ||D s||_inf).
    misses = []

    def checked(chan, geom):
        x, t = nominal_slp(chan, geom)
        misses.append(np.abs(chan.matrix @ x - phi(t, geom)).max()
                      / max(1.0, np.abs(geom.ds).max()))
        return x, t

    monkeypatch.setattr(simulator_module, "nominal_slp", checked)
    cfg = SweepConfig(n_t=4, n_r=4, gamma_db_grid=(0, 4, 8, 12, 16, 20),
                      beta_grid=(1, 100, 1e4), blocks=4, symbols_per_block=5,
                      schemes=("nominal-slp", "nominal-under-distortion"),
                      distortion=DistortionSpec(0.02, 0.56), seed=1369000605,
                      solver=SolverConfig(max_iterations=4000, outer_tol=1e-3))
    rates = [r.ci_violation_rate for r in run_sweep(cfg) if r.scheme == "nominal-slp"]
    assert len(rates) == 18 and all(rate == 0.0 for rate in rates)
    assert len(misses) == 20 and max(misses) <= 1.60e-9   # 4 blocks x 5 slots


@pytest.mark.parametrize("order", [4, 8])
def test_nominal_design_is_shared_across_gamma(monkeypatch, order):
    # every user of a cell has one gamma and one sigma, so the nominal design
    # at gamma is sqrt(gamma / gamma_ref) times the design at the grid's
    # smallest gamma: equal to a fresh nominal_slp bitwise there, and to
    # rounding elsewhere, whatever the order of the grid; the block's one
    # tally stacks the cells in ascending gamma
    def captured(h, symbols, noise, ds, const, x_clean, *args):
        designs.extend((symbols, ds_cell, x_cell) for ds_cell, x_cell in zip(ds, x_clean))
        return original(h, symbols, noise, ds, const, x_clean, *args)
    original, designs = simulator_module._tally, []
    monkeypatch.setattr(simulator_module, "_tally", captured)
    cfg = small_config(n_t=6, gamma_db_grid=(12.0, 0.0, 20.0, 12.0, 4.0), noise_sigma=0.7,
                       constellation_order=order, schemes=("nominal-slp",), blocks=2)
    const = PskConstellation(order)
    gammas = sorted(set(cfg.gamma_db_grid))
    for block in range(cfg.blocks):
        designs.clear()
        simulator_module._run_block(cfg, block)
        chan = simulator_module._block_draws(cfg, block)[0]
        assert len(designs) == len(gammas)
        for gamma_db, (symbols, ds, x) in zip(gammas, designs):
            geometry = build_ci_geometry(symbols, 10.0 ** (gamma_db / 10.0), 0.7, const)
            np.testing.assert_array_equal(ds, geometry.ds)
            fresh = np.stack([nominal_slp(chan.real, gm)[0] for gm in geometry])
            if gamma_db == gammas[0]:
                np.testing.assert_array_equal(x, fresh)
            else:
                gap = np.linalg.norm(x - fresh, axis=1) / np.linalg.norm(fresh, axis=1)
                assert gap.max() <= 1e-12


@pytest.mark.parametrize("gamma", [10.0, 1e12])
def test_ci_violation_threshold_scales_with_the_design(gamma):
    rng = np.random.default_rng(8)
    h = sample_channel(4, 4, rng).real.matrix
    symbols = rng.integers(0, 4, (1, 4))
    geom = build_ci_geometry(symbols[0], gamma, 1.0, QPSK)
    pinv = np.linalg.pinv(h)
    a_inv = block_diag(*geom.a_inv_blocks)

    def violations(miss):
        # a design whose margins are 1, except user 0's first one: -miss of
        # ||H_0|| ||x|| (x changes little with it)
        margins = np.ones(8)
        x = pinv @ (geom.ds + a_inv @ margins)
        margins[0] = -miss * np.linalg.norm(h[:2]) * np.linalg.norm(x)
        x = pinv @ (geom.ds + a_inv @ margins)
        [tally] = simulator_module._tally(h, symbols, np.zeros((1, 4, 2)), geom.ds[None, None],
                                          QPSK, x[None, None], np.ones((1, 1)),
                                          np.ones((1, 1), dtype=bool))
        return tally.violations

    assert violations(1e-6) == 1
    assert violations(1e-12) == 0   # below -1e-9 in absolute terms at the large gamma


def test_stacked_tally_is_one_tally_per_cell():
    # one stacked call of C cells equals C one-cell calls, field by field and
    # bitwise; a row whose ok is False counts as a failure only and drops out
    # of the BER, power, violations and received points
    rng = np.random.default_rng(12)
    n_t, n_r, n_sym, n_cells = 6, 4, 30, 5
    h = sample_channel(n_t, n_r, rng).real.matrix
    symbols = rng.integers(0, 4, (n_sym, n_r))
    noise = rng.standard_normal((n_sym, n_r, 2))
    ds = build_ci_geometry(symbols, 10.0, 1.0, QPSK).ds * rng.uniform(0.5, 2, (n_cells, 1, 1))
    x = 3.0 * rng.standard_normal((n_cells, n_sym, 2 * n_t))
    powers = np.sum(x * x, axis=2)
    ok = np.ones((n_cells, n_sym), dtype=bool)
    ok[2, [0, 7, 8, 29]] = False
    ok[4] = False
    tally = simulator_module._tally
    stacked = tally(h, symbols, noise, ds, QPSK, x, powers, ok)
    assert len(stacked) == n_cells
    for c, got in enumerate(stacked):
        [one] = tally(h, symbols, noise, ds[c:c + 1], QPSK, x[c:c + 1], powers[c:c + 1],
                      ok[c:c + 1])
        for name, value in asdict(one).items():
            np.testing.assert_array_equal(getattr(got, name), value, err_msg=name)
    assert stacked[1].violations > 0 and stacked[1].bit_errors > 0
    everything_failed = stacked[4]
    assert (everything_failed.used_symbols, everything_failed.power_sum) == (0, 0.0)
    assert everything_failed.received.shape == (n_r, 0, 2)

    used = ok[2]
    [kept] = tally(h, symbols[used], noise[used], ds[2:3, used], QPSK, x[2:3, used],
                   powers[2:3, used], np.ones((1, used.sum()), dtype=bool))
    failed = stacked[2]
    assert failed.used_symbols == kept.used_symbols == n_sym - 4
    for name in ("bit_errors", "power_sum", "violations"):
        assert getattr(failed, name) == getattr(kept, name), name
    np.testing.assert_array_equal(failed.sent, symbols[used])
    np.testing.assert_allclose(failed.received, kept.received, rtol=1e-14, atol=0)


def test_reduced_counts_follow_from_the_used_symbols():
    # bits, (slot, user) pairs and failures are derived from the used slots:
    # 3 bits per 8-PSK symbol, 3 users, 2 blocks of 10 slots
    rng = np.random.default_rng(13)
    config = SweepConfig(n_t=4, n_r=3, blocks=2, symbols_per_block=10,
                         constellation_order=8, mi_bins=4)
    tallies = [simulator_module._BlockTally(
        bit_errors=errors, power_sum=power, used_symbols=used, violations=violations,
        received=rng.standard_normal((3, used, 2)), sent=rng.integers(0, 8, (used, 3)))
        for errors, power, used, violations in ((5, 7.0, 9, 2), (1, 3.0, 4, 1))]
    record = simulator_module._reduce_cell(config, 4.0, None, "nominal-slp", tallies, 1.25)
    assert record.mi_bits_per_user == 1.25
    assert record.solver_failures == 20 - 13
    assert record.ber == 6 / (13 * 3 * 3)
    assert record.ci_violation_rate == 3 / (13 * 3)
    assert record.mean_power == 10.0 / 13


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

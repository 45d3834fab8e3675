"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 is known-red on its margin half only.  Its power half passes:
the loop starts at the slack of the exact min-max design and stops within
1e-3 of the nominal baseline's power on all 50 instances, as
``test_formulation_limit_oracle`` finds the relaxed problem's optimum does.
The margin half fails for the stated problem itself: that optimum misses the
-1e-6 margin floor on 48 of the 50 instances (minimum margin -4.6e-5, a miss
that shrinks like 1/beta), and so do the loop's designs.  The test states the
criterion faithfully and fails honestly.
"""

import math
import numpy as np
import pytest
from scipy.linalg import block_diag, cholesky, solve_triangular
from scipy.optimize import nnls

from wcslp.cli import main
from wcslp.simulator import (DistortionSpec, SweepConfig, calibrate_epsilon,
                             run_sweep)
from wcslp.solver import SolverConfig, nominal_slp, phi, solve
from wcslp.validation import (check_apgd_oracle, check_bracketing,
                              check_root_parity, check_sphere_dominance,
                              random_instance)

SEED = 20260809


def _report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[acceptance] criterion {number}: {status} -- {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_secular_root_correctness():
    result = check_bracketing(n_instances=1000, seed=SEED,
                              f_tol=1e-8, norm_tol=1e-6)
    _report(1, result.passed, result.detail)


def test_criterion_2_inner_maximisation_dominance():
    result = check_sphere_dominance(n_instances=100, n_samples=10_000,
                                    seed=SEED + 1, tol=1e-9)
    _report(2, result.passed, result.detail)


def test_criterion_3_fixed_point_identity():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    cfg = SolverConfig(max_iterations=600, outer_tol=1e-9)
    for i in range(40):
        inst = random_instance(rng, (2, 4, 8)[i % 3],
                               beta=(1.0, 100.0, 1e4, 1e6)[i % 4],
                               eps=(0.0, 0.1, 0.56)[i % 3],
                               order=(4, 8)[i % 2], random_g=(i % 2 == 0))
        report = solve(inst, cfg)
        worst = max(worst, report.fixed_point_residual_max)
    _report(3, worst <= 1e-10,
            f"max ||Gu+w - P^-1 H^T Phi(t)|| / ||Phi(t)|| = {worst:.2e} "
            f"over 40 runs, tolerance 1e-10")


def test_criterion_4_baseline_consistency():
    # beta = 1e6, eps = 1e-9, 50 random 4x4 instances; relative power gap vs
    # the hard-CI baseline <= 1e-3 and componentwise margins >= -1e-6.
    # Known-red: see the module docstring.
    rng = np.random.default_rng(SEED + 3)
    cfg = SolverConfig(max_iterations=15_000, outer_tol=1e-10)
    gaps, margins = [], []
    for _ in range(50):
        inst = random_instance(rng, 4, beta=1e6, eps=1e-9)
        x_nom, _ = nominal_slp(inst.channel, inst.geometry)
        report = solve(inst, cfg)
        assert report.fixed_point_residual_max <= 1e-10
        gu = inst.g @ report.u
        p_nom = float(x_nom @ x_nom)
        gaps.append(abs(float(gu @ gu) - p_nom) / p_nom)
        margin = block_diag(*inst.geometry.a_blocks) @ (inst.h @ gu - inst.ds)
        margins.append(float(margin.min()))
    gaps, margins = np.array(gaps), np.array(margins)
    ok = bool(np.all(gaps <= 1e-3) and np.all(margins >= -1e-6))
    _report(4, ok,
            f"power gap: median {np.median(gaps):.2e}, max {gaps.max():.2e} "
            f"(tolerance 1e-3, {np.mean(gaps <= 1e-3):.0%} pass); "
            f"min margin {margins.min():.2e} (floor -1e-6)")


def test_formulation_limit_oracle():
    # Independent oracle for the beta -> inf, eps -> 0 limit: minimising
    # Phi(t)^T (H H^T + I/beta)^{-1} Phi(t) over t >= 0 (the exact reduced
    # form of the relaxed problem after eliminating u) matches the nominal
    # baseline power within 1e-3, as criterion 4's power half does.  This
    # checks power only.  Only criterion 4's margin half fails, and for the
    # problem itself: this optimum misses its -1e-6 floor on 48 of these 50
    # instances.
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(50):
        inst = random_instance(rng, 4, beta=1e6, eps=1e-9)
        x_nom, _ = nominal_slp(inst.channel, inst.geometry)
        p_nom = float(x_nom @ x_nom)
        hht = inst.h @ inst.h.T + np.eye(8) / inst.beta
        chol = cholesky(hht, lower=True)
        design = solve_triangular(chol, block_diag(*inst.geometry.a_inv_blocks),
                                  lower=True)
        target = -solve_triangular(chol, inst.ds, lower=True)
        t_star, _ = nnls(design, target)
        phi_star = phi(t_star, inst.geometry)
        y = solve_triangular(chol.T,
                             solve_triangular(chol, phi_star, lower=True),
                             lower=False)
        p_rel = float(phi_star @ y)  # ||x_rel||^2 at the reduced optimum
        worst = max(worst, abs(p_rel - p_nom) / p_nom)
    assert worst <= 1e-3, f"formulation limit gap {worst:.2e}"


def test_criterion_5_nnls_oracle_equivalence():
    result = check_apgd_oracle(n_instances=200, seed=SEED + 4, tol=1e-6)
    _report(5, result.passed, result.detail)


def test_criterion_6_root_parity():
    result = check_root_parity(n_instances=500, seed=SEED + 5)
    _report(6, result.passed, result.detail)


def test_criterion_7_distortion_calibration():
    rng = np.random.default_rng(SEED + 6)
    sigma_w_sq, n_t = 0.02, 8
    eps = calibrate_epsilon(0.99, sigma_w_sq, n_t)
    draws = math.sqrt(sigma_w_sq / 2.0) * rng.standard_normal((100_000, 2 * n_t))
    frac = float(np.mean(np.linalg.norm(draws, axis=1) > eps))
    ok = abs(frac - 0.01) <= 0.003
    _report(7, ok, f"Pr(||w|| > eps) = {frac:.4f} (target 0.01 +/- 0.003, "
                   f"eps = {eps:.4f})")


@pytest.fixture(scope="module")
def trend_records():
    import os

    config = SweepConfig(
        n_t=8, n_r=8, gamma_db_grid=(4.0, 8.0, 12.0, 16.0),
        beta_grid=(1.0, 100.0, 1e4), blocks=50, symbols_per_block=100,
        seed=SEED, schemes=("wc-slp", "nominal-under-distortion"),
        mi_bins=16, parallel=min(8, os.cpu_count() or 1),
        distortion=DistortionSpec(sigma_w_sq=0.02, epsilon=0.56),
        solver=SolverConfig(max_iterations=4000, outer_tol=1e-3))
    records = run_sweep(config)
    return {(r.gamma_db, r.beta, r.scheme): r for r in records}


def test_criterion_8a_energy_efficiency_trend(trend_records):
    gammas = (4.0, 8.0, 12.0, 16.0)
    pairs = [(trend_records[(g, 1.0, "wc-slp")].energy_efficiency,
              trend_records[(g, 100.0, "wc-slp")].energy_efficiency)
             for g in gammas]
    ok = all(lo_beta > hi_beta for lo_beta, hi_beta in pairs)
    detail = ", ".join(f"g={g}: {a:.2e} vs {b:.2e}"
                       for g, (a, b) in zip(gammas, pairs))
    _report(8, ok, "(a) EE(beta=1) > EE(beta=100) at every gamma: " + detail)


def test_criterion_8b_power_monotone_in_beta(trend_records):
    gammas = (4.0, 8.0, 12.0, 16.0)
    ok = True
    details = []
    for g in gammas:
        powers = [trend_records[(g, b, "wc-slp")].mean_power
                  for b in (1.0, 100.0, 1e4)]
        ok &= powers[0] <= powers[1] <= powers[2]
        details.append(f"g={g}: " + " <= ".join(f"{p:.1f}" for p in powers))
    _report(8, ok, "(b) mean power non-decreasing in beta: " + "; ".join(details))


def test_criterion_8c_violation_rate_vs_nominal(trend_records):
    gammas = (4.0, 8.0, 12.0, 16.0)
    ok = True
    details = []
    for g in gammas:
        wc = trend_records[(g, 1e4, "wc-slp")].ci_violation_rate
        nom = trend_records[(g, 1e4, "nominal-under-distortion")].ci_violation_rate
        ok &= wc <= nom
        details.append(f"g={g}: {wc:.3f} vs {nom:.3f}")
    _report(8, ok, "(c) noise-free CI violations, wc-slp(beta=1e4) <= "
                   "nominal-under-distortion: " + "; ".join(details))


def test_criterion_8_no_solver_failures(trend_records):
    failures = sum(r.solver_failures for r in trend_records.values())
    total = sum(r.blocks * r.symbols_per_block for r in trend_records.values())
    assert failures <= 0.01 * total, f"{failures} solver failures of {total}"


def test_criterion_9_sweep_determinism(tmp_path):
    config_text = """\
[sweep]
n_t = 4
n_r = 4
gamma_db = 4, 12
betas = 1, 100
blocks = 8
symbols_per_block = 12
schemes = wc-slp, nominal-slp, nominal-under-distortion
seed = 31
mi_bins = 8

[solver]
max_iterations = 2000
outer_tol = 1e-3
"""
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(config_text)
    out1, out2 = tmp_path / "p1.csv", tmp_path / "p8.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1),
                 "--parallel", "1"]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2),
                 "--parallel", "8"]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    _report(9, identical, "byte-identical CSV for --parallel 1 vs --parallel 8")

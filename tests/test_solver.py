import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import block_diag, solve_triangular

import wcslp.solver as solver_module
import wcslp.validation as validation_module

from wcslp.constellation import PskConstellation, build_ci_geometry
from wcslp.realify import build_real_channel, build_real_distortion
from wcslp.solver import (BatchSolveResult, ProblemInstance, SolverConfig, design_batch,
                          nominal_slp, phi, relaxed_objective, solve, solve_batch)
from wcslp.validation import (SecularPoleError, SolverState, apgd_t_step,
                              count_secular_roots, mu_bracket, random_instance,
                              random_point, secular_value, solve_mu, update_u,
                              worst_case_w)

QPSK = PskConstellation(4)


def scalar_instance(beta=1.0, eps=1.0, gamma=4.0, offset=None):
    """n_t = n_r = 1, h = 1 (so H = I2), G = I."""
    chan = build_real_channel([[1.0 + 0j]])
    g = build_real_distortion([[1.0 + 0j]])
    const = PskConstellation(4, offset)
    geom = build_ci_geometry([0], [gamma], [1.0], const)
    return ProblemInstance(chan, g, geom, beta, eps)


def scalar_point(inst):
    """(u, t) for the scalar instance giving q = (1, 0) at beta = 1."""
    phi0 = phi(np.zeros(2), inst.geometry)
    u = (phi0 + np.array([1.0, 0.0])) / 2.0
    return u, np.zeros(2)


def test_phi_examples():
    # QPSK symbol 0 sits at (1, 1)/sqrt(2), and its A = A^{-1} swaps the two
    # components
    geom = build_ci_geometry([0], [4.0], [1.0], QPSK)
    root2 = math.sqrt(2)
    np.testing.assert_allclose(phi(np.zeros(2), geom), [root2, root2])
    np.testing.assert_allclose(phi(np.array([1.0, 2.0]), geom), [root2 + 2, root2 + 1])
    with pytest.raises(ValueError):
        phi(np.array([-0.1, 0.0]), geom)
    with pytest.raises(ValueError, match="one slot"):
        phi(np.zeros(2), build_ci_geometry([[0], [1]], 4.0, 1.0, QPSK))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_phi_rejects_non_finite_slack(bad):
    geom = build_ci_geometry([0, 1], [4.0, 4.0], [1.0, 1.0], QPSK)
    with pytest.raises(ValueError):
        phi(np.array([bad, 0.0, 0.0, 0.0]), geom)


def test_phi_linearity():
    rng = np.random.default_rng(0)
    inst = random_instance(rng, 3)
    t1 = np.abs(rng.standard_normal(6))
    t2 = np.abs(rng.standard_normal(6))
    lhs = phi(t1 + t2, inst.geometry) - phi(t2, inst.geometry)
    np.testing.assert_allclose(lhs, block_diag(*inst.geometry.a_inv_blocks) @ t1,
                               atol=1e-12)


def test_relaxed_objective_zero_point():
    inst = scalar_instance(beta=7.0)
    ds = inst.geometry.ds
    got = relaxed_objective(np.zeros(2), np.zeros(2), np.zeros(2), inst)
    assert got == pytest.approx(7.0 * float(ds @ ds))


def test_relaxed_objective_against_expanded_form():
    rng = np.random.default_rng(1)
    for _ in range(20):
        inst = random_instance(rng, 3, beta=5.0, random_g=True)
        u, t = random_point(rng, inst)
        w = rng.standard_normal(6)
        x = inst.g @ u + w
        target = phi(t, inst.geometry)
        expected = (x @ x + inst.beta * (x @ inst.hth @ x
                                         - 2 * (inst.h @ x) @ target
                                         + target @ target))
        got = relaxed_objective(u, t, w, inst)
        assert got == pytest.approx(expected, rel=1e-10)


def test_secular_scalar_closed_form():
    inst = scalar_instance(beta=1.0, eps=1.0)
    u, t = scalar_point(inst)
    assert secular_value(3.0, u, t, inst) == pytest.approx(0.0, abs=1e-12)
    assert secular_value(1.0, u, t, inst) == pytest.approx(0.0, abs=1e-12)
    assert secular_value(1e9, u, t, inst) == pytest.approx(-1.0, rel=1e-6)
    with pytest.raises(SecularPoleError):
        secular_value(2.0, u, t, inst)


def test_secular_degenerate_q():
    inst = scalar_instance(beta=1.0, eps=0.5)
    # u chosen so that P G u = H^T Phi(0) exactly
    u = phi(np.zeros(2), inst.geometry) / 2.0
    assert secular_value(5.0, u, np.zeros(2), inst) == pytest.approx(-0.25)


def test_mu_bracket_examples():
    inst = scalar_instance(beta=1.0, eps=1.0)
    u, t = scalar_point(inst)
    lo, hi = mu_bracket(u, t, inst)
    assert (lo, hi) == (pytest.approx(2.0), pytest.approx(3.0))
    inst2 = scalar_instance(beta=1.0, eps=0.01)
    lo2, hi2 = mu_bracket(u, t, inst2)
    assert (lo2, hi2) == (pytest.approx(2.0), pytest.approx(102.0))
    # doubling ||q|| doubles the bracket width
    u4 = (phi(np.zeros(2), inst.geometry) + np.array([2.0, 0.0])) / 2.0
    lo4, hi4 = mu_bracket(u4, t, inst)
    assert hi4 - lo4 == pytest.approx(2 * (hi - lo))


def test_solve_mu_scalar_roots():
    inst = scalar_instance(beta=1.0, eps=1.0)
    u, t = scalar_point(inst)
    assert solve_mu(u, t, inst) == pytest.approx(3.0, abs=1e-9)
    inst2 = scalar_instance(beta=1.0, eps=0.01)
    assert solve_mu(u, t, inst2) == pytest.approx(102.0, rel=1e-10)


def test_solve_mu_above_pole_on_random_instances():
    rng = np.random.default_rng(2)
    for i in range(100):
        inst = random_instance(rng, (2, 4)[i % 2], beta=(1.0, 10.0)[i % 2],
                               eps=(0.1, 0.56)[i % 2])
        u, t = random_point(rng, inst)
        mu = solve_mu(u, t, inst)
        lo, hi = mu_bracket(u, t, inst)
        assert lo < mu <= hi * (1 + 1e-12)


def test_worst_case_w_scalar():
    inst = scalar_instance(beta=1.0, eps=1.0)
    u, t = scalar_point(inst)
    w = worst_case_w(u, t, 3.0, inst)
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)
    assert np.linalg.norm(w) == pytest.approx(inst.epsilon)


def test_worst_case_w_norm_and_dominance():
    rng = np.random.default_rng(3)
    for i in range(10):
        inst = random_instance(rng, 3, beta=(1.0, 10.0)[i % 2], eps=0.3)
        u, t = random_point(rng, inst)
        mu = solve_mu(u, t, inst)
        w = worst_case_w(u, t, mu, inst)
        assert np.linalg.norm(w) == pytest.approx(inst.epsilon, rel=1e-8)
        samples = rng.standard_normal((2000, 6))
        samples *= inst.epsilon / np.linalg.norm(samples, axis=1)[:, None]
        best = np.max(relaxed_objective(u, t, samples, inst))
        star = relaxed_objective(u, t, w, inst)
        assert star >= best - 1e-9 * abs(star)


def test_worst_case_w_degenerate_is_top_eigvec():
    inst = scalar_instance(beta=1.0, eps=0.7)
    u = phi(np.zeros(2), inst.geometry) / 2.0  # q = 0
    w = worst_case_w(u, np.zeros(2), solve_mu(u, np.zeros(2), inst), inst)
    assert np.linalg.norm(w) == pytest.approx(0.7)


def test_apgd_step_identity_geometry():
    # QPSK symbol 0's A is a permutation, which makes B = 0 and the step
    # exact: t = max(A r, 0) for the residual r
    geom = build_ci_geometry([0], [4.0], [1.0], QPSK)
    chan = build_real_channel([[1.0 + 0j]])
    g = build_real_distortion([[1.0 + 0j]])
    inst = ProblemInstance(chan, g, geom, 1.0, 0.0)
    # choose u so that H (G u + w) - D s = (-0.3, 0.5)
    u = geom.ds + np.array([-0.3, 0.5])
    state = SolverState(u=u, t=np.zeros(2), z=np.zeros(2), w=np.zeros(2))
    t_new, z_new = apgd_t_step(state, inst)
    np.testing.assert_allclose(t_new, [0.5, 0.0], atol=1e-12)
    np.testing.assert_array_equal(z_new, t_new)  # the momentum of QPSK is 0
    assert t_new.min() >= 0


def test_apgd_fixed_point():
    rng = np.random.default_rng(4)
    inst = random_instance(rng, 3, eps=0.0)
    t0 = np.abs(rng.standard_normal(6))
    # pick u with H G u - D s = A^{-1} t0 so the gradient vanishes at t0
    target = inst.ds + block_diag(*inst.geometry.a_inv_blocks) @ t0
    u = np.linalg.solve(inst.g, np.linalg.lstsq(inst.h, target, rcond=None)[0])
    residual = inst.h @ inst.g @ u - target
    assert np.linalg.norm(residual) < 1e-9  # square channel: exact solve
    state = SolverState(u=u, t=t0, z=t0, w=np.zeros(6))
    t_new, _ = apgd_t_step(state, inst)
    np.testing.assert_allclose(t_new, t0, atol=1e-9)


def test_update_u_example():
    inst = scalar_instance(beta=1.0, gamma=4.0, offset=0.0)
    u = update_u(np.zeros(2), np.array([0.1, 0.0]), inst)
    np.testing.assert_allclose(u, [0.9, 0.0], atol=1e-12)


def test_update_u_fixed_point_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        inst = random_instance(rng, 4, beta=10.0, random_g=True)
        t = np.abs(rng.standard_normal(8))
        w = rng.standard_normal(8) * 0.3
        u = update_u(t, w, inst)
        p = inst.h.T @ inst.h + np.eye(8) / inst.beta
        target = np.linalg.solve(p, inst.h.T @ phi(t, inst.geometry))
        resid = np.linalg.norm(inst.g @ u + w - target)
        assert resid <= 1e-10 * np.linalg.norm(phi(t, inst.geometry))


def test_update_u_large_beta_matches_pinv():
    rng = np.random.default_rng(6)
    inst = random_instance(rng, 3, beta=1e12, eps=0.0)
    t = np.abs(rng.standard_normal(6))
    u = update_u(t, np.zeros(6), inst)
    expected = np.linalg.pinv(inst.h) @ phi(t, inst.geometry)
    np.testing.assert_allclose(inst.g @ u, expected, rtol=1e-6, atol=1e-9)


def test_solve_eps_zero_keeps_w_zero():
    rng = np.random.default_rng(7)
    inst = random_instance(rng, 3, beta=10.0, eps=0.0)
    report = solve(inst, SolverConfig(max_iterations=500, outer_tol=1e-9))
    assert report.converged
    np.testing.assert_array_equal(report.w, np.zeros(6))
    assert report.trace.size == report.iterations
    assert report.t.min() >= 0


def test_solve_scalar_baseline_consistency():
    # single-user case: the relaxed design at huge beta and tiny eps recovers
    # the hard-CI nominal solution
    inst = scalar_instance(beta=1e6, eps=1e-9)
    report = solve(inst, SolverConfig(max_iterations=2000, outer_tol=1e-10))
    x_nom, t_nom = nominal_slp(inst.channel, inst.geometry)
    power = float(report.u @ report.u)
    assert power == pytest.approx(float(x_nom @ x_nom), rel=1e-3)
    assert power == pytest.approx(4.0, rel=1e-3)
    np.testing.assert_allclose(t_nom, 0.0, atol=1e-9)


def test_solve_invariants_on_moderate_instance():
    rng = np.random.default_rng(8)
    inst = random_instance(rng, 4, beta=1.0, eps=0.56)
    report = solve(inst)
    assert report.converged
    assert report.t.min() >= 0
    assert np.linalg.norm(report.w) == pytest.approx(0.56, rel=1e-6)
    batch = solve_batch(inst, inst.geometry)
    for w in (report.w, batch.w[0]):
        assert abs(np.linalg.norm(w) / 0.56 - 1.0) <= 1e-6
    assert report.fixed_point_residual_max <= 1e-10


def test_solve_nonconvergence_is_reported_not_raised():
    rng = np.random.default_rng(9)
    inst = random_instance(rng, 4, beta=100.0, eps=0.56)
    report = solve(inst, SolverConfig(max_iterations=5, outer_tol=1e-12))
    assert not report.converged
    assert report.iterations == 5


def test_solve_batch_matches_scalar_solve():
    rng = np.random.default_rng(10)
    h = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / math.sqrt(2)
    chan = build_real_channel(h)
    g = build_real_distortion(np.eye(4, dtype=complex))
    geoms = build_ci_geometry(np.stack([rng.integers(0, 4, 4) for _ in range(6)]),
                              10.0, 1.0, QPSK)
    proto = ProblemInstance(chan, g, geoms[0], 1.0, 0.56)
    cfg = SolverConfig(max_iterations=500, outer_tol=1e-6)
    batch = solve_batch(proto, geoms, cfg)
    for j, geom in enumerate(geoms):
        rep = solve(ProblemInstance(chan, g, geom, 1.0, 0.56), cfg)
        assert rep.iterations == batch.iterations[j]
        assert rep.converged == batch.converged[j]
        np.testing.assert_allclose(rep.u, batch.u[j], atol=1e-9)
        np.testing.assert_allclose(rep.w, batch.w[j], atol=1e-9)


def test_nominal_slp_hand_example():
    chan = build_real_channel([[1.0 + 0j]])
    geom = build_ci_geometry([0], [4.0], [1.0], QPSK)
    x, t = nominal_slp(chan, geom)
    np.testing.assert_allclose(x, [math.sqrt(2), math.sqrt(2)], atol=1e-12)
    np.testing.assert_allclose(t, 0.0, atol=1e-12)
    assert float(x @ x) == pytest.approx(4.0)


def test_nominal_slp_feasibility_and_oracle():
    def projected_gradient_nnls(design, target, tol=1e-12, iters=200_000):
        # plain projected gradient, step 1/L; independent oracle
        gram = design.T @ design
        rhs = design.T @ target
        step = 1.0 / np.linalg.eigvalsh(gram)[-1]
        t = np.zeros(design.shape[1])
        for _ in range(iters):
            t_next = np.maximum(t - step * (gram @ t - rhs), 0.0)
            if np.max(np.abs(t_next - t)) < tol:
                return t_next
            t = t_next
        return t

    rng = np.random.default_rng(11)
    for _ in range(10):
        h = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
        chan = build_real_channel(h / math.sqrt(2))
        geom = build_ci_geometry(rng.integers(0, 4, 2), np.full(2, 8.0),
                                 np.ones(2), QPSK)
        x, t = nominal_slp(chan, geom)
        a_inv = block_diag(*geom.a_inv_blocks)
        target = geom.ds + a_inv @ t
        np.testing.assert_allclose(chan.matrix @ x, target, atol=1e-9)
        assert t.min() >= 0
        # compare against the independent projected-gradient oracle
        hht = chan.matrix @ chan.matrix.T
        chol = np.linalg.cholesky(hht)
        design = np.linalg.solve(chol, a_inv)
        rhs = -np.linalg.solve(chol, geom.ds)
        t_ref = projected_gradient_nnls(design, rhs)
        np.testing.assert_allclose(t, t_ref, atol=1e-6)


def test_nominal_slp_matches_triangular_solves():
    # the whitener's products agree with triangular solves on the Cholesky
    # factor and the dense A^{-1}
    from scipy.linalg import cholesky
    from scipy.optimize import nnls
    rng = np.random.default_rng(12)
    for n in (2, 4, 8):
        h = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
        chan = build_real_channel(h)
        chol = cholesky(chan.matrix @ chan.matrix.T, lower=True)
        for _ in range(10):
            geom = build_ci_geometry(rng.integers(0, 4, n), np.full(n, 6.0), np.ones(n), QPSK)
            a_inv = block_diag(*geom.a_inv_blocks)
            design = solve_triangular(chol, a_inv, lower=True)
            t, _ = nnls(design, -solve_triangular(chol, geom.ds, lower=True))
            phi_t = geom.ds + a_inv @ t
            x = chan.matrix.T @ solve_triangular(
                chol.T, solve_triangular(chol, phi_t, lower=True), lower=False)
            got_x, got_t = nominal_slp(chan, geom)
            np.testing.assert_allclose(got_t, t, rtol=1e-12, atol=1e-12 * np.abs(t).max())
            np.testing.assert_allclose(got_x, x, rtol=1e-12, atol=1e-12 * np.abs(x).max())


def test_nominal_slp_rejects_rank_deficient():
    chan = build_real_channel([[1.0 + 0j, 0.0], [1.0 + 0j, 0.0]])
    geom = build_ci_geometry([0, 1], [4.0, 4.0], [1.0, 1.0], QPSK)
    for _ in range(2):  # the channel caches no failed factorisation
        with pytest.raises(ValueError):
            nominal_slp(chan, geom)
    # a stack of 2 n_r slots would broadcast against the whitener's pairs
    with pytest.raises(ValueError, match="one slot"):
        nominal_slp(build_real_channel(np.eye(2, dtype=complex)),
                    build_ci_geometry(np.zeros((4, 2), dtype=int), 4.0, 1.0, QPSK))


def test_count_secular_roots_scalar():
    inst = scalar_instance(beta=1.0, eps=1.0)
    u, t = scalar_point(inst)
    assert count_secular_roots(u, t, inst) == 2


def test_count_secular_roots_four_root_case():
    # two well-separated pole clusters; small q makes the interior valley of
    # the secular function dip below zero, adding a root pair
    chan = build_real_channel([[1.0 + 0j, 0.0], [0.0, 0.2 + 0j]])
    g = build_real_distortion(np.eye(2, dtype=complex))
    geom = build_ci_geometry([0, 0], [4.0, 4.0], [1.0, 1.0], QPSK)
    inst = ProblemInstance(chan, g, geom, 1e3, 1.0)
    rng = np.random.default_rng(12)
    t = np.zeros(4)
    u0 = update_u(t, np.zeros(4), inst)  # q = 0 at this point
    found = set()
    for _ in range(50):
        u = u0 + 0.02 * rng.standard_normal(4)
        found.add(count_secular_roots(u, t, inst))
    assert found <= {2, 4}
    assert 4 in found


def test_instance_validation():
    chan = build_real_channel([[1.0 + 0j]])
    geom = build_ci_geometry([0], [4.0], [1.0], QPSK)
    with pytest.raises(ValueError):
        ProblemInstance(chan, build_real_distortion([[0.0 + 0j]]), geom, 1.0, 0.1)
    with pytest.raises(ValueError):
        ProblemInstance(chan, build_real_distortion([[1.0 + 0j]]), geom, -1.0, 0.1)
    with pytest.raises(ValueError):
        ProblemInstance(chan, build_real_distortion([[1.0 + 0j]]), geom, 1.0, -0.1)
    with pytest.raises(ValueError, match="one slot"):
        ProblemInstance(chan, build_real_distortion([[1.0 + 0j]]),
                        build_ci_geometry([[0], [1]], 4.0, 1.0, QPSK), 1.0, 0.1)


def _assert_batch_equals_alone(proto, geoms, cfg):
    """Solving the slots of a stacked geometry in one batch equals solving
    each slot alone, and ``solve`` is exactly the one-slot batch's row."""
    batch = solve_batch(proto, geoms, cfg)
    for j, geom in enumerate(geoms):
        alone = solve_batch(proto, geoms[j:j + 1], cfg)
        report = solve(ProblemInstance(proto.channel, proto.distortion, geom,
                                       proto.beta, proto.epsilon), cfg)
        for f in fields(BatchSolveResult):
            np.testing.assert_array_equal(getattr(report, f.name), getattr(alone, f.name)[0],
                                          err_msg=f.name)
        assert report.stop_reason == alone.stop_reason[0]
        for single in (alone, report):
            assert single.iterations == batch.iterations[j]
            assert single.converged == batch.converged[j]
            assert single.limit_cycle == batch.limit_cycle[j]
        for name in ("u", "t", "w"):
            np.testing.assert_allclose(getattr(alone, name)[0], getattr(batch, name)[j],
                                       rtol=0, atol=1e-9)
            np.testing.assert_allclose(getattr(report, name), getattr(batch, name)[j],
                                       rtol=0, atol=1e-9)
    return batch


def _batch_problem(seed, n, slots, beta, eps, cond=None):
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    if cond is not None:
        left, _, right = np.linalg.svd(h)
        h = left @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ right
    geoms = build_ci_geometry(np.stack([rng.integers(0, 4, n) for _ in range(slots)]),
                              10.0, 1.0, QPSK)
    proto = ProblemInstance(build_real_channel(h),
                            build_real_distortion(np.eye(n, dtype=complex)),
                            geoms[0], beta, eps)
    return proto, geoms


def test_batch_rows_stop_independently():
    # slots stop at different iterations, and some run into the budget
    proto, geoms = _batch_problem(13, 4, 12, 100.0, 0.56)
    batch = _assert_batch_equals_alone(proto, geoms,
                                       SolverConfig(max_iterations=40, outer_tol=1e-6))
    assert len(set(batch.iterations[batch.converged].tolist())) > 1
    assert 0 < np.sum(~batch.converged) < len(geoms.symbols)
    assert np.all(batch.iterations[~batch.converged] == 40)


def test_batch_equals_alone_at_eps_zero():
    proto, geoms = _batch_problem(14, 3, 8, 10.0, 0.0)
    batch = _assert_batch_equals_alone(proto, geoms,
                                       SolverConfig(max_iterations=500, outer_tol=1e-8))
    np.testing.assert_array_equal(batch.w, 0.0)


def test_batch_equals_alone_when_rounding_lifts_q_at_the_start():
    # G = I and an ill-conditioned channel: at the start q = 0 exactly, but
    # its rounded value clears the degenerate threshold on some rows only.
    # The first w-step must still be the degenerate one on every row, or w
    # would follow the rounding, which differs between batch sizes.
    proto, geoms = _batch_problem(0, 3, 12, 1e6, 0.56, cond=1e3)
    a_inv = solver_module._ci_coefficients(geoms)[0]
    phi0, prod0 = solver_module._phi_product(proto, a_inv, geoms.ds, np.zeros((12, 6)))
    u0 = prod0[:, 6:12]             # G^{-1} y at w = 0
    rounded_flat = validation_module._w_parts(proto, u0 @ proto.g.T, phi0 @ proto.h)[2]
    assert 0 < np.sum(rounded_flat) < 12
    _assert_batch_equals_alone(proto, geoms, SolverConfig(max_iterations=30, outer_tol=1e-6))


def test_solve_batch_rejects_an_empty_batch():
    # a batch is a stacked geometry, and a stack of no slots is not built
    with pytest.raises(ValueError, match="got shape"):
        build_ci_geometry(np.zeros((0, 3), dtype=int), 10.0, 1.0, QPSK)



def test_root_search_certifies_a_sign_change():
    rng = np.random.default_rng(15)
    inst = random_instance(rng, 4, beta=10.0, eps=0.56)
    lam, poles, eps = inst.lam_bar_max, inst.poles, inst.epsilon
    inset = 1e-10
    qt2 = [validation_module._one_row_parts(*random_point(rng, inst), inst)[1][0]
           for _ in range(6)]
    # a squeezed root: q on the top eigenvector so small that the root lies
    # between the pole boundary and the inset point, and on the lowest one
    # large enough that hi lies well right of the inset point
    squeezed = np.zeros(8)
    squeezed[-1] = (0.5 * inset * lam * eps) ** 2
    squeezed[0] = (0.5 * (lam - poles[0]) * eps) ** 2
    # most of ||q|| on the lowest pole: the root lies near the pole boundary,
    # hi about ten times as far from it
    lopsided = np.zeros(8)
    lopsided[-1] = (0.01 * (lam - poles[0]) * eps) ** 2
    lopsided[0] = 100.0 * lopsided[-1]
    # q on the top eigenvector alone, as in the two-cycle: the root is hi
    top = np.zeros(8)
    top[-1] = (0.3 * lam * eps) ** 2
    qt2 = np.vstack(qt2 + [top, squeezed, lopsided])
    lo = lam * (1 + inset)
    hi = np.sqrt(qt2.sum(axis=1)) / eps + lam
    assert validation_module._secular_from_parts(lo, squeezed, poles, eps) <= 0.0
    assert hi[-2] > 1.1 * lo

    root = np.array([validation_module._root_from_parts(q, poles, eps, lam) for q in qt2])
    for q, mu in zip(qt2, root):
        assert validation_module._secular_from_parts(mu * (1 - 1e-12), q, poles, eps) > 0.0
        assert validation_module._secular_from_parts(mu * (1 + 1e-12), q, poles, eps) <= 0.0
    assert np.all((lam < root) & (root <= hi))
    assert root[-2] < lo
    assert root[-3] == pytest.approx(hi[-3], rel=1e-14)


def test_root_search_in_the_hard_case():
    # q puts no weight on the top pole, only on the lowest one: above
    # lam_bar_max, ||w(mu)|| decreases from ||w(lam_bar_max)||, which is finite
    rng = np.random.default_rng(15)
    inst = random_instance(rng, 4, beta=10.0, eps=0.56)
    lam, poles, eps = inst.lam_bar_max, inst.poles, inst.epsilon
    assert poles[0] < 0.9 * lam
    for ratio in (0.5, 0.99):
        # ||w(lam_bar_max)|| = ratio * eps < eps: no root above the pole boundary
        hard = np.zeros(8)
        hard[0] = (ratio * (lam - poles[0]) * eps) ** 2
        with pytest.raises(validation_module.RootSearchError):
            validation_module._root_from_parts(hard, poles, eps, lam)
    # ||w(lam_bar_max)|| = 2 eps > eps: the root is poles[0] + ||q|| / eps
    hard[0] = (2.0 * (lam - poles[0]) * eps) ** 2
    mu = validation_module._root_from_parts(hard, poles, eps, lam)
    assert validation_module._secular_from_parts(mu * (1 - 1e-12), hard, poles, eps) > 0.0
    assert validation_module._secular_from_parts(mu * (1 + 1e-12), hard, poles, eps) <= 0.0
    assert mu == pytest.approx(2.0 * lam - poles[0], rel=1e-14)


def test_root_search_returns_the_bound_when_it_is_the_root():
    # q on the top eigenvector alone: the root is the bracket's upper end
    # hi = ||q|| / eps + lam, and at these sizes psi(hi) rounds below zero,
    # where a bracketing search would see no sign change
    rng = np.random.default_rng(15)
    inst = random_instance(rng, 4, beta=10.0, eps=0.56)
    lam, poles, eps = inst.lam_bar_max, inst.poles, inst.epsilon
    assert poles[-1] == lam
    for size in (0.1, 0.2, 0.65):
        top = np.zeros(8)
        top[-1] = (size * lam * eps) ** 2
        hi = math.sqrt(top.sum()) / eps + lam
        assert 1.0 / math.sqrt(top[-1] / (hi - lam) ** 2) - 1.0 / eps < 0.0
        assert validation_module._root_from_parts(top, poles, eps, lam) == hi
        f = validation_module._secular_from_parts(hi, top, poles, eps)
        assert abs(f) / max(1.0, eps * eps) <= 4 * np.finfo(float).eps


def test_loop_w_step_is_the_inner_maximiser_of_the_previous_iterate():
    # The exact u-update leaves q = -P w, so the loop's closed-form w-step
    # (w -> -w) must equal the root-search maximiser at the iterate it follows.
    rng = np.random.default_rng(16)
    checked = 0
    for n in (2, 4, 8):
        for beta in (1.0, 100.0, 1e4, 1e6):
            for eps in (0.1, 0.56):
                for order in (4, 8):
                    for random_g in (False, True):
                        inst = random_instance(rng, n, beta=beta, eps=eps, order=order,
                                               random_g=random_g)
                        for k in (1, 2, 5, 10):
                            cfg = SolverConfig(max_iterations=k, outer_tol=1e-15)
                            prev = solve(inst, cfg)
                            if prev.converged:
                                continue
                            cfg.max_iterations = k + 1
                            nxt = solve(inst, cfg)
                            w = worst_case_w(prev.u, prev.t,
                                             solve_mu(prev.u, prev.t, inst), inst)
                            np.testing.assert_allclose(nxt.w, w, rtol=0, atol=1e-8 * eps,
                                                       err_msg=f"{n} {beta} {eps} {k}")
                            checked += 1
    assert checked >= 300


def test_objective_is_worst_case_of_returned_design():
    # solve reads the worst case in closed form (the maximiser is -w); the
    # reference root search must find the same value
    rng = np.random.default_rng(5)
    for beta in (1.0, 100.0, 1e4):
        inst = random_instance(rng, 8, beta=beta, eps=0.56, random_g=True)
        report = solve(inst, SolverConfig(max_iterations=20000, outer_tol=1e-3))
        u, t = report.u, report.t
        worst = relaxed_objective(u, t, worst_case_w(u, t, solve_mu(u, t, inst), inst), inst)
        assert report.objective == pytest.approx(worst, rel=1e-9), beta
        assert report.objective > report.trace[-1]   # w does not cancel here


@pytest.mark.parametrize("order", [4, 8, 16, 32])
def test_complex_block_products_equal_the_dense_ones(order):
    # alpha z + beta conj(z) on the interleaved pairs is the 2x2 block product
    rng = np.random.default_rng(order)
    const = PskConstellation(order, rng.uniform(0.0, 2.0 * math.pi))
    geoms = build_ci_geometry(np.stack([rng.integers(0, order, 5) for _ in range(7)]),
                              3.0, 1.0, const)
    a_inv, step, b, _ = solver_module._ci_coefficients(geoms)
    v = rng.standard_normal((7, 10))
    sigma2 = const.sigma_min ** 2
    a = solver_module._coefficients(const.normals)[:, geoms.symbols]
    a_dense = [block_diag(*gm.a_blocks) for gm in geoms]
    a_inv_dense = [block_diag(*gm.a_inv_blocks) for gm in geoms]
    for coef, dense in ((a, a_dense),
                        (a_inv, a_inv_dense),
                        (step, [sigma2 * m.T for m in a_inv_dense]),
                        (b, [np.eye(10) - sigma2 * (m.T @ m) for m in a_inv_dense])):
        expected = np.stack([m @ row for m, row in zip(dense, v)])
        scale = np.abs(dense).max() * np.abs(v).max()
        np.testing.assert_allclose(solver_module._bmul(coef, v), expected,
                                   rtol=0, atol=1e-15 * scale)


def test_qpsk_slack_step_is_a_projection():
    # QPSK's normals are orthonormal: B = I - A^{-T} A^{-1} = 0 up to its
    # table's rounding and there is no momentum, so the step is
    # max(A^{-T} r, 0) whatever the momentum iterate z
    rng = np.random.default_rng(17)
    geoms = build_ci_geometry(np.stack([rng.integers(0, 4, 3) for _ in range(4)]),
                              3.0, 1.0, QPSK)
    coefficients = solver_module._ci_coefficients(geoms)
    _, _, b, momentum = coefficients
    assert momentum == 0.0
    assert np.abs(b).max() <= 1e-16
    r, t, z = rng.standard_normal((3, 4, 6))
    t_new, z_new = validation_module._t_step(coefficients, r, t, z)
    expected = np.maximum(np.stack([block_diag(*gm.a_inv_blocks).T @ row
                                    for gm, row in zip(geoms, r)]), 0.0)
    np.testing.assert_allclose(t_new, expected, rtol=0, atol=1e-15 * np.abs(r).max())
    np.testing.assert_array_equal(z_new, t_new)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_loop_residual_is_the_closed_form(n):
    # the t-step's residual H (G u_k + w_{k+1}) - D s, w_{k+1} = -w_k, read as
    # K Phi(t_k) - D s + 2 H w_{k+1} from the u-step's product; and at the
    # start, K Phi(0) - D s + H w_1 with u_0 the w = 0 closed form.  At large
    # beta the residual is far smaller than the terms it sums, whose size
    # sets the tolerance.
    def check(closed, hgu, hw, ds, what):
        direct = hgu + hw - ds
        scale = np.linalg.norm(hgu) + np.linalg.norm(hw) + np.linalg.norm(ds)
        np.testing.assert_allclose(closed, direct, rtol=0, atol=1e-12 * scale,
                                   err_msg=what)

    rng = np.random.default_rng(40 + n)
    checked = 0
    for beta in (1.0, 100.0, 1e4):
        for eps in (0.0, 0.56):
            for random_g in (False, True):
                inst = random_instance(rng, n, beta=beta, eps=eps, random_g=random_g)
                h, g, ds = inst.h, inst.g, inst.ds
                w1 = solve(inst, SolverConfig(max_iterations=1)).w
                a_inv = solver_module._ci_coefficients(inst.geometry)[0]
                k_phi0 = solver_module._phi_product(inst, a_inv, inst.ds,
                                                    np.zeros((1, 2 * n)))[1][0, 4 * n:]
                u0 = update_u(np.zeros(2 * n), np.zeros(2 * n), inst)
                check(k_phi0 - ds + h @ w1, h @ g @ u0, h @ w1, ds,
                      f"{beta} {eps} {random_g} start")
                for k in (1, 2, 5):
                    rep = solve(inst, SolverConfig(max_iterations=k, outer_tol=1e-15))
                    w_next = -rep.w
                    prod = solver_module._phi_product(inst, a_inv, inst.ds, rep.t[None])[1][0]
                    u = prod[2 * n:4 * n] - inst.solve_g(rep.w[None])[0]
                    np.testing.assert_allclose(u, rep.u, rtol=1e-13, atol=0)
                    check(prod[4 * n:] - ds + 2.0 * (h @ w_next), h @ (g @ rep.u),
                          h @ w_next, ds, f"{beta} {eps} {random_g} {k}")
                    checked += 1
    assert checked == 36


def _every_iteration(monkeypatch, run):
    """``run()`` with the stopping test evaluated after every iteration, at
    every batch size: one block end (a ``_phi_product`` call) per iteration
    of the longest-running row, after the setup's two calls (K D s, and u_0
    at the start slack)."""
    calls = [0]

    def counted(*args, _original=solver_module._phi_product):
        calls[0] += 1
        return _original(*args)
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "_BLOCK", 1)
        patch.setattr(solver_module, "_LONG_BLOCK", 1)
        patch.setattr(solver_module, "_phi_product", counted)
        res = run()
    assert calls[0] == 2 + np.max(res.iterations)
    return res


def test_block_stop_equals_the_every_iteration_stop_on_a_batch(monkeypatch):
    # rows stop inside a block, on a block's last iteration, and on the
    # budget's last iteration while other rows run out of it
    block = solver_module._BLOCK
    proto, geoms = _batch_problem(20, 4, 40, 1.0, 0.56)
    cfg = SolverConfig(max_iterations=40, outer_tol=1e-6)
    blocked = solve_batch(proto, geoms, cfg)
    every = _every_iteration(monkeypatch, lambda: solve_batch(proto, geoms, cfg))
    stops = blocked.iterations[blocked.converged]
    assert np.any(stops % block != 0)
    assert np.any((stops % block == 0) & (stops < 40))
    assert np.any(stops == 40) and not np.all(blocked.converged)
    for name in ("iterations", "converged", "limit_cycle"):
        np.testing.assert_array_equal(getattr(blocked, name), getattr(every, name))
    for name in ("u", "t", "w", "fixed_point_residual_max"):
        want = getattr(every, name)
        np.testing.assert_allclose(getattr(blocked, name), want, rtol=0,
                                   atol=1e-13 * np.abs(want).max(), err_msg=name)


def test_block_stop_equals_the_every_iteration_stop_on_one_row(monkeypatch):
    # a one-row batch runs _LONG_BLOCK iterations per block
    block, long_block = solver_module._BLOCK, solver_module._LONG_BLOCK
    rng = np.random.default_rng(18)
    insts = [random_instance(rng, 4, beta=beta, eps=eps, order=order, random_g=True)
             for beta in (1.0, 1e4) for eps in (0.0, 0.56) for order in (4, 8)]
    outcomes = set()
    for budget in (1, block - 1, block, block + 1, long_block - 1, long_block,
                   long_block + 1):
        for tol in (1e-2, 1e-6):
            cfg = SolverConfig(max_iterations=budget, outer_tol=tol)
            for inst in insts:
                blocked = solve(inst, cfg)
                every = _every_iteration(monkeypatch, lambda: solve(inst, cfg))
                assert blocked.trace.size == blocked.iterations
                for name in ("iterations", "converged", "limit_cycle", "u", "t", "w",
                             "fixed_point_residual_max", "objective", "trace"):
                    np.testing.assert_array_equal(getattr(blocked, name),
                                                  getattr(every, name), err_msg=name)
                outcomes.add((blocked.converged, blocked.iterations == budget))
    assert outcomes >= {(True, False), (False, True)}


def _reference_loop(inst, cfg, t0=None):
    """The loop one iteration at a time from the public one-row steps,
    started at t = z = ``t0`` (0 by default) with u = ``update_u(t0, 0)``:
    the closed-form w-step (w_1 = +eps v_top, then w -> -w), ``apgd_t_step``
    with its residual taken directly from (u, w), ``update_u``, and the
    stopping test on the one- and two-iteration windows.  Returns
    (u, t, w, iterations, converged, limit_cycle)."""
    tol2 = cfg.outer_tol ** 2
    t = z = np.zeros(2 * inst.channel.n_r) if t0 is None else t0
    w = np.zeros(2 * inst.channel.n_t)
    u = update_u(t, w, inst)
    before = [(u, t), (u, t)]       # the iterates two and one steps back
    for k in range(1, cfg.max_iterations + 1):
        if inst.epsilon > 0:
            w = inst.epsilon * inst.evecs[:, -1] if k == 1 else -w
        t, z = apgd_t_step(SolverState(u, t, z, w), inst)
        u = update_u(t, w, inst)
        still = [float((u - pu) @ (u - pu)) <= tol2 * float(u @ u)
                 and float((t - pt) @ (t - pt)) <= tol2 * (1.0 + np.linalg.norm(t)) ** 2
                 for pu, pt in (before[1], before[0])]
        if any(still):
            return u, t, w, k, True, not still[0]
        before = [before[1], (u, t)]
    return u, t, w, cfg.max_iterations, False, False


def test_loop_equals_the_reference_loop():
    # the affine slack recurrence of _bcd (M1, M2 and the constants built
    # once) against the loop run step by step; QPSK has no momentum (no M2),
    # 8-PSK has, and eps > 0 makes the first step's constant differ from the
    # later ones
    rng = np.random.default_rng(21)
    outcomes = set()
    for order in (4, 8):
        for eps in (0.0, 0.56):
            for beta in (1.0, 100.0):
                for random_g in (False, True):
                    inst = random_instance(rng, 4, beta=beta, eps=eps, order=order,
                                           random_g=random_g)
                    t0 = design_batch(inst.channel, inst.geometry, 1.0 / beta)[1]
                    for budget in (1, 2, 16, 17):
                        for tol in (1e-2, 1e-8):
                            cfg = SolverConfig(max_iterations=budget, outer_tol=tol)
                            rep = solve(inst, cfg)
                            u, t, w, iterations, converged, limit_cycle = \
                                _reference_loop(inst, cfg, t0)
                            what = f"{order} {eps} {beta} {random_g} {budget} {tol}"
                            assert (rep.iterations, rep.converged, rep.limit_cycle) == \
                                (iterations, converged, limit_cycle), what
                            for got, want in ((rep.u, u), (rep.t, t), (rep.w, w)):
                                np.testing.assert_allclose(
                                    got, want, rtol=0, atol=1e-10 * np.abs(want).max(),
                                    err_msg=what)
                            outcomes.add((converged, limit_cycle))
    assert outcomes == {(False, False), (True, False), (True, True)}


def _warm_problem(rng, order, beta, eps):
    """A random 4x4 channel and G, 10 slots of one stacked geometry, and a
    start slack per slot: the exact min-max design's, scaled per slot, with
    some entries zeroed."""
    inst = random_instance(rng, 4, beta=beta, eps=eps, order=order, random_g=True)
    geoms = build_ci_geometry(rng.integers(0, order, (10, 4)), inst.geometry.gammas,
                              1.0, inst.geometry.constellation)
    t0 = design_batch(inst.channel, geoms, 1.0 / beta)[1] * rng.uniform(0.5, 1.5, (10, 1))
    t0[rng.random(t0.shape) < 0.2] = 0.0
    return ProblemInstance(inst.channel, inst.distortion, geoms[0], beta, eps), geoms, t0


@pytest.mark.parametrize("order", [4, 8])
def test_warm_started_batch_equals_the_reference_loop(order):
    # every row of a warm-started batch runs the reference loop from its own
    # start; 8-PSK's momentum term M2 acts on t_{-1} = t_0 in the first step.
    # Ten rows run 16-iteration blocks, so the budgets end inside a block, on
    # its end and across blocks.
    rng = np.random.default_rng(50 + order)
    block = solver_module._BLOCK
    outcomes = set()
    for eps in (0.0, 0.56):
        for beta in (1.0, 100.0, 1e4):
            proto, geoms, t0 = _warm_problem(rng, order, beta, eps)
            for budget in (1, 5, block, block + 3, 3 * block + 5):
                for tol in (1e-2, 1e-8):
                    cfg = SolverConfig(max_iterations=budget, outer_tol=tol)
                    batch = solve_batch(proto, geoms, cfg, start=t0)
                    for j, geom in enumerate(geoms):
                        inst = ProblemInstance(proto.channel, proto.distortion, geom, beta, eps)
                        want = SimpleNamespace(**dict(zip(_RUN, _reference_loop(inst, cfg,
                                                                                t0[j]))))
                        _assert_same_run(_row(batch, j), want,
                                         f"{eps} {beta} {budget} {tol} row {j}")
                        outcomes.add(want.converged)
    assert outcomes == {True, False}


def test_solve_batch_rejects_a_bad_start():
    rng = np.random.default_rng(57)
    proto, geoms, t0 = _warm_problem(rng, 4, 1.0, 0.56)
    bad = {"shape": t0[:-1], "one slot": t0[0], "negative": t0 - 1.0,
           "nan": np.where(t0 > 0, np.nan, t0), "inf": np.full(t0.shape, np.inf)}
    for start in bad.values():
        with pytest.raises(ValueError, match="start"):
            solve_batch(proto, geoms, SolverConfig(max_iterations=3), start=start)


def test_design_batch_slack_gives_the_min_max_optimum(oracle_module):
    # at delta = 1/beta the kernel's t* is the exact min-max design's slack:
    # F* = Phi(t*)^T (H H^T + I/beta)^{-1} Phi(t*) + beta eps^2 lam_max(P)
    # equals the oracle's optimum
    rng = np.random.default_rng(58)
    checked = 0
    for n in (2, 4, 8):
        for order in (4, 8):
            for beta in (1.0, 100.0, 1e4):
                inst = random_instance(rng, n, beta=beta, eps=0.56, order=order,
                                       random_g=True)
                geoms = build_ci_geometry(rng.integers(0, order, (6, n)),
                                          inst.geometry.gammas, 1.0, inst.geometry.constellation)
                oracle = oracle_module.MinMaxOracle(inst.h, inst.g, beta, 0.56)
                _, t_star = design_batch(inst.channel, geoms, 1.0 / beta)
                assert np.all(t_star >= 0)
                for geom, t in zip(geoms, t_star):
                    a_inv = block_diag(*geom.a_inv_blocks)
                    want = oracle.optimum(geom.ds, a_inv)[0]
                    c = solve_triangular(oracle.chol, geom.ds + a_inv @ t, lower=True)
                    got = float(c @ c) + beta * 0.56 ** 2 * float(oracle.lam[-1])
                    assert got == pytest.approx(want, rel=1e-12), (n, order, beta)
                    checked += 1
    assert checked == 108


def test_design_batch_at_delta_zero_is_nominal_slp():
    # the stacked kernel equals nominal_slp slot by slot, to the last bit
    rng = np.random.default_rng(59)
    for n, order in ((1, 4), (2, 8), (4, 4), (8, 4), (8, 16)):
        h = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
        chan = build_real_channel(h)
        geoms = build_ci_geometry(rng.integers(0, order, (20, n)), 10.0, 1.0,
                                  PskConstellation(order))
        x, t = design_batch(chan, geoms, 0.0)
        assert x.shape == (20, 2 * n) and t.shape == (20, 2 * n)
        for j, geom in enumerate(geoms):
            x_j, t_j = nominal_slp(chan, geom)
            np.testing.assert_array_equal(x[j], x_j)
            np.testing.assert_array_equal(t[j], t_j)


def test_design_batch_slack_is_homogeneous_in_ds():
    # D s scales by sqrt(gamma), and so do both designs' slacks: the sweep
    # solves t* at one gamma per block and scales it to the others
    rng = np.random.default_rng(60)
    for delta in (0.0, 1.0, 1e-2, 1e-4):
        inst = random_instance(rng, 8, order=8)
        symbols = rng.integers(0, 8, (20, 8))
        const = inst.geometry.constellation
        _, t_ref = design_batch(inst.channel, build_ci_geometry(symbols, 2.0, 1.0, const), delta)
        for c in (0.3, 2.0, 10.0):
            _, t = design_batch(inst.channel,
                                build_ci_geometry(symbols, 2.0 * c * c, 1.0, const), delta)
            np.testing.assert_allclose(t, c * t_ref, rtol=1e-12,
                                       atol=1e-12 * c * np.abs(t_ref).max())


def test_max_iterations_must_be_an_integer():
    assert SolverConfig(max_iterations=1000.0).max_iterations == 1000
    assert type(SolverConfig(max_iterations=1000.0).max_iterations) is int
    assert type(SolverConfig(max_iterations=np.int64(7)).max_iterations) is int
    for bad in (2.5, True, False, math.nan, math.inf, "10"):
        with pytest.raises(ValueError, match="max_iterations"):
            SolverConfig(max_iterations=bad)


@pytest.mark.parametrize("reason, eps, budget, tol", [
    ("tolerance", 0.0, 2000, 1e-8), ("two_cycle", 0.56, 2000, 1e-8),
    ("budget", 0.56, 3, 1e-12)])
def test_stop_reason(reason, eps, budget, tol):
    proto, geoms = _batch_problem(30, 3, 4, 1.0, eps)
    cfg = SolverConfig(max_iterations=budget, outer_tol=tol)
    batch = solve_batch(proto, geoms, cfg)
    np.testing.assert_array_equal(batch.stop_reason, reason)
    report = solve(ProblemInstance(proto.channel, proto.distortion, geoms[0],
                                   proto.beta, proto.epsilon), cfg)
    assert report.stop_reason == reason
    assert (report.converged, report.limit_cycle) == {
        "tolerance": (True, False), "two_cycle": (True, True),
        "budget": (False, False)}[reason]


_RUN = ("u", "t", "w", "iterations", "converged", "limit_cycle")


def _assert_same_run(got, want, what):
    """Equal outcomes and w, and u and t within 1e-10 (t on the stopping
    test's scale 1 + ||t||: at large beta t is a difference of far larger
    terms)."""
    assert (got.iterations, got.converged, got.limit_cycle) == \
        (want.iterations, want.converged, want.limit_cycle), what
    np.testing.assert_allclose(got.u, want.u, rtol=0, atol=1e-10 * np.abs(want.u).max(),
                               err_msg=what)
    np.testing.assert_allclose(got.t, want.t, rtol=0,
                               atol=1e-10 * (1.0 + np.linalg.norm(want.t)), err_msg=what)
    np.testing.assert_array_equal(got.w, want.w, err_msg=what)


@pytest.mark.parametrize("order", [4, 8])
def test_loop_equals_the_reference_loop_on_long_budgets(order):
    # QPSK's slack recurrence has no t_{k-2} part, 8-PSK's has
    rng = np.random.default_rng(22 + order)
    outcomes = set()
    for eps in (0.0, 0.56):
        for beta in (1.0, 100.0, 1e4):
            for random_g in (False, True):
                inst = random_instance(rng, 4, beta=beta, eps=eps, order=order,
                                       random_g=random_g)
                t0 = design_batch(inst.channel, inst.geometry, 1.0 / beta)[1]
                for budget in (200, 2000):
                    cfg = SolverConfig(max_iterations=budget, outer_tol=1e-8)
                    want = SimpleNamespace(**dict(zip(_RUN, _reference_loop(inst, cfg, t0))))
                    report = solve(inst, cfg)
                    _assert_same_run(report, want, f"{eps} {beta} {random_g} {budget}")
                    outcomes.add(report.stop_reason)
    assert outcomes == {"tolerance", "two_cycle", "budget"}


def _row(res, j=0):
    """Row j of a :class:`BatchSolveResult`, as the run outcome
    :func:`_assert_same_run` reads."""
    return SimpleNamespace(**{name: getattr(res, name)[j] for name in _RUN})


def test_block_stop_equals_the_every_iteration_stop_on_a_long_run(monkeypatch):
    # a row whose slack settles over many blocks, from the paper's t = 0
    inst = random_instance(np.random.default_rng(1), 4, beta=100.0, eps=0.56)
    cfg = SolverConfig(max_iterations=2000, outer_tol=1e-8)
    zeros = np.zeros_like(inst.ds)
    every = _every_iteration(monkeypatch,
                             lambda: solve_batch(inst, inst.geometry, cfg, start=zeros))
    report = _row(solve_batch(inst, inst.geometry, cfg, start=zeros))
    assert report.iterations > 4 * solver_module._LONG_BLOCK
    _assert_same_run(report, _row(every), "blocked against every iteration")


def test_small_batch_equals_alone_on_long_budgets():
    # a batch of few rows runs _LONG_BLOCK iterations per block, and its
    # rows leave it at different block ends
    proto, geoms = _batch_problem(34, 4, 6, 100.0, 0.56)
    cfg = SolverConfig(max_iterations=2000, outer_tol=1e-8)
    batch = _assert_batch_equals_alone(proto, geoms, cfg)
    assert len(set((batch.iterations - 1) // solver_module._LONG_BLOCK)) > 1
    for j, geom in enumerate(geoms):
        alone = solve(ProblemInstance(proto.channel, proto.distortion, geom,
                                      proto.beta, proto.epsilon), cfg)
        _assert_same_run(alone, _row(batch, j), f"row {j}")


def test_solve_is_its_one_slot_batch_from_the_exact_designs_slack():
    # solve and solve_batch both start at t* = design_batch(..., 1/beta)[1]
    # when given no start, so solve equals its one-slot batch to the last
    # bit, with and without t* passed explicitly
    rng = np.random.default_rng(61)
    for order in (4, 8):
        for beta in (1.0, 100.0, 1e4):
            for eps in (0.0, 0.56):
                inst = random_instance(rng, 4, beta=beta, eps=eps, order=order, random_g=True)
                t_star = design_batch(inst.channel, inst.geometry, 1.0 / beta)[1]
                cfg = SolverConfig(max_iterations=300, outer_tol=1e-8)
                report = solve(inst, cfg)
                for start in (None, t_star):
                    batch = solve_batch(inst, inst.geometry, cfg, start=start)
                    for f in fields(BatchSolveResult):
                        np.testing.assert_array_equal(
                            getattr(report, f.name), getattr(batch, f.name)[0],
                            err_msg=f"{order} {beta} {eps} {f.name} {start is None}")


def test_minmax_optimum_equals_the_oracle(oracle_module):
    # the library's certificate (F*, u*, t*) against perfbench's independent
    # oracle: F* within 1e-12 relative
    rng = np.random.default_rng(62)
    checked = 0
    for n in (1, 2, 4, 8):
        for order in (4, 8):
            for beta in (1.0, 100.0, 1e4, 1e6):
                for eps in (0.0, 0.56):
                    inst = random_instance(rng, n, beta=beta, eps=eps, order=order,
                                           random_g=True)
                    a_inv = block_diag(*inst.geometry.a_inv_blocks)
                    oracle = oracle_module.MinMaxOracle(inst.h, inst.g, beta, eps)
                    want, u_want, t_want = oracle.optimum(inst.ds, a_inv)
                    f_star, u_star, t_star = solver_module.minmax_optimum(inst)
                    what = f"{n} {order} {beta} {eps}"
                    assert f_star == pytest.approx(want, rel=1e-12), what
                    np.testing.assert_allclose(t_star, t_want, rtol=0,
                                               atol=1e-9 * (1.0 + np.abs(t_want).max()),
                                               err_msg=what)
                    np.testing.assert_allclose(u_star, u_want, rtol=0,
                                               atol=1e-9 * np.abs(u_want).max(), err_msg=what)
                    # the certificate bounds every design's worst case from below
                    report = solve(inst, SolverConfig(max_iterations=300, outer_tol=1e-6))
                    assert report.objective >= f_star * (1.0 - 1e-12), what
                    checked += 1
    assert checked == 64


@pytest.mark.parametrize("beta", [1.0, 1e4, 1e8, 1e12, 1e15])
def test_solve_on_a_rank_deficient_channel(beta):
    # two users with equal channel rows make H H^T singular; solve factors
    # H H^T + I/beta for its start, whose rounding can leave the sum
    # indefinite at beta = 1e15, where the factor comes from a QR instead
    g = build_real_distortion(np.eye(4, dtype=complex))
    geom = build_ci_geometry([0, 1, 2], 10.0, 1.0, QPSK)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        h = (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))) / math.sqrt(2)
        h[1] = h[0]
        chan = build_real_channel(h)
        l_inv = chan.whitened(1.0 / beta)[0]
        assert np.array_equal(l_inv, np.tril(l_inv))
        factor = np.linalg.inv(l_inv)
        gram = chan.matrix @ chan.matrix.T + np.eye(6) / beta
        np.testing.assert_allclose(factor @ factor.T, gram, rtol=0,
                                   atol=1e-13 * np.abs(gram).max(), err_msg=f"{seed}")
        for eps in (0.0, 0.56):
            report = solve(ProblemInstance(chan, g, geom, beta, eps))
            assert report.converged, (seed, eps)
            assert np.all(np.isfinite(report.u)) and report.t.min() >= 0
            assert np.isfinite(report.objective)

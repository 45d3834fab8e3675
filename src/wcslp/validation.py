"""Numerical property checks over randomly drawn design problems.

Each check draws seeded random instances and measures one property of the
solver stack (root bracketing, inner-maximiser dominance, the closed-form
fixed point, slack-update optimality, secular root parity).  They back the
``validate`` CLI subcommand at quick settings and the acceptance suite at
full counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .constellation import PskConstellation, build_ci_geometry
from .realify import build_real_channel, build_real_distortion
from .solver import (ProblemInstance, SolverConfig, SolverState, apgd_t_step,
                     mu_bracket, relaxed_objective, secular_value, solve,
                     solve_mu, worst_case_w)


@dataclass
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: margin={self.margin:.3e} ({self.detail})"


def random_instance(rng: np.random.Generator, n_t: int, n_r: int | None = None,
                    beta: float = 10.0, eps: float = 0.56, order: int = 4,
                    random_g: bool = False) -> ProblemInstance:
    """Random CSCG channel, random symbols, uniform target SNR in [0, 16] dB."""
    n_r = n_t if n_r is None else n_r
    h = (rng.standard_normal((n_r, n_t))
         + 1j * rng.standard_normal((n_r, n_t))) / math.sqrt(2.0)
    if random_g:
        gbar = np.eye(n_t) + 0.3 * (rng.standard_normal((n_t, n_t))
                                    + 1j * rng.standard_normal((n_t, n_t))) / math.sqrt(2.0)
    else:
        gbar = np.eye(n_t, dtype=complex)
    const = PskConstellation(order)
    gamma = 10.0 ** (rng.uniform(0.0, 16.0) / 10.0)
    geom = build_ci_geometry(rng.integers(0, order, n_r), np.full(n_r, gamma),
                             np.ones(n_r), const)
    return ProblemInstance(build_real_channel(h), build_real_distortion(gbar),
                           geom, beta, eps)


def random_point(rng: np.random.Generator, instance: ProblemInstance):
    """A random (u, t) pair with non-negative slack."""
    u = rng.standard_normal(2 * instance.channel.n_t)
    t = np.abs(rng.standard_normal(2 * instance.channel.n_r))
    return u, t


def check_bracketing(n_instances: int = 200, seed: int = 0,
                     f_tol: float = 1e-8, norm_tol: float = 1e-6) -> CheckResult:
    """Root inside the bracket, residual |f(mu*)| small, ||w*|| on the sphere."""
    rng = np.random.default_rng(seed)
    worst_f = 0.0
    worst_norm = 0.0
    bracket_ok = True
    sizes = (2, 4, 8)
    betas = (1.0, 10.0, 100.0)
    epss = (0.1, 0.56)
    for i in range(n_instances):
        inst = random_instance(rng, sizes[i % 3], beta=betas[(i // 3) % 3],
                               eps=epss[(i // 9) % 2],
                               order=4 if i % 5 else 8, random_g=(i % 7 == 0))
        u, t = random_point(rng, inst)
        lo, hi = mu_bracket(u, t, inst)
        mu = solve_mu(u, t, inst)
        if not lo < mu <= hi * (1.0 + 1e-12):
            bracket_ok = False
        f_rel = abs(secular_value(mu, u, t, inst)) / max(1.0, inst.epsilon ** 2)
        worst_f = max(worst_f, f_rel)
        w = worst_case_w(u, t, mu, inst)
        worst_norm = max(worst_norm,
                         abs(float(np.linalg.norm(w)) / inst.epsilon - 1.0))
    passed = bracket_ok and worst_f <= f_tol and worst_norm <= norm_tol
    return CheckResult("bracketing", passed, min(f_tol - worst_f, norm_tol - worst_norm),
                       f"worst |f|/max(1,eps^2)={worst_f:.2e}, "
                       f"worst ||w||/eps err={worst_norm:.2e}, in-bracket={bracket_ok}")


def check_sphere_dominance(n_instances: int = 20, n_samples: int = 10_000,
                           seed: int = 1, tol: float = 1e-9) -> CheckResult:
    """No sampled w on the sphere beats the secular-root maximiser."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for i in range(n_instances):
        inst = random_instance(rng, (2, 4, 8)[i % 3], beta=(1.0, 10.0, 100.0)[i % 3],
                               eps=(0.1, 0.56)[i % 2])
        u, t = random_point(rng, inst)
        mu = solve_mu(u, t, inst)
        w_star = worst_case_w(u, t, mu, inst)
        obj_star = relaxed_objective(u, t, w_star, inst)
        samples = rng.standard_normal((n_samples, 2 * inst.channel.n_t))
        samples *= inst.epsilon / np.linalg.norm(samples, axis=1)[:, None]
        best = float(np.max(relaxed_objective(u, t, samples, inst)))
        worst = max(worst, (best - obj_star) / abs(obj_star))
    return CheckResult("sphere-dominance", worst <= tol, tol - worst,
                       f"max sampled excess={worst:.2e} over {n_instances} instances "
                       f"x {n_samples} sphere points")


def check_fixed_point(n_instances: int = 20, seed: int = 2,
                      tol: float = 1e-10) -> CheckResult:
    """G u + w = P^{-1} H^T Phi(t) after every u-update of full solver runs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    cfg = SolverConfig(max_iterations=400, outer_tol=1e-9)
    for i in range(n_instances):
        inst = random_instance(rng, (2, 4)[i % 2], beta=(1.0, 10.0, 100.0)[i % 3],
                               eps=(0.0, 0.1, 0.56)[i % 3], random_g=(i % 2 == 0))
        report = solve(inst, cfg)
        worst = max(worst, report.fixed_point_residual_max)
    return CheckResult("fixed-point", worst <= tol, tol - worst,
                       f"max ||Gu+w - P^-1 H^T Phi(t)|| / ||Phi(t)|| = {worst:.2e}")


def _reference_apgd_step(state: SolverState, inst: ProblemInstance):
    """Slack update recomputed from scratch (independent of the solver's cache)."""
    a = inst.geometry.a
    svals = np.linalg.svd(a, compute_uv=False)
    smin_sq = float(svals.min()) ** 2
    kappa = (float(svals.max()) / float(svals.min())) ** 2
    phi_m = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    b = np.eye(a.shape[0]) - smin_sq * np.linalg.inv(a @ a.T)
    r = inst.h @ (inst.g @ state.u + state.w) - inst.ds
    t_new = np.maximum(b @ state.z + smin_sq * np.linalg.solve(a.T, r), 0.0)
    z_new = t_new + phi_m * (t_new - state.t)
    return t_new, z_new


def check_apgd_oracle(n_instances: int = 50, seed: int = 3,
                      tol: float = 1e-6) -> CheckResult:
    """Slack updates match an independent step recomputation and, iterated to
    a fixed point, an exact NNLS solution."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_step = 0.0
    for i in range(n_instances):
        inst = random_instance(rng, (2, 4, 8)[i % 3], beta=(1.0, 100.0)[i % 2],
                               eps=0.56, order=(4, 8)[i % 2])
        u = rng.standard_normal(2 * inst.channel.n_t)
        w = rng.standard_normal(2 * inst.channel.n_t)
        w *= inst.epsilon / np.linalg.norm(w)
        n2 = 2 * inst.channel.n_r
        probe = SolverState(u=u, t=np.abs(rng.standard_normal(n2)),
                            z=rng.standard_normal(n2), w=w)
        got_t, got_z = apgd_t_step(probe, inst)
        ref_t, ref_z = _reference_apgd_step(probe, inst)
        worst_step = max(worst_step,
                         float(np.max(np.abs(got_t - ref_t))),
                         float(np.max(np.abs(got_z - ref_z))))
        state = SolverState(u=u, t=np.zeros(n2), z=np.zeros(n2), w=w)
        for _ in range(200_000):
            t_new, z_new = apgd_t_step(state, inst)
            delta = max(float(np.max(np.abs(t_new - state.t))),
                        float(np.max(np.abs(z_new - state.z))))
            state.t, state.z = t_new, z_new
            if delta <= 1e-13:
                break
        r = inst.h @ (inst.g @ u + w) - inst.ds
        t_ref, _ = nnls(inst.geometry.a_inv, r)
        worst = max(worst, float(np.max(np.abs(state.t - t_ref))))
    passed = worst <= tol and worst_step <= 1e-9
    return CheckResult("apgd-nnls-oracle", passed, tol - max(worst, worst_step),
                       f"max |t - t_nnls|_inf = {worst:.2e}, "
                       f"max one-step deviation = {worst_step:.2e}")


def check_root_parity(n_instances: int = 100, seed: int = 4) -> CheckResult:
    """Secular root count is even and within [2, 2 rank(H)] (single user)."""
    from .solver import count_secular_roots

    rng = np.random.default_rng(seed)
    ok = True
    counts = []
    for i in range(n_instances):
        inst = random_instance(rng, n_t=(1, 2, 3)[i % 3], n_r=1,
                               beta=(1.0, 10.0, 100.0)[i % 3],
                               eps=(0.1, 0.56, 1.0)[i % 3])
        u, t = random_point(rng, inst)
        z = count_secular_roots(u, t, inst)
        counts.append(z)
        rank = np.linalg.matrix_rank(inst.h)
        if z % 2 or not 2 <= z <= 2 * rank:
            ok = False
    return CheckResult("secular-root-parity", ok, 0.0 if ok else -1.0,
                       f"counts seen: {sorted(set(counts))}")


def run_all(seed: int = 0, quick: bool = True) -> list[CheckResult]:
    scale = 1 if quick else 5
    return [
        check_bracketing(n_instances=200 * scale, seed=seed),
        check_sphere_dominance(n_instances=10 * scale, seed=seed + 1),
        check_fixed_point(n_instances=10 * scale, seed=seed + 2),
        check_apgd_oracle(n_instances=20 * scale, seed=seed + 3),
        check_root_parity(n_instances=100 * scale, seed=seed + 4),
    ]

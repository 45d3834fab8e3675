"""Numerical property checks over randomly drawn design problems, and the
reference maths they check the solver against.

The inner maximiser over ||w|| <= eps is w = -(P - mu I)^{-1} q, with
P = H^T H + (1/beta) I, q = P G u - H^T Phi(t) and mu the largest root of

    f(mu) = q^T (P - mu I)^{-2} q - eps^2,

which lies in (lam_bar_max, ||q||/eps + lam_bar_max], lam_bar_max =
||H||^2 + 1/beta (More and Sorensen's trust-region secular equation).  The
solver has that maximiser in closed form (see :func:`wcslp.solver._bcd`), so
no run path searches for the root.  ``solve_mu`` keeps one reference search,
a Brent root finder that brackets the reciprocal form
psi(mu) = 1/||w(mu)|| - 1/eps, finite and increasing on the whole bracket,
with its diagnostics; it and the one-design views of the loop's steps
(``worst_case_w``, ``apgd_t_step``, ``update_u``) serve only the checks.

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
from scipy.linalg import block_diag
from scipy.optimize import brentq, nnls

from .constellation import PskConstellation, build_ci_geometry
from .realify import build_real_channel, build_real_distortion
from .solver import (ProblemInstance, SolverConfig, _bmul, _ci_coefficients, _degenerate_w,
                     _phi_product, _sq, phi, relaxed_objective, solve)

# relative size of q below which the inner maximisation is treated as the
# degenerate (pure eigenvector) case
_DEGENERATE_RTOL = 1e-13
# brentq's tightest relative tolerance
_BRENT_RTOL = 4.0 * np.finfo(float).eps


class SecularPoleError(ValueError):
    """Evaluation of the secular function at (or within rounding of) a pole."""


class RootSearchError(RuntimeError):
    """No sign change of the secular function above the pole boundary."""


# -- the secular equation and its reference root search ---------------------

def _w_parts(instance: ProblemInstance, gu, ht_phi):
    """q in the eigenbasis of P, its squares, and the rows where q = 0."""
    pgu = gu @ instance.hth.T + gu / instance.beta
    qt = (pgu - ht_phi) @ instance.evecs
    qt2 = qt * qt
    # ||q|| <= rtol * max(1, ||P G u||, ||H^T Phi||), squared
    scale2 = np.maximum(1.0, np.maximum(_sq(pgu), _sq(ht_phi)))
    return qt, qt2, qt2.sum(axis=1) <= _DEGENERATE_RTOL ** 2 * scale2


def _one_row_parts(u, t, instance: ProblemInstance):
    """``_w_parts`` of one design, as one-row arrays."""
    gu = np.asarray(u, dtype=float)[None] @ instance.g.T
    return _w_parts(instance, gu, phi(t, instance.geometry)[None] @ instance.h)


def _secular_from_parts(mu: float, qt2: np.ndarray, poles: np.ndarray,
                        eps: float) -> float:
    diff = poles - mu
    if np.min(np.abs(diff)) <= 1e-13 * max(1.0, abs(mu)):
        raise SecularPoleError(f"mu={mu!r} is within rounding of a pole of f")
    return float(np.sum(qt2 / (diff * diff)) - eps * eps)


def _root_from_parts(qt2: np.ndarray, poles: np.ndarray, eps: float, lam: float) -> float:
    """Largest secular root from precomputed eigen-parts.

    The zero of psi(mu) = 1/||w(mu)|| - 1/eps, with ||w(mu)||^2 =
    sum qt2 / (poles - mu)^2, in (lam, ||q||/eps + lam]: psi is finite and
    increasing there, and a pole that q weighs makes psi(lam) = -1/eps.  One
    Brent search (``brentq``) at its tightest relative tolerance finds it.
    Raises RootSearchError when psi(lam) >= 0 (no root above lam).
    """
    weighed = qt2 > 0.0

    def psi(mu):
        d2 = (poles - mu) ** 2
        with np.errstate(divide="ignore"):
            norm2 = float(np.sum(np.divide(qt2, d2, out=np.zeros_like(d2), where=weighed)))
        return 1.0 / math.sqrt(norm2) - 1.0 / eps

    hi = math.sqrt(float(qt2.sum())) / eps + lam
    psi_lo = psi(lam)
    if psi_lo >= 0.0:
        raise RootSearchError(
            "no sign change above the pole boundary: "
            f"lam_bar_max={lam!r}, psi(lam_bar_max)={psi_lo!r}, eps={eps!r}")
    if psi(hi) <= 0.0:
        # the bound is attained (q on the top eigenvector), up to rounding
        return hi
    # xtol is absolute; scaled by lam < mu it is relative too
    return brentq(psi, lam, hi, xtol=_BRENT_RTOL * lam, rtol=_BRENT_RTOL)


def secular_value(mu: float, u, t, instance: ProblemInstance) -> float:
    """Secular function f(mu) = q^T (P - mu I)^{-2} q - eps^2."""
    qt2 = _one_row_parts(u, t, instance)[1]
    return _secular_from_parts(mu, qt2[0], instance.poles, instance.epsilon)


def mu_bracket(u, t, instance: ProblemInstance) -> tuple[float, float]:
    """Root bracket (lam_bar_max, ||q||/eps + lam_bar_max] for the multiplier."""
    if instance.epsilon <= 0:
        raise ValueError("bracket undefined for epsilon = 0 (w is fixed to 0)")
    _, qt2, degen = _one_row_parts(u, t, instance)
    if degen[0]:
        raise ValueError("degenerate q = 0: no secular root exists")
    qn = math.sqrt(float(qt2.sum()))
    return instance.lam_bar_max, qn / instance.epsilon + instance.lam_bar_max


def solve_mu(u, t, instance: ProblemInstance) -> float:
    """Largest root of the secular equation at (u, t).

    The reference root search of the property checks (see
    :func:`_root_from_parts`); neither :func:`solve` nor the loop runs it.
    Returns lam_bar_max for the degenerate q = 0 case (the caller then
    builds w from the top eigenvector of P).
    """
    if instance.epsilon <= 0:
        raise ValueError("solve_mu requires epsilon > 0")
    _, qt2, degen = _one_row_parts(u, t, instance)
    if degen[0]:
        return instance.lam_bar_max
    return _root_from_parts(qt2[0], instance.poles, instance.epsilon, instance.lam_bar_max)


def worst_case_w(u, t, mu: float, instance: ProblemInstance) -> np.ndarray:
    """Inner maximiser w = -(P - mu I)^{-1} q on the distortion sphere."""
    if instance.epsilon == 0:
        return np.zeros(2 * instance.channel.n_t)
    qt, _, degen = _one_row_parts(u, t, instance)
    if degen[0]:
        return _degenerate_w(1, instance)[0]
    if np.min(np.abs(instance.poles - mu)) <= 1e-13 * max(1.0, abs(mu)):
        raise SecularPoleError(f"shift mu={mu!r} is singular")
    return (qt[0] / (mu - instance.poles)) @ instance.evecs.T


def count_secular_roots(u, t, instance: ProblemInstance) -> int:
    """Number of real roots of the secular function (diagnostic, small sizes).

    The real line is partitioned at the distinct poles of f.  On each outer
    tail f is monotone with limit -eps^2, giving one root per tail; on each
    interior interval f is strictly convex, so the sign of its minimum
    (the root of f', found by ``brentq``) decides between zero and two roots.
    Tangential double roots count as two.
    """
    if instance.epsilon <= 0:
        return 0
    qt2 = _one_row_parts(u, t, instance)[1][0]
    total = float(qt2.sum())
    if not total > 0.0:
        raise ValueError("count_secular_roots requires q != 0")
    # cluster numerically coincident eigenvalues (eigh sorts them) into
    # single poles, and drop the poles that q does not weigh
    poles = instance.poles
    gaps = np.diff(poles) > 1e-9 * np.maximum(1.0, np.abs(poles[1:]))
    starts = np.flatnonzero(np.r_[True, gaps])
    weights = np.add.reduceat(qt2, starts)
    keep = weights > total * 1e-28
    poles_arr, weights_arr = poles[starts][keep], weights[keep]
    eps2 = instance.epsilon ** 2

    def f(mu):
        d = poles_arr - mu
        return float(np.sum(weights_arr / (d * d))) - eps2

    def fprime(mu):
        d = poles_arr - mu
        return float(2.0 * np.sum(weights_arr / (d * d * d)))

    count = 2  # one root on each monotone tail
    for p_left, p_right in zip(poles_arr[:-1], poles_arr[1:]):
        width = p_right - p_left
        lo = p_left + 1e-9 * width
        hi = p_right - 1e-9 * width
        if fprime(lo) >= 0.0 or fprime(hi) <= 0.0:
            continue  # minimum sits inside a guard sliver next to a pole
        if f(brentq(fprime, lo, hi, xtol=_BRENT_RTOL * p_right, rtol=_BRENT_RTOL)) <= 0.0:
            count += 2  # a tangency counts with multiplicity
    return count


# -- one-design views of the slack and u steps ------------------------------

@dataclass
class SolverState:
    """One design's iterates, as :func:`apgd_t_step` takes them."""

    u: np.ndarray
    t: np.ndarray
    z: np.ndarray
    w: np.ndarray


def _t_step(coefficients: list, r, t, z):
    """Accelerated projected-gradient step on the slack of each slot, given
    the residual r = H (G u + w) - D s and the slots' coefficients
    (:func:`~wcslp.solver._ci_coefficients`)."""
    _, step, b, momentum = coefficients
    t_new = np.maximum(_bmul(b, z) + _bmul(step, r), 0.0)
    return t_new, t_new + momentum * (t_new - t)


def apgd_t_step(state: SolverState, instance: ProblemInstance
                ) -> tuple[np.ndarray, np.ndarray]:
    """One accelerated projected-gradient step on the non-negative slack.

    Equivalent to a projected gradient step of size sigma_min^2 / 2 on
    ||H(Gu+w) - Ds - A^{-1} t||^2 from the momentum iterate z, followed by
    the momentum extrapolation.
    """
    t_new, z_new = _t_step(_ci_coefficients(instance.geometry),
                           _residual(state.u, state.w, instance),
                           np.asarray(state.t)[None],
                           np.ascontiguousarray(state.z, dtype=float)[None])
    return t_new[0], z_new[0]


def _residual(u, w, instance: ProblemInstance) -> np.ndarray:
    """r = H (G u + w) - D s of one design, as a stack of one row."""
    x = np.asarray(u, dtype=float)[None] @ instance.g.T + w
    return x @ instance.h.T - instance.ds


def update_u(t, w, instance: ProblemInstance) -> np.ndarray:
    """Closed-form minimiser u = G^{-1} P^{-1} H^T Phi(t) - G^{-1} w."""
    g_inv_w = instance.solve_g(np.asarray(w, dtype=float)[None])
    prod = _phi_product(instance, _ci_coefficients(instance.geometry)[0], instance.ds,
                        np.ascontiguousarray(t, dtype=float)[None])[1]
    n = len(instance.g)
    return prod[0, n:2 * n] - g_inv_w[0]


# -- the property checks ----------------------------------------------------

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
    a = block_diag(*inst.geometry.a_blocks)
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
        # apgd_t_step's iteration, with its coefficients and residual taken once
        coefficients = _ci_coefficients(inst.geometry)
        residual = _residual(u, w, inst)
        t, z = np.zeros((2, 1, n2))
        for _ in range(200_000):
            t_new, z_new = _t_step(coefficients, residual, t, z)
            delta = max(float(np.max(np.abs(t_new - t))), float(np.max(np.abs(z_new - z))))
            t, z = t_new, z_new
            if delta <= 1e-13:
                break
        r = inst.h @ (inst.g @ u + w) - inst.ds
        t_ref, _ = nnls(block_diag(*inst.geometry.a_inv_blocks), r)
        worst = max(worst, float(np.max(np.abs(t[0] - t_ref))))
    passed = worst <= tol and worst_step <= 1e-9
    return CheckResult("apgd-nnls-oracle", passed, tol - max(worst, worst_step),
                       f"max |t - t_nnls|_inf = {worst:.2e}, "
                       f"max one-step deviation = {worst_step:.2e}")


def check_root_parity(n_instances: int = 100, seed: int = 4) -> CheckResult:
    """Secular root count is even and within [2, 2 rank(H)] (single user)."""
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

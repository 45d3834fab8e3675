"""Worst-case min-max precoder design via block coordinate ascent-descent.

The relaxed design problem is

    min_{u, t >= 0}  max_{||w|| <= eps}  ||G u + w||^2
                     + beta * ||H (G u + w) - (D s + A^{-1} t)||^2

solved by alternating three steps: the inner maximisation over w (exact, via
the largest root of a secular equation), one accelerated projected-gradient
step on the non-negative slack t, and a closed-form update of u.  The inner
maximiser is w = -(P - mu I)^{-1} q with P = H^T H + (1/beta) I and
q = P G u - H^T Phi(t); the multiplier mu is the largest root of

    f(mu) = q^T (P - mu I)^{-2} q - eps^2,

which lies in (lam_bar_max, ||q||/eps + lam_bar_max] where
lam_bar_max = ||H||^2 + 1/beta (More and Sorensen's trust-region secular
equation).

No run path searches for that root: the exact u-update leaves q = -P w, so
after the first w-step (from q = 0, the top eigenvector of P) the multiplier
is 2 lam_bar_max and the maximiser is -w, both in the loop (see :func:`_bcd`)
and at the design :func:`solve` returns.  ``solve_mu`` keeps one reference
search, a Brent root finder on the analytic bracket, for the property checks.

One loop, :func:`_bcd`, runs the iteration for a stack of symbol slots that
share a channel; each step works on one row per slot.  :func:`solve` runs it
on one slot, :func:`solve_batch` on many, and ``solve_mu``, ``worst_case_w``,
``apgd_t_step`` and ``update_u`` evaluate its steps on a single row at any
(u, t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, solve_triangular
from scipy.optimize import brentq, nnls

from .constellation import CiGeometry, PskConstellation
from .realify import RealChannel, RealDistortionMatrix

# relative size of q below which the inner maximisation is treated as the
# degenerate (pure eigenvector) case
_DEGENERATE_RTOL = 1e-13
# relative inset of the root bracket's left end above the pole boundary
_BRACKET_INSET = 1e-10
# brentq's tightest relative tolerance
_BRENT_RTOL = 4.0 * np.finfo(float).eps


class SecularPoleError(ValueError):
    """Evaluation of the secular function at (or within rounding of) a pole."""


class RootSearchError(RuntimeError):
    """No sign change of the secular function above the pole boundary."""


@dataclass
class SolverConfig:
    """Tunables of the outer loop: the iteration budget and the relative
    change of (u, t) below which it stops."""

    max_iterations: int = 5000
    outer_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.outer_tol <= 0:
            raise ValueError("outer_tol must be positive")


@dataclass
class SolverState:
    """One design's iterates, as :func:`apgd_t_step` takes them."""

    u: np.ndarray
    t: np.ndarray
    z: np.ndarray
    w: np.ndarray


@dataclass
class SolveReport:
    """Final iterates plus per-run diagnostics.

    ``objective`` is the worst-case value of the returned (u, t): the relaxed
    objective at the inner maximiser w of that design.  ``trace`` holds, per
    iteration, the objective right after the u-update, where G u + w equals
    P^{-1} H^T Phi(t) and w cancels: Phi(t)^T (H H^T + I/beta)^{-1} Phi(t).
    """

    u: np.ndarray
    t: np.ndarray
    w: np.ndarray
    mu: float | None
    objective: float
    iterations: int
    trace: np.ndarray
    converged: bool
    limit_cycle: bool = False
    fixed_point_residual_max: float = 0.0
    w_norm_relerr_max: float = 0.0


def _momentum(constellation: PskConstellation) -> float:
    # Momentum for the strongly convex projected-gradient step; the NNLS
    # Hessian is 2 (A A^T)^{-1}, condition number (sigma_max/sigma_min)^2.
    kappa = (constellation.sigma_max / constellation.sigma_min) ** 2
    return (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)


def _columns(table: np.ndarray) -> np.ndarray:
    """The columns of (..., 2, 2) blocks as one leading axis: out[c] = table[..., :, c]."""
    return np.moveaxis(table, -1, 0)


def _bmv(cols: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix times vector, row by row, from the block columns.

    Two products and a sum per column pair: a stacked ``matmul`` of 2x2
    blocks makes one small BLAS call per block, several times slower on a
    batch of slots.
    """
    v = vec.reshape(cols.shape[1:])
    return (cols[0] * v[..., :1] + cols[1] * v[..., 1:]).reshape(vec.shape)


def _sq(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms along the last axis."""
    return np.vecdot(x, x)


def _norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(_sq(x))


@dataclass
class _Slots:
    """CI constants of a stack of symbol slots, one row per slot.

    The matrices are block diagonal with 2x2 blocks (one per user), so only
    the blocks are kept, each a row of a table of the slots' constellation,
    and as :func:`_columns` (shape (2, S, n_r, 2)) for :func:`_bmv`;
    sigma_min and the momentum are constants of that constellation.
    """

    ds: np.ndarray              # (S, 2 n_r)  D s
    a_inv: np.ndarray           # columns of A^{-1}
    a_inv_t: np.ndarray         # A^{-T}
    b: np.ndarray               # I - sigma_min^2 A^{-T} A^{-1}
    sigma_min_sq: float
    momentum: float

    def take(self, rows) -> "_Slots":
        return _Slots(self.ds[rows], self.a_inv[:, rows], self.a_inv_t[:, rows],
                      self.b[:, rows], self.sigma_min_sq, self.momentum)


def _slots(geometries) -> _Slots:
    const = geometries[0].constellation
    if any(gm.constellation != const for gm in geometries):
        raise ValueError("all slots of a batch must share one constellation")
    symbols = np.stack([gm.symbols for gm in geometries])
    a_inv_t = np.swapaxes(const.normals_inv, 1, 2)
    sigma_min_sq = const.sigma_min ** 2
    b = np.eye(2) - sigma_min_sq * (a_inv_t @ const.normals_inv)
    return _Slots(ds=np.stack([gm.ds for gm in geometries]),
                  a_inv=_columns(const.normals_inv)[:, symbols],
                  a_inv_t=_columns(a_inv_t)[:, symbols], b=_columns(b)[:, symbols],
                  sigma_min_sq=sigma_min_sq, momentum=_momentum(const))


@dataclass(repr=False)
class ProblemInstance:
    """One symbol slot's worst-case design problem.

    Construction validates shapes and invertibility and caches the
    eigendecomposition of H^T H; all later root searches and resolvent solves
    reuse it.  Treat instances as immutable and share them freely.
    """

    channel: RealChannel
    distortion: RealDistortionMatrix
    geometry: CiGeometry
    beta: float
    epsilon: float
    h: np.ndarray = field(init=False)
    g: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError("penalty beta must be positive")
        if self.epsilon < 0:
            raise ValueError("distortion radius must be non-negative")
        if self.channel.n_t != self.distortion.n_t:
            raise ValueError("channel / distortion dimension mismatch")
        if self.geometry.n_r != self.channel.n_r:
            raise ValueError("geometry / channel user-count mismatch")
        self.h = self.channel.matrix
        self.g = self.distortion.matrix
        svals = np.linalg.svd(self.g, compute_uv=False)
        if svals[-1] <= svals[0] * 1e-12:
            raise ValueError("distortion matrix must be invertible")
        self._g_lu = lu_factor(self.g)
        self._getrs = get_lapack_funcs(("getrs",), self._g_lu)[0]
        self.hth = self.h.T @ self.h
        self.evals, self.evecs = np.linalg.eigh(self.hth)
        self.poles = self.evals + 1.0 / self.beta
        self.lam_bar_max = float(self.evals[-1] + 1.0 / self.beta)
        self.ds = self.geometry.ds
        self.slots = _slots([self.geometry])

    def apply_p_inv(self, x: np.ndarray) -> np.ndarray:
        return self.evecs @ ((self.evecs.T @ x) / self.poles)


def phi(t, geometry: CiGeometry) -> np.ndarray:
    """CI target vector D s + A^{-1} t for a non-negative slack t."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("slack t must be componentwise non-negative")
    return geometry.ds + (geometry.a_inv_blocks @ t.reshape(-1, 2, 1)).ravel()


def relaxed_objective(u, t, w, instance: ProblemInstance) -> float | np.ndarray:
    """Penalised worst-case objective ||Gu+w||^2 + beta ||H(Gu+w) - Phi(t)||^2.

    ``w`` may carry leading batch axes; the return value then has those axes.
    """
    x = instance.g @ np.asarray(u, dtype=float) + np.asarray(w, dtype=float)
    resid = x @ instance.h.T - phi(t, instance.geometry)
    val = np.sum(x * x, axis=-1) + instance.beta * np.sum(resid * resid, axis=-1)
    return float(val) if np.ndim(val) == 0 else val


# -- the three steps, on stacked rows (one row per symbol slot) -------------

def _row(u, t, instance: ProblemInstance):
    """(G u, Phi(t), Phi(t)^T H) of one design, as one-row arrays of the loop."""
    t = np.asarray(t, dtype=float)[None]
    phi_t = instance.slots.ds + _bmv(instance.slots.a_inv, t)
    return np.asarray(u, dtype=float)[None] @ instance.g.T, phi_t, phi_t @ instance.h


def _w_parts(instance: ProblemInstance, gu, ht_phi):
    """q in the eigenbasis of P, its squares, and the rows where q = 0."""
    pgu = gu @ instance.hth.T + gu / instance.beta
    qt = (pgu - ht_phi) @ instance.evecs
    qt2 = qt * qt
    # ||q|| <= rtol * max(1, ||P G u||, ||H^T Phi||), squared
    scale2 = np.maximum(1.0, np.maximum(_sq(pgu), _sq(ht_phi)))
    return qt, qt2, qt2.sum(axis=1) <= _DEGENERATE_RTOL ** 2 * scale2


def _root_from_parts(qt2: np.ndarray, poles: np.ndarray, eps: float, lam: float) -> float:
    """Largest secular root from precomputed eigen-parts.

    f is strictly decreasing right of the poles and its largest root lies in
    (lam, ||q||/eps + lam].  The search brackets it between
    lo = lam (1 + inset) and that bound; when f(lo) <= 0 the root is squeezed
    between the pole boundary and lo, and log-spaced gaps toward the pole
    locate a point where f is positive.  One Brent search (``brentq``) at
    its tightest relative tolerance finishes.
    """
    eps2 = eps * eps
    qn = math.sqrt(float(qt2.sum()))
    lo = lam * (1.0 + _BRACKET_INSET)
    hi = qn / eps + lam

    def f(mu):
        diff = poles - mu
        return float(qt2 @ (1.0 / (diff * diff))) - eps2

    f_lo = f(lo)
    if f_lo <= 0.0:
        # Root squeezed between the pole boundary and the inset point: scan
        # log-spaced gaps toward the pole until f turns positive.
        gap = lo - lam
        hi = lo
        found = False
        for _ in range(200):
            gap *= 0.1
            cand = lam + gap
            if cand <= lam or gap < 4.0 * np.finfo(float).eps * lam:
                break
            if f(cand) > 0.0:
                lo, found = cand, True
                break
            hi = cand
        if not found:
            raise RootSearchError(
                "no sign change above the pole boundary: "
                f"lam_bar_max={lam!r}, f at inset={f_lo!r}, ||q||={qn!r}, eps={eps!r}")
    elif f(hi) >= 0.0:
        # the bound is attained (q on the top eigenvector), up to rounding
        return hi
    # xtol is absolute; scaled by lam < mu it is relative too
    return brentq(f, lo, hi, xtol=_BRENT_RTOL * lam, rtol=_BRENT_RTOL)


def _degenerate_w(gu, phi_t, instance: ProblemInstance) -> np.ndarray:
    # q = 0 leaves only the quadratic term: the maximiser is the scaled top
    # eigenvector of P; evaluate both signs in case of numerical asymmetry
    # (ties within rounding resolve to +).
    cand = instance.epsilon * instance.evecs[:, -1]
    obj = []
    for x in (gu + cand, gu - cand):
        resid = x @ instance.h.T - phi_t
        obj.append(np.sum(x * x, axis=1) + instance.beta * np.sum(resid * resid, axis=1))
    return np.where(obj[1] > obj[0] * (1.0 + 1e-12), -1.0, 1.0)[:, None] * cand


def _t_step(instance, slots: _Slots, x, t, z):
    """Accelerated projected-gradient step on the slack, given x = G u + w."""
    r = x @ instance.h.T - slots.ds
    t_new = np.maximum(_bmv(slots.b, z) + slots.sigma_min_sq * _bmv(slots.a_inv_t, r), 0.0)
    return t_new, t_new + slots.momentum * (t_new - t)


def _u_step(instance, slots: _Slots, t, w):
    """Closed-form u; also returns y = P^{-1} H^T Phi(t) and Phi(t)."""
    phi_t = slots.ds + _bmv(slots.a_inv, t)
    y = (((phi_t @ instance.h) @ instance.evecs) / instance.poles) @ instance.evecs.T
    u, _ = instance._getrs(*instance._g_lu, (y - w).T, overwrite_b=True)
    return u.T, y, phi_t


# -- single-design views of the steps ---------------------------------------

def _secular_from_parts(mu: float, qt2: np.ndarray, poles: np.ndarray,
                        eps: float) -> float:
    diff = poles - mu
    if np.min(np.abs(diff)) <= 1e-13 * max(1.0, abs(mu)):
        raise SecularPoleError(f"mu={mu!r} is within rounding of a pole of f")
    return float(np.sum(qt2 / (diff * diff)) - eps * eps)


def _one_row_parts(u, t, instance: ProblemInstance):
    gu, phi_t, ht_phi = _row(u, t, instance)
    return (gu, phi_t) + _w_parts(instance, gu, ht_phi)


def secular_value(mu: float, u, t, instance: ProblemInstance) -> float:
    """Secular function f(mu) = q^T (P - mu I)^{-2} q - eps^2."""
    qt2 = _one_row_parts(u, t, instance)[3]
    return _secular_from_parts(mu, qt2[0], instance.poles, instance.epsilon)


def mu_bracket(u, t, instance: ProblemInstance) -> tuple[float, float]:
    """Root bracket (lam_bar_max, ||q||/eps + lam_bar_max] for the multiplier."""
    if instance.epsilon <= 0:
        raise ValueError("bracket undefined for epsilon = 0 (w is fixed to 0)")
    _, _, _, qt2, degen = _one_row_parts(u, t, instance)
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
    _, _, _, qt2, degen = _one_row_parts(u, t, instance)
    if degen[0]:
        return instance.lam_bar_max
    return _root_from_parts(qt2[0], instance.poles, instance.epsilon, instance.lam_bar_max)


def worst_case_w(u, t, mu: float, instance: ProblemInstance) -> np.ndarray:
    """Inner maximiser w = -(P - mu I)^{-1} q on the distortion sphere."""
    if instance.epsilon == 0:
        return np.zeros(2 * instance.channel.n_t)
    gu, phi_t, qt, _, degen = _one_row_parts(u, t, instance)
    if degen[0]:
        return _degenerate_w(gu, phi_t, instance)[0]
    if np.min(np.abs(instance.poles - mu)) <= 1e-13 * max(1.0, abs(mu)):
        raise SecularPoleError(f"shift mu={mu!r} is singular")
    return (qt[0] / (mu - instance.poles)) @ instance.evecs.T


def apgd_t_step(state: SolverState, instance: ProblemInstance
                ) -> tuple[np.ndarray, np.ndarray]:
    """One accelerated projected-gradient step on the non-negative slack.

    Equivalent to a projected gradient step of size sigma_min^2 / 2 on
    ||H(Gu+w) - Ds - A^{-1} t||^2 from the momentum iterate z, followed by
    the momentum extrapolation.
    """
    x = np.asarray(state.u, dtype=float)[None] @ instance.g.T + state.w
    t_new, z_new = _t_step(instance, instance.slots, x, np.asarray(state.t)[None],
                           np.asarray(state.z, dtype=float)[None])
    return t_new[0], z_new[0]


def update_u(t, w, instance: ProblemInstance) -> np.ndarray:
    """Closed-form minimiser u = G^{-1} P^{-1} H^T Phi(t) - G^{-1} w."""
    u = _u_step(instance, instance.slots, np.asarray(t, dtype=float)[None],
                np.asarray(w, dtype=float)[None])[0]
    return u[0]


@dataclass
class BatchSolveResult:
    """Per-row outputs of :func:`solve_batch` (one row per symbol slot).

    ``mu`` is the multiplier of the last w-step: lam_bar_max after the first
    (q = 0), 2 lam_bar_max after any later one, NaN at eps = 0.
    ``w_norm_relerr_max`` is the largest | ||w|| / eps - 1 | over the w-steps.
    """

    u: np.ndarray
    t: np.ndarray
    w: np.ndarray
    mu: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    limit_cycle: np.ndarray
    fixed_point_residual_max: np.ndarray
    w_norm_relerr_max: np.ndarray


def _bcd(instance: ProblemInstance, slots: _Slots, config: SolverConfig,
         trace: list | None = None) -> BatchSolveResult:
    """The block coordinate ascent-descent loop over stacked symbol slots.

    Each row starts from t = z = 0 and u equal to the regularised channel
    inversion of D s (the w = 0 closed form), then repeats the w-step, the
    t-step and the u-step until the relative change of (u, t) over a one- or
    two-iteration window drops below ``outer_tol``.  A row that stops leaves
    the working arrays, so the remaining rows run on as if alone.  A
    ``trace`` list gets each iteration's objective after the u-update.

    The w-step is in closed form.  The u-step sets
    G u_k = P^{-1} H^T Phi(t_k) - w_k, so the next w-step's
    q = P G u_k - H^T Phi(t_k) equals -P w_k, whatever t is (any invertible
    G, any beta, eps > 0).  At the start q = 0, so the first w-step is the
    degenerate one, w_1 = +-eps v_top with v_top a top eigenvector of P.
    From then on q = -lam_bar_max w_k lies on v_top, the largest secular
    root is mu = lam_bar_max + ||q|| / eps = 2 lam_bar_max, and the
    maximiser q / (mu - lam_bar_max) is -w_k.  So w_k = (-1)^(k-1) w_1: the
    sign-flipping two-cycle that :func:`solve` reports as ``limit_cycle``.
    """
    count = len(slots.ds)
    eps, tol2 = instance.epsilon, config.outer_tol ** 2
    g_t, h_t = instance.g.T, instance.h.T
    t = np.zeros((count, slots.ds.shape[1]))
    z = t
    w = np.zeros((count, g_t.shape[0]))
    u, y, phi_t = _u_step(instance, slots, t, w)
    gu = u @ g_t
    out = BatchSolveResult(u=u.copy(), t=t.copy(), w=w.copy(), mu=np.full(count, np.nan),
                           iterations=np.full(count, config.max_iterations),
                           converged=np.zeros(count, dtype=bool),
                           limit_cycle=np.zeros(count, dtype=bool),
                           fixed_point_residual_max=np.zeros(count),
                           w_norm_relerr_max=np.zeros(count))
    # the last two iterates of u and t; both start at the initial point, which
    # makes the two-iteration window equal the one-iteration one at k = 1
    u_hist, t_hist = np.array((u, u)), np.array((t, t))
    rows = np.arange(count)         # output row of each working row
    fp2_max = np.zeros(count)      # squared fixed-point residual
    mu = np.nan

    def finish(sel, k, still=None):
        idx = rows[sel]
        out.u[idx], out.t[idx] = u_hist[0, sel], t_hist[0, sel]
        out.w[idx], out.mu[idx] = w[sel], mu
        out.fixed_point_residual_max[idx] = np.sqrt(fp2_max[sel])
        if still is not None:
            out.iterations[idx] = k
            out.converged[idx] = True
            out.limit_cycle[idx] = ~still[0, sel]

    for k in range(1, config.max_iterations + 1):
        if eps > 0:
            if k == 1:
                w, mu = _degenerate_w(gu, phi_t, instance), instance.lam_bar_max
                # every later w has the same norm
                out.w_norm_relerr_max[:] = np.abs(_norms(w) / eps - 1.0)
            else:
                w, mu = -w, 2.0 * instance.lam_bar_max
        t, z = _t_step(instance, slots, gu + w, t_hist[0], z)
        u, y, phi_t = _u_step(instance, slots, t, w)
        gu = u @ g_t
        x = gu + w
        fp2_max = np.maximum(fp2_max, _sq(x - y) / _sq(phi_t))   # Phi(t) != 0
        if trace is not None:
            pen = x @ h_t - phi_t
            trace.append(_sq(x) + instance.beta * _sq(pen))

        # relative change of u and of t over the one- and two-iteration
        # windows, squared: still[i, j] says window i of row j is within tol
        still = ((_sq(u - u_hist) <= tol2 * _sq(u))
                 & (_sq(t - t_hist) <= tol2 * (1.0 + _norms(t)) ** 2))
        u_hist[1], u_hist[0] = u_hist[0], u
        t_hist[1], t_hist[0] = t_hist[0], t
        done = still[0] | still[1]
        n_done = np.count_nonzero(done)
        if n_done:
            finish(done, k, still)
            if n_done == len(done):
                return out
            keep = ~done
            rows, slots = rows[keep], slots.take(keep)
            u_hist, t_hist = u_hist[:, keep], t_hist[:, keep]
            z, w, gu, fp2_max = z[keep], w[keep], gu[keep], fp2_max[keep]
    finish(np.ones(len(rows), dtype=bool), config.max_iterations)
    return out


def solve(instance: ProblemInstance, config: SolverConfig | None = None) -> SolveReport:
    """Run the block coordinate ascent-descent loop on one symbol slot.

    This is :func:`solve_batch` with a batch of one, plus the per-iteration
    ``trace`` and the worst-case ``objective`` of the result.  The loop
    terminates when the relative change of (u, t) over a one- or
    two-iteration window drops below ``outer_tol``; the two-iteration window
    is needed because the exact u-update makes the inner maximiser settle
    into a sign-flipping two-cycle on the top eigenvector of P, which bounds
    single-step changes away from zero (reported via ``limit_cycle``).
    Non-convergence is reported, not raised.  ``mu`` is the loop's last
    multiplier, None at eps = 0.

    ``objective`` is the worst-case value of the returned (u, t), in closed
    form: the last u-step left q = -P w, so (as in the loop's w-step) the
    inner maximiser at (u, t) is -w, at mu = 2 lam_bar_max; at eps = 0, w = 0.
    """
    config = config or SolverConfig()
    trace = []
    res = _bcd(instance, instance.slots, config, trace)
    u, t, w = res.u[0], res.t[0], res.w[0]
    return SolveReport(u=u, t=t, w=w,
                       mu=None if instance.epsilon == 0 else float(res.mu[0]),
                       objective=relaxed_objective(u, t, -w, instance),
                       iterations=int(res.iterations[0]),
                       trace=np.concatenate(trace),
                       converged=bool(res.converged[0]),
                       limit_cycle=bool(res.limit_cycle[0]),
                       fixed_point_residual_max=float(res.fixed_point_residual_max[0]),
                       w_norm_relerr_max=float(res.w_norm_relerr_max[0]))


def solve_batch(proto: ProblemInstance, geometries,
                config: SolverConfig | None = None) -> BatchSolveResult:
    """Run the solver loop for many symbol slots of one channel at once.

    All slots share the channel, distortion matrix, beta and epsilon of
    ``proto``; ``geometries`` supplies one CiGeometry per slot, all of one
    constellation, whose tables give every slot's slack-step constants.  Row
    j goes through the same update sequence as :func:`solve` on slot j and
    leaves the loop when its own termination test fires.  The link simulator
    calls it once per (block, gamma, beta) with the block's slots.
    """
    return _bcd(proto, _slots(list(geometries)), config or SolverConfig())


def nominal_slp(channel: RealChannel, geometry: CiGeometry
                ) -> tuple[np.ndarray, np.ndarray]:
    """Undistorted power-minimising precoder with hard CI constraints.

    Solves min ||x||^2 subject to H x = D s + A^{-1} t, t >= 0, by
    eliminating x = H^+ (D s + A^{-1} t) and handing the reduced problem to
    an exact non-negative least-squares solver.  The channel's Cholesky
    factor is computed on its first design and shared by the later ones.
    """
    h = channel.matrix
    chol = channel.gram_cholesky
    ds = geometry.ds
    # ||H^+ Phi(t)||^2 = ||L^{-1} Phi(t)||^2 with H H^T = L L^T
    design = solve_triangular(chol, geometry.a_inv, lower=True)
    target = -solve_triangular(chol, ds, lower=True)
    t, _ = nnls(design, target)
    phi_t = ds + geometry.a_inv @ t
    x = h.T @ solve_triangular(chol.T, solve_triangular(chol, phi_t, lower=True),
                               lower=False)
    return x, t


def count_secular_roots(u, t, instance: ProblemInstance) -> int:
    """Number of real roots of the secular function (diagnostic, small sizes).

    The real line is partitioned at the distinct poles of f.  On each outer
    tail f is monotone with limit -eps^2, giving one root per tail; on each
    interior interval f is strictly convex, so the sign of its minimum
    (located by bisection on f') decides between zero and two roots.
    Tangential double roots count as two.
    """
    if instance.epsilon <= 0:
        return 0
    qt2 = _one_row_parts(u, t, instance)[3][0]
    total = float(qt2.sum())
    if total <= 0.0:
        raise ValueError("count_secular_roots requires q != 0")
    # cluster numerically coincident eigenvalues into single poles
    order = np.argsort(instance.poles)
    poles_sorted = instance.poles[order]
    weights_sorted = qt2[order]
    poles: list[float] = []
    weights: list[float] = []
    for p, wt in zip(poles_sorted, weights_sorted):
        if poles and p - poles[-1] <= 1e-9 * max(1.0, abs(p)):
            weights[-1] += wt
        else:
            poles.append(float(p))
            weights.append(float(wt))
    keep = [i for i, wt in enumerate(weights) if wt > total * 1e-28]
    if not keep:
        raise ValueError("count_secular_roots requires q != 0")
    poles_arr = np.array([poles[i] for i in keep])
    weights_arr = np.array([weights[i] for i in keep])
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
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if fprime(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        f_min = f(0.5 * (lo + hi))
        if f_min < 0.0:
            count += 2
        elif f_min == 0.0:
            count += 2  # tangency, counted with multiplicity
    return count

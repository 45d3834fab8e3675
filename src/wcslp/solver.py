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
(u, t).  Between two iterations only the slack t changes, so the slack step
is one affine map per slot of the last two slack iterates, whose matrices and
constants the loop builds once; Phi(t), u and the loop's one product with the
operators :class:`ProblemInstance` builds once per instance are evaluated
once per block of iterations (see :func:`_bcd`).  Once the map's projection
on t >= 0 keeps its active set over a block, the map is linear, and the
following blocks of a batch of few rows run as one product with
precomputed multi-step operators, checked against the projection's signs
(:func:`_block_operators`, :func:`_fast_forward`).  The CI matrices are block
diagonal with 2x2 blocks, each kept as the two complex coefficients of its
action alpha z + beta conj(z) on the interleaved pair z = v_0 + i v_1
(:func:`_bmul`).  The loop applies them to the identity once per call, to
build the affine map's matrices, and to the stacked slack iterates at the
end of each block, for Phi(t).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve
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
        its = self.max_iterations
        integral = isinstance(its, numbers.Integral) or (isinstance(its, float)
                                                         and its.is_integer())
        if isinstance(its, (bool, np.bool_)) or not integral:
            raise ValueError(f"max_iterations must be an integer, got {its!r}")
        self.max_iterations = int(its)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.outer_tol < math.inf:
            raise ValueError(f"outer_tol must be positive and finite, got {self.outer_tol}")


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

    The fields other than ``objective`` and ``trace`` are row 0 of
    :class:`BatchSolveResult`.  ``objective`` is the worst-case value of the
    returned (u, t): the relaxed objective at the inner maximiser -w of that
    design.  ``trace`` holds, per iteration, the objective right after the
    u-update, where G u + w equals P^{-1} H^T Phi(t) and w cancels:
    Phi(t)^T (H H^T + I/beta)^{-1} Phi(t).
    """

    u: np.ndarray
    t: np.ndarray
    w: np.ndarray
    objective: float
    iterations: int
    trace: np.ndarray
    converged: bool
    limit_cycle: bool = False
    fixed_point_residual_max: float = 0.0

    @property
    def stop_reason(self) -> str:
        """``tolerance``, ``two_cycle`` or ``budget`` (see :func:`_stop_reason`)."""
        return str(_stop_reason(self.converged, self.limit_cycle))


def _stop_reason(converged, limit_cycle) -> np.ndarray:
    """Why the loop stopped: ``tolerance`` when the one-iteration window
    passed the test, ``two_cycle`` when only the two-iteration window did
    (``limit_cycle``), and ``budget`` when neither did within
    ``max_iterations``."""
    return np.where(converged, np.where(limit_cycle, "two_cycle", "tolerance"), "budget")


def _momentum(constellation: PskConstellation) -> float:
    # Momentum for the strongly convex projected-gradient step; the NNLS
    # Hessian is 2 (A A^T)^{-1}, condition number (sigma_max/sigma_min)^2.
    kappa = (constellation.sigma_max / constellation.sigma_min) ** 2
    return (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)


def _coefficients(blocks: np.ndarray) -> np.ndarray:
    """Complex coefficients (alpha, beta), stacked on a leading axis, of
    (..., 2, 2) real blocks: [[a, b], [c, d]] times (v_0, v_1) is, on
    z = v_0 + i v_1, alpha z + beta conj(z) with
    alpha = ((a + d) + i (c - b)) / 2 and beta = ((a - d) + i (c + b)) / 2."""
    a, b = blocks[..., 0, 0], blocks[..., 0, 1]
    c, d = blocks[..., 1, 0], blocks[..., 1, 1]
    return np.stack([(a + d) + 1j * (c - b), (a - d) + 1j * (c + b)]) / 2.0


def _bmul(coef: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix times vector, row by row, from the blocks'
    coefficients (:func:`_coefficients`); ``vec`` is C-contiguous, and its
    interleaved pairs are read as complex numbers in place."""
    z = vec.view(complex)
    out = coef[0] * z
    out += coef[1] * z.conj()
    return out.view(float)


def _sq(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms along the last axis."""
    return np.vecdot(x, x)


def _norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(_sq(x))


@dataclass
class _Slots:
    """CI constants of a stack of symbol slots, one row per slot.

    The matrices are block diagonal with 2x2 blocks (one per user), so only
    the blocks' coefficients are kept (:func:`_coefficients`, shape
    (2, S, n_r)), each indexed from a table of the slots' constellation;
    the momentum is a constant of that constellation.
    """

    ds: np.ndarray              # (S, 2 n_r)  D s
    a_inv: np.ndarray           # A^{-1}
    step: np.ndarray            # sigma_min^2 A^{-T}
    b: np.ndarray               # I - sigma_min^2 A^{-T} A^{-1}
    momentum: float

    def take(self, rows) -> "_Slots":
        return _Slots(self.ds[rows], self.a_inv[:, rows], self.step[:, rows],
                      self.b[:, rows], self.momentum)


def _slots(geometries) -> _Slots:
    const = geometries[0].constellation
    if any(gm.constellation != const for gm in geometries):
        raise ValueError("all slots of a batch must share one constellation")
    symbols = np.stack([gm.symbols for gm in geometries])
    a_inv_t = np.swapaxes(const.normals_inv, 1, 2)
    sigma_min_sq = const.sigma_min ** 2
    b = np.eye(2) - sigma_min_sq * (a_inv_t @ const.normals_inv)
    return _Slots(ds=np.stack([gm.ds for gm in geometries]),
                  a_inv=_coefficients(const.normals_inv)[:, symbols],
                  step=_coefficients(sigma_min_sq * a_inv_t)[:, symbols],
                  b=_coefficients(b)[:, symbols], momentum=_momentum(const))


@dataclass(repr=False)
class ProblemInstance:
    """One symbol slot's worst-case design problem.

    Construction validates shapes and invertibility and caches, per channel,
    distortion matrix and beta:
    - the eigendecomposition of H^T H (``evals``, ``evecs``) and the poles
      of the secular function, which the reference root search reuses;
    - the LU factors of G;
    - ``phi_ops`` = [Y^T | (G^{-1} Y)^T | K^T], with Y = P^{-1} H^T and
      K = H P^{-1} H^T = H Y, so that one product Phi @ phi_ops of stacked
      rows Phi(t) gives y = Y Phi(t), G^{-1} y and K Phi(t) at once, and
      its first two column blocks ``u_ops``, all the loop's block ends read;
    - the slack-step constants of its own slot (``slots``).
    Treat instances as immutable and share them freely.
    """

    channel: RealChannel
    distortion: RealDistortionMatrix
    geometry: CiGeometry
    beta: float
    epsilon: float
    h: np.ndarray = field(init=False)
    g: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"penalty beta must be positive and finite, got {self.beta}")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"distortion radius must be non-negative and finite, "
                             f"got {self.epsilon}")
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
        self.hth = self.h.T @ self.h
        self.evals, self.evecs = np.linalg.eigh(self.hth)
        self.poles = self.evals + 1.0 / self.beta
        self.lam_bar_max = float(self.evals[-1] + 1.0 / self.beta)
        y_op = (self.evecs / self.poles) @ (self.evecs.T @ self.h.T)
        self.u_ops = np.hstack([y_op.T, lu_solve(self._g_lu, y_op).T])
        self.phi_ops = np.hstack([self.u_ops, (self.h @ y_op).T])
        self.ds = self.geometry.ds
        self.slots = _slots([self.geometry])

    def solve_g(self, x: np.ndarray) -> np.ndarray:
        """G^{-1} x for each row x of ``x``."""
        return lu_solve(self._g_lu, x.T).T


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
    t = np.ascontiguousarray(t, dtype=float)[None]
    phi_t = instance.slots.ds + _bmul(instance.slots.a_inv, t)
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


def _degenerate_w(count: int, instance: ProblemInstance) -> np.ndarray:
    # q = 0 leaves only the quadratic term, whose maximisers are +-eps v_top
    # with v_top the top eigenvector of P; both signs give the same value, so
    # take +
    return np.tile(instance.epsilon * instance.evecs[:, -1], (count, 1))


def _t_step(slots: _Slots, r, t, z):
    """Accelerated projected-gradient step on the slack, given the residual
    r = H (G u + w) - D s."""
    t_new = np.maximum(_bmul(slots.b, z) + _bmul(slots.step, r), 0.0)
    return t_new, t_new + slots.momentum * (t_new - t)


def _phi_product(instance, slots: _Slots, t, ops=None):
    """Phi(t) = D s + A^{-1} t and its product with the instance's operators,
    [y | G^{-1} y | K Phi(t)] with y = P^{-1} H^T Phi(t): the u-step's
    u = G^{-1} y - G^{-1} w and the next slack step's K Phi(t) = H y; with
    ``ops`` = ``instance.u_ops``, only [y | G^{-1} y].  ``t`` may stack
    iterates on a leading axis."""
    phi_t = np.add(_bmul(slots.a_inv, t), slots.ds)
    return phi_t, phi_t @ (instance.phi_ops if ops is None else ops)


def _recurrence_maps(instance, slots: _Slots):
    """Per-row matrices (M1, M2) of the slack recurrence (see :func:`_bcd`),
    transposed to act on row vectors: M1 = (1 + momentum) B + S K A^{-1} and
    M2 = -momentum B, or None when the momentum is 0.  Each is its block
    products applied to the identity, whose basis vectors are stacked on a
    leading axis; so column i of every row's matrix comes out in entry i."""
    count, m = slots.ds.shape
    eye = np.ascontiguousarray(np.broadcast_to(np.eye(m)[:, None], (m, count, m)))
    b_cols = _bmul(slots.b, eye)
    k_cols = _bmul(slots.a_inv, eye) @ instance.phi_ops[:, 2 * len(instance.g):]

    def row_form(cols):
        return np.ascontiguousarray(cols.transpose(1, 0, 2))
    m1 = row_form(_bmul(slots.step, k_cols) + (1.0 + slots.momentum) * b_cols)
    return m1, row_form(-slots.momentum * b_cols) if slots.momentum else None


def _block_operators(m1, m2, c_pm, masks, steps: int) -> np.ndarray:
    """Per-row operators of ``steps`` masked slack steps (see :func:`_bcd`),
    the first at an odd iteration: the slack iterates of step j are the
    state [t_{k-1}, t_{k-2}, 1] (without t_{k-2} when M2 is None) times
    columns j m .. (j + 1) m - 1 of its row's operator.  Each step is the
    augmented matrix T_p of its parity p, and the prefix products are
    Q_{2i} = U^i T_0 and Q_{2i+1} = U^{i+1} with U = T_0 T_1, whose powers
    come from repeated squaring of the stack [U, ..., U^l]."""
    _, count, m = masks.shape
    size = 2 * m + 1 if m2 is not None else m + 1
    half = steps // 2
    cols = masks[:, :, None, :]
    step = np.zeros((2, count, size, size))
    step[:, :, :m, :m] = m1 * cols
    if m2 is not None:
        step[:, :, m:2 * m, :m] = m2 * cols
        step[:, :, :m, m:2 * m] = np.eye(m)
    step[:, :, -1, :m] = c_pm * masks
    step[:, :, -1, -1] = 1.0
    powers = (step[0] @ step[1])[:, None]
    while powers.shape[1] < half:
        powers = np.concatenate((powers, powers @ powers[:, -1:]), axis=1)
    first = np.ascontiguousarray(step[0, :, :, :m])
    ops = np.empty((count, size, half, 2, m))
    ops[:, :, 0, 0] = first
    ops[:, :, 1:, 0] = (powers[:, :half - 1] @ first[:, None]).swapaxes(1, 2)
    ops[:, :, :, 1] = powers[:, :half, :, :m].swapaxes(1, 2)
    return ops.reshape(count, size, steps * m)


def _fast_forward(ops, masks, m1, m2, c_pm, t_b) -> bool:
    """Slack iterates t_b[2:] of a block from the two before it, t_b[:2],
    by the block operators (:func:`_block_operators`), the block's first
    iteration odd.  Returns whether every step's input had the sign of its
    parity's mask; only then are t_b[2:] the block's projected iterates (see
    :func:`_bcd`), else they are to be overwritten."""
    size, (count, m) = len(t_b) - 2, t_b.shape[1:]
    steps = ops.shape[-1] // m
    state = np.ones((count, 1, ops.shape[1]))
    for j in range(0, size, steps):
        state[:, 0, :m] = t_b[j + 1]
        if m2 is not None:
            state[:, 0, m:2 * m] = t_b[j]
        t_b[j + 2:j + 2 + steps] = (state @ ops).reshape(count, steps, m).swapaxes(0, 1)
    pre = np.matmul(t_b[1:-1, :, None], m1)
    if m2 is not None:
        pre += np.matmul(t_b[:-2, :, None], m2)
    pre = pre.reshape(size // 2, 2, count, m)
    pre += c_pm
    if not np.array_equal(pre > 0, np.broadcast_to(masks, pre.shape)):
        return False
    np.maximum(pre.reshape(size, count, m), 0.0, out=t_b[2:])
    return True


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
    _, _, qt, _, degen = _one_row_parts(u, t, instance)
    if degen[0]:
        return _degenerate_w(1, instance)[0]
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
    t_new, z_new = _t_step(instance.slots, x @ instance.h.T - instance.slots.ds,
                           np.asarray(state.t)[None],
                           np.ascontiguousarray(state.z, dtype=float)[None])
    return t_new[0], z_new[0]


def update_u(t, w, instance: ProblemInstance) -> np.ndarray:
    """Closed-form minimiser u = G^{-1} P^{-1} H^T Phi(t) - G^{-1} w."""
    g_inv_w = instance.solve_g(np.asarray(w, dtype=float)[None])
    prod = _phi_product(instance, instance.slots,
                        np.ascontiguousarray(t, dtype=float)[None])[1]
    n = len(instance.g)
    return prod[0, n:2 * n] - g_inv_w[0]


@dataclass
class BatchSolveResult:
    """Per-row outputs of :func:`solve_batch` (one row per symbol slot).

    Each row holds the iterate of the first iteration whose stopping test
    passed (or of the last one the budget allows): ``iterations`` counts up
    to it, and ``converged`` and ``limit_cycle`` are its test's outcome.  The
    test is evaluated per iteration, once per block of iterations (see
    :func:`_bcd`).  ``w`` is that iteration's w-step maximiser, on the sphere
    ||w|| = eps (w = 0 at eps = 0); ``fixed_point_residual_max`` is the
    largest ||G u + w - P^{-1} H^T Phi(t)|| / ||Phi(t)|| over the u-steps up
    to it.  ``stop_reason`` names the outcome in one word.
    """

    u: np.ndarray
    t: np.ndarray
    w: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    limit_cycle: np.ndarray
    fixed_point_residual_max: np.ndarray

    @property
    def stop_reason(self) -> np.ndarray:
        """Per row, ``tolerance``, ``two_cycle`` or ``budget``
        (see :func:`_stop_reason`)."""
        return _stop_reason(self.converged, self.limit_cycle)


# iterations of the loop per evaluation of its stopping test (see _bcd)
_BLOCK = 16
# most live rows a fast-forwarded block may have (see _bcd)
_FAST_FORWARD_ROWS = 8


def _bcd(instance: ProblemInstance, slots: _Slots, config: SolverConfig,
         trace: list | None = None) -> BatchSolveResult:
    """The block coordinate ascent-descent loop over stacked symbol slots.

    Each row starts from t = z = 0 and u equal to the regularised channel
    inversion of D s (the w = 0 closed form), then repeats the w-step, the
    t-step and the u-step until the relative change of (u, t) over a one- or
    two-iteration window drops below ``outer_tol``, and stops at the first
    iteration where it does.  A ``trace`` list gets, per block of
    iterations, the objective after each u-update up to the last row's stop,
    as an (iterations, rows) array.

    The w-step is in closed form.  The u-step sets
    G u_k = P^{-1} H^T Phi(t_k) - w_k, so the next w-step's
    q = P G u_k - H^T Phi(t_k) equals -P w_k, whatever t is (any invertible
    G, any beta, eps > 0).  At the start q = 0, so the first w-step is the
    degenerate one: both of +-eps v_top, with v_top a top eigenvector of
    P, are maximisers, and w_1 = +eps v_top.
    From then on q = -lam_bar_max w_k lies on v_top, the largest secular
    root is mu = lam_bar_max + ||q|| / eps = 2 lam_bar_max, and the
    maximiser q / (mu - lam_bar_max) is -w_k.  So w_k = (-1)^(k-1) w_1: the
    sign-flipping two-cycle that :func:`solve` reports as ``limit_cycle``.

    The u-step is one product with the instance's operators
    (:func:`_phi_product`), u_k = G^{-1} y_k - G^{-1} w_k with
    y_k = P^{-1} H^T Phi(t_k), where G^{-1} w_1 is solved once per row and
    then only flips sign.

    The t-step's residual is in closed form too.  Step k needs
    r_k = H (G u_{k-1} + w_k) - D s, and the u-step left G u_{k-1} + w_{k-1} =
    y_{k-1}, so it equals K Phi(t_{k-1}) - D s + H (w_k - w_{k-1}) with
    K = H P^{-1} H^T: K Phi(t_0) - D s + H w_1 at k = 1 (w_0 = 0), and
    K Phi(t_{k-1}) - D s + 2 H w_k from k = 2 on (w_{k-1} = -w_k).  H w_1 is
    computed once per row; at eps = 0 the residual is K Phi - D s.

    So the slack step is affine in the last two slack iterates.  With the
    momentum iterate z_{k-1} = t_{k-1} + mom (t_{k-1} - t_{k-2}), the step
    blocks S = sigma_min^2 A^{-T} and B = I - S A^{-1}, its input
    B z_{k-1} + S r_k is

        M1 t_{k-1} + M2 t_{k-2} + c_k,  M1 = (1 + mom) B + S K A^{-1},
        M2 = -mom B,  c_k = S (K D s - D s + 2 H w_k),

    and at k = 1, where t_0 = z_0 = 0, it is c_1 = S (K D s - D s + H w_1).
    M1 and M2 (:func:`_recurrence_maps`; M2 is skipped at zero momentum, as
    for QPSK) and the constants are built once per call, and the rows that
    stop leave them with the other working arrays.  An iteration is one
    small matmul per row (two with momentum), the constant and the
    projection on t >= 0.

    The recurrence runs ``_BLOCK`` iterations at a time (more while the
    fast-forward below serves), storing t_k in a buffer reused across
    blocks.  At the end of a block, Phi(t_k) and its product with the
    operators' u-columns (one stacked :func:`_phi_product` with ``u_ops``),
    u_k, the fixed-point residual G u + w - y, the stopping test and the
    trace are evaluated for all its iterations at once, with the same
    expressions as one iteration at a time; each row takes the first
    iteration whose test passed, and the rows that stopped leave the
    working arrays at the block's end.  Their extra iterations touch no other row, so each row
    runs as if alone, up to the rounding of the products, which depends on
    how many rows share them.  No block runs past ``max_iterations``.

    Once the projection's active set holds, a block is one product.  With
    the masks D_0 and D_1 of the entries where t_k > 0 at odd and at even k,
    the step is t_k = (M1 t_{k-1} + M2 t_{k-2} + c_k) D_p, linear in the
    augmented row state s_k = [t_k, t_{k-1}, 1]: s_k = s_{k-1} T_p with

        T_p = [[M1 D_p, I, 0], [M2 D_p, 0, 0], [c_p D_p, 0, 1]]

    in row form (without the middle row and column at zero momentum).  A
    block starts at an odd k, so its iterate j is the state before it
    times Q_{2i} = U^i T_0 or Q_{2i+1} = U^{i+1}, with U = T_0 T_1.
    :func:`_block_operators` builds, per row and once per pair of masks, the
    t-columns of Q_0 .. Q_{_BLOCK - 1}, and :func:`_fast_forward` applies
    them, one product per ``_BLOCK`` iterations.  It runs on a block when
    every row's masks repeated with period two over the block before, which
    ran step by step.  Its check is exact: the linear iterates are the
    projected ones iff every step's input M1 t_{k-1} + M2 t_{k-2} + c_k is
    positive where its mask is 1 and not positive where it is 0, since then
    max(input, 0) = input D_p.  One stacked product recomputes all the
    block's inputs from its fast-forwarded iterates; if every sign matches,
    max(input, 0) are the block's iterates, those of the step-by-step loop
    up to rounding, and else the block runs step by step.  The masks and
    operators leave with the rows that stop.  The fast-forward saves numpy
    calls, not arithmetic: per row, its product costs as many multiply-adds
    as the steps it replaces, and building the operators at least as many
    again.  So it runs only while the batch has at most
    ``_FAST_FORWARD_ROWS`` live rows: one-row solves, and a batch's tail.
    While it serves, the block length doubles, up to 4 ``_BLOCK`` in a
    batch that starts with at most ``_FAST_FORWARD_ROWS`` rows; a larger
    batch keeps ``_BLOCK``, so that its buffers stay ``_BLOCK`` + 2 deep.
    After a block the fast-forward did not serve, the length is ``_BLOCK``
    again.
    """
    count, m = slots.ds.shape
    n = len(instance.g)
    eps, tol2 = instance.epsilon, config.outer_tol ** 2
    h_t = instance.h.T
    # blocks grow past _BLOCK only in batches the fast-forward can serve
    longest = min(4 * _BLOCK if count <= _FAST_FORWARD_ROWS else _BLOCK,
                  config.max_iterations)
    # per block of iterations: u and t after the two iterates before it
    # (both the initial point in the first block, which makes the
    # two-iteration window equal the one-iteration one at k = 1)
    u_buf, t_buf = np.empty((longest + 2, count, n)), np.zeros((longest + 2, count, m))
    prod = _phi_product(instance, slots, t_buf[0])[1]
    u_buf[:2], k_phi = prod[:, n:2 * n], prod[:, 2 * n:]
    # w_k, G^{-1} w_k and the constants c on a leading axis indexed by flip:
    # w_k = +-w_1 alternates with k
    w_pm = g_inv_w_pm = np.zeros((2, count, n))
    h_w1 = np.zeros((count, m))
    if eps > 0:
        w1 = _degenerate_w(count, instance)
        g_inv_w1, h_w1 = instance.solve_g(w1), w1 @ h_t
        w_pm, g_inv_w_pm = np.array((w1, -w1)), np.array((g_inv_w1, -g_inv_w1))
    c_first = _bmul(slots.step, k_phi + (h_w1 - slots.ds))      # w_0 = 0
    c_pm = _bmul(slots.step, k_phi + np.array((2.0 * h_w1 - slots.ds,
                                               -2.0 * h_w1 - slots.ds)))
    m1, m2 = _recurrence_maps(instance, slots)
    out = BatchSolveResult(u=np.empty((count, n)), t=np.empty((count, m)),
                           w=np.empty((count, n)),
                           iterations=np.zeros(count, dtype=int),
                           converged=np.zeros(count, dtype=bool),
                           limit_cycle=np.zeros(count, dtype=bool),
                           fixed_point_residual_max=np.empty(count))
    rows = np.arange(count)         # output row of each working row
    fp2_max = np.zeros(count)      # squared fixed-point residual
    # the active sets (odd, even iteration) that held over the last block,
    # and those of the block operators
    masks = ops = ops_masks = None
    start, block = 1, _BLOCK

    while True:
        size = min(block, config.max_iterations + 1 - start)
        live = len(rows)
        u_b, t_b = u_buf[:size + 2, :live], t_buf[:size + 2, :live]
        served = masks is not None and size == block and live <= _FAST_FORWARD_ROWS
        if served:
            if ops is None or not np.array_equal(masks, ops_masks):
                ops, ops_masks = _block_operators(m1, m2, c_pm, masks, _BLOCK), masks
            served = _fast_forward(ops, masks, m1, m2, c_pm, t_b)
        if not served:
            pre, pre2 = np.empty((2, live, 1, m))
            for j in range(size):
                k = start + j
                np.matmul(t_b[j + 1][:, None], m1, out=pre)
                if m2 is not None:
                    pre += np.matmul(t_b[j][:, None], m2, out=pre2)
                # w_k = -w_1 at even k
                pre[:, 0] += c_first if k == 1 else c_pm[(k + 1) % 2]
                np.maximum(pre[:, 0], 0.0, out=t_b[j + 2])
            masks = None
            if live <= _FAST_FORWARD_ROWS and size > 2 and size % 2 == 0:
                active = t_b[2:] > 0
                if np.array_equal(active[2:], active[:-2]):
                    masks = active[-2:]
        phi_b, prod_b = _phi_product(instance, slots, t_b[2:], instance.u_ops)

        # the block's iterations k = start .. start + size - 1, stacked on
        # the leading axis
        flips = np.arange(start + 1, start + size + 1) % 2
        w = w_pm[flips]
        u = np.subtract(prod_b[:, :, n:], g_inv_w_pm[flips], out=u_b[2:])
        t = t_b[2:]
        x = u @ instance.g.T + w
        fp2 = np.maximum.accumulate(_sq(x - prod_b[:, :, :n]) / _sq(phi_b))  # Phi(t) != 0
        # relative change of u and of t over the one- and two-iteration
        # windows, squared: still[i][j, l] says window i of row l is within
        # tol at the block's iteration j
        bound_u, bound_t = tol2 * _sq(u), tol2 * (1.0 + _norms(t)) ** 2
        still = [(_sq(u - u_b[1 - i:size + 1 - i]) <= bound_u)
                 & (_sq(t - t_b[1 - i:size + 1 - i]) <= bound_t) for i in (0, 1)]
        done = still[0] | still[1]
        stops = done.any(axis=0)
        first = np.where(stops, done.argmax(axis=0), size - 1)
        if trace is not None:
            last = size if not stops.all() else first.max() + 1
            trace.append(_sq(x[:last]) + instance.beta * _sq(x[:last] @ h_t - phi_b[:last]))
        sel = stops | (start + size > config.max_iterations)
        if sel.any():
            idx, at = rows[sel], first[sel]
            out.u[idx], out.t[idx], out.w[idx] = u[at, sel], t[at, sel], w[at, sel]
            out.fixed_point_residual_max[idx] = np.sqrt(np.maximum(fp2_max[sel], fp2[at, sel]))
            out.iterations[idx] = start + at
            out.converged[idx] = stops[sel]
            out.limit_cycle[idx] = ~still[0][at, sel] & stops[sel]
            if sel.all():
                return out
            keep = ~sel
            rows, slots = rows[keep], slots.take(keep)
            w_pm, g_inv_w_pm, c_pm = w_pm[:, keep], g_inv_w_pm[:, keep], c_pm[:, keep]
            m1, m2 = m1[keep], None if m2 is None else m2[keep]
            fp2_max, fp2 = fp2_max[keep], fp2[:, keep]
            u_b, t_b = u_b[-2:, keep], t_b[-2:, keep]
            if masks is not None:
                masks = masks[:, keep]
            if ops is not None:
                ops, ops_masks = ops[keep], ops_masks[:, keep]
        u_buf[:2, :len(rows)], t_buf[:2, :len(rows)] = u_b[-2:], t_b[-2:]
        fp2_max = np.maximum(fp2_max, fp2[-1])
        start += size
        # longer blocks while the fast-forward serves them
        block = min(2 * block, longest) if served else _BLOCK


def solve(instance: ProblemInstance, config: SolverConfig | None = None) -> SolveReport:
    """Run the block coordinate ascent-descent loop on one symbol slot.

    This is :func:`solve_batch` with a batch of one, plus the per-iteration
    ``trace`` and the worst-case ``objective`` of the result.  The loop
    stops at the first iteration where the relative change of (u, t) over a
    one- or two-iteration window drops below ``outer_tol``; the test is
    evaluated per iteration, once per block of iterations (:func:`_bcd`).
    The two-iteration window is needed because the exact u-update makes the
    inner maximiser settle into a sign-flipping two-cycle on the top
    eigenvector of P, which bounds single-step changes away from zero
    (reported via ``limit_cycle``).  Non-convergence is reported, not raised.

    ``objective`` is the worst-case value of the returned (u, t), in closed
    form: the last u-step left q = -P w, so (as in the loop's w-step) the
    inner maximiser at (u, t) is -w, at mu = 2 lam_bar_max; at eps = 0, w = 0.
    """
    config = config or SolverConfig()
    trace = []
    res = _bcd(instance, instance.slots, config, trace)
    u, t, w = res.u[0], res.t[0], res.w[0]
    return SolveReport(u=u, t=t, w=w,
                       objective=relaxed_objective(u, t, -w, instance),
                       iterations=int(res.iterations[0]),
                       trace=np.concatenate(trace)[:, 0],
                       converged=bool(res.converged[0]),
                       limit_cycle=bool(res.limit_cycle[0]),
                       fixed_point_residual_max=float(res.fixed_point_residual_max[0]))


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

    Solves min ||x||^2 subject to H x = D s + A^{-1} t, t >= 0.  With
    L L^T = H H^T, x = H^+ Phi(t) has ||x|| = ||L^{-1} Phi(t)||, so t is the
    non-negative least-squares solution of L^{-1} A^{-1} t ~ -L^{-1} D s,
    and x = (L^{-1} H)^T L^{-1} Phi(t), whose second factor is that problem's
    residual.  The design L^{-1} A^{-1} scales each column pair of L^{-1} by
    its user's 2x2 block; the channel's whitener (L^{-1}, L^{-1} H) is
    computed on its first design and shared by the later ones.
    """
    l_inv, l_inv_h = channel.whitener
    m = len(l_inv)
    design = (l_inv.reshape(m, -1, 1, 2) @ geometry.a_inv_blocks).reshape(m, m)
    target = -(l_inv @ geometry.ds)
    t, _ = nnls(design, target)
    return l_inv_h.T @ (design @ t - target), t


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

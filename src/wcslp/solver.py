"""Worst-case min-max precoder design via block coordinate ascent-descent.

The relaxed design problem is

    min_{u, t >= 0}  max_{||w|| <= eps}  ||G u + w||^2
                     + beta * ||H (G u + w) - (D s + A^{-1} t)||^2

solved by alternating three steps: the inner maximisation over w, one
accelerated projected-gradient step on the non-negative slack t, and a
closed-form update of u.  The exact u-update leaves the inner maximiser in
closed form, both in the loop (see :func:`_bcd`) and at the design
:func:`solve` returns, so no run path searches for the root of its secular
equation; that equation, its reference root search and one-design views of
the three steps are kept in :mod:`wcslp.validation`, for the property
checks.

One loop, :func:`_bcd`, runs the iteration for a stack of symbol slots that
share a channel; each step works on one row per slot.  :func:`solve` runs it
on one slot, :func:`solve_batch` on many.  Between two iterations only the
slack t changes, so the slack step is one affine map per slot of the last
two slack iterates, whose matrices and constants the loop builds once;
Phi(t), u and the loop's one product with the operators
:class:`ProblemInstance` builds once per instance are evaluated once per
block of iterations (see :func:`_bcd`).  A block is 64 iterations in a
batch that starts with at most 8 rows, where a block end's numpy calls cost
more than its iterations, and 16 in a larger batch, where the iterations
that rows run past their stop cost more.  The CI matrices are block
diagonal with 2x2 blocks, each kept as the two complex coefficients of its
action alpha z + beta conj(z) on the interleaved pair z = v_0 + i v_1
(:func:`_bmul`).  The loop applies them to the identity once per call, to
build the affine map's matrices, and to the stacked slack iterates at the
end of each block, for Phi(t).

:func:`design_batch` solves the hard-CI design of every slot of a block in
closed form up to one NNLS per slot: at delta = 0 it is the nominal design
(:func:`nominal_slp`), at delta = 1/beta the slack t* of the exact min-max
design, where the loop starts unless given another start (the link
simulator passes t* solved once per block and scaled across its SNRs).
:func:`minmax_optimum` reads that design's worst-case value F*, the
certificate every design's worst case is measured against.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.optimize import nnls

from .constellation import CiGeometry, PskConstellation
from .realify import RealChannel, RealDistortionMatrix


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
class BatchSolveResult:
    """Per-row outputs of :func:`solve_batch` (one row per symbol slot).

    Each row holds the iterate of the first iteration whose stopping test
    passed (or of the last one the budget allows): ``iterations`` counts up
    to it, and ``converged`` and ``limit_cycle`` are its test's outcome.  The
    test is evaluated per iteration, once per block of iterations (see
    :func:`_bcd`).  ``w`` is that iteration's w-step maximiser, on the sphere
    ||w|| = eps (w = 0 at eps = 0); ``fixed_point_residual_max`` is the
    largest ||G u + w - P^{-1} H^T Phi(t)|| / ||Phi(t)|| over the u-steps up
    to it.
    """

    u: np.ndarray
    t: np.ndarray
    w: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    limit_cycle: np.ndarray
    fixed_point_residual_max: np.ndarray

    @property
    def stop_reason(self) -> np.ndarray | str:
        """Why the loop stopped, per row: ``tolerance`` when the
        one-iteration window passed the test, ``two_cycle`` when only the
        two-iteration window did (``limit_cycle``), and ``budget`` when
        neither did within ``max_iterations``; one string for one design."""
        return np.where(self.converged, np.where(self.limit_cycle, "two_cycle", "tolerance"),
                        "budget")[()]


@dataclass
class SolveReport(BatchSolveResult):
    """Row 0 of :class:`BatchSolveResult`, its scalars as Python numbers,
    plus ``objective``, the worst-case value of the returned (u, t) (the
    relaxed objective at the inner maximiser -w of that design), and
    ``trace``, per iteration the objective right after the u-update, where
    G u + w equals P^{-1} H^T Phi(t) and w cancels:
    Phi(t)^T (H H^T + I/beta)^{-1} Phi(t).
    """

    objective: float
    trace: np.ndarray


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


def _ci_coefficients(geometry: CiGeometry) -> list:
    """Block coefficients (:func:`_coefficients`, (2, S, n_r) for S slots; one
    slot is a stack of one) of A^{-1}, of the slack step's S = sigma_min^2
    A^{-T} and of B = I - S A^{-1}, indexed from the constellation's tables,
    and the step's momentum."""
    const = geometry.constellation
    a_inv_t = np.swapaxes(const.normals_inv, 1, 2)
    sigma_min_sq = const.sigma_min ** 2
    b = np.eye(2) - sigma_min_sq * (a_inv_t @ const.normals_inv)
    symbols = np.atleast_2d(geometry.symbols)
    return [_coefficients(table)[:, symbols] for table in
            (const.normals_inv, sigma_min_sq * a_inv_t, b)] + [_momentum(const)]


def _one_slot(geometry: CiGeometry) -> CiGeometry:
    if geometry.symbols.ndim != 1:
        raise ValueError(f"expected one slot's geometry, got {geometry.symbols.shape} symbols")
    return geometry


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
      its first two column blocks ``u_ops``, all the loop's block ends read.
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
        if _one_slot(self.geometry).n_r != self.channel.n_r:
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

    def solve_g(self, x: np.ndarray) -> np.ndarray:
        """G^{-1} x for each row x of ``x``."""
        return lu_solve(self._g_lu, x.T).T


def phi(t, geometry: CiGeometry) -> np.ndarray:
    """CI target vector D s + A^{-1} t for a finite, non-negative slack t."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise ValueError("slack t must be finite and componentwise non-negative")
    return _one_slot(geometry).ds + (geometry.a_inv_blocks @ t.reshape(-1, 2, 1)).ravel()


def relaxed_objective(u, t, w, instance: ProblemInstance) -> float | np.ndarray:
    """Penalised worst-case objective ||Gu+w||^2 + beta ||H(Gu+w) - Phi(t)||^2.

    ``w`` may carry leading batch axes; the return value then has those axes.
    """
    x = instance.g @ np.asarray(u, dtype=float) + np.asarray(w, dtype=float)
    resid = x @ instance.h.T - phi(t, instance.geometry)
    val = np.sum(x * x, axis=-1) + instance.beta * np.sum(resid * resid, axis=-1)
    return float(val) if np.ndim(val) == 0 else val


# -- the loop's steps, on stacked rows (one row per symbol slot) ------------

def _degenerate_w(count: int, instance: ProblemInstance) -> np.ndarray:
    # q = 0 leaves only the quadratic term, whose maximisers are +-eps v_top
    # with v_top the top eigenvector of P; both signs give the same value, so
    # take +
    return np.tile(instance.epsilon * instance.evecs[:, -1], (count, 1))


def _phi_product(instance, a_inv, ds, t, ops=None):
    """Phi(t) = D s + A^{-1} t and its product with the instance's operators,
    [y | G^{-1} y | K Phi(t)] with y = P^{-1} H^T Phi(t): the u-step's
    u = G^{-1} y - G^{-1} w and the next slack step's K Phi(t) = H y; with
    ``ops`` = ``instance.u_ops``, only [y | G^{-1} y].  ``t`` may stack
    iterates on a leading axis, and ``a_inv`` holds A^{-1}'s coefficients."""
    phi_t = np.add(_bmul(a_inv, t), ds)
    return phi_t, phi_t @ (instance.phi_ops if ops is None else ops)


def _recurrence_maps(instance, a_inv, step, b, momentum: float):
    """Per-row matrices (M1, M2) of the slack recurrence (see :func:`_bcd`),
    transposed to act on row vectors: M1 = (1 + momentum) B + S K A^{-1} and
    M2 = -momentum B, or None when the momentum is 0.  Each is its block
    products applied to the identity, whose basis vectors are stacked on a
    leading axis; so column i of every row's matrix comes out in entry i."""
    count, m = a_inv.shape[1], 2 * a_inv.shape[2]
    eye = np.ascontiguousarray(np.broadcast_to(np.eye(m)[:, None], (m, count, m)))
    b_cols = _bmul(b, eye)
    k_cols = _bmul(a_inv, eye) @ instance.phi_ops[:, 2 * len(instance.g):]

    def row_form(cols):
        return np.ascontiguousarray(cols.transpose(1, 0, 2))
    m1 = row_form(_bmul(step, k_cols) + (1.0 + momentum) * b_cols)
    return m1, row_form(-momentum * b_cols) if momentum else None


# iterations of the loop per evaluation of its stopping test (see _bcd): a
# batch that starts with at most _FEW_ROWS rows runs _LONG_BLOCK, a larger
# one _BLOCK
_BLOCK, _LONG_BLOCK, _FEW_ROWS = 16, 64, 8


def _bcd(instance: ProblemInstance, geometry: CiGeometry, config: SolverConfig,
         trace: list | None = None, start: np.ndarray | None = None) -> BatchSolveResult:
    """The block coordinate ascent-descent loop over the slots of a geometry.

    Each row starts from t = z = t_0, its row of ``start``: by default the
    slack t* of its exact min-max design, :func:`design_batch` at
    delta = 1/beta (the paper leaves the start open, and its t = 0 is an
    explicit ``start`` of zeros), and u_0 = G^{-1} P^{-1} H^T Phi(t_0), the
    u-step's closed form at w = 0.  It then repeats the w-step, the
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

    and at k = 1, where z_0 = t_0 (the momentum starts at rest,
    t_{-1} = t_0), it is c_1 = S (K D s - D s + H w_1): M1 t_0 + M2 t_{-1} =
    B t_0 + S K A^{-1} t_0 supplies the t_0 part of r_1, so every constant
    keeps its t = 0 term K D s whatever the start.
    M1 and M2 (:func:`_recurrence_maps`; M2 is skipped at zero momentum, as
    for QPSK) and the constants are built once per call, and the rows that
    stop leave them, D s and A^{-1} with the other working arrays.  An
    iteration is one small matmul per row (two with momentum), the constant
    and the projection on t >= 0.

    The recurrence runs a block of iterations at a time, storing t_k in a
    buffer reused across blocks.  At the end of a block, Phi(t_k) and its
    product with the operators' u-columns (one stacked :func:`_phi_product`
    with ``u_ops``), u_k, the fixed-point residual G u + w - y, the stopping
    test and the trace are evaluated for all its iterations at once, with
    the same expressions as one iteration at a time; each row takes the
    first iteration whose test passed, and the rows that stopped leave the
    working arrays at the block's end.  Their extra iterations touch no
    other row, so each row runs as if alone, up to the rounding of the
    products, which depends on how many rows share them.  No block runs past
    ``max_iterations``.

    A block is ``_LONG_BLOCK`` iterations in a batch that starts with at
    most ``_FEW_ROWS`` rows, and ``_BLOCK`` in a larger one.  A block end
    costs a fixed number of numpy calls, and a row that stops inside a block
    runs to its end for nothing.  On a few rows the calls cost more, and on
    many rows the wasted iterations: perfbench's one-row solves and its
    100-row sweep batches each run slower at the other length.
    """
    ds = np.atleast_2d(geometry.ds)
    a_inv, step, b, momentum = _ci_coefficients(geometry)
    count, m = ds.shape
    n = len(instance.g)
    eps, tol2 = instance.epsilon, config.outer_tol ** 2
    h_t = instance.h.T
    block = min(_LONG_BLOCK if count <= _FEW_ROWS else _BLOCK, config.max_iterations)
    # per block of iterations: u and t after the two iterates before it
    # (both the initial point in the first block, which makes the
    # two-iteration window equal the one-iteration one at k = 1)
    u_buf, t_buf = np.empty((block + 2, count, n)), np.zeros((block + 2, count, m))
    k_phi = _phi_product(instance, a_inv, ds, t_buf[0])[1][:, 2 * n:]     # K D s
    if start is None:
        start = design_batch(instance.channel, geometry, 1.0 / instance.beta)[1]
    t_buf[:2] = start
    u_buf[:2] = _phi_product(instance, a_inv, ds, t_buf[0], instance.u_ops)[1][:, n:2 * n]
    # w_k, G^{-1} w_k and the constants c on a leading axis indexed by flip:
    # w_k = +-w_1 alternates with k
    w_pm = g_inv_w_pm = np.zeros((2, count, n))
    h_w1 = np.zeros((count, m))
    if eps > 0:
        w1 = _degenerate_w(count, instance)
        g_inv_w1, h_w1 = instance.solve_g(w1), w1 @ h_t
        w_pm, g_inv_w_pm = np.array((w1, -w1)), np.array((g_inv_w1, -g_inv_w1))
    c_first = _bmul(step, k_phi + (h_w1 - ds))      # w_0 = 0
    c_pm = _bmul(step, k_phi + np.array((2.0 * h_w1 - ds, -2.0 * h_w1 - ds)))
    m1, m2 = _recurrence_maps(instance, a_inv, step, b, momentum)
    out = BatchSolveResult(u=np.empty((count, n)), t=np.empty((count, m)),
                           w=np.empty((count, n)),
                           iterations=np.zeros(count, dtype=int),
                           converged=np.zeros(count, dtype=bool),
                           limit_cycle=np.zeros(count, dtype=bool),
                           fixed_point_residual_max=np.empty(count))
    rows = np.arange(count)         # output row of each working row
    fp2_max = np.zeros(count)      # squared fixed-point residual
    start = 1

    while True:
        size = min(block, config.max_iterations + 1 - start)
        live = len(rows)
        u_b, t_b = u_buf[:size + 2, :live], t_buf[:size + 2, :live]
        # the step's views are taken once per block: at one row, numpy's
        # per-call cost is most of an iteration's
        pre, pre2 = np.empty((2, live, 1, m))
        t_rows, pre_row = t_b[:, :, None], pre[:, 0]
        consts = (c_pm[1], c_pm[0])     # by k % 2: w_k = -w_1 at even k
        for j in range(size):
            k = start + j
            np.matmul(t_rows[j + 1], m1, out=pre)
            if m2 is not None:
                pre += np.matmul(t_rows[j], m2, out=pre2)
            pre_row += c_first if k == 1 else consts[k % 2]
            np.maximum(pre_row, 0.0, out=t_b[j + 2])
        phi_b, prod_b = _phi_product(instance, a_inv, ds, t_b[2:], instance.u_ops)

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
            rows, ds, a_inv = rows[keep], ds[keep], a_inv[:, keep]
            w_pm, g_inv_w_pm, c_pm = w_pm[:, keep], g_inv_w_pm[:, keep], c_pm[:, keep]
            m1, m2 = m1[keep], None if m2 is None else m2[keep]
            fp2_max, fp2 = fp2_max[keep], fp2[:, keep]
            u_b, t_b = u_b[-2:, keep], t_b[-2:, keep]
        u_buf[:2, :len(rows)], t_buf[:2, :len(rows)] = u_b[-2:], t_b[-2:]
        fp2_max = np.maximum(fp2_max, fp2[-1])
        start += size


def solve(instance: ProblemInstance, config: SolverConfig | None = None) -> SolveReport:
    """Run the block coordinate ascent-descent loop on one symbol slot.

    This is :func:`solve_batch` with a batch of one, plus the per-iteration
    ``trace`` and the worst-case ``objective`` of the result.  The loop
    starts at the slack t* of the exact min-max design (:func:`_bcd`) and
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
    res = _bcd(instance, instance.geometry, config, trace)
    row = {f.name: getattr(res, f.name)[0] for f in fields(res)}
    row = {name: value if np.ndim(value) else value.item() for name, value in row.items()}
    objective = relaxed_objective(row["u"], row["t"], -row["w"], instance)
    return SolveReport(**row, objective=objective, trace=np.concatenate(trace)[:, 0])


def solve_batch(proto: ProblemInstance, geometry: CiGeometry,
                config: SolverConfig | None = None, *,
                start: np.ndarray | None = None) -> BatchSolveResult:
    """Run the solver loop for many symbol slots of one channel at once.

    All slots share the channel, distortion matrix, beta and epsilon of
    ``proto``; ``geometry`` stacks their CI geometries.  Row j goes through
    the same update sequence as :func:`solve` on ``geometry[j]`` and leaves
    the loop when its own termination test fires.  Every row starts at the
    slack t* of its exact min-max design (:func:`design_batch` at
    delta = 1/beta), as :func:`solve` does, unless ``start`` gives each
    row's finite, non-negative start slack (shaped as ``geometry.ds``; zeros
    for the paper's t = 0).  The link simulator calls it once per (block,
    gamma, beta) with the block's geometry and its own t*, solved at the
    grid's smallest gamma and scaled by sqrt(gamma).
    """
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != geometry.ds.shape or not np.all(np.isfinite(start) & (start >= 0)):
            raise ValueError(f"start must be a finite, non-negative {geometry.ds.shape} "
                             f"slack, got shape {start.shape}")
    return _bcd(proto, geometry, config or SolverConfig(), start=start)


def design_batch(channel: RealChannel, geometry: CiGeometry, delta: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Hard-CI design of every slot of a geometry, on the channel
    regularised by ``delta`` >= 0.

    With L L^T = H H^T + delta I, t >= 0 minimises ||L^{-1} Phi(t)||^2, the
    non-negative least-squares problem L^{-1} A^{-1} t ~ -L^{-1} D s, and
    x = (L^{-1} H)^T L^{-1} Phi(t) = H^T (H H^T + delta I)^{-1} Phi(t), whose
    second factor is that problem's residual.  At delta = 0 this is the
    power-minimising design with H x = Phi(t) (:func:`nominal_slp`); at
    delta = 1/beta, t is the slack of the exact min-max design of the relaxed
    problem, which minimises Phi(t)^T (H H^T + I/beta)^{-1} Phi(t).

    Each NNLS design is L^{-1} with each column pair scaled by its user's
    2x2 block of A^{-1}, one (2 n_r x 2) by (2 x 2) product per (slot,
    user); the designs of all slots are one stacked product, as are their
    targets -L^{-1} D s, and scipy's ``nnls`` runs per slot.  Every slot's
    products have the same shapes, so its design does not depend on the
    other slots in the stack.  The delta = 0 factors are the channel's
    cached ``whitener``; any other delta is factored once per call.  Returns
    x and t with the leading shape of ``geometry.ds``.
    """
    l_inv, l_inv_h = channel.whitener if delta == 0 else channel.whitened(delta)
    m = len(l_inv)
    shape = geometry.ds.shape
    ds = geometry.ds.reshape(-1, m, 1)
    design = (l_inv.reshape(m, -1, 2).transpose(1, 0, 2)
              @ geometry.a_inv_blocks).swapaxes(-3, -2).reshape(-1, m, m)
    target = -(l_inv @ ds)
    t = np.empty((len(ds), m, 1))
    for slot in range(len(ds)):
        t[slot, :, 0] = nnls(design[slot], target[slot])[0]
    x = l_inv_h.T @ (design @ t - target)
    return x.reshape(shape[:-1] + (-1,)), t.reshape(shape)


def minmax_optimum(instance: ProblemInstance) -> tuple[float, np.ndarray, np.ndarray]:
    """The exact min-max design of an instance's relaxed problem and its
    worst-case value, (F*, u*, t*).

    For fixed t the inner maximum is smallest at G u = x, the minimiser
    x = H^T (H H^T + I/beta)^{-1} Phi(t) of the penalised objective, where it
    is Phi(t)^T (H H^T + I/beta)^{-1} Phi(t) + beta eps^2 lam_max(P) (the
    maximiser is either of +-eps v_top); t* minimises the first term over
    t >= 0, which is :func:`design_batch` at delta = 1/beta, and u* = G^{-1} x.
    The first term of F* is read at x as ||x||^2 + beta ||H x - Phi(t*)||^2,
    the penalised objective's minimum.
    """
    x, t = design_batch(instance.channel, instance.geometry, 1.0 / instance.beta)
    resid = instance.h @ x - phi(t, instance.geometry)
    f_star = float(x @ x + instance.beta * (resid @ resid
                                            + instance.epsilon ** 2 * instance.lam_bar_max))
    return f_star, instance.solve_g(x), t


def nominal_slp(channel: RealChannel, geometry: CiGeometry
                ) -> tuple[np.ndarray, np.ndarray]:
    """Undistorted power-minimising precoder with hard CI constraints for
    one slot: min ||x||^2 subject to H x = D s + A^{-1} t, t >= 0, which is
    :func:`design_batch` at delta = 0."""
    return design_batch(channel, _one_slot(geometry), 0.0)

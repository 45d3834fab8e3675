"""Seeded Monte-Carlo link-level evaluation of the precoding schemes.

A coherence block is the unit of work.  Its channel, symbols, distortion and
noise are drawn once, from a substream derived from (master seed, block
index).  For each target SNR the block's geometry is built once, as one
stack of its slots.  Each slot's nominal design is solved once per block, at
the grid's smallest SNR, and shared by every beta and both nominal schemes;
every user of a cell has one gamma and one sigma (``SweepConfig`` has one of
each; ``nominal_slp`` itself takes per-user gammas), so D s, and with it the
design, scales by sqrt(gamma) to the other SNRs.  The robust designs of all
slots are solved in one batch per beta.  The signals go through the block's
channel with additive receiver noise, and single-user ML detection runs at
each receiver, for every cell of the block in one stacked tally.  A cell's
rate is the mean of its users' plug-in MI estimates, from the occupied cells
of their joint histograms: one MI estimate per sample count per sweep, over
every user of every cell with it.  Identical seeds give identical metrics for
any degree of parallelism, and comparisons across beta, gamma and scheme
reuse the draws.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import scipy
from scipy.stats import chi2

from .constellation import (PskConstellation, build_ci_geometry, ci_margin,
                            ml_detect_many)
from .realify import RealChannel, RealDistortionMatrix, build_real_channel
from .solver import ProblemInstance, SolverConfig, nominal_slp, solve_batch

SCHEMES = ("wc-slp", "nominal-slp", "nominal-under-distortion")

# Two readings of the distortion figures: "literal" keeps the quoted
# per-entry variance 0.1 next to the quoted radius 0.56; "calibrated" uses
# the variance for which 0.56 really is the 0.99-confidence radius.
DISTORTION_PRESETS = {
    "literal": dict(sigma_w_sq=0.1, epsilon=0.56, confidence=0.99),
    "calibrated": dict(sigma_w_sq=0.02, epsilon=0.56, confidence=0.99),
}

# a noise-free received point counts as leaving its CI region when a margin
# of user i in slot j is below -rtol ||H_i|| ||x_j||: rounding in H_i x_j is
# of that relative size, so boundary-exact nominal margins get its benefit
# at any scale of the design
_VIOLATION_RTOL = 1e-9


@dataclass
class ChannelRealization:
    """One coherence block's complex channel and its real embedding."""

    h: np.ndarray
    real: RealChannel


@dataclass
class DistortionSpec:
    """Additive distortion model: per-complex-entry variance and ball radius."""

    sigma_w_sq: float
    epsilon: float
    confidence: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma_w_sq < math.inf:
            raise ValueError(f"variance must be non-negative and finite, got {self.sigma_w_sq}")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"radius must be non-negative and finite, got {self.epsilon}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")


@dataclass
class SweepConfig:
    """Full description of one Monte-Carlo sweep."""

    n_t: int
    n_r: int
    gamma_db_grid: tuple = (0.0, 4.0, 8.0, 12.0, 16.0, 20.0)
    beta_grid: tuple = (1.0, 10.0, 100.0)
    blocks: int = 50
    symbols_per_block: int = 100
    constellation_order: int = 4
    phase_offset: float | None = None
    noise_sigma: float = 1.0
    noise_draw_scale: float = 1.0   # scales drawn noise only (genie eval at 0)
    distortion: DistortionSpec = field(
        default_factory=lambda: DistortionSpec(**DISTORTION_PRESETS["calibrated"]))
    seed: int = 0
    schemes: tuple = SCHEMES
    ee_complement: bool = False
    mi_bins: int = 64
    parallel: int = 1
    solver: SolverConfig = field(
        default_factory=lambda: SolverConfig(max_iterations=4000, outer_tol=1e-3))

    def __post_init__(self) -> None:
        if self.n_r < 1:
            raise ValueError("n_r must be >= 1")
        if self.n_r > self.n_t:
            raise ValueError("number of users is limited by n_t (n_r <= n_t)")
        if self.blocks < 1 or self.symbols_per_block < 1:
            raise ValueError("blocks and symbols_per_block must be positive")
        if not 0.0 < self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be positive and finite, got {self.noise_sigma}")
        if not all(math.isfinite(v) for v in (self.noise_draw_scale, self.phase_offset or 0.0)):
            raise ValueError("noise_draw_scale and phase_offset must be finite")
        for key, grid in (("gamma_db", self.gamma_db_grid), ("betas", self.beta_grid),
                          ("schemes", self.schemes)):
            if not grid:
                raise ValueError(f"{key} must not be empty")
        if not all(math.isfinite(g) for g in self.gamma_db_grid):
            raise ValueError(f"gamma_db entries must be finite, got {self.gamma_db_grid}")
        if not all(0.0 < b < math.inf for b in self.beta_grid):
            raise ValueError(f"betas must be positive and finite, got {self.beta_grid}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.mi_bins < 2:
            raise ValueError("mi_bins must be >= 2")
        order = self.constellation_order
        if order < 4 or order & (order - 1):
            # the CI regions need M >= 4 and the Gray labels of the BER a
            # power of two
            raise ValueError(f"modulation order must be a power of two >= 4, got {order}")
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes: {sorted(unknown)}")
        if self.parallel < 1:
            raise ValueError("parallel must be >= 1")


@dataclass
class MetricsRecord:
    """Aggregated metrics for one (gamma, beta, scheme) cell."""

    gamma_db: float
    beta: float
    scheme: str
    mean_power: float
    ber: float
    mi_bits_per_user: float
    energy_efficiency: float
    blocks: int
    symbols_per_block: int
    solver_failures: int
    seed: int
    ci_violation_rate: float = math.nan


def sample_channel(n_t: int, n_r: int, rng: np.random.Generator) -> ChannelRealization:
    """Draw an i.i.d. CSCG channel (unit variance per complex entry)."""
    h = (rng.standard_normal((n_r, n_t))
         + 1j * rng.standard_normal((n_r, n_t))) / math.sqrt(2.0)
    return ChannelRealization(h=h, real=build_real_channel(h))


def calibrate_epsilon(confidence: float, sigma_w_sq: float, n_t: int) -> float:
    """Ball radius with Pr{||w|| > eps} = 1 - confidence for CSCG distortion.

    ||w||^2 / (sigma_w^2 / 2) is chi-square with 2 n_t degrees of freedom.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    if not 0.0 <= sigma_w_sq < math.inf:
        raise ValueError(f"variance must be non-negative and finite, got {sigma_w_sq}")
    if sigma_w_sq == 0.0:
        return 0.0
    return math.sqrt(0.5 * sigma_w_sq * chi2.ppf(confidence, df=2 * n_t))


def _bit_errors(detected, sent, constellation: PskConstellation) -> np.ndarray:
    """Bits that differ between the Gray labels of detected and sent indices,
    summed over the last axis."""
    labels = constellation.gray_labels
    return np.bitwise_count(labels[detected] ^ labels[sent]).sum(axis=-1)


def estimate_mi(received, sent, order: int, bins: int = 64):
    """Plug-in mutual information (bits) between sent indices and received points.

    ``received`` is (..., N, 2) and ``sent`` (..., N): one group of N samples
    per leading index, each estimated on its own.  Joint histogram of the
    discrete symbol with a 2-D binning of the received samples; per group,
    each axis spans +/- 4 empirical standard deviations around the mean
    (outliers clip into the edge bins).  Only the occupied (group, cell,
    symbol) keys are counted, so the cost grows with the samples, not with
    ``bins``^2: MI = sum n_sc / n log2(n_sc n / (n_s n_c)) over them.  Each
    estimate is clamped to [0, log2(order)]; one (N, 2) group gives a float,
    a stack an array of the leading shape.
    """
    received = np.asarray(received, dtype=float)
    sent = np.asarray(sent, dtype=int)
    if received.ndim < 2 or received.shape[-1] != 2 or received.size == 0:
        raise ValueError("received must be a non-empty (..., N, 2) array")
    if sent.shape != received.shape[:-1]:
        raise ValueError("sent must have one index per received sample")
    if bins < 2:
        raise ValueError("need at least 2 bins per axis")
    if np.any((sent < 0) | (sent >= order)):
        raise ValueError(f"sent indices must lie in [0, {order})")
    n = received.shape[-2]
    # (groups, 2, N), contiguous, so each axis's mean and std sum the same
    # way as on one group's own column
    vals = np.ascontiguousarray(np.moveaxis(received, -1, -2).reshape(-1, 2, n))
    sd = vals.std(axis=-1, keepdims=True)
    half = np.where(sd > 0, 4.0 * sd, 1.0)
    lo = vals.mean(axis=-1, keepdims=True) - half
    idx = np.clip(((vals - lo) * (bins / (2.0 * half))).astype(int), 0, bins - 1)
    groups = np.arange(len(vals))[:, None]
    sent = sent.reshape(-1, n)
    # sorted keys run by (group, cell), then symbol
    keys, n_sc = np.unique(((groups * bins + idx[:, 0]) * bins + idx[:, 1]) * order + sent,
                           return_counts=True)
    cell_start = np.flatnonzero(np.diff(keys // order, prepend=-1))
    n_c = np.repeat(np.add.reduceat(n_sc, cell_start), np.diff(cell_start, append=len(keys)))
    group = keys // (order * bins * bins)
    n_s = np.bincount((groups * order + sent).ravel(),
                      minlength=len(vals) * order)[group * order + keys % order]
    # every group has keys; a pairwise sum per group
    mi = np.add.reduceat(n_sc * np.log2(n_sc * n / (n_s * n_c)),
                         np.flatnonzero(np.diff(group, prepend=-1))) / n
    mi = np.clip(mi, 0.0, math.log2(order)).reshape(received.shape[:-2])
    return float(mi) if received.ndim == 2 else mi


def energy_efficiency(ber: float, per_user_rate: float, mean_power: float) -> float:
    """Ratio (BER x per-user rate) / power, implemented as stated."""
    if mean_power <= 0:
        raise ValueError("mean power must be positive")
    return ber * per_user_rate / mean_power


@dataclass
class _BlockTally:
    bit_errors: int
    power_sum: float
    used_symbols: int
    violations: int
    received: np.ndarray    # (n_r, used, 2)
    sent: np.ndarray        # (used, n_r)


def _block_draws(config: SweepConfig, block_index: int):
    """One block's channel, symbol indices (n_sym, n_r), distortion
    (n_sym, 2 n_t) and receiver noise (n_sym, n_r, 2), from the substream of
    (seed, block index).  The distortion is CN(0, sigma_w^2 I) and the noise
    has variance (noise_sigma * noise_draw_scale)^2 / 2 per real component,
    both in interleaved (Re, Im) pairs."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, block_index)))
    chan = sample_channel(config.n_t, config.n_r, rng)
    n_sym = config.symbols_per_block
    symbols = rng.integers(0, config.constellation_order, size=(n_sym, config.n_r))
    w_actual = (math.sqrt(config.distortion.sigma_w_sq / 2.0)
                * rng.standard_normal((n_sym, 2 * config.n_t)))
    noise = (config.noise_sigma * config.noise_draw_scale / math.sqrt(2.0)
             * rng.standard_normal((n_sym, config.n_r, 2)))
    return chan, symbols, w_actual, noise


def _run_block(config: SweepConfig, block_index: int) -> dict[tuple, _BlockTally]:
    """One coherence block's tallies, keyed (gamma_db, beta, "wc-slp") for
    wc-slp and (gamma_db, None, scheme) for a nominal scheme.

    Per gamma the block's geometry is built once.  Each slot's nominal design
    is solved at the smallest gamma, whatever the grid's order, and scaled by
    sqrt(gamma / gamma_ref) at the others, as D s is (all users share one
    gamma and one sigma).  It serves every beta and both nominal schemes.
    wc-slp runs once per beta.  A repeated grid entry is run once.  Every
    cell's signals are collected first and tallied in one stacked call.
    """
    chan, symbols, w_actual, noise = _block_draws(config, block_index)
    const = PskConstellation(config.constellation_order, config.phase_offset)
    n_sym = len(symbols)
    g_real = RealDistortionMatrix(matrix=np.eye(2 * config.n_t), n_t=config.n_t)
    cells, x_ref = [], None     # (key, D s, transmitted signal, power, ok) per cell
    for gamma_db in sorted(set(config.gamma_db_grid)):
        gamma = 10.0 ** (gamma_db / 10.0)
        geometry = build_ci_geometry(symbols, gamma, config.noise_sigma, const)
        if set(config.schemes) - {"wc-slp"}:
            if x_ref is None:   # the grid's smallest gamma
                gamma_ref = gamma
                x_ref = np.stack([nominal_slp(chan.real, gm)[0] for gm in geometry])
            x_nom = math.sqrt(gamma / gamma_ref) * x_ref
            powers = np.sum(x_nom * x_nom, axis=1)
            # precoder output G^{-1} x_nom, so the transmitted signal is
            # x_nom + w; power is accounted on the designed signal
            signals = {"nominal-slp": x_nom, "nominal-under-distortion": x_nom + w_actual}
            cells += [((gamma_db, None, scheme), geometry.ds, signal, powers,
                       np.ones(n_sym, dtype=bool))
                      for scheme, signal in signals.items() if scheme in config.schemes]
        if "wc-slp" in config.schemes:
            for beta in dict.fromkeys(config.beta_grid):
                proto = ProblemInstance(chan.real, g_real, geometry[0], beta,
                                        config.distortion.epsilon)
                result = solve_batch(proto, geometry, config.solver)
                # power on the designed output G u, as for the nominal schemes
                x = result.u @ g_real.matrix.T      # (n_sym, 2 n_t)
                cells.append(((gamma_db, beta, "wc-slp"), geometry.ds, x + w_actual,
                              np.sum(x * x, axis=1), result.converged))
    keys, ds, x_clean, powers, ok = zip(*cells)
    return dict(zip(keys, _tally(chan.real.matrix, symbols, noise, np.stack(ds), const,
                                 np.stack(x_clean), np.stack(powers), np.stack(ok))))


def _tally(h, symbols, noise, ds, const: PskConstellation, x_clean, powers,
           ok) -> list[_BlockTally]:
    """Detection, bit errors, power and noise-free CI margins of one block's
    transmitted signals, for C cells at once: ``ds`` is (C, S, 2 n_r),
    ``x_clean`` (C, S, 2 n_t), ``powers`` and ``ok`` (C, S).  Gives one
    tally per cell; rows where ``ok`` is False are left out of it.

    Every step is per slot (each cell's H x is its own matrix product), so a
    cell's tally does not depend on the others in the stack.
    """
    n_cells, n_sym = ok.shape
    n_r = symbols.shape[1]
    y_clean = (x_clean @ h.T).reshape(n_cells, n_sym, n_r, 2)
    received = y_clean + noise
    bit_errors = _bit_errors(ml_detect_many(received, const), symbols, const)   # (C, S)
    margins = ci_margin(y_clean, ds.reshape(y_clean.shape), symbols, const)
    scale = (np.linalg.norm(x_clean, axis=2)[..., None]              # ||x_j|| ||H_i||
             * np.linalg.norm(h.reshape(n_r, -1), axis=1))
    violations = np.sum(margins.min(axis=3) < -_VIOLATION_RTOL * scale, axis=2)
    n_used = ok.sum(axis=1).tolist()
    return [_BlockTally(bit_errors=int(bit_errors[c, used].sum()),
                        power_sum=float(powers[c, used].sum()), used_symbols=n_used[c],
                        violations=int(violations[c, used].sum()),
                        received=np.transpose(received[c, used], (1, 0, 2)),
                        sent=symbols[used])
            for c, used in enumerate(ok)]


def _openblas_threads(which: str) -> list:
    """The ``set`` or ``get`` thread-count functions of the OpenBLAS builds
    bundled with numpy (64-bit interface, suffix ``64_``) and scipy; empty
    for builds that bundle none."""
    funcs = []
    for package in (np, scipy):
        site = os.path.dirname(os.path.dirname(package.__file__))
        for path in glob.glob(os.path.join(site, f"{package.__name__}.libs",
                                           "libscipy_openblas*.so")):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                func = getattr(lib, f"scipy_openblas_{which}_num_threads{suffix}", None)
                if func is not None:
                    func.argtypes = [ctypes.c_int] if which == "set" else []
                    func.restype = None if which == "set" else ctypes.c_int
                    funcs.append(func)
    return funcs


def _one_blas_thread() -> None:
    """Pool worker initializer: run BLAS on one thread.

    Each worker otherwise keeps OpenBLAS's default of one thread per core,
    and the workers' threads busy-wait against each other: on 2 cores the
    criterion-8 configuration (8x8, 50 blocks of 100 slots) took 49-130 s at
    ``parallel=2`` this way, 19-21 s serially and 10.5 s with one thread per
    worker.  Results do not depend on the thread count.
    """
    for set_threads in _openblas_threads("set"):
        set_threads(1)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(config: SweepConfig) -> list[MetricsRecord]:
    """Evaluate every (gamma, beta, scheme) cell of the configured grid.

    A coherence block is the work unit (:func:`_run_block`).  With
    ``parallel > 1`` blocks are fanned out to a pool of at most ``blocks``
    processes, and no more than the cores this process may run on, and
    reduced in block order, so the records are identical for any worker
    count; each worker runs BLAS on one thread.
    The blocks' tallies are keyed by cell, and each key is reduced once: a
    nominal scheme's, shared by every beta, once per (gamma, scheme).  There
    is one MI estimate per sample count per sweep, over every user of every
    cell with it (:func:`_cells_mi`).
    Symbol slots whose solver did not converge are counted in
    ``solver_failures`` and excluded from every average.
    """
    run = partial(_run_block, config)
    workers = min(config.parallel, config.blocks, _usable_cores())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_one_blas_thread) as pool:
            per_block = list(pool.map(run, range(config.blocks)))
    else:
        per_block = [run(b) for b in range(config.blocks)]
    cells = {key: [tallies[key] for tallies in per_block] for key in per_block[0]}
    reduced = {key: _reduce_cell(config, *key, tallies, mi) for (key, tallies), mi
               in zip(cells.items(), _cells_mi(config, list(cells.values())))}
    return [replace(reduced[gamma_db, beta if scheme == "wc-slp" else None, scheme],
                    gamma_db=gamma_db, beta=beta)
            for gamma_db in config.gamma_db_grid for beta in config.beta_grid
            for scheme in config.schemes]


def _cells_mi(config: SweepConfig, cells: list[list[_BlockTally]]) -> list[float]:
    """Each cell's MI per user, the mean of its users' estimates (NaN with no
    used sample), from one :func:`estimate_mi` call per used-sample count."""
    used = [sum(t.used_symbols for t in tallies) for tallies in cells]
    mi = [math.nan] * len(cells)
    for n in set(used) - {0}:
        rows = [c for c, n_c in enumerate(used) if n_c == n]
        received = np.stack([np.concatenate([t.received for t in cells[c]], axis=1)
                             for c in rows])
        sent = np.stack([np.concatenate([t.sent for t in cells[c]]).T for c in rows])
        per_user = estimate_mi(received, sent, config.constellation_order, config.mi_bins)
        for c, row in zip(rows, per_user):
            mi[c] = float(np.mean(row))
    return mi


def _reduce_cell(config: SweepConfig, gamma_db: float, beta: float | None, scheme: str,
                 tallies: list[_BlockTally], mi: float) -> MetricsRecord:
    used = sum(t.used_symbols for t in tallies)
    metrics = dict.fromkeys(("mean_power", "ber", "mi_bits_per_user", "energy_efficiency"),
                            math.nan)
    if used:
        pairs = used * config.n_r       # (slot, user) pairs, each one received symbol
        bits = pairs * int(math.log2(config.constellation_order))  # order is a power of two
        ber = sum(t.bit_errors for t in tallies) / bits
        mean_power = sum(t.power_sum for t in tallies) / used
        rate_factor = (1.0 - ber) if config.ee_complement else ber
        metrics = dict(mean_power=mean_power, ber=ber, mi_bits_per_user=mi,
                       energy_efficiency=energy_efficiency(rate_factor, mi, mean_power),
                       ci_violation_rate=sum(t.violations for t in tallies) / pairs)
    return MetricsRecord(gamma_db=gamma_db, beta=beta, scheme=scheme, blocks=config.blocks,
                         symbols_per_block=config.symbols_per_block,
                         solver_failures=config.blocks * config.symbols_per_block - used,
                         seed=config.seed,
                         **metrics)

"""Seeded Monte-Carlo link-level evaluation of the precoding schemes.

A coherence block is the unit of work.  Its channel, symbols, distortion and
noise are drawn once, from a substream derived from (master seed, block
index).  For each target SNR the block's slot geometries are built once and
each slot's nominal design is solved once: it depends on neither beta nor
the scheme, so both nominal schemes and every beta share it.  The robust
designs of all slots are solved in one batch per beta.  The signals go
through the block's channel with additive receiver noise, and single-user ML
detection runs at each receiver.  Identical seeds give identical metrics for
any degree of parallelism, and comparisons across beta, gamma and scheme
reuse the same draws.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy
from scipy.stats import chi2

from .constellation import PskConstellation, build_ci_geometry, ml_detect_many
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
        if self.sigma_w_sq < 0:
            raise ValueError("variance must be non-negative")
        if self.epsilon < 0:
            raise ValueError("radius must be non-negative")
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
        if self.n_r > self.n_t:
            raise ValueError("number of users is limited by n_t (n_r <= n_t)")
        if self.blocks < 1 or self.symbols_per_block < 1:
            raise ValueError("blocks and symbols_per_block must be positive")
        if self.noise_sigma <= 0:
            raise ValueError("noise_sigma must be positive")
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
    if sigma_w_sq < 0:
        raise ValueError("variance must be non-negative")
    if sigma_w_sq == 0.0:
        return 0.0
    return math.sqrt(0.5 * sigma_w_sq * chi2.ppf(confidence, df=2 * n_t))


def sample_distortion(sigma_w_sq: float, n_t: int,
                      rng: np.random.Generator) -> np.ndarray:
    """One i.i.d. CSCG distortion draw as an interleaved real vector."""
    if sigma_w_sq < 0:
        raise ValueError("variance must be non-negative")
    return math.sqrt(sigma_w_sq / 2.0) * rng.standard_normal(2 * n_t)


def transmit_receive(u, w_actual, channel: RealChannel,
                     distortion: RealDistortionMatrix, noise_sigmas,
                     rng: np.random.Generator) -> np.ndarray:
    """Noise-corrupted per-user received points r_i = H_i (G u + w) + z_i.

    Noise is Gaussian with variance sigma_i^2 / 2 per real component, i.e.
    E|z_i|^2 = sigma_i^2 for the complex sample.  Returns an (n_r, 2) array.
    """
    x = distortion.matrix @ np.asarray(u, dtype=float) + np.asarray(w_actual, dtype=float)
    clean = (channel.matrix @ x).reshape(channel.n_r, 2)
    sigmas = np.broadcast_to(np.asarray(noise_sigmas, dtype=float), (channel.n_r,))
    noise = rng.standard_normal((channel.n_r, 2)) * (sigmas / math.sqrt(2.0))[:, None]
    return clean + noise


def _bit_errors(detected, sent, constellation: PskConstellation) -> int:
    """Bits that differ between the Gray labels of detected and sent indices."""
    labels = constellation.gray_labels
    return int(np.bitwise_count(labels[detected] ^ labels[sent]).sum())


def estimate_ber(detected, sent, constellation: PskConstellation) -> float:
    """Bit error rate under reflected Gray labeling of the phase index."""
    detected = np.asarray(detected, dtype=int)
    sent = np.asarray(sent, dtype=int)
    if detected.shape != sent.shape:
        raise ValueError("detected / sent shape mismatch")
    return (_bit_errors(detected, sent, constellation)
            / (detected.size * constellation.bits_per_symbol))


def estimate_mi(received, sent, order: int, bins: int = 64) -> float:
    """Plug-in mutual information (bits) between sent indices and received points.

    Joint histogram of the discrete symbol with a 2-D binning of the received
    samples; each axis spans +/- 4 empirical standard deviations around the
    mean (outliers clip into the edge bins).  The estimate is clamped to
    [0, log2(order)].
    """
    received = np.asarray(received, dtype=float)
    sent = np.asarray(sent, dtype=int)
    if received.ndim != 2 or received.shape[1] != 2 or received.shape[0] == 0:
        raise ValueError("received must be a non-empty (N, 2) array")
    if sent.shape != (received.shape[0],):
        raise ValueError("sent must have one index per received sample")
    if bins < 2:
        raise ValueError("need at least 2 bins per axis")
    n = received.shape[0]
    idx2 = np.empty((2, n), dtype=int)
    for axis in range(2):
        vals = received[:, axis]
        center, sd = vals.mean(), vals.std()
        half = 4.0 * sd if sd > 0 else 1.0
        lo = center - half
        scaled = (vals - lo) * (bins / (2.0 * half))
        idx2[axis] = np.clip(scaled.astype(int), 0, bins - 1)
    cell = idx2[0] * bins + idx2[1]
    joint = np.zeros((order, bins * bins))
    np.add.at(joint, (sent, cell), 1.0)
    joint /= n
    p_s = joint.sum(axis=1)
    p_c = joint.sum(axis=0)
    mask = joint > 0
    denom = np.outer(p_s, p_c)
    mi = float(np.sum(joint[mask] * np.log2(joint[mask] / denom[mask])))
    return min(max(mi, 0.0), math.log2(order))


def energy_efficiency(ber: float, per_user_rate: float, mean_power: float) -> float:
    """Ratio (BER x per-user rate) / power, implemented as stated."""
    if mean_power <= 0:
        raise ValueError("mean power must be positive")
    return ber * per_user_rate / mean_power


@dataclass
class _BlockTally:
    bit_errors: int = 0
    bits: int = 0
    power_sum: float = 0.0
    used_symbols: int = 0
    failures: int = 0
    violations: int = 0
    margin_pairs: int = 0
    received: np.ndarray | None = None   # (n_r, used, 2)
    sent: np.ndarray | None = None       # (used, n_r)


def _block_draws(config: SweepConfig, block_index: int):
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, block_index)))
    chan = sample_channel(config.n_t, config.n_r, rng)
    n_sym = config.symbols_per_block
    symbols = rng.integers(0, config.constellation_order, size=(n_sym, config.n_r))
    w_actual = (math.sqrt(config.distortion.sigma_w_sq / 2.0)
                * rng.standard_normal((n_sym, 2 * config.n_t)))
    noise = (config.noise_sigma * config.noise_draw_scale / math.sqrt(2.0)
             * rng.standard_normal((n_sym, config.n_r, 2)))
    return chan, symbols, w_actual, noise


def _run_block(config: SweepConfig, block_index: int) -> list[_BlockTally]:
    """One coherence block's tally for every (gamma, beta, scheme) cell.

    Per gamma the slot geometries are built once and each slot's nominal
    design is solved once: it depends on neither beta nor the scheme, so each
    nominal scheme's tally serves every beta.  wc-slp runs once per beta.
    """
    chan, symbols, w_actual, noise = _block_draws(config, block_index)
    const = PskConstellation(config.constellation_order, config.phase_offset)
    n_sym = len(symbols)
    g_real = RealDistortionMatrix(matrix=np.eye(2 * config.n_t), n_t=config.n_t)
    tallies = []
    for gamma_db in config.gamma_db_grid:
        gamma = 10.0 ** (gamma_db / 10.0)
        geoms = [build_ci_geometry(row, gamma, config.noise_sigma, const) for row in symbols]
        tally = partial(_tally, chan.real.matrix, symbols, noise,
                        np.stack([gm.ds for gm in geoms]), const)
        nominal = {}
        if set(config.schemes) - {"wc-slp"}:
            x_nom = np.stack([nominal_slp(chan.real, gm)[0] for gm in geoms])
            powers = np.sum(x_nom * x_nom, axis=1)
            # precoder output G^{-1} x_nom, so the transmitted signal is
            # x_nom + w; power is accounted on the designed signal
            signals = {"nominal-slp": x_nom, "nominal-under-distortion": x_nom + w_actual}
            nominal = {scheme: tally(signals[scheme], powers, np.ones(n_sym, dtype=bool))
                       for scheme in config.schemes if scheme in signals}
        for beta in config.beta_grid:
            for scheme in config.schemes:
                if scheme != "wc-slp":
                    tallies.append(nominal[scheme])
                    continue
                proto = ProblemInstance(chan.real, g_real, geoms[0], beta,
                                        config.distortion.epsilon)
                result = solve_batch(proto, geoms, config.solver)
                x_clean = result.u @ g_real.matrix.T + w_actual    # (n_sym, 2 n_t)
                tallies.append(tally(x_clean, np.sum(result.u * result.u, axis=1),
                                     result.converged))
    return tallies


def _tally(h, symbols, noise, ds, const: PskConstellation, x_clean, powers,
           ok) -> _BlockTally:
    """Detection, bit errors, power and noise-free CI margins of one block's
    transmitted signals; rows where ``ok`` is False count as failures only."""
    n_r = symbols.shape[1]
    tally = _BlockTally(failures=int(np.sum(~ok)))
    used = np.flatnonzero(ok)
    y_clean = (x_clean[used] @ h.T).reshape(used.size, n_r, 2)
    received = y_clean + noise[used]
    detected = ml_detect_many(received.reshape(-1, 2), const).reshape(used.size, n_r)
    sent = symbols[used]
    tally.bit_errors = _bit_errors(detected, sent, const)
    tally.bits = int(sent.size * const.bits_per_symbol)
    tally.power_sum = float(powers[used].sum())
    tally.used_symbols = int(used.size)
    # noise-free CI margins A_i (y_i - (D s)_i), one 2x2 product per user
    offset = y_clean - ds[used].reshape(used.size, n_r, 2)
    margins = (const.normals[sent] @ offset[..., None])[..., 0]
    scale = np.outer(np.linalg.norm(x_clean[used], axis=1),          # ||x_j|| ||H_i||
                     np.linalg.norm(h.reshape(n_r, -1), axis=1))
    tally.violations = int(np.sum(margins.min(axis=2) < -_VIOLATION_RTOL * scale))
    tally.margin_pairs = int(used.size * n_r)
    tally.received = np.transpose(received, (1, 0, 2))  # (n_r, used, 2)
    tally.sent = sent
    return tally


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


def run_sweep(config: SweepConfig) -> list[MetricsRecord]:
    """Evaluate every (gamma, beta, scheme) cell of the configured grid.

    A coherence block is the work unit (:func:`_run_block`).  With
    ``parallel > 1`` blocks are fanned out to a process pool (workers beyond
    ``blocks`` sit idle) and reduced in block order, so the records are
    identical for any worker count; each worker runs BLAS on one thread.
    Symbol slots whose solver did not converge are counted in
    ``solver_failures`` and excluded from every average.
    """
    run = partial(_run_block, config)
    if config.parallel > 1:
        with ProcessPoolExecutor(max_workers=config.parallel,
                                 initializer=_one_blas_thread) as pool:
            per_block = list(pool.map(run, range(config.blocks)))
    else:
        per_block = [run(b) for b in range(config.blocks)]
    cells = [(gamma_db, beta, scheme) for gamma_db in config.gamma_db_grid
             for beta in config.beta_grid for scheme in config.schemes]
    return [_reduce_cell(config, *cell, [tallies[i] for tallies in per_block])
            for i, cell in enumerate(cells)]


def _reduce_cell(config: SweepConfig, gamma_db: float, beta: float, scheme: str,
                 tallies: list[_BlockTally]) -> MetricsRecord:
    bits = sum(t.bits for t in tallies)
    bit_errors = sum(t.bit_errors for t in tallies)
    used = sum(t.used_symbols for t in tallies)
    failures = sum(t.failures for t in tallies)
    power_sum = sum(t.power_sum for t in tallies)
    violations = sum(t.violations for t in tallies)
    pairs = sum(t.margin_pairs for t in tallies)

    if used == 0:
        return MetricsRecord(gamma_db=gamma_db, beta=beta, scheme=scheme,
                             mean_power=math.nan, ber=math.nan,
                             mi_bits_per_user=math.nan,
                             energy_efficiency=math.nan, blocks=config.blocks,
                             symbols_per_block=config.symbols_per_block,
                             solver_failures=failures, seed=config.seed)

    ber = bit_errors / bits
    mean_power = power_sum / used
    received = np.concatenate([t.received for t in tallies], axis=1)
    sent = np.concatenate([t.sent for t in tallies], axis=0)
    mi_vals = [estimate_mi(received[i], sent[:, i], config.constellation_order,
                           config.mi_bins)
               for i in range(config.n_r)]
    mi = float(np.mean(mi_vals))
    rate_factor = (1.0 - ber) if config.ee_complement else ber
    ee = energy_efficiency(rate_factor, mi, mean_power)
    return MetricsRecord(gamma_db=gamma_db, beta=beta, scheme=scheme,
                         mean_power=mean_power, ber=ber, mi_bits_per_user=mi,
                         energy_efficiency=ee, blocks=config.blocks,
                         symbols_per_block=config.symbols_per_block,
                         solver_failures=failures, seed=config.seed,
                         ci_violation_rate=violations / pairs)

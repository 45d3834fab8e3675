"""The three benchmark workloads, their inputs and their correctness checks.

Every workload runs in rounds.  Round r of a run with seed n draws its inputs
from ``SeedSequence([workload tag, n, r])``, so a seed fixes the inputs and
each round adds fresh ones.  The program only sees the generated sweep
configs and problem instances.

* ``sweep-wc``: ``simulator.run_sweep`` on 8x8 QPSK cells with the schemes
  wc-slp and nominal-under-distortion, serially.  Round r is one 100-slot
  block at gamma = (4, 8, 12, 16)[r % 4] dB and beta in {1, 100}.
* ``sweep-nominal``: ``simulator.run_sweep`` on 4x4 QPSK cells with the two
  nominal schemes over the full 6 x 3 (gamma, beta) grid, 4 blocks of 5 slots
  per round, serially; the traced run also times each round on a process
  pool of one worker per core.
* ``solve-single``: ``solver.ProblemInstance`` plus ``solver.solve`` on 8x8
  QPSK instances; round r is eight instances, one per beta in
  (1, 100, 100, 1e4) and distortion G in {identity, random invertible}.

Sweep rounds can keep every design the sweep returns for the oracle to
check; solve-single checks every design.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from wcslp import constellation, realify, simulator, solver

from oracle import MinMaxOracle, ci_target
from oracle import realify as oracle_realify
from spans import Tracer

EPSILON = 0.56
SIGMA_W_SQ = 0.02
SOLVER = dict(max_iterations=4000, outer_tol=1e-3)
# Single solves get a budget no design reaches: at 4000 about one beta=1e4
# design in 3000 stops unconverged (one needs 5497 iterations).
SOLVE_SINGLE = dict(max_iterations=20000, outer_tol=1e-3)
NOMINAL_SCHEMES = ("nominal-slp", "nominal-under-distortion")
OBJECTIVE_RTOL = 1e-9      # worst-case value may undercut F* by rounding only
W_NORM_RTOL = 1e-6
FIXED_POINT_TOL = 1e-10
MARGIN_TOL = 1e-9

# (module, attribute, span name) of every call the traced run wraps.  The
# simulator binds its helpers at import, so they are wrapped where it looks
# them up; the benchmark's own calls go through the solver module.
TRACE_POINTS = (
    (simulator, "run_sweep", "simulator.run_sweep"),
    (simulator, "sample_channel", "simulator.draw"),
    (simulator, "build_ci_geometry", "constellation.geometry"),
    (simulator, "ProblemInstance", "solver.instance"),
    (simulator, "solve_batch", "solver.batch"),
    (simulator, "nominal_slp", "solver.nominal"),
    (simulator, "ml_detect_many", "constellation.detect"),
    (simulator, "estimate_mi", "simulator.mi"),
    (solver, "ProblemInstance", "solver.instance"),
    (solver, "solve", "solver.solve"),
)


def round_rng(name: str, seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([zlib.crc32(name.encode()), seed, r]))


@dataclass
class RoundResult:
    """What one round did: designs attempted and failed, wall time, faults."""

    designs: int
    failed: int
    seconds: float
    problems: list = field(default_factory=list)
    latencies: list = field(default_factory=list)   # seconds per design sample
    ratios: list = field(default_factory=list)      # worst-case value / F*
    distinct_geometries: int = 0    # distinct (block, gamma, slot) of a sweep round
    distinct_nominal: int = 0       # of those, ones a nominal scheme needs


# ---------------------------------------------------------------- sweeps

class SweepWorkload:
    """Rounds of ``simulator.run_sweep``; one latency sample per round."""

    min_designs = 0

    def __init__(self, name: str, make_config, pool: bool = False):
        self.name = name
        self.pool = pool             # the traced run also times a process pool
        self._make_config = make_config

    def config(self, seed: int, r: int) -> simulator.SweepConfig:
        return self._make_config(int(round_rng(self.name, seed, r).integers(2 ** 31)), r)

    def run_round(self, seed: int, r: int, checked: bool = False, tracer=None,
                  parallel: int = 1) -> RoundResult:
        """One sweep; ``checked`` passes its designs through the oracle."""
        cfg = replace(self.config(seed, r), parallel=parallel)
        keep = Tracer(CAPTURE) if checked else None
        if tracer is not None:
            tracer.install(TRACE_POINTS)
        if keep is not None:
            keep.install([p for p in TRACE_POINTS if p[2] in CAPTURE])
        try:
            start = time.perf_counter()
            records = simulator.run_sweep(cfg)
            seconds = time.perf_counter() - start
        finally:
            for t in (keep, tracer):
                if t is not None:
                    t.remove()
        cells = len(cfg.gamma_db_grid) * len(cfg.beta_grid) * len(cfg.schemes)
        n = cells * cfg.blocks * cfg.symbols_per_block
        distinct = len(cfg.gamma_db_grid) * cfg.blocks * cfg.symbols_per_block
        has_nominal = bool(set(cfg.schemes) & set(NOMINAL_SCHEMES))
        res = RoundResult(designs=n, failed=sum(rec.solver_failures for rec in records),
                          seconds=seconds, problems=check_records(cfg, records),
                          latencies=[seconds / n], distinct_geometries=distinct,
                          distinct_nominal=distinct if has_nominal else 0)
        if keep is not None:
            check_captured(cfg, keep.kept, res)
        return res


# what a checked sweep round keeps of each solver call: the arguments and result
CAPTURE = {"solver.batch": lambda args, kwargs, out: (args[0], list(args[1]), out),
           "solver.nominal": lambda args, kwargs, out: (args[0], args[1], out)}


def check_records(cfg, records) -> list[str]:
    """Properties every sweep's records must have, whatever the draws."""
    problems = []
    got = {(rec.gamma_db, rec.beta, rec.scheme): rec for rec in records}
    expected = {(g, b, s) for g in cfg.gamma_db_grid for b in cfg.beta_grid
                for s in cfg.schemes}
    if set(got) != expected or len(records) != len(expected):
        problems.append(f"cells {sorted(set(got) ^ expected)} missing or extra")
        return problems
    log2m = math.log2(cfg.constellation_order)
    for key, rec in got.items():
        if not 0.0 <= rec.ber <= 1.0:
            problems.append(f"{key}: BER {rec.ber} outside [0, 1]")
        if not 0.0 <= rec.mi_bits_per_user <= log2m:
            problems.append(f"{key}: MI {rec.mi_bits_per_user} outside [0, {log2m}]")
    nominal = [s for s in cfg.schemes if s in NOMINAL_SCHEMES]
    if not nominal:
        return problems
    scaled = []
    for g in cfg.gamma_db_grid:
        powers = {got[(g, b, s)].mean_power for b in cfg.beta_grid for s in nominal}
        if len(powers) != 1:
            problems.append(f"gamma {g}: nominal power differs across beta/scheme: "
                            f"{sorted(powers)}")
        scaled.append(next(iter(powers)) / 10.0 ** (g / 10.0))
    # hard-CI minimum power scales exactly with the target SNR
    if not max(scaled) <= min(scaled) * (1.0 + 1e-9):
        problems.append(f"nominal power / gamma not constant across gamma: {scaled}")
    if "nominal-slp" in nominal:
        bad = [k for k, rec in got.items()
               if k[2] == "nominal-slp" and rec.ci_violation_rate != 0.0]
        if bad:
            problems.append(f"nominal-slp CI violations in {bad}")
    return problems


def _geometry_target(geom, order: int):
    return ci_target(geom.symbols, order, geom.gammas, geom.sigmas)


def check_captured(cfg, kept, res: RoundResult) -> None:
    """Oracle checks of the designs one sweep round returned.

    wc-slp designs are evaluated at their own beta; a nominal design, which
    does not depend on beta, at every beta of the grid.  Nominal designs are
    recomputed for each beta and scheme, so duplicates are evaluated once.
    """
    order = cfg.constellation_order
    seen_designs = 0
    oracles = {}

    def oracle(h, g, beta):
        key = (h.tobytes(), beta)
        if key not in oracles:
            oracles[key] = MinMaxOracle(h, g, beta, cfg.distortion.epsilon)
        return oracles[key]

    def judge(orc, u, t, ds, a_inv, what):
        value, _ = orc.worst_case(u, t, ds, a_inv)
        f_star, _, _ = orc.optimum(ds, a_inv)
        if not value >= f_star * (1.0 - OBJECTIVE_RTOL):
            res.problems.append(f"{what}: worst case {value!r} below F* {f_star!r}")
        res.ratios.append(value / f_star)

    for proto, geoms, out in kept.get("solver.batch", []):
        h, g = proto.channel.matrix, proto.distortion.matrix
        orc = oracle(h, g, proto.beta)
        for j, geom in enumerate(geoms):
            seen_designs += 1
            if not out.converged[j]:
                continue
            what = f"wc-slp beta={proto.beta:g} slot {j}"
            if abs(np.linalg.norm(out.w[j]) / proto.epsilon - 1.0) > W_NORM_RTOL:
                res.problems.append(f"{what}: ||w|| != eps")
            if not out.fixed_point_residual_max[j] <= FIXED_POINT_TOL:
                res.problems.append(f"{what}: fixed-point residual "
                                    f"{out.fixed_point_residual_max[j]:.2e}")
            ds, a_inv = _geometry_target(geom, order)
            judge(orc, out.u[j], out.t[j], ds, a_inv, what)

    seen = set()
    for channel, geom, (x, t) in kept.get("solver.nominal", []):
        h = channel.matrix
        ds, a_inv = _geometry_target(geom, order)
        key = (h.tobytes(), ds.tobytes())
        if key in seen:
            continue
        seen.add(key)
        seen_designs += 1
        if np.any(t < 0) or not np.allclose(h @ x, ds + a_inv @ t, rtol=0.0,
                                            atol=MARGIN_TOL * max(1.0, np.abs(ds).max())):
            res.problems.append("nominal design misses its CI target")
        for beta in cfg.beta_grid:
            judge(oracle(h, np.eye(h.shape[1]), beta), x, t, ds, a_inv,
                  f"nominal beta={beta:g}")
    if seen_designs == 0:
        res.problems.append("no designs seen: solve_batch / nominal_slp not called")


def _sweep_wc(seed: int, r: int) -> simulator.SweepConfig:
    return simulator.SweepConfig(
        n_t=8, n_r=8, gamma_db_grid=((4.0, 8.0, 12.0, 16.0)[r % 4],),
        beta_grid=(1.0, 100.0), blocks=1, symbols_per_block=100,
        constellation_order=4, schemes=("wc-slp", "nominal-under-distortion"),
        distortion=simulator.DistortionSpec(SIGMA_W_SQ, EPSILON), seed=seed,
        parallel=1, solver=solver.SolverConfig(**SOLVER))


def _sweep_nominal(seed: int, r: int) -> simulator.SweepConfig:
    return simulator.SweepConfig(
        n_t=4, n_r=4, gamma_db_grid=(0.0, 4.0, 8.0, 12.0, 16.0, 20.0),
        beta_grid=(1.0, 100.0, 1e4), blocks=4, symbols_per_block=5,
        constellation_order=4, schemes=NOMINAL_SCHEMES,
        distortion=simulator.DistortionSpec(SIGMA_W_SQ, EPSILON), seed=seed,
        parallel=1, solver=solver.SolverConfig(**SOLVER))


# ---------------------------------------------------------- single solves

@dataclass
class Instance:
    """Program inputs of one design and the oracle's own copy of them."""

    program: tuple       # (RealChannel, RealDistortionMatrix, CiGeometry, beta, eps)
    oracle: MinMaxOracle
    ds: np.ndarray
    a_inv: np.ndarray


class SolveWorkload:
    """Rounds of eight single designs; one latency sample per design."""

    name = "solve-single"
    pool = False
    min_designs = 100                # enough for a p90 with ten samples beyond it
    # beta = 100 twice: with one third each, about 53% of designs take under
    # 10 ms and the rest 20-500 ms, which put the median on the gap between
    # the two groups and made it jump from seed to seed.
    betas = (1.0, 100.0, 100.0, 1e4)
    n = 8
    order = 4

    def instances(self, seed: int, r: int) -> list[Instance]:
        rng = round_rng(self.name, seed, r)
        const = constellation.PskConstellation(self.order)
        out = []
        for beta in self.betas:
            for random_g in (False, True):
                h = (rng.standard_normal((self.n, self.n))
                     + 1j * rng.standard_normal((self.n, self.n))) / math.sqrt(2.0)
                gbar = np.eye(self.n, dtype=complex)
                if random_g:
                    gbar = gbar + 0.3 * (rng.standard_normal((self.n, self.n))
                                         + 1j * rng.standard_normal((self.n, self.n))
                                         ) / math.sqrt(2.0)
                symbols = rng.integers(0, self.order, self.n)
                gamma = 10.0 ** (rng.uniform(4.0, 16.0) / 10.0)
                geom = constellation.build_ci_geometry(
                    symbols, np.full(self.n, gamma), np.ones(self.n), const)
                ds, a_inv = ci_target(symbols, self.order, gamma)
                out.append(Instance(
                    program=(realify.build_real_channel(h),
                             realify.build_real_distortion(gbar), geom, beta, EPSILON),
                    oracle=MinMaxOracle(oracle_realify(h), oracle_realify(gbar),
                                        beta, EPSILON),
                    ds=ds, a_inv=a_inv))
        return out

    def run_round(self, seed: int, r: int, checked: bool = True,
                  tracer=None) -> RoundResult:
        """Eight designs; the oracle checks every one, so ``checked`` is not needed."""
        cfg = solver.SolverConfig(**SOLVE_SINGLE)
        res = RoundResult(designs=0, failed=0, seconds=0.0)
        if tracer is not None:
            tracer.install(TRACE_POINTS)
        try:
            for inst in self.instances(seed, r):
                start = time.perf_counter()
                if tracer is None:
                    report = solver.solve(solver.ProblemInstance(*inst.program), cfg)
                else:
                    with tracer.span("bench.design"):
                        report = solver.solve(solver.ProblemInstance(*inst.program), cfg)
                seconds = time.perf_counter() - start
                res.designs += 1
                res.seconds += seconds
                res.latencies.append(seconds)
                self._check(inst, report, res)
        finally:
            if tracer is not None:
                tracer.remove()
        return res

    def _check(self, inst: Instance, report, res: RoundResult) -> None:
        if not report.converged:
            res.failed += 1
            return
        chan, dist = inst.program[0], inst.program[1]
        if not (np.array_equal(chan.matrix, inst.oracle.h)
                and np.array_equal(dist.matrix, inst.oracle.g)):
            res.problems.append("program and oracle disagree on the real embedding")
        beta = inst.oracle.beta
        if abs(np.linalg.norm(report.w) / EPSILON - 1.0) > W_NORM_RTOL:
            res.problems.append(f"beta={beta:g}: ||w|| = {np.linalg.norm(report.w)!r}")
        if not report.fixed_point_residual_max <= FIXED_POINT_TOL:
            res.problems.append(f"beta={beta:g}: fixed-point residual "
                                f"{report.fixed_point_residual_max:.2e}")
        value, _ = inst.oracle.worst_case(report.u, report.t, inst.ds, inst.a_inv)
        f_star, _, _ = inst.oracle.optimum(inst.ds, inst.a_inv)
        if not value >= f_star * (1.0 - OBJECTIVE_RTOL):
            res.problems.append(f"beta={beta:g}: worst case {value!r} below F* {f_star!r}")
        res.ratios.append(value / f_star)


WORKLOADS = {
    "sweep-wc": SweepWorkload("sweep-wc", _sweep_wc),
    "sweep-nominal": SweepWorkload("sweep-nominal", _sweep_nominal, pool=True),
    "solve-single": SolveWorkload(),
}


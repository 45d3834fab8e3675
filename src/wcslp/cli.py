"""Command-line front end: ``solve``, ``sweep`` and ``validate`` subcommands.

Configuration files are flat ``key = value`` documents with ``[section]``
headers (see docs/config_keys.md for the full key list).  Unknown sections or
keys are rejected with the offending line number.  Exit codes are a stable
contract: 0 success, 1 configuration or usage error, 2 numeric
non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .constellation import PskConstellation, build_ci_geometry
from .realify import build_real_distortion
from .simulator import (DISTORTION_PRESETS, SCHEMES, DistortionSpec,
                        MetricsRecord, SweepConfig, calibrate_epsilon,
                        run_sweep, sample_channel)
from .solver import ProblemInstance, SolverConfig, solve
from .validation import run_all

CSV_HEADER = ("gamma_db,beta,scheme,mean_power,ber,mi_bits_per_user,"
              "energy_efficiency,blocks,symbols_per_block,solver_failures,seed")


class ConfigError(Exception):
    def __init__(self, message: str, path: str | None = None,
                 line: int | None = None) -> None:
        if path is not None and line is not None:
            message = f"{path}:{line}: {message}"
        elif path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float_list(raw: str) -> tuple:
    return tuple(float(x) for x in raw.split(",") if x.strip())


def _parse_int_list(raw: str) -> tuple:
    return tuple(int(x) for x in raw.split(",") if x.strip())


def _parse_str_list(raw: str) -> tuple:
    return tuple(x.strip() for x in raw.split(",") if x.strip())


# section -> key -> parser; None default means "no default, optional"
_SCHEMA = {
    "sweep": {
        "n_t": int, "n_r": int, "modulation_order": int, "phase_offset": float,
        "gamma_db": _parse_float_list, "betas": _parse_float_list,
        "blocks": int, "symbols_per_block": int, "noise_sigma": float,
        "noise_draw_scale": float, "sigma_w_sq": float, "epsilon": float,
        "confidence": float, "distortion_preset": str,
        "schemes": _parse_str_list, "seed": int, "parallel": int,
        "ee_complement": _parse_bool, "mi_bins": int,
    },
    "solve": {
        "n_t": int, "n_r": int, "modulation_order": int, "phase_offset": float,
        "gamma_db": float, "beta": float, "epsilon": float,
        "noise_sigma": float, "seed": int, "symbols": _parse_int_list,
    },
    "solver": {"max_iterations": int, "outer_tol": float},
    "validate": {"seed": int, "quick": _parse_bool},
    "output": {"out": str},
}


def parse_config(path: str) -> dict:
    """Parse a sectioned key-value file, rejecting anything off-schema."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    data: dict = {}
    section = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", path, lineno)
            data.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", path, lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", path, lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]",
                              path, lineno)
        parser = _SCHEMA[section][key]
        try:
            value = parser(raw_value.strip())
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", path, lineno) from exc
        if key in data[section]:
            raise ConfigError(f"duplicate key {key!r}", path, lineno)
        data[section][key] = value
    return data


def _require(section: dict, key: str, section_name: str, path: str):
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in section "
                          f"[{section_name}]", path)
    return section[key]


def _solver_config(data: dict, path: str) -> SolverConfig:
    try:
        return SolverConfig(**data.get("solver", {}))
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (tuple, list)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def _sweep_config(data: dict, path: str, args) -> SweepConfig:
    section = data.get("sweep")
    if section is None:
        raise ConfigError("missing [sweep] section", path)
    sec = dict(section)
    n_t = _require(sec, "n_t", "sweep", path)
    n_r = _require(sec, "n_r", "sweep", path)

    preset_name = sec.pop("distortion_preset", None)
    base = dict(DISTORTION_PRESETS["calibrated"])
    if preset_name is not None:
        if preset_name not in DISTORTION_PRESETS:
            raise ConfigError(f"unknown distortion preset {preset_name!r} "
                              f"(known: {sorted(DISTORTION_PRESETS)})", path)
        base = dict(DISTORTION_PRESETS[preset_name])
    if "sigma_w_sq" in sec:
        base["sigma_w_sq"] = sec.pop("sigma_w_sq")
        base.pop("epsilon", None)  # stale radius; recalibrate unless given
    if "confidence" in sec:
        base["confidence"] = sec.pop("confidence")
    if "epsilon" in sec:
        base["epsilon"] = sec.pop("epsilon")
    try:
        if "epsilon" not in base:
            base["epsilon"] = calibrate_epsilon(base["confidence"],
                                                base["sigma_w_sq"], n_t)
        distortion = DistortionSpec(**base)
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc

    kwargs = dict(n_t=n_t, n_r=n_r, distortion=distortion)
    if "solver" in data:
        kwargs["solver"] = _solver_config(data, path)
    rename = {"gamma_db": "gamma_db_grid", "betas": "beta_grid",
              "modulation_order": "constellation_order"}
    for key, value in sec.items():
        if key in ("n_t", "n_r"):
            continue
        kwargs[rename.get(key, key)] = value
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.parallel is not None:
        kwargs["parallel"] = args.parallel
    if args.ee_complement:
        kwargs["ee_complement"] = True
    if args.schemes is not None:
        kwargs["schemes"] = tuple(s.strip() for s in args.schemes.split(","))
    try:
        return SweepConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), path) from exc


def _effective_sweep_echo(config: SweepConfig) -> list[str]:
    """Experiment-defining keys with defaults resolved.

    Execution-only settings (parallelism, output location) are excluded so
    that reruns of the same experiment emit byte-identical artifacts.
    """
    items = {
        "n_t": config.n_t, "n_r": config.n_r,
        "modulation_order": config.constellation_order,
        "phase_offset": (math.pi / config.constellation_order
                         if config.phase_offset is None else config.phase_offset),
        "gamma_db": config.gamma_db_grid, "betas": config.beta_grid,
        "blocks": config.blocks, "symbols_per_block": config.symbols_per_block,
        "noise_sigma": config.noise_sigma,
        "noise_draw_scale": config.noise_draw_scale,
        "sigma_w_sq": config.distortion.sigma_w_sq,
        "epsilon": config.distortion.epsilon,
        "confidence": config.distortion.confidence,
        "schemes": config.schemes, "seed": config.seed,
        "ee_complement": config.ee_complement, "mi_bins": config.mi_bins,
        "solver.max_iterations": config.solver.max_iterations,
        "solver.outer_tol": config.solver.outer_tol,
    }
    return [f"# {key} = {_fmt(value)}" for key, value in sorted(items.items())]


def _record_row(rec: MetricsRecord) -> str:
    return ",".join([
        f"{rec.gamma_db:.17g}", f"{rec.beta:.17g}", rec.scheme,
        f"{rec.mean_power:.17g}", f"{rec.ber:.17g}",
        f"{rec.mi_bits_per_user:.17g}", f"{rec.energy_efficiency:.17g}",
        str(rec.blocks), str(rec.symbols_per_block),
        str(rec.solver_failures), str(rec.seed),
    ])


def write_sweep_csv(config: SweepConfig, records, path: str) -> None:
    """Write sweep records with the resolved-configuration comment block."""
    lines = _effective_sweep_echo(config) + [CSV_HEADER]
    lines += [_record_row(rec) for rec in records]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_sweep(args) -> int:
    data = parse_config(args.config)
    config = _sweep_config(data, args.config, args)
    out = args.out or data.get("output", {}).get("out") or "sweep.csv"
    records = run_sweep(config)
    write_sweep_csv(config, records, out)
    print(f"wrote {len(records)} records to {out}")
    return 0


def cmd_solve(args) -> int:
    data = parse_config(args.config)
    section = data.get("solve")
    if section is None:
        raise ConfigError("missing [solve] section", args.config)
    n_t = _require(section, "n_t", "solve", args.config)
    n_r = section.get("n_r", n_t)
    beta = _require(section, "beta", "solve", args.config)
    order = section.get("modulation_order", 4)
    seed = args.seed if args.seed is not None else section.get("seed", 0)
    gamma_db = section.get("gamma_db", 10.0)
    noise_sigma = section.get("noise_sigma", 1.0)
    epsilon = section.get("epsilon", 0.56)
    if n_r > n_t:
        raise ConfigError("n_r must not exceed n_t", args.config)

    symbols = section.get("symbols")
    if symbols is not None and len(symbols) != n_r:
        raise ConfigError(f"expected {n_r} symbol indices, got {len(symbols)}",
                          args.config)
    try:
        const = PskConstellation(order, section.get("phase_offset"))
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        chan = sample_channel(n_t, n_r, rng)
        if symbols is None:
            symbols = tuple(int(s) for s in rng.integers(0, order, n_r))
        gamma = 10.0 ** (gamma_db / 10.0)
        geometry = build_ci_geometry(symbols, np.full(n_r, gamma),
                                     np.full(n_r, noise_sigma), const)
        instance = ProblemInstance(chan.real,
                                   build_real_distortion(np.eye(n_t, dtype=complex)),
                                   geometry, beta, epsilon)
    except ValueError as exc:
        raise ConfigError(str(exc), args.config) from exc
    solver_config = _solver_config(data, args.config)
    report = solve(instance, solver_config)

    effective = {
        "n_t": n_t, "n_r": n_r, "modulation_order": order,
        "phase_offset": const.phase_offset, "gamma_db": gamma_db,
        "beta": beta, "epsilon": epsilon, "noise_sigma": noise_sigma,
        "seed": seed, "symbols": list(symbols),
        "solver": asdict(solver_config),
    }
    doc = {
        "config": effective,
        "converged": bool(report.converged),
        "limit_cycle": bool(report.limit_cycle),
        "stop_reason": report.stop_reason,
        "iterations": int(report.iterations),
        "objective": float(report.objective),
        "fixed_point_residual_max": float(report.fixed_point_residual_max),
        "u": report.u.tolist(),
        "t": report.t.tolist(),
        "w": report.w.tolist(),
        "objective_trace": report.trace.tolist(),
    }
    out = args.out or data.get("output", {}).get("out") or "solve_report.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote solve report to {out} (converged={report.converged}, "
          f"iterations={report.iterations})")
    return 0 if report.converged else 2


def cmd_validate(args) -> int:
    data = parse_config(args.config) if args.config else {}
    section = data.get("validate", {})
    seed = args.seed if args.seed is not None else section.get("seed", 0)
    quick = section.get("quick", True)
    print(f"seed = {seed}")
    results = run_all(seed=seed, quick=quick)
    for res in results:
        print(res.line())
    out = args.out or data.get("output", {}).get("out")
    if out:
        doc = {"config": {"seed": seed, "quick": quick},
               "checks": [asdict(r) for r in results]}
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if all(r.passed for r in results) else 2


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a configuration error (exit code 1), not as
    argparse's exit 2, which the contract reserves for non-convergence.
    The subcommand parsers inherit this class."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wcslp",
                     description="Worst-case robust symbol-level precoding toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_config in (("solve", cmd_solve, True),
                                   ("sweep", cmd_sweep, True),
                                   ("validate", cmd_validate, False)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config,
                       help="path to the configuration file")
        p.add_argument("--out", help="output path (overrides [output] out)")
        p.add_argument("--seed", type=int, help="overrides the configured seed")
        p.set_defaults(fn=fn)
        if name == "sweep":
            p.add_argument("--parallel", type=int,
                           help="worker processes for block-level fan-out")
            p.add_argument("--ee-complement", action="store_true",
                           help="use (1 - BER) instead of BER in the energy-"
                                "efficiency ratio")
            p.add_argument("--schemes",
                           help=f"comma list overriding the schemes "
                                f"(known: {', '.join(SCHEMES)})")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
import os
import sys
from dataclasses import asdict

import numpy as np

from .constellation import PskConstellation, build_ci_geometry
from .realify import build_real_distortion
from .simulator import (DISTORTION_PRESETS, SCHEMES, DistortionSpec, SweepConfig,
                        calibrate_epsilon, run_sweep, sample_channel)
from .solver import ProblemInstance, SolverConfig, minmax_optimum, solve
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


def _list_of(item):
    """Parser of a comma list of ``item`` values; blank items are skipped."""
    return lambda raw: tuple(item(x.strip()) for x in raw.split(",") if x.strip())


# [sweep] keys whose SweepConfig field has another name
_SWEEP_FIELDS = {"gamma_db": "gamma_db_grid", "betas": "beta_grid",
                 "modulation_order": "constellation_order"}

# section -> key -> parser; None default means "no default, optional"
_SCHEMA = {
    "sweep": {
        "n_t": int, "n_r": int, "modulation_order": int, "phase_offset": float,
        "gamma_db": _list_of(float), "betas": _list_of(float),
        "blocks": int, "symbols_per_block": int, "noise_sigma": float,
        "noise_draw_scale": float, "sigma_w_sq": float, "epsilon": float,
        "confidence": float, "distortion_preset": str,
        "schemes": _list_of(str), "seed": int, "parallel": int,
        "ee_complement": _parse_bool, "mi_bins": int,
    },
    "solve": {
        "n_t": int, "n_r": int, "modulation_order": int, "phase_offset": float,
        "gamma_db": float, "beta": float, "epsilon": float,
        "noise_sigma": float, "seed": int, "symbols": _list_of(int),
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
    for key in ("sigma_w_sq", "confidence"):
        if key in sec:
            base[key] = sec.pop(key)
            base.pop("epsilon", None)  # stale radius; recalibrate unless given
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
    for key, value in sec.items():
        if key in ("n_t", "n_r"):
            continue
        kwargs[_SWEEP_FIELDS.get(key, key)] = value
    flags = dict(seed=args.seed, parallel=args.parallel, schemes=args.schemes,
                 ee_complement=args.ee_complement or None)
    kwargs.update((key, value) for key, value in flags.items() if value is not None)
    try:
        return SweepConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), path) from exc


def _effective_sweep_echo(config: SweepConfig) -> list[str]:
    """Experiment-defining keys with defaults resolved: the config's fields
    and its distortion spec's under their [sweep] keys, and the solver's as
    ``solver.<key>``.

    Execution-only settings (parallelism, output location) are excluded so
    that reruns of the same experiment emit byte-identical artifacts.
    """
    items = asdict(config)
    items |= items.pop("distortion") | {f"solver.{k}": v for k, v in items.pop("solver").items()}
    del items["parallel"]
    if config.phase_offset is None:
        items["phase_offset"] = math.pi / config.constellation_order
    keys = {name: key for key, name in _SWEEP_FIELDS.items()}
    return [f"# {key} = {_fmt(value)}"
            for key, value in sorted((keys.get(k, k), v) for k, v in items.items())]


def write_sweep_csv(config: SweepConfig, records, path: str) -> None:
    """Write sweep records, each a row of its ``CSV_HEADER`` fields, after
    the resolved-configuration comment block."""
    names = CSV_HEADER.split(",")
    lines = _effective_sweep_echo(config) + [CSV_HEADER]
    lines += [",".join(_fmt(getattr(rec, name)) for name in names) for rec in records]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _out_path(args, data: dict, default: str | None) -> str | None:
    """``--out``, else ``[output] out``, else ``default``; checked before
    any work is done to be a file name in an existing directory."""
    out = args.out or data.get("output", {}).get("out") or default
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(os.path.abspath(out)))):
        raise ConfigError(f"output path {out!r} is a directory or lies in a missing one",
                          args.config)
    return out


def cmd_sweep(args) -> int:
    data = parse_config(args.config)
    config = _sweep_config(data, args.config, args)
    out = _out_path(args, data, "sweep.csv")
    records = run_sweep(config)
    write_sweep_csv(config, records, out)
    print(f"wrote {len(records)} records to {out}")
    return 0


def cmd_solve(args) -> int:
    data = parse_config(args.config)
    section = data.get("solve")
    if section is None:
        raise ConfigError("missing [solve] section", args.config)
    out = _out_path(args, data, "solve_report.json")
    n_t = _require(section, "n_t", "solve", args.config)
    n_r = section.get("n_r", n_t)
    beta = _require(section, "beta", "solve", args.config)
    order = section.get("modulation_order", 4)
    seed = args.seed if args.seed is not None else section.get("seed", 0)
    gamma_db = section.get("gamma_db", 10.0)
    noise_sigma = section.get("noise_sigma", 1.0)
    epsilon = section.get("epsilon", 0.56)
    if n_t < 1 or n_r < 1:
        raise ConfigError("n_t and n_r must be >= 1", args.config)
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
    optimum = minmax_optimum(instance)[0]

    effective = {
        "n_t": n_t, "n_r": n_r, "modulation_order": order,
        "phase_offset": const.phase_offset, "gamma_db": gamma_db,
        "beta": beta, "epsilon": epsilon, "noise_sigma": noise_sigma,
        "seed": seed, "symbols": list(symbols),
        "solver": asdict(solver_config),
    }
    doc = {"config": effective}
    for name in ("converged", "limit_cycle", "stop_reason", "iterations", "objective",
                 "fixed_point_residual_max", "u", "t", "w", "trace"):
        key = "objective_trace" if name == "trace" else name
        doc[key] = np.asarray(getattr(report, name)).tolist()
    doc["optimum"] = optimum
    doc["optimality_gap"] = report.objective / optimum - 1.0
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
    if seed < 0:
        raise ConfigError("seed must be non-negative", args.config)
    out = _out_path(args, data, None)
    print(f"seed = {seed}")
    results = run_all(seed=seed, quick=quick)
    for res in results:
        print(res.line())
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
            p.add_argument("--schemes", type=_list_of(str),
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

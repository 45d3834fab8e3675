"""Benchmark of the wcslp toolkit.

    python3 perfbench/run.py --workload sweep-wc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Runs one workload (see workloads.py) for ``--seconds`` seconds of whole
rounds, checks every output against properties of the method and against the
independent oracle in oracle.py, and prints each metric with its unit.  With
``--trace 0`` nothing is wrapped and the end-to-end metrics are reported;
with ``--trace 1`` the layer entry points are wrapped (spans.py), the sweeps
run serially, the spans are written to perfbench/out/ and the per-layer
metrics are reported.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The program is
imported from the checkout's src/ directory and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("sweep-wc", "sweep-nominal", "solve-single")
SETUP_PROBES = 3
CHECKED_ROUNDS = 10     # sweep rounds whose designs the oracle checks


def import_program() -> None:
    """Import wcslp from the checkout, as its CLI does; refuse any other copy."""
    if not (SRC / "wcslp" / "__init__.py").is_file():
        raise SystemExit(f"error: no wcslp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wcslp
    if Path(wcslp.__file__).resolve().parent != (SRC / "wcslp").resolve():
        raise SystemExit(f"error: imported wcslp from {wcslp.__file__}, not {SRC}")
    import wcslp.cli, wcslp.simulator, wcslp.solver  # noqa: E401,F401


def warm_up() -> None:
    """One tiny sweep of every scheme, so lazy imports finish before timing."""
    from wcslp import simulator, solver
    simulator.run_sweep(simulator.SweepConfig(
        n_t=2, n_r=2, gamma_db_grid=(4.0,), beta_grid=(1.0,), blocks=1,
        symbols_per_block=2, schemes=simulator.SCHEMES, seed=0,
        solver=solver.SolverConfig(max_iterations=50, outer_tol=1e-3)))


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing wcslp and warming up."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe-setup"],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident memory of this process; no measured workload runs a pool."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values, q: float) -> float:
    """q-quantile with linear interpolation between order statistics."""
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
                 if len(values) > 1 else values[0])


class Tally:
    """Sums over the rounds of one run."""

    def __init__(self):
        self.rounds = 0
        self.designs = 0
        self.failed = 0
        self.seconds = 0.0
        self.latencies: list[float] = []
        self.ratios: list[float] = []
        self.problems: list[str] = []
        self.distinct_geometries = 0
        self.distinct_nominal = 0

    def add(self, res) -> None:
        self.rounds += 1
        self.designs += res.designs
        self.failed += res.failed
        self.seconds += res.seconds
        self.latencies += res.latencies
        self.ratios += res.ratios
        self.problems += res.problems
        self.distinct_geometries += res.distinct_geometries
        self.distinct_nominal += res.distinct_nominal


def geometric_mean(values) -> float:
    return math.exp(statistics.fmean(map(math.log, values))) if values else float("nan")


def run_rounds(wl, seed: int, seconds: float, tracer=None, after_round=None) -> Tally:
    """Whole rounds until ``seconds`` have passed and enough designs are done."""
    tally = Tally()
    start = time.perf_counter()
    r = 0
    while time.perf_counter() - start < seconds or tally.designs < wl.min_designs:
        res = wl.run_round(seed, r, checked=tracer is None and r < CHECKED_ROUNDS,
                           tracer=tracer)
        tally.add(res)
        if after_round is not None:
            after_round(r, res)
        r += 1
    return tally


def run_untraced(wl, seed: int, seconds: float):
    tally = run_rounds(wl, seed, seconds)
    metrics = {
        "designs_per_s": (tally.designs / tally.seconds, "1/s"),
        "design_ms_p50": (1e3 * statistics.median(tally.latencies), "ms"),
        "design_ms_p90": (1e3 * quantile(tally.latencies, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "wc_objective_ratio": (geometric_mean(tally.ratios), "ratio"),
    }
    return tally, metrics


def run_traced(wl, name: str, seed: int, seconds: float):
    from spans import Tracer
    keep = {"solver.batch": lambda a, k, res: (res.iterations, res.limit_cycle),
            "solver.solve": lambda a, k, res: ([res.iterations], [res.limit_cycle])}
    tracer = Tracer(keep)
    workers = len(os.sched_getaffinity(0))
    pool = {"serial": 0.0, "parallel": 0.0, "problems": []}

    def time_pool(r, traced):
        # the same round once more, untraced, on a pool of one worker per core
        pooled = wl.run_round(seed, r, parallel=workers)
        pool["problems"] += pooled.problems
        pool["serial"] += traced.seconds
        pool["parallel"] += workers * pooled.seconds

    tally = run_rounds(wl, seed, seconds, tracer,
                       time_pool if wl.pool and workers > 1 else None)
    tally.problems += pool["problems"]
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.tsv")
    metrics = layer_metrics(tracer, tally.distinct_geometries, tally.distinct_nominal)
    metrics["simulator.pool_efficiency"] = (
        pool["serial"] / pool["parallel"] if pool["parallel"] else 0.0, "ratio")
    return tally, metrics


def layer_metrics(tracer, distinct: int, nominal_distinct: int) -> dict:
    """Per-round layer metrics; a round is one root span (a sweep or a design).

    A layer whose entry point no longer exists is left out; one that exists
    but is not called on this workload reads 0.
    """
    spans = tracer.spans
    present = tracer.installed
    roots = [i for i, s in enumerate(spans) if s[3] == -1]
    n_rounds = max(len(roots), 1)
    busy, calls = {}, {}
    for name, start, end, parent in spans:
        busy[name] = busy.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    sweeps = [i for i in roots if spans[i][0] == "simulator.run_sweep"]
    sweep_set = set(sweeps)
    sweep_child_time = sum(e - b for _, b, e, parent in spans if parent in sweep_set)
    sweep_wall = sum(spans[i][2] - spans[i][1] for i in sweeps)

    def per_round(value):
        return value / n_rounds

    out = {}

    def put(metric, layer, value, unit):
        if layer in present:
            out[metric] = (value, unit)

    for layer, metric in (("solver.batch", "solver.batch_s"),
                          ("solver.nominal", "solver.nominal_s"),
                          ("constellation.geometry", "constellation.geometry_s"),
                          ("constellation.detect", "constellation.detect_s"),
                          ("simulator.draw", "simulator.draw_s"),
                          ("simulator.mi", "simulator.mi_s"),
                          ("solver.instance", "solver.instance_s"),
                          ("solver.solve", "solver.solve_s")):
        put(metric, layer, per_round(busy.get(layer, 0.0)), "s")
    for layer, metric in (("solver.batch", "solver.batch_calls"),
                          ("solver.nominal", "solver.nominal_calls"),
                          ("constellation.geometry", "constellation.geometry_calls")):
        put(metric, layer, per_round(calls.get(layer, 0)), "count")
    put("solver.nominal_useful_ratio", "solver.nominal",
        nominal_distinct / calls["solver.nominal"] if calls.get("solver.nominal") else 0.0,
        "ratio")
    put("constellation.geometry_useful_ratio", "constellation.geometry",
        distinct / calls["constellation.geometry"]
        if calls.get("constellation.geometry") else 0.0, "ratio")
    for layer, prefix in (("solver.batch", "solver.batch_"), ("solver.solve", "solver.")):
        iters, cycles = [], []
        for it, lc in tracer.kept.get(layer, []):
            iters += [int(v) for v in it]
            cycles += [bool(v) for v in lc]
        put(prefix + "iterations_p50", layer,
            float(statistics.median(iters)) if iters else 0.0, "count")
        put(prefix + "iterations_max", layer, float(max(iters)) if iters else 0.0, "count")
        put(prefix + "limit_cycle_share", layer,
            sum(cycles) / len(cycles) if cycles else 0.0, "ratio")
    put("simulator.self_s", "simulator.run_sweep",
        (sweep_wall - sweep_child_time) / max(len(sweeps), 1), "s")
    put("simulator.serial_wall_s", "simulator.run_sweep", sweep_wall / max(len(sweeps), 1), "s")
    return out


def report(name: str, tally, metrics: dict) -> dict:
    for problem in tally.problems[:20]:
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
    for metric, (value, unit) in sorted(metrics.items()):
        print(f"{name}: {metric} = {value:.6g} {unit}")
    print(f"{name}: designs attempted {tally.designs}, failed {tally.failed}, "
          f"rounds {tally.rounds}, correct {not tally.problems}")
    return {"correct": not tally.problems, "attempted": tally.designs,
            "failed": tally.failed,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) else None
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        import_program()
        warm_up()
        return 0
    if args.workload == "all":
        return run_all(args)

    import_program()
    setup_s = None if args.trace else measure_setup()
    warm_up()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    if args.trace:
        tally, metrics = run_traced(wl, args.workload, args.seed, args.seconds)
    else:
        tally, metrics = run_untraced(wl, args.seed, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
    result = report(args.workload, tally, metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Paired runs of two checkouts of this repository.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload sweep-wc \
        --pairs 10 --seconds 30 --out BENCH_18.json
    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload sweep-nominal \
        --trace --pairs 3 --seconds 10 --out BENCH_23.json
    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload wall \
        --pairs 3 --out BENCH_18.json

A workload is the commands each side runs per pair: ``perfbench/run.py``
for a perfbench workload, both sides of a pair with the same seed, or for
``wall`` tier-1, criterion 4's test, the criterion-8 tests (their sweep
fixture included) and the criterion-8 sweep at ``parallel`` 1 and 2.  Each
command runs in a fresh interpreter in its checkout, with that checkout's
``src`` first on the path; the sides take turns at running first.  Every run
records its wall seconds, ``cpu_s`` (user + system seconds of its process
tree, pool workers included) and exit code; a perfbench run also its result.
The summary gives each metric's quartiles per side and the pairs the change
won (a tie counts for neither side).  The entry is stored under the
workload's name in ``--out``, keeping the other workloads' entries there.
With ``--trace`` each side runs perfbench with ``--trace 1``; the summary
gives the per-layer metrics, each with its direction from BENCHMARK.json's
``per_layer`` and no bound, and the entry is stored as ``<workload>-trace``,
beside the untraced one.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

SIDES = ("parent", "change")
PERFBENCH = "perfbench/run.py"
SECONDS = {"unit": "s", "better": "lower"}
# token types that hold no code of their own
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
# the criterion-8 sweep of tests/test_acceptance.py's fixture, which pools min(8, cores)
CRITERION_8 = """\
from wcslp.simulator import DistortionSpec, SweepConfig, run_sweep
from wcslp.solver import SolverConfig
records = run_sweep(SweepConfig(
    n_t=8, n_r=8, gamma_db_grid=(4.0, 8.0, 12.0, 16.0), beta_grid=(1.0, 100.0, 1e4),
    blocks=50, symbols_per_block=100, seed=20260809,
    schemes=("wc-slp", "nominal-under-distortion"), mi_bins=16, parallel={parallel},
    distortion=DistortionSpec(sigma_w_sq=0.02, epsilon=0.56),
    solver=SolverConfig(max_iterations=4000, outer_tol=1e-3)))
print(len(records), "records,", sum(r.solver_failures for r in records), "solver failures")
"""
WALL = {
    "tier1": PYTEST + ["--continue-on-collection-errors"],
    "criterion_4": PYTEST + ["tests/test_acceptance.py::test_criterion_4_baseline_consistency"],
    "criterion_8": PYTEST + ["tests/test_acceptance.py", "-k", "criterion_8"],
    **{f"criterion_8_parallel_{parallel}":
       [sys.executable, "-c", CRITERION_8.format(parallel=parallel)] for parallel in (1, 2)},
}


def commands(workload: str, seconds: float, seed, trace: bool) -> dict:
    """The commands each side runs in one pair, by target."""
    if workload == "wall":
        return WALL
    return {workload: [sys.executable, PERFBENCH, "--workload", workload,
                       "--seconds", str(seconds), "--seed", str(seed)]
            + (["--trace", "1"] if trace else [])}


def code_lines(source: str) -> int:
    """Lines of Python ``source`` that hold code: not blank, not only a
    comment, and not part of a module, class or function docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def commit_of(checkout: Path) -> dict:
    """The checked-out commit, whether the tree differs from it, and the
    size of the program, ``src/wcslp/*.py``: ``src_lines`` as ``wc -l``
    counts it, ``src_code_lines`` as :func:`code_lines` does."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    status = git("status", "--porcelain")
    paths = sorted((checkout / "src" / "wcslp").glob("*.py"))
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "src_lines": sum(path.read_bytes().count(b"\n") for path in paths),
            "src_code_lines": sum(code_lines(path.read_text()) for path in paths)}


def run_once(checkout: Path, cmd: list[str]) -> dict:
    """One run of ``cmd`` in ``checkout``: wall and CPU seconds, exit code,
    and the last line of output, parsed as the result object for perfbench."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = {"seconds": seconds, "cpu_s": (after.ru_utime - before.ru_utime)
              + (after.ru_stime - before.ru_stime), "exit": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    if PERFBENCH not in cmd:
        return {**record, "summary": lines[-1] if lines else proc.stderr[-500:]}
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {**record, **{k: result[k] for k in ("correct", "attempted", "failed")},
            "metrics": {m: v["value"] for m, v in result["metrics"].items()}}


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(values, metrics) -> dict:
    """Per row: each side's quartiles and the pairs the change won.  ``values``
    holds, pair by pair, each side's values by row.  A row named in
    ``metrics`` takes its unit, direction and bound (if it has one) from
    there; any other row is seconds, lower being better."""
    specs = {m["name"]: {k: m[k] for k in ("unit", "better", "bound") if k in m}
             for m in metrics}
    out = {}
    for name in values[0]["change"]:
        spec = specs.get(name, SECONDS)
        sides = {side: [pair[side][name] for pair in values] for side in SIDES}
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {**spec, "parent": quartiles(sides["parent"]),
                     "change": quartiles(sides["change"]),
                     "change_wins": wins, "pairs": len(values)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True, help="a perfbench workload, or 'wall'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0, help="perfbench run length")
    parser.add_argument("--seed", type=int, default=1, help="perfbench seed of the first pair")
    parser.add_argument("--trace", action="store_true",
                        help="run perfbench with --trace 1 and summarise its per-layer metrics")
    parser.add_argument("--out", type=Path, required=True,
                        help="JSON file to add the workload's entry to")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    wall = args.workload == "wall"
    if wall and args.trace:
        parser.error("--trace needs a perfbench workload")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    runs, values = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        run = {"pair": i, **({} if wall else {"seed": seed}), "order": list(order)}
        pair = {side: {} for side in SIDES}
        for target, cmd in commands(args.workload, args.seconds, seed, args.trace).items():
            records = run.setdefault(target, {}) if wall else run
            for side in order:
                rec = records[side] = run_once(checkouts[side], cmd)
                pair[side].update({target: rec["seconds"], f"{target}_cpu_s": rec["cpu_s"]}
                                  if wall else {**rec["metrics"], "cpu_s": rec["cpu_s"]})
            print(f"pair {i} {target}: " + ", ".join(
                f"{side} {records[side]['seconds']:.1f} s, {records[side]['cpu_s']:.1f} cpu s"
                for side in SIDES), flush=True)
        runs.append(run)
        values.append(pair)

    shown = {target: ["python3"] + cmd[1:]
             for target, cmd in commands(args.workload, args.seconds, "<seed>",
                                         args.trace).items()}
    entry = {**({"commands": shown} if wall else {"command": shown[args.workload]}),
             "cores": len(os.sched_getaffinity(0)),
             **{side: commit_of(checkouts[side]) for side in SIDES},
             "summary": summarize(values, metrics), "runs": runs}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.workload + ("-trace" if args.trace else "")] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, row in entry["summary"].items():
        print(f"{name} ({row['unit']}): " + ", ".join(
            f"{side} {row[side]['median']:.6g} [{row[side]['q1']:.6g}, {row[side]['q3']:.6g}]"
            for side in SIDES) + f", change better in {row['change_wins']} of {row['pairs']}")
    return 0 if wall or all(run[side]["correct"] for run in runs for side in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Paired wall times of the test suite in two checkouts of this repository.

    python3 scripts/wall_pairs.py --parent DIR --change DIR --pairs 3 \
        --out BENCH_15.json

Times, per side and pair, five runs in a fresh interpreter that imports the
program from its own checkout: three pytest runs (all of tier-1, criterion
4's test alone and the criterion-8 tests alone, their sweep fixture
included) and the criterion-8 sweep itself at ``parallel`` 1 and 2.  The
sides alternate which runs first, target by target.  Each run's wall
seconds, exit code and last line of output are recorded, with each side's
median and quartiles and the number of pairs the change was faster.  The
result is stored under the ``wall`` key of the ``--out`` file, which must be
named; the other entries already there are kept.  A failing test does not
stop the runs: tier-1 has a known red, and its exit code is recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import SIDES, commit_of, quartiles  # noqa: E402

PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
TARGETS = {
    "tier1": PYTEST + ["--continue-on-collection-errors"],
    "criterion_4": PYTEST + ["tests/test_acceptance.py::test_criterion_4_baseline_consistency"],
    "criterion_8": PYTEST + ["tests/test_acceptance.py", "-k", "criterion_8"],
}
# the criterion-8 sweep of tests/test_acceptance.py's trend fixture, whose
# pool size there is min(8, cores)
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
TARGETS.update({f"criterion_8_parallel_{parallel}":
                [sys.executable, "-c", CRITERION_8.format(parallel=parallel)]
                for parallel in (1, 2)})


def run_once(checkout: Path, cmd: list[str]) -> dict:
    """One timed run with the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"seconds": seconds, "exit": proc.returncode,
            "summary": lines[-1] if lines else proc.stderr[-500:]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--out", type=Path, required=True,
                        help="JSON file to add the 'wall' entry to")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        run = {"pair": i, "order": list(order)}
        for target, cmd in TARGETS.items():
            run[target] = {side: run_once(checkouts[side], cmd) for side in order}
            print(f"pair {i} {target}: " + ", ".join(
                f"{side} {run[target][side]['seconds']:.1f} s" for side in SIDES), flush=True)
        runs.append(run)

    summary = {}
    for target in TARGETS:
        sides = {side: [run[target][side]["seconds"] for run in runs] for side in SIDES}
        wins = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        summary[target] = {"unit": "s", "better": "lower",
                           "parent": quartiles(sides["parent"]),
                           "change": quartiles(sides["change"]),
                           "change_wins": wins, "pairs": len(runs)}
    entry = {"commands": {target: ["python3"] + cmd[1:] for target, cmd in TARGETS.items()},
             "cores": len(os.sched_getaffinity(0)),
             "parent": commit_of(checkouts["parent"]),
             "change": commit_of(checkouts["change"]),
             "summary": summary, "runs": runs}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["wall"] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for target, row in summary.items():
        print(f"{target}: parent {row['parent']['median']:.1f} s "
              f"[{row['parent']['q1']:.1f}, {row['parent']['q3']:.1f}], "
              f"change {row['change']['median']:.1f} s "
              f"[{row['change']['q1']:.1f}, {row['change']['q3']:.1f}], "
              f"change faster in {row['change_wins']} of {row['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

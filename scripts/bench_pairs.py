#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts of this repository.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload sweep-wc \
        --pairs 10 --seconds 30 --out BENCH_12.json

Runs ``perfbench/run.py --workload W --seconds S --seed N`` in the parent and
in the change checkout, pair after pair, alternating which side runs first;
both sides of a pair get the same seed.  Each run is a fresh interpreter that
imports the program from its own checkout.  The end-to-end metrics named in
the change's ``BENCHMARK.json`` are recorded for every run, with each side's
median and quartiles and the number of pairs the change won; each side's
commit comes with the line count of its ``src/wcslp``.  The result is
stored under the workload's name in the ``--out`` file, which must be named;
entries of other workloads already there are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def commit_of(checkout: Path) -> dict:
    """The checked-out commit, whether the tree differs from it, and the
    line count of the program, ``src/wcslp/*.py``, as ``wc -l`` counts it."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "src_lines": sum(path.read_bytes().count(b"\n")
                             for path in (checkout / "src" / "wcslp").glob("*.py"))}


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One benchmark run; its last line of output is the result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m: v["value"] for m, v in result["metrics"].items()}}


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs, metrics) -> dict:
    """Per metric: each side's quartiles and the pairs the change won."""
    out = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        sides = {side: [run[side]["metrics"][name] for run in runs] for side in SIDES}
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"unit": metric["unit"], "better": better, "bound": metric["bound"],
                     "parent": quartiles(sides["parent"]),
                     "change": quartiles(sides["change"]),
                     "change_wins": wins, "pairs": len(runs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True,
                        help="JSON file to add the workload's entry to")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        run = {"pair": i, "seed": seed, "order": list(order)}
        for side in order:
            run[side] = run_once(checkouts[side], args.workload, args.seconds, seed)
        runs.append(run)
        print(f"pair {i} seed {seed}: " + ", ".join(
            f"{side} {run[side]['metrics'].get('designs_per_s', float('nan')):.6g}"
            for side in SIDES) + " designs/s", flush=True)

    entry = {"command": ["python3", "perfbench/run.py", "--workload", args.workload,
                         "--seconds", str(args.seconds), "--seed", "<seed>"],
             "cores": len(os.sched_getaffinity(0)),
             "parent": commit_of(checkouts["parent"]),
             "change": commit_of(checkouts["change"]),
             "summary": summarize(runs, metrics), "runs": runs}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.workload] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, row in entry["summary"].items():
        print(f"{name}: parent {row['parent']['median']:.6g} "
              f"[{row['parent']['q1']:.6g}, {row['parent']['q3']:.6g}], "
              f"change {row['change']['median']:.6g} "
              f"[{row['change']['q1']:.6g}, {row['change']['q3']:.6g}], "
              f"change better in {row['change_wins']} of {row['pairs']}")
    return 0 if all(run[side]["correct"] for run in runs for side in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())

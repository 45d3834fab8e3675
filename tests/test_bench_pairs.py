"""The paired-run harness, scripts/bench_pairs.py, with its runs stubbed."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
LAYERS = {m["name"]: m for m in BENCHMARK["per_layer"]}


@pytest.fixture
def checkouts(tmp_path):
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "change")
    return tmp_path


def stub(monkeypatch, checkouts, value=lambda side, seed: 1.0):
    """Stub ``run_once``: every metric of a run reads ``value(side, seed)``,
    the per-layer ones for a traced run, and the calls are kept in order as
    (side, command)."""
    calls = []

    def run_once(checkout, cmd):
        side = Path(checkout).name
        calls.append((side, cmd))
        if bench_pairs.PERFBENCH not in cmd:
            return {"seconds": 2.0, "cpu_s": 1.5, "exit": 0, "summary": "1 passed"}
        v = value(side, int(cmd[cmd.index("--seed") + 1]))
        names = LAYERS if "--trace" in cmd else METRICS
        return {"seconds": 30.0, "cpu_s": 29.0, "exit": 0, "correct": True,
                "attempted": 10, "failed": 0, "metrics": {m: v for m in names}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return calls


def run(checkouts, workload, pairs=4, seed=7, *extra):
    out = checkouts / "bench.json"
    code = bench_pairs.main(["--parent", str(checkouts / "parent"),
                             "--change", str(checkouts / "change"), "--workload", workload,
                             "--pairs", str(pairs), "--seed", str(seed), "--out", str(out),
                             *extra])
    return code, json.loads(out.read_text())


def test_sides_alternate_and_share_the_seed(monkeypatch, checkouts):
    calls = stub(monkeypatch, checkouts)
    code, doc = run(checkouts, "sweep-wc")
    assert code == 0
    assert [side for side, _ in calls] == ["parent", "change", "change", "parent"] * 2
    seeds = [cmd[cmd.index("--seed") + 1] for _, cmd in calls]
    assert seeds == ["7", "7", "8", "8", "9", "9", "10", "10"]
    assert [r["order"][0] for r in doc["sweep-wc"]["runs"]] == ["parent", "change"] * 2


def test_a_tie_is_a_win_for_neither_side(monkeypatch, checkouts):
    # pairs at seeds 1, 2 tie; at 3 the change is higher, at 4 lower
    stub(monkeypatch, checkouts,
         lambda side, seed: 1.0 + (side == "change") * {3: 1.0, 4: -1.0}.get(seed, 0.0))
    _, doc = run(checkouts, "sweep-wc", seed=1)
    summary = doc["sweep-wc"]["summary"]
    assert summary["designs_per_s"]["better"] == "higher"
    assert summary["designs_per_s"]["change_wins"] == 1  # seed 3
    assert summary["design_ms_p50"]["change_wins"] == 1  # seed 4
    assert summary["cpu_s"]["change_wins"] == 0  # every pair ties


@pytest.mark.parametrize("workload", ["sweep-wc", "wall"])
def test_summary_keeps_the_recorded_layout(monkeypatch, checkouts, workload):
    stub(monkeypatch, checkouts)
    _, doc = run(checkouts, workload)
    recorded = json.loads((ROOT / "BENCH_17.json").read_text())[workload]
    entry = doc[workload]
    assert entry.keys() == recorded.keys()
    assert (entry.get("command"), entry.get("commands")) == (
        recorded.get("command"), recorded.get("commands"))
    cpu_rows = ({"cpu_s"} if workload != "wall"
                else {f"{target}_cpu_s" for target in recorded["commands"]})
    assert entry["summary"].keys() == recorded["summary"].keys() | cpu_rows
    for name, row in recorded["summary"].items():
        assert entry["summary"][name].keys() == row.keys()
    for name in cpu_rows:
        assert entry["summary"][name]["unit"] == "s"
        assert entry["summary"][name]["better"] == "lower"
    assert entry["parent"].keys() == recorded["parent"].keys() | {"src_code_lines"}


def test_other_workloads_in_out_are_kept(monkeypatch, checkouts):
    stub(monkeypatch, checkouts)
    (checkouts / "bench.json").write_text(json.dumps({"solve-single": {"kept": True}}))
    _, doc = run(checkouts, "wall", pairs=2)
    assert doc["solve-single"] == {"kept": True}
    assert set(doc["wall"]["runs"][0]) == {"pair", "order"} | set(bench_pairs.WALL)


def test_one_pair_is_a_usage_error(monkeypatch, checkouts):
    calls = stub(monkeypatch, checkouts)
    with pytest.raises(SystemExit) as exc:
        run(checkouts, "sweep-wc", pairs=1)
    assert exc.value.code == 2
    assert not calls


def test_a_traced_run_summarises_the_layers_beside_the_untraced_entry(monkeypatch, checkouts):
    # --trace runs perfbench with --trace 1 on both sides, reads each layer's
    # direction from BENCHMARK.json's per_layer with no bound, and keeps the
    # untraced entry of the workload
    calls = stub(monkeypatch, checkouts,
                 lambda side, seed: 2.0 if side == "change" and seed % 2 else 1.0)
    _, untraced = run(checkouts, "sweep-nominal")
    calls.clear()
    code, doc = run(checkouts, "sweep-nominal", 4, 7, "--trace")
    assert code == 0
    assert all(cmd[-2:] == ["--trace", "1"] for _, cmd in calls) and len(calls) == 8
    assert doc["sweep-nominal"] == untraced["sweep-nominal"]
    entry = doc["sweep-nominal-trace"]
    assert entry["command"][-2:] == ["--trace", "1"]
    assert entry["summary"].keys() == LAYERS.keys() | {"cpu_s"}
    for name, layer in LAYERS.items():
        row = entry["summary"][name]
        assert "bound" not in row
        assert (row["unit"], row["better"]) == (layer["unit"], layer["better"])
        # the change reads 2 at odd seeds (7 and 9), 1 otherwise
        assert row["change_wins"] == (2 if layer["better"] == "higher" else 0)


def test_trace_needs_a_perfbench_workload(monkeypatch, checkouts):
    calls = stub(monkeypatch, checkouts)
    with pytest.raises(SystemExit) as exc:
        run(checkouts, "wall", 2, 7, "--trace")
    assert exc.value.code == 2
    assert not calls


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    package = tmp_path / "src" / "wcslp"
    package.mkdir(parents=True)
    (package / "a.py").write_text('''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# a comment line
def f(x):
    """One-line docstring."""
    text = """a string that is
not a docstring"""
    return (x +   # inside brackets
            # a comment between the operands
            math.pi)
''')
    (package / "b.py").write_text('''class C:
    """Class docstring."""

    def g(self):
        \'\'\'Docstring in single quotes
        over two lines.\'\'\'
        "a string statement that is not first"
        return 1
''')
    (package / "notes.txt").write_text("not python\n")
    sizes = bench_pairs.commit_of(tmp_path)
    assert sizes["src_lines"] == 14 + 8
    # a.py: import, def, the two lines of text, return, math.pi;
    # b.py: class, def, the string statement, return
    assert sizes["src_code_lines"] == 6 + 4

import json

import pytest

from wcslp.cli import main

SWEEP_INI = """\
[sweep]
n_t = 4
n_r = 4
gamma_db = 4, 12
betas = 1, 10
blocks = 2
symbols_per_block = 10
schemes = wc-slp, nominal-slp
seed = 5
mi_bins = 8

[solver]
max_iterations = 1500
outer_tol = 1e-3
"""

SOLVE_INI = """\
[solve]
n_t = 3
n_r = 3
beta = 10.0
gamma_db = 8
epsilon = 0.3
seed = 2
"""


@pytest.fixture
def sweep_config(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(SWEEP_INI)
    return path


@pytest.fixture
def solve_config(tmp_path):
    path = tmp_path / "solve.ini"
    path.write_text(SOLVE_INI)
    return path


def test_sweep_csv_schema(sweep_config, tmp_path):
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(sweep_config), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == ("gamma_db,beta,scheme,mean_power,ber,mi_bits_per_user,"
                       "energy_efficiency,blocks,symbols_per_block,"
                       "solver_failures,seed")
    assert len(body) == 1 + 2 * 2 * 2  # header + gamma x beta x scheme rows
    assert any(l.startswith("# seed = 5") for l in comments)
    # effective config echo excludes execution-only settings
    assert not any("parallel" in l for l in comments)


def test_sweep_rerun_is_byte_identical(sweep_config, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sweep", "--config", str(sweep_config), "--out", str(out1)])
    main(["sweep", "--config", str(sweep_config), "--out", str(out2),
          "--parallel", "3"])
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_schemes_flag_restricts_rows(sweep_config, tmp_path):
    out = tmp_path / "n.csv"
    main(["sweep", "--config", str(sweep_config), "--out", str(out),
          "--schemes", "nominal-slp"])
    rows = [l for l in out.read_text().splitlines()
            if not l.startswith("#")][1:]
    assert rows and all(r.split(",")[2] == "nominal-slp" for r in rows)


def test_solve_report(solve_config, tmp_path):
    out = tmp_path / "report.json"
    code = main(["solve", "--config", str(solve_config), "--out", str(out)])
    doc = json.loads(out.read_text())
    assert code in (0, 2)
    assert (code == 0) == doc["converged"]
    assert len(doc["objective_trace"]) == doc["iterations"] >= 1
    assert doc["config"]["beta"] == 10.0
    assert len(doc["u"]) == 6


def test_solve_eps_zero_w_is_zero(tmp_path):
    path = tmp_path / "s.ini"
    path.write_text(SOLVE_INI.replace("epsilon = 0.3", "epsilon = 0.0"))
    out = tmp_path / "r.json"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert all(v == 0.0 for v in doc["w"])


def test_missing_beta_names_the_key(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[solve]\nn_t = 2\nn_r = 2\n")
    assert main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "beta" in err


@pytest.mark.parametrize("command, ini, old, new", [
    ("sweep", SWEEP_INI, "n_r = 4\n", "n_r = 4\nmodulation_order = 6\n"),
    ("sweep", SWEEP_INI, "n_r = 4\n", "n_r = 4\nmodulation_order = 3\n"),
    ("sweep", SWEEP_INI, "max_iterations = 1500", "max_iterations = 0"),
    ("solve", SOLVE_INI, "beta = 10.0", "beta = -1"),
    ("solve", SOLVE_INI, "seed = 2", "seed = 2\nsymbols = 0, 1, 9"),
    ("sweep", SWEEP_INI, "mi_bins = 8", "mi_bins = 1"),
    ("sweep", SWEEP_INI, "gamma_db = 4, 12", "gamma_db = 4, nan"),
    ("sweep", SWEEP_INI, "gamma_db = 4, 12", "gamma_db = inf, 12"),
    ("sweep", SWEEP_INI, "seed = 5", "seed = -1"),
    ("sweep", SWEEP_INI, "betas = 1, 10", "betas = 1, 0"),
    ("sweep", SWEEP_INI, "betas = 1, 10", "betas = -1, 10"),
    ("sweep", SWEEP_INI, "outer_tol = 1e-3", "outer_tol = nan"),
    ("sweep", SWEEP_INI, "seed = 5", "seed = 5\nsigma_w_sq = nan"),
    ("sweep", SWEEP_INI, "seed = 5", "seed = 5\nepsilon = inf"),
    ("sweep", SWEEP_INI, "seed = 5", "seed = 5\nnoise_sigma = nan"),
    ("sweep", SWEEP_INI, "betas = 1, 10", "betas = 1, inf"),
    ("solve", SOLVE_INI, "beta = 10.0", "beta = inf"),
    ("sweep", SWEEP_INI, "seed = 5", "seed = 5\nconfidence = 2"),
    ("sweep", SWEEP_INI, "seed = 5", "seed = 5\nnoise_draw_scale = nan"),
    ("sweep", SWEEP_INI, "seed = 5", "seed = 5\nphase_offset = nan"),
], ids=["order-6", "order-3", "no-iterations", "negative-beta", "symbol-range",
        "one-mi-bin", "nan-gamma", "inf-gamma", "negative-seed", "zero-beta",
        "negative-sweep-beta", "nan-outer-tol", "nan-sigma-w-sq", "inf-epsilon",
        "nan-noise-sigma", "inf-sweep-beta", "inf-beta", "confidence-2",
        "nan-noise-draw-scale", "nan-phase-offset"])
def test_bad_values_are_config_errors(tmp_path, capsys, command, ini, old, new):
    path = tmp_path / "bad.ini"
    path.write_text(ini.replace(old, new))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_key_is_line_anchored(tmp_path, capsys):
    path = tmp_path / "typo.ini"
    path.write_text("[sweep]\nn_t = 4\nn_r = 4\nbata = 1\n")
    assert main(["sweep", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "typo.ini:4" in err and "bata" in err


@pytest.mark.parametrize("key", ["mu_tol", "bracket_inset"])
def test_removed_solver_keys_are_unknown(sweep_config, capsys, key):
    sweep_config.write_text(SWEEP_INI + f"{key} = 1e-10\n")
    assert main(["sweep", "--config", str(sweep_config)]) == 1
    err = capsys.readouterr().err
    assert f"sweep.ini:{len(SWEEP_INI.splitlines()) + 1}" in err and key in err


def test_solve_rejects_sweep_only_flags(solve_config, tmp_path, capsys):
    out = tmp_path / "r.json"
    for flag in (["--parallel", "7"], ["--schemes", "nominal-slp"], ["--ee-complement"]):
        assert main(["solve", "--config", str(solve_config), "--out", str(out)] + flag) == 1
        assert flag[0] in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_are_config_errors(sweep_config, capsys):
    # exit 2 is reserved for numeric non-convergence
    assert main(["sweep"]) == 1
    assert "--config" in capsys.readouterr().err
    assert main(["sweep", "--config", str(sweep_config), "--bogus"]) == 1
    assert "--bogus" in capsys.readouterr().err
    assert main([]) == 1


def test_unknown_section_rejected(tmp_path, capsys):
    path = tmp_path / "sec.ini"
    path.write_text("[sweeep]\nn_t = 4\n")
    assert main(["sweep", "--config", str(path)]) == 1
    assert "sweeep" in capsys.readouterr().err


def test_sweep_defaults_without_solver_section(tmp_path):
    path = tmp_path / "nosolver.ini"
    path.write_text("""\
[sweep]
n_t = 4
n_r = 4
gamma_db = 8
betas = 1
blocks = 1
symbols_per_block = 5
schemes = nominal-slp
seed = 1
mi_bins = 8
""")
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    text = out.read_text()
    # sweep-specific practical solver defaults, not the library defaults
    assert "# solver.outer_tol = 0.001" in text
    assert "# solver.max_iterations = 4000" in text
    assert sum(l.startswith("# solver.") for l in text.splitlines()) == 2


def test_seed_flag_overrides_config(sweep_config, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sweep", "--config", str(sweep_config), "--out", str(out1),
          "--seed", "99"])
    main(["sweep", "--config", str(sweep_config), "--out", str(out2)])
    rows1 = out1.read_text()
    assert "# seed = 99" in rows1
    assert rows1 != out2.read_text()


def test_validate_runs_and_prints_seed(tmp_path, capsys):
    code = main(["validate"])
    outtext = capsys.readouterr().out
    assert code == 0
    assert "seed = 0" in outtext
    assert outtext.count("PASS") == 5


@pytest.mark.parametrize("reason, old, new", [
    ("tolerance", "epsilon = 0.3", "epsilon = 0.0"),
    ("two_cycle", "seed = 2", "seed = 2"),
    ("budget", "seed = 2", "seed = 2\n\n[solver]\nmax_iterations = 3\nouter_tol = 1e-12"),
])
def test_solve_report_stop_reason(tmp_path, reason, old, new):
    path = tmp_path / "s.ini"
    path.write_text(SOLVE_INI.replace(old, new))
    out = tmp_path / "r.json"
    code = main(["solve", "--config", str(path), "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["stop_reason"] == reason
    assert code == (2 if reason == "budget" else 0)

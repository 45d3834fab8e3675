import sys

import wcslp
import wcslp.solver as solver_module
import wcslp.validation as validation_module
from wcslp.validation import (check_apgd_oracle, check_bracketing,
                              check_fixed_point, check_root_parity,
                              check_sphere_dominance, run_all)


def test_quick_suite_passes():
    results = run_all(seed=0, quick=True)
    assert all(r.passed for r in results), [r.line() for r in results]
    names = {r.name for r in results}
    assert names == {"bracketing", "sphere-dominance", "fixed-point",
                     "apgd-nnls-oracle", "secular-root-parity"}


def test_checks_are_deterministic():
    a = check_bracketing(n_instances=30, seed=7)
    b = check_bracketing(n_instances=30, seed=7)
    assert a == b


def test_wrong_momentum_sign_fails_apgd_oracle(monkeypatch):
    # the check's 8-PSK instances carry a nonzero momentum (QPSK's is 0)
    momentum = solver_module._momentum
    monkeypatch.setattr(solver_module, "_momentum", lambda const: -momentum(const))
    result = check_apgd_oracle(n_instances=10, seed=3)
    assert not result.passed


def test_apgd_oracle_takes_the_coefficients_once_per_instance(monkeypatch):
    # one call for the probe step and one for the fixed-point iteration, not
    # one per step
    calls = [0]

    def counted(*args, _original=validation_module._ci_coefficients):
        calls[0] += 1
        return _original(*args)
    monkeypatch.setattr(validation_module, "_ci_coefficients", counted)
    assert check_apgd_oracle(n_instances=6, seed=3).passed
    assert calls[0] <= 2 * 6


def test_individual_checks_quick():
    assert check_sphere_dominance(n_instances=4, n_samples=2000, seed=2).passed
    assert check_fixed_point(n_instances=4, seed=3).passed
    assert check_root_parity(n_instances=30, seed=4).passed


# the reference secular maths and the one-design views of the loop's steps,
# which only the property checks use
REFERENCE = ("SecularPoleError", "RootSearchError", "_DEGENERATE_RTOL",
             "_BRENT_RTOL", "SolverState", "_w_parts",
             "_one_row_parts", "_root_from_parts", "_secular_from_parts",
             "secular_value", "mu_bracket", "solve_mu", "worst_case_w", "_t_step",
             "_residual", "apgd_t_step", "update_u", "count_secular_roots")


def test_reference_maths_stays_out_of_the_solver():
    # neither defined nor imported there; the one-row Phi(t) twin is gone
    assert [name for name in REFERENCE + ("_row", "brentq")
            if hasattr(solver_module, name)] == []
    assert [name for name in REFERENCE if not hasattr(validation_module, name)] == []


def test_package_exports_resolve_to_their_defining_modules():
    assert wcslp.__all__ == [
        "CiGeometry", "PskConstellation", "build_ci_geometry", "ci_margin",
        "ci_normals", "ml_detect", "ml_detect_many",
        "RealChannel", "RealDistortionMatrix", "build_real_channel",
        "build_real_distortion", "embed_vector", "pair_rows",
        "ProblemInstance", "SolveReport", "SolverConfig", "SolverState",
        "apgd_t_step", "count_secular_roots", "mu_bracket", "nominal_slp", "phi",
        "relaxed_objective", "secular_value", "solve", "solve_mu", "update_u",
        "worst_case_w",
    ]
    for name in wcslp.__all__:
        obj = getattr(wcslp, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name

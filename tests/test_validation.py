import wcslp.solver as solver_module
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


def test_individual_checks_quick():
    assert check_sphere_dominance(n_instances=4, n_samples=2000, seed=2).passed
    assert check_fixed_point(n_instances=4, seed=3).passed
    assert check_root_parity(n_instances=30, seed=4).passed

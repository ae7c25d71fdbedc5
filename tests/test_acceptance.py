"""Acceptance suite: every criterion at its stated tolerance, one line each.

Each test delegates to the corresponding check in ``matchcast.selftest``
(the same functions behind ``matchcast selftest``) with the default frozen
seed, asserts it passed, and prints its PASS/FAIL line.  Run with ``-s``
(or read the failure output) to see the per-criterion details.
"""

import tempfile

from matchcast import selftest


def _run(check):
    passed, detail = check(selftest.DEFAULT_SEED)
    name = selftest.check_name(check)
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_c01_dirichlet_mixture_worked_example_under_1ms():
    """h=(6,2,1), a=(2,3,4), flat prior -> (0.5, 0.2917, 0.2083) +- 5e-5, < 1 ms."""
    _run(selftest.check_worked_example)


def test_c02_scoring_rule_golden_values():
    """Brier 0.545, log -ln 0.4, spherical -0.4/sqrt(0.345); uniform-forecast scores."""
    _run(selftest.check_golden_scores)


def test_c03_propriety_on_simplex_grid():
    """argmin over the 0.05 grid of expected score is the true distribution, per rule."""
    _run(selftest.check_propriety_grid)


def test_c04_dirichlet_conjugacy_exact():
    """Sequential updates equal one-shot updates exactly over 10^4 random cases."""
    _run(selftest.check_dirichlet_conjugacy)


def test_c05_davidson_parameter_recovery():
    """4 teams x 500 double round robins: worths +- 0.05, gamma/nu +- 0.1, < 30 s."""
    _run(selftest.check_davidson_recovery)


def test_c06_davidson_gradient_vs_finite_differences():
    """Analytic gradient within 1e-5 relative at 100 random interior points."""
    _run(selftest.check_davidson_gradient)


def test_c07_bivariate_poisson_identities():
    """Independence product check, certified grid mass, simulated covariance."""
    _run(selftest.check_bivariate_poisson)


def test_c08_poisson_strength_recovery():
    """Simulated scores refit to +- 0.05 with exact zero-sum constraints."""
    _run(selftest.check_poisson_recovery)


def test_c09_chi_square_goodness_of_fit():
    """Zero statistic on perfect agreement; mean within 10% of df; 20 teams -> 40 df."""
    _run(selftest.check_chi_square_gof)


def test_c10_calibration_band_coverage():
    """Outcomes drawn from forecasts: reliability curve inside the 95% band."""
    _run(selftest.check_calibration_band)


def test_c11_leakage_guard():
    """The predictor interface cannot expose the target matchday's outcomes."""
    _run(selftest.check_leakage_guard)


def test_c12_cv_select_equals_brute_force():
    """Grid selection matches exhaustive re-scoring for 20 seeded seasons."""
    _run(selftest.check_cv_select_brute_force)


def test_c13_byte_identical_reports(tmp_path, monkeypatch):
    """Two identical evaluation runs produce byte-identical JSON and CSV, and leave no files."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    _run(selftest.check_determinism)
    assert not any(tmp_path.iterdir())

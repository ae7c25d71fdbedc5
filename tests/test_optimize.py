import numpy as np
import pytest

import matchcast.davidson as davidson_module
import matchcast.poisson as poisson_module
from matchcast.data import MatchRecord, outcome_of
from matchcast.optimize import BOX, DRIFT_LIMIT, OptimSettings, fit_report, minimize
from matchcast.selftest import double_round_robin


def quadratic(center):
    def objective(x):
        d = x - center
        return float(d @ d), 2.0 * d

    return objective


def rosenbrock(x):
    a, b = 1.0, 100.0
    f = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
    g = np.array(
        [
            -2 * (a - x[0]) - 4 * b * x[0] * (x[1] - x[0] ** 2),
            2 * b * (x[1] - x[0] ** 2),
        ]
    )
    return float(f), g


class TestMinimize:
    def test_quadratic_exact(self):
        center = np.array([1.5, -2.0, 0.25])
        result = minimize(quadratic(center), np.zeros(3))
        assert result.converged
        assert result.x == pytest.approx(center, abs=1e-8)
        assert result.grad_norm <= 1e-8

    def test_already_optimal_takes_zero_iterations(self):
        center = np.array([0.5, 0.5])
        result = minimize(quadratic(center), center.copy())
        assert result.converged
        assert result.iterations == 0

    def test_rosenbrock_valley(self):
        result = minimize(rosenbrock, np.array([-1.2, 1.0]), OptimSettings(max_iter=500))
        assert result.converged
        assert result.x == pytest.approx([1.0, 1.0], abs=1e-6)

    def test_box_clamp_flags_active_bound(self):
        # Unconstrained minimum at 50, box at 30: the solution pins to the wall.
        result = minimize(quadratic(np.array([50.0])), np.zeros(1))
        assert result.x[0] == 30.0
        assert fit_report(None, result, ["x"]).boundary_flags == ("x",)
        assert result.converged  # projected gradient vanishes at the face

    def test_drift_limit_inside_the_box(self):
        # The boundary flags rely on this: a clamped parameter has drifted.
        assert DRIFT_LIMIT < BOX

    def test_iteration_cap_respected(self):
        result = minimize(rosenbrock, np.array([-1.2, 1.0]), OptimSettings(max_iter=3))
        assert result.iterations <= 3
        assert not result.converged

    def test_deterministic(self):
        a = minimize(rosenbrock, np.array([-1.2, 1.0]))
        b = minimize(rosenbrock, np.array([-1.2, 1.0]))
        assert np.array_equal(a.x, b.x)
        assert a.iterations == b.iterations

    def test_bad_settings_rejected(self):
        with pytest.raises(ValueError):
            OptimSettings(tol=0.0)


def _bt_all_home_wins():
    teams = ["a", "b", "c", "d"]
    records = [
        MatchRecord(2014, matchday, h, a, 1, 0)
        for matchday, rnd in enumerate(double_round_robin(teams), start=1)
        for h, a in rnd
    ]
    return davidson_module.bt_fit([(m, outcome_of(m)) for m in records])


@pytest.mark.parametrize(
    "module, fit, flags, gamma_at, gamma_clamped",
    [
        # gamma drifts to 21.4 inside the box.
        (davidson_module, lambda season: _bt_all_home_wins(), ("gamma",), -2, False),
        # gamma is clamped at -30; def:t2 drifts to -19.5.
        (
            poisson_module,
            lambda season: poisson_module.poisson_fit(season.played_before(4), correlated=True),
            ("def:t2", "gamma"),
            1,
            True,
        ),
    ],
    ids=["bt_fit", "poisson_fit"],
)
def test_boundary_flags_mark_clamp_and_drift(
    module, fit, flags, gamma_at, gamma_clamped, boundary_season, record_minimize
):
    results = record_minimize(module)
    assert fit(boundary_season).boundary_flags == flags
    x = np.abs(results[-1].x)
    assert ((x >= DRIFT_LIMIT) & (x < BOX)).any()  # drift inside the box is flagged
    assert (x[gamma_at] == BOX) == gamma_clamped  # and so is a clamped gamma

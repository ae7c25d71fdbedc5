import numpy as np
import pytest

import matchcast.davidson as davidson_module
import matchcast.poisson as poisson_module
from matchcast.data import MatchRecord
from matchcast.optimize import (
    BOX,
    DRIFT_LIMIT,
    OptimResult,
    OptimSettings,
    _norm,
    fit_report,
    fit_teams,
    minimize,
)
from matchcast.selftest import double_round_robin


def quadratic(center):
    def objective(x):
        d = x - center
        return float(d @ d), lambda: 2.0 * d

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
    return float(f), lambda: g


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
        assert fit_report(None, result, {"x": result.x[0]}).boundary_flags == ("x",)
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

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(ValueError):
            OptimSettings(tol=tol)


@pytest.mark.parametrize(
    "fit", [davidson_module.bt_fit, poisson_module.poisson_fit], ids=["bt_fit", "poisson_fit"]
)
class TestFitTeams:
    """Both likelihood fits check their training window through ``fit_teams``."""

    def test_empty_window_rejected(self, fit):
        with pytest.raises(ValueError, match="need at least one match to fit"):
            fit([])

    def test_unplayed_record_rejected(self, fit):
        window = [MatchRecord(2014, 1, "a", "b", 1, 0), MatchRecord(2014, 2, "b", "a")]
        with pytest.raises(ValueError, match="^season 2014 matchday 2: unplayed match b vs a$"):
            fit(window)


def test_fit_teams_lists_each_team_once_sorted():
    window = [MatchRecord(2014, 1, "c", "a", 1, 0), MatchRecord(2014, 2, "b", "c", 2, 2)]
    assert fit_teams(window) == ["a", "b", "c"]


def _bt_all_home_wins():
    teams = ["a", "b", "c", "d"]
    records = [
        MatchRecord(2014, matchday, h, a, 1, 0)
        for matchday, rnd in enumerate(double_round_robin(teams), start=1)
        for h, a in rnd
    ]
    return davidson_module.bt_fit(records)


@pytest.mark.parametrize(
    "module, fit, flags, gamma_at, gamma_clamped",
    [
        # gamma drifts to 21.4 inside the box; with no draw, nu is flagged
        # wherever it stops.
        (davidson_module, lambda season: _bt_all_home_wins(), ("gamma", "nu"), -2, False),
        # gamma is clamped at -30; def:t2 drifts to -19.5, and the derived
        # last team's att:t3 to -15.7.
        (
            poisson_module,
            lambda season: poisson_module.poisson_fit(season.matches_before(4), correlated=True),
            ("att:t3", "def:t2", "gamma"),
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


def _eager_projected_gradient(x, grad):
    g = grad.copy()
    g[(x >= BOX) & (g < 0.0)] = 0.0
    g[(x <= -BOX) & (g > 0.0)] = 0.0
    return g


def _eager_minimize(objective, x0, settings=None):
    """The solver as it was when every objective call returned its gradient.

    It takes ``(value, gradient array)`` objectives, so every rejected
    line-search trial pays for a gradient.
    """
    cfg = settings or OptimSettings()
    x = np.clip(np.asarray(x0, dtype=float), -BOX, BOX)
    n = x.size
    f, grad = objective(x)
    eye = np.eye(n)
    h_inv = eye
    iterations = 0
    c1 = 1e-4

    def done(converged, g):
        return OptimResult(
            x=x.copy(),
            fun=float(f),
            grad_norm=_norm(_eager_projected_gradient(x, g)),
            iterations=iterations,
            converged=converged,
        )

    for iterations in range(1, cfg.max_iter + 1):
        pg = _eager_projected_gradient(x, grad)
        if _norm(pg) <= cfg.tol:
            iterations -= 1
            return done(True, grad)

        direction = -h_inv @ grad
        if float(direction @ grad) >= 0.0:
            h_inv = eye
            direction = -grad

        step = 1.0
        slope = float(grad @ direction)
        x_new = f_new = grad_new = None
        for _ in range(60):
            candidate = np.clip(x + step * direction, -BOX, BOX)
            if (candidate != x).any():
                f_cand, g_cand = objective(candidate)
                if np.isfinite(f_cand) and f_cand <= f + c1 * step * slope:
                    x_new, f_new, grad_new = candidate, f_cand, g_cand
                    break
            step *= 0.5
        if x_new is None:
            return done(_norm(pg) <= cfg.tol, grad)

        s = x_new - x
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 1e-12 * _norm(s) * _norm(y):
            rho = 1.0 / sy
            sy_outer = np.outer(s, y)
            h_inv = (
                (eye - rho * sy_outer) @ h_inv @ (eye - rho * sy_outer.T)
                + rho * np.outer(s, s)
            )
        x, f, grad = x_new, f_new, grad_new

    pg = _eager_projected_gradient(x, grad)
    return done(_norm(pg) <= cfg.tol, grad)


def _fit_problem(monkeypatch, module, fit):
    """The objective, start and settings that ``fit()`` hands to ``module.minimize``."""
    seen = []
    real = module.minimize

    def capture(objective, x0, settings=None):
        seen.append((objective, np.array(x0), settings))
        return real(objective, x0, settings)

    monkeypatch.setattr(module, "minimize", capture)
    fit()
    return seen[0]


def _bt(matches):
    return davidson_module, lambda: davidson_module.bt_fit(matches)


def _poisson(correlated):
    def problem(matches):
        return poisson_module, lambda: poisson_module.poisson_fit(matches, correlated=correlated)

    return problem


class TestEagerParity:
    """Gradients only at accepted points retrace the eager solver bit for bit."""

    def _solve_both(self, monkeypatch, module, fit):
        objective, x0, settings = _fit_problem(monkeypatch, module, fit)
        counts = {"values": 0, "gradients": 0}

        def counted(x):
            counts["values"] += 1
            value, gradient = objective(x)

            def counted_gradient():
                counts["gradients"] += 1
                return gradient()

            return value, counted_gradient

        def eager(x):
            value, gradient = objective(x)
            return value, gradient()

        got = minimize(counted, x0, settings)
        want = _eager_minimize(eager, x0, settings)
        assert (got.x == want.x).all()
        assert got.fun == want.fun
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        assert got.grad_norm == want.grad_norm
        return got, counts

    @pytest.mark.parametrize(
        "problem",
        [_bt, _poisson(False), _poisson(True)],
        ids=["davidson", "poisson-independent", "poisson-correlated"],
    )
    def test_first_half_fits(self, problem, poisson_first_half, monkeypatch):
        got, counts = self._solve_both(monkeypatch, *problem(poisson_first_half))
        # A converged fit did not stall, so its last accepted point is its x.
        assert got.converged
        assert counts["gradients"] == got.iterations + 1
        assert counts["values"] > counts["gradients"]  # rejected trials took no gradient

    @pytest.mark.parametrize(
        "problem", [_bt, _poisson(True)], ids=["davidson", "poisson-correlated"]
    )
    @pytest.mark.parametrize("before", [4, None], ids=["first-three-matchdays", "season"])
    def test_boundary_season_fits(self, problem, before, boundary_season, monkeypatch):
        matches = (
            boundary_season.matches_before(before)
            if before is not None
            else list(boundary_season.matches)
        )
        got, counts = self._solve_both(monkeypatch, *problem(matches))
        # The first three matchdays stall short of the iteration cap, and a
        # stalled line search accepts no point in its last iteration.
        stalled = not got.converged and got.iterations < OptimSettings().max_iter
        assert counts["gradients"] == got.iterations + (0 if stalled else 1)

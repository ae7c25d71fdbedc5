import math

import numpy as np
import pytest

import matchcast.davidson as davidson_module
import matchcast.poisson as poisson_module
from matchcast.data import MatchRecord
from matchcast.optimize import (
    BOX,
    DRIFT_LIMIT,
    NEWTON_TOL,
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


def rosenbrock_with_hessian(x):
    b = 100.0
    h = np.array(
        [
            [2 - 4 * b * (x[1] - x[0] ** 2) + 8 * b * x[0] ** 2, -4 * b * x[0]],
            [-4 * b * x[0], 2 * b],
        ]
    )
    return (*rosenbrock(x), lambda: h)


# f(x) = (x - c)^T A (x - c), with gradient 2 A (x - c) and Hessian 2 A.
_A = np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.0], [0.5, 0.0, 1.0]])


def quadratic_with_hessian(center):
    def objective(x):
        d = x - center
        return float(d @ _A @ d), lambda: 2.0 * _A @ d, lambda: 2.0 * _A

    return objective


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

    def test_newton_solves_a_quadratic_in_one_step(self):
        center = np.array([1.5, -2.0, 0.25])
        result = minimize(quadratic_with_hessian(center), np.zeros(3))
        assert result.converged
        assert result.iterations == 1
        assert result.x == pytest.approx(center, rel=0.0, abs=1e-14)
        assert result.grad_norm <= NEWTON_TOL

    def test_newton_shifts_an_indefinite_hessian(self):
        # At (0, 1) the Hessian's first diagonal entry is -398.
        x0 = np.array([0.0, 1.0])
        assert np.linalg.eigvalsh(rosenbrock_with_hessian(x0)[2]()).min() < 0.0
        result = minimize(rosenbrock_with_hessian, x0)
        assert result.converged
        assert result.grad_norm <= NEWTON_TOL
        assert result.x == pytest.approx([1.0, 1.0], rel=0.0, abs=1e-10)

    def test_newton_stopped_by_the_cap_is_not_converged(self):
        result = minimize(rosenbrock_with_hessian, np.array([-1.2, 1.0]), OptimSettings(max_iter=3))
        assert result.iterations == 3
        assert not result.converged
        assert result.grad_norm > NEWTON_TOL

    def test_newton_stops_at_a_box_face(self):
        # The unconstrained minimum of the first coordinate lies at 50.
        center = np.array([50.0, 0.5, -1.0])
        result = minimize(quadratic_with_hessian(center), np.zeros(3))
        assert result.converged
        assert result.x[0] == BOX
        assert fit_report(None, result, {"x": result.x[0]}).boundary_flags == ("x",)

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


@pytest.mark.parametrize("correlated", [False, True])
def test_a_poisson_fit_stopped_by_the_cap_is_not_converged(poisson_first_half, correlated):
    window = poisson_first_half
    objective = poisson_module._PoissonObjective(fit_teams(window), window, correlated)
    result = minimize(objective, np.zeros(objective.n_params), OptimSettings(max_iter=2))
    assert result.iterations == 2
    assert not result.converged
    full = minimize(objective, result.x)
    assert full.converged and full.grad_norm <= NEWTON_TOL


def test_a_flat_boundary_fit_stops_short_of_the_cap():
    # No finite MLE: the correlated fit pins mu and a defence at the box and
    # ends on a flat floor, where steps that lower the value by rounding
    # alone would creep on for all 500 iterations.
    scores = [("t0", "t3", 3, 3), ("t1", "t2", 1, 3), ("t1", "t0", 1, 1),
              ("t3", "t2", 0, 0), ("t0", "t2", 1, 0), ("t3", "t1", 1, 1)]
    records = [MatchRecord(2014, 1 + i // 2, *score) for i, score in enumerate(scores)]
    fit = poisson_module.poisson_fit(records, correlated=True)
    assert "mu" in fit.boundary_flags and not fit.converged
    assert fit.iterations < OptimSettings().max_iter


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


def _poisson_two_matchdays():
    """Two matchdays of a 4-team season, with no finite MLE."""
    scores = [("t0", "t3", 0, 1), ("t1", "t2", 0, 0), ("t1", "t0", 0, 1), ("t3", "t2", 2, 1)]
    records = [MatchRecord(2014, 1 + i // 2, *score) for i, score in enumerate(scores)]
    return poisson_module.poisson_fit(records)


@pytest.mark.parametrize(
    "module, fit, flags, clamped_at, clamped",
    [
        # gamma drifts to 21.4 inside the box; with no draw, nu is flagged
        # wherever it stops.
        (davidson_module, _bt_all_home_wins, ("gamma", "nu"), -2, False),
        # gamma is clamped at -30; def:t0 drifts to 17.5, and the derived
        # last team's att:t3 to 16.0.
        (poisson_module, _poisson_two_matchdays, ("att:t3", "def:t0", "gamma"), 1, True),
    ],
    ids=["bt_fit", "poisson_fit"],
)
def test_boundary_flags_mark_clamp_and_drift(
    module, fit, flags, clamped_at, clamped, record_minimize
):
    results = record_minimize(module)
    assert fit().boundary_flags == flags
    x = np.abs(results[-1].x)
    assert ((x >= DRIFT_LIMIT) & (x < BOX)).any()  # drift inside the box is flagged
    assert (x[clamped_at] == BOX) == clamped  # and so is a clamped parameter


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


def _bt(matches, monkeypatch):
    """The objective, start and settings that ``bt_fit`` hands to ``minimize``."""
    seen = []
    real = davidson_module.minimize

    def capture(objective, x0, settings=None):
        seen.append((objective, np.array(x0), settings))
        return real(objective, x0, settings)

    monkeypatch.setattr(davidson_module, "minimize", capture)
    davidson_module.bt_fit(matches)
    return seen[0]


def _poisson(correlated):
    def problem(matches, monkeypatch):
        """The Poisson likelihood with its Hessian withheld, from the fits' former BFGS start."""
        objective = poisson_module._PoissonObjective(fit_teams(matches), matches, correlated)
        x0 = np.zeros(objective.n_params)
        if correlated:
            x0[-1] = math.log(0.1)
        return (lambda x: objective(x)[:2]), x0, None

    return problem


class TestEagerParity:
    """Gradients only at accepted points retrace the eager solver bit for bit.

    The Poisson likelihoods, their Hessians withheld, are BFGS problems of
    up to 40 parameters; ``bt``'s are the ones BFGS serves.
    """

    def _solve_both(self, objective, x0, settings):
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
        got, counts = self._solve_both(*problem(poisson_first_half, monkeypatch))
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
        got, counts = self._solve_both(*problem(matches, monkeypatch))
        # The first three matchdays stall short of the iteration cap, and a
        # stalled line search accepts no point in its last iteration.
        stalled = not got.converged and got.iterations < OptimSettings().max_iter
        assert counts["gradients"] == got.iterations + (0 if stalled else 1)

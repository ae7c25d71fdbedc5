import math

import numpy as np
import pytest

import matchcast.davidson as davidson_module
from matchcast.data import MatchRecord, Outcome, outcome_of
from matchcast.davidson import BTParams, _DavidsonObjective, bt_fit, bt_outcome_probs
from matchcast.evaluation import context_for
from matchcast.optimize import BFGS_TOL, OptimSettings, fit_teams
from matchcast.predictors import build_predictor
from matchcast.selftest import double_round_robin, simulate_davidson_season


def raw_probs(pi_h, pi_a, gamma, nu):
    """Unnormalized-formula oracle: probabilities straight from the worth ratio."""
    win = gamma * pi_h
    draw = nu * math.sqrt(pi_h * pi_a)
    loss = pi_a
    d = win + draw + loss
    return (win / d, draw / d, loss / d)


def equal_worths(teams, gamma=1.0, nu=1.0):
    return BTParams(worth={t: 1.0 / len(teams) for t in teams}, gamma=gamma, nu=nu)


def solve_with(monkeypatch, settings):
    """Run ``bt_fit``'s solver under ``settings``, by patching ``davidson.minimize``."""
    real = davidson_module.minimize
    monkeypatch.setattr(
        davidson_module, "minimize", lambda objective, x0: real(objective, x0, settings)
    )


def log_likelihood(params, matches):
    """The fit's objective at ``params``: minus the negative log-likelihood."""
    teams = sorted(params.worth)
    ref = params.worth[teams[0]]
    theta = [math.log(params.worth[t] / ref) for t in teams[1:]]
    theta += [math.log(params.gamma), math.log(params.nu)]
    return -_DavidsonObjective(teams, matches)(np.array(theta))[0]


class TestParams:
    @pytest.mark.parametrize(
        "worth, gamma, nu, field",
        [
            ({"a": 0.5, "b": 0.5}, math.nan, 1.0, "gamma"),
            ({"a": 0.5, "b": 0.5}, 1.0, math.nan, "nu"),
            ({"a": math.nan, "b": 0.5}, 1.0, 1.0, "worths"),
            ({"a": 0.5, "b": 0.6}, 1.0, 1.0, "worths"),
            ({"a": 0.5, "b": 0.5}, 0.0, 1.0, "gamma"),
            ({"a": 0.5, "b": 0.5}, 1.0, -0.1, "nu"),
        ],
    )
    def test_bad_parameters_name_the_field(self, worth, gamma, nu, field):
        with pytest.raises(ValueError, match=field):
            BTParams(worth, gamma=gamma, nu=nu)


class TestOutcomeProbs:
    def test_full_symmetry_is_uniform(self):
        params = equal_worths(["a", "b"])
        p = bt_outcome_probs(params, "a", "b")
        assert p.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)

    def test_double_home_advantage(self):
        params = equal_worths(["a", "b"], gamma=2.0)
        p = bt_outcome_probs(params, "a", "b")
        assert p.as_tuple() == pytest.approx((0.5, 0.25, 0.25), abs=1e-15)

    def test_no_ties_reduces_to_worth_ratio(self):
        params = BTParams(worth={"a": 0.6, "b": 0.4}, gamma=1.0, nu=0.0)
        p = bt_outcome_probs(params, "a", "b")
        assert p.as_tuple() == pytest.approx((0.6, 0.0, 0.4), abs=1e-15)

    def test_unknown_team(self):
        with pytest.raises(KeyError):
            bt_outcome_probs(equal_worths(["a", "b"]), "a", "zz")

    def test_sums_to_one_for_random_parameters(self, rng):
        for _ in range(1000):
            w = rng.uniform(0.05, 5.0, size=3)
            w /= w.sum()
            params = BTParams(
                worth={"a": w[0], "b": w[1], "c": w[2]},
                gamma=float(rng.uniform(0.2, 5.0)),
                nu=float(rng.uniform(0.0, 5.0)),
            )
            p = bt_outcome_probs(params, "a", "c")
            assert abs(sum(p.as_tuple()) - 1.0) < 1e-12

    def test_scale_invariance_of_worths(self, rng):
        # The normalized parameterization must agree with the raw formula
        # under any positive rescaling of the worths.
        for _ in range(200):
            raw = rng.uniform(0.1, 3.0, size=2)
            gamma = float(rng.uniform(0.5, 3.0))
            nu = float(rng.uniform(0.1, 3.0))
            scale = float(rng.uniform(0.01, 100.0))
            expected = raw_probs(raw[0] * scale, raw[1] * scale, gamma, nu)
            total = raw.sum()
            params = BTParams(
                worth={"h": raw[0] / total, "a": raw[1] / total}, gamma=gamma, nu=nu
            )
            got = bt_outcome_probs(params, "h", "a")
            assert got.as_tuple() == pytest.approx(expected, abs=1e-12)

    def test_home_away_swap_with_unit_gamma_mirrors(self, rng):
        for _ in range(200):
            w = rng.uniform(0.1, 1.0, size=2)
            total = w.sum()
            params = BTParams(
                worth={"x": w[0] / total, "y": w[1] / total},
                gamma=1.0,
                nu=float(rng.uniform(0.1, 2.0)),
            )
            forward = bt_outcome_probs(params, "x", "y")
            backward = bt_outcome_probs(params, "y", "x")
            assert backward.p_home == pytest.approx(forward.p_away, abs=1e-12)
            assert backward.p_draw == pytest.approx(forward.p_draw, abs=1e-12)
            assert backward.p_away == pytest.approx(forward.p_home, abs=1e-12)


class TestLogLikelihood:
    def test_single_match(self):
        params = equal_worths(["a", "b"], gamma=2.0)
        match = MatchRecord(2014, 1, "a", "b", 1, 0)
        ll = log_likelihood(params, [match])
        assert ll == pytest.approx(math.log(0.5), abs=1e-12)

    def test_empty_sum_is_zero(self):
        assert log_likelihood(equal_worths(["a", "b"]), []) == 0.0

    def test_additivity(self):
        params = equal_worths(["a", "b", "c"], gamma=1.3, nu=0.7)
        m1 = MatchRecord(2014, 1, "a", "b", 1, 0)
        m2 = MatchRecord(2014, 2, "b", "c", 0, 0)
        assert log_likelihood(params, [m1, m2]) == pytest.approx(
            log_likelihood(params, [m1]) + log_likelihood(params, [m2]),
            abs=1e-12,
        )


class TestGradient:
    def test_matches_central_differences(self, rng):
        teams = ["a", "b", "c", "d"]
        true = BTParams(
            worth={"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1}, gamma=1.5, nu=0.8
        )
        records = simulate_davidson_season(true, teams, replications=3, rng=rng)
        objective = _DavidsonObjective(teams, records)
        for _ in range(10):
            theta = rng.uniform(-1.0, 1.0, size=objective.n_params)
            grad = objective(theta)[1]()
            for i in range(theta.size):
                h = 1e-6 * max(1.0, abs(theta[i]))
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                fd = (objective(up)[0] - objective(down)[0]) / (2 * h)
                assert abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1.0) < 1e-5


class _ReferenceObjective(_DavidsonObjective):
    """The per-call formulation, kept as the kernel's reference.

    It rebuilds the outcome masks on every call and scatters the gradient
    with paired np.add.at calls.
    """

    def __init__(self, teams, matches):
        super().__init__(teams, matches)
        self.outcome = np.array([outcome_of(m).value for m in matches])

    def __call__(self, theta):
        r, log_gamma, log_nu = self.unpack(theta)
        r_h = r[self.home_idx]
        r_a = r[self.away_idx]
        log_win = log_gamma + r_h
        log_loss = r_a
        log_draw = log_nu + 0.5 * (r_h + r_a)
        stacked = np.stack([log_win, log_draw, log_loss])
        top = stacked.max(axis=0)
        log_denom = top + np.log(np.exp(stacked - top).sum(axis=0))
        chosen = np.where(
            self.outcome == Outcome.HOME_WIN.value,
            log_win,
            np.where(self.outcome == Outcome.DRAW.value, log_draw, log_loss),
        )
        nll = float(np.sum(log_denom - chosen))
        w_win = np.exp(log_win - log_denom)
        w_draw = np.exp(log_draw - log_denom)
        w_loss = np.exp(log_loss - log_denom)
        is_win = self.outcome == Outcome.HOME_WIN.value
        is_draw = self.outcome == Outcome.DRAW.value
        is_loss = self.outcome == Outcome.AWAY_WIN.value
        d_home = (w_win + 0.5 * w_draw) - (is_win * 1.0 + is_draw * 0.5)
        d_away = (w_loss + 0.5 * w_draw) - (is_loss * 1.0 + is_draw * 0.5)
        d_gamma = float(np.sum(w_win - is_win))
        d_nu = float(np.sum(w_draw - is_draw))
        d_r = np.zeros(self.n_teams)
        np.add.at(d_r, self.home_idx, d_home)
        np.add.at(d_r, self.away_idx, d_away)
        grad = np.concatenate((d_r[1:], [d_gamma, d_nu]))
        return nll, lambda: grad


class TestKernelMatchesReference:
    """The precomputed objective returns the reference's bits exactly."""

    def test_random_thetas(self, poisson_first_half, box_thetas):
        matches = poisson_first_half
        teams = fit_teams(matches)
        fast = _DavidsonObjective(teams, matches)
        reference = _ReferenceObjective(teams, matches)
        for theta in box_thetas(fast.n_params):
            nll, gradient = fast(theta)
            want_nll, want_gradient = reference(theta)
            grad, want_grad = gradient(), want_gradient()
            assert nll == want_nll
            assert np.array_equal(grad, want_grad)

    def test_fits_equal_reference_fits(
        self, poisson_first_half, monkeypatch, record_minimize
    ):
        matches = poisson_first_half
        results = record_minimize(davidson_module)
        got = bt_fit(matches)
        monkeypatch.setattr(davidson_module, "_DavidsonObjective", _ReferenceObjective)
        want = bt_fit(matches)
        fast, reference = results
        assert np.array_equal(fast.x, reference.x)
        assert (fast.fun, fast.iterations, fast.converged) == (
            reference.fun, reference.iterations, reference.converged
        )
        assert got == want


def _all_home_wins_season(teams):
    records = []
    for matchday, rnd in enumerate(double_round_robin(teams), start=1):
        for h, a in rnd:
            records.append(MatchRecord(2014, matchday, h, a, 1, 0))
    return records


class TestFit:
    def test_symmetric_data_gives_equal_worths(self):
        teams = ["a", "b", "c", "d"]
        matches = _all_home_wins_season(teams)
        report = bt_fit(matches)
        worths = list(report.params.worth.values())
        assert max(worths) - min(worths) < 1e-6
        assert report.converged

    def test_all_home_wins_is_separable_in_gamma(self):
        teams = ["a", "b", "c", "d"]
        matches = _all_home_wins_season(teams)
        report = bt_fit(matches)
        assert "gamma" in report.boundary_flags

    def test_only_away_wins_flag_gamma_from_the_counts(self):
        # The solver stops at log gamma -9.5, well inside DRIFT_LIMIT; with no
        # draw and no home win the likelihood rises without bound as gamma
        # falls, so the counts flag it.
        window = [
            MatchRecord(2014, 1, "t1", "t2", 0, 1),
            MatchRecord(2014, 2, "t1", "t0", 0, 1),
            MatchRecord(2014, 3, "t0", "t2", 0, 1),
        ]
        report = bt_fit(window)
        assert report.converged
        assert report.boundary_flags == ("gamma", "nu")

    def test_zero_draws_pushes_nu_to_boundary(self):
        # Wins alternate between home and away so gamma stays finite and the
        # only degenerate direction is the tie parameter.
        teams = ["a", "b", "c", "d"]
        records = []
        k = 0
        for matchday, rnd in enumerate(double_round_robin(teams), start=1):
            for h, a in rnd:
                hg, ag = (1, 0) if k % 2 == 0 else (0, 1)
                records.append(MatchRecord(2014, matchday, h, a, hg, ag))
                k += 1
        report = bt_fit(records)
        assert report.boundary_flags == ("nu",)
        assert report.params.nu < 1e-6

    def test_convergence_implies_small_gradient(self, rng):
        true = BTParams(worth={"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1}, gamma=1.2, nu=1.1)
        records = simulate_davidson_season(true, ["a", "b", "c", "d"], replications=30, rng=rng)
        report = bt_fit(records)
        assert report.converged
        assert report.gradient_norm <= BFGS_TOL

    def test_likelihood_never_below_symmetric_start(self, rng):
        true = BTParams(worth={"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1}, gamma=1.2, nu=1.1)
        records = simulate_davidson_season(true, ["a", "b", "c", "d"], replications=10, rng=rng)
        matches = records
        report = bt_fit(matches)
        baseline = log_likelihood(equal_worths(["a", "b", "c", "d"]), matches)
        assert report.log_likelihood >= baseline

    def test_deterministic_given_data(self, rng):
        true = BTParams(worth={"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1}, gamma=1.2, nu=1.1)
        records = simulate_davidson_season(true, ["a", "b", "c", "d"], replications=10, rng=rng)
        matches = records
        assert bt_fit(matches) == bt_fit(matches)

    def test_worths_sum_to_one(self, rng):
        true = BTParams(worth={"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1}, gamma=1.2, nu=1.1)
        records = simulate_davidson_season(true, ["a", "b", "c", "d"], replications=5, rng=rng)
        report = bt_fit(records)
        assert sum(report.params.worth.values()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_matches_rejected(self):
        with pytest.raises(ValueError):
            bt_fit([])

    def test_iteration_cap_reports_nonconvergence(self, rng, monkeypatch):
        true = BTParams(worth={"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1}, gamma=1.2, nu=1.1)
        records = simulate_davidson_season(true, ["a", "b", "c", "d"], replications=10, rng=rng)
        solve_with(monkeypatch, OptimSettings(max_iter=2))
        report = bt_fit(records)
        assert not report.converged
        assert report.iterations <= 2


def rolling_predict(seasons, season, matchday):
    """One refit through the harness path: the matchday's context, then the predictor."""
    return build_predictor("bt").predict(context_for(seasons, season, matchday)).predictions


class TestRollingPredict:
    def test_matches_direct_fit_composition(self, mid_season):
        matchday = 7
        rolling = rolling_predict([mid_season], mid_season, matchday)
        earlier = [m for m in mid_season.matches if m.matchday < matchday]
        fitted = bt_fit(earlier)
        for fixture, prediction in rolling.items():
            direct = bt_outcome_probs(fitted.params, fixture.home, fixture.away)
            assert prediction == direct

    def test_rejects_first_half_matchday(self, mid_season):
        with pytest.raises(ValueError, match="second half"):
            rolling_predict([mid_season], mid_season, 2)

    def test_rejects_unplayed_prior_matches(self, tmp_path, capsys):
        # The context refuses a history holding an unplayed match, so
        # ``matchcast predict`` exits before any refit on a shortened record.
        from matchcast.cli import main
        from matchcast.data import serialize_matches

        records = _all_home_wins_season(["a", "b", "c", "d"])
        records[0] = MatchRecord(2014, 1, records[0].home, records[0].away)
        path = tmp_path / "matches.csv"
        path.write_text(serialize_matches(records))
        code = main(["predict", "--matches", str(path), "--matchday", "4", "--models", "bt"])
        assert code == 2
        m = records[0]
        assert capsys.readouterr().err == (
            f"error: season 2014 matchday 1: unplayed match {m.home} vs {m.away}\n"
        )

    def test_second_leg_differs_on_asymmetric_data(self, rng):
        # Construct a season where the data is asymmetric between the legs;
        # predictions for the return fixture must differ from the first leg.
        true = BTParams(worth={"a": 0.6, "b": 0.25, "c": 0.1, "d": 0.05}, gamma=1.3, nu=0.9)
        records = simulate_davidson_season(true, ["a", "b", "c", "d"], replications=1, rng=rng)
        from matchcast.data import build_season

        season = build_season(records)
        predictions = rolling_predict([season], season, 6)
        fixture = next(iter(predictions))
        reverse_home, reverse_away = fixture.away, fixture.home
        first_leg = [
            m
            for m in season.matches
            if m.home == reverse_home and m.away == reverse_away and m.matchday < 6
        ]
        assert first_leg  # double round robin guarantees the reverse pairing
        earlier_fit = bt_fit(
            [m for m in season.matches if m.matchday < first_leg[0].matchday]
        ) if first_leg[0].matchday > 1 else None
        if earlier_fit is not None:
            first_leg_prediction = bt_outcome_probs(
                earlier_fit.params, reverse_home, reverse_away
            )
            assert first_leg_prediction != predictions[fixture]


class TestCsvExport:
    def test_round_trippable_shape(self):
        params = BTParams(worth={"b": 0.4, "a": 0.6}, gamma=1.5, nu=0.8)
        text = params.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "team,worth"
        assert lines[1].startswith("a,")
        assert lines[-2] == f"gamma,{1.5!r}"
        assert lines[-1] == f"nu,{0.8!r}"

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import poisson as poisson_dist

import matchcast.poisson as poisson_module
from matchcast.data import MAX_GOALS, MatchRecord
from matchcast.poisson import (
    _LOG_FACTORIALS,
    DEFAULT_TAIL_TOL,
    MAX_GRID_GOALS,
    BivPoissonParams,
    TeamStrengths,
    _PoissonObjective,
    _poisson_pmf,
    link_rates,
    outcome_probs,
    poisson_fit,
    score_grid,
)
from matchcast.evaluation import context_for, evaluate
from matchcast.optimize import fit_teams
from matchcast.predictors import build_predictor
from matchcast.selftest import double_round_robin, simulate_poisson_matches


def pmf_by_exact_summation(params, y1, y2):
    """Direct-sum oracle: the k-sum evaluated in exact rational arithmetic.

    Only the final exp factor is floating point, so the comparison isolates
    the rounding of the likelihood's shared-component sum.
    """
    l1 = Fraction(params.lambda1)
    l2 = Fraction(params.lambda2)
    l3 = Fraction(params.lambda3)
    total = Fraction(0)
    for k in range(min(y1, y2) + 1):
        total += (
            l1 ** (y1 - k)
            * l2 ** (y2 - k)
            * l3**k
            / (
                Fraction(math.factorial(y1 - k))
                * Fraction(math.factorial(y2 - k))
                * Fraction(math.factorial(k))
            )
        )
    scale = math.exp(-(params.lambda1 + params.lambda2 + params.lambda3))
    return scale * float(total)


def _likelihood_and_oracle(matches, theta, correlated=True):
    """The objective's value at ``theta``, and minus the oracle's log-pmf summed over
    ``matches`` at the rates ``link_rates`` gives each match at ``theta``."""
    teams = sorted({t for m in matches for t in (m.home, m.away)})
    objective = _PoissonObjective(teams, matches, correlated)
    mu, gamma, att, dfn, lambda3 = objective.unpack(theta)
    strengths = TeamStrengths(mu, dict(zip(teams, att)), dict(zip(teams, dfn)), gamma, lambda3)
    want = math.fsum(
        -math.log(
            pmf_by_exact_summation(
                link_rates(strengths, m.home, m.away), m.home_goals, m.away_goals
            )
        )
        for m in matches
    )
    return objective(theta)[0], want


# (mu, gamma, att_a, def_a, log lambda3) for a two-team window: rates about
# (1.2, 0.9, 0.3).
_TWO_TEAM_THETA = np.array([math.log(0.9), math.log(1.2 / 0.9), 0.0, 0.0, math.log(0.3)])


class TestPmf:
    """The correlated likelihood is the bivariate pmf, match by match.

    ``abs=0.0``: approx's default absolute tolerance, 1e-12, would pass a
    value of 0.1 that is 1e-11 off.
    """

    def test_zero_zero_is_exponential_factor(self):
        theta = np.array([0.1, 0.3, 0.2, -0.1, math.log(0.4)])
        nll, want = _likelihood_and_oracle([MatchRecord(2014, 1, "a", "b", 0, 0)], theta)
        # -log P(0, 0) = lambda1 + lambda2 + lambda3.
        assert nll == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_independent_case_factorizes(self):
        matches = [
            MatchRecord(2014, 1, "a", "b", y1, y2) for y1 in range(10) for y2 in range(10)
        ]
        nll, want = _likelihood_and_oracle(matches, _TWO_TEAM_THETA[:-1], correlated=False)
        assert nll == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("y1,y2", [(2, 1), (0, 5), (5, 5), (3, 7), (10, 10)])
    def test_against_exact_summation_oracle(self, y1, y2):
        match = MatchRecord(2014, 1, "a", "b", y1, y2)
        nll, want = _likelihood_and_oracle([match], _TWO_TEAM_THETA)
        assert nll == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_correlated_likelihood_at_random_theta(self, rng):
        records = simulate_poisson_matches(_true_strengths(0.2), list("abcd"), 6, rng)
        n_params = _PoissonObjective(list("abcd"), records, True).n_params
        for _ in range(5):
            theta = rng.uniform(-0.8, 0.8, size=n_params)
            nll, want = _likelihood_and_oracle(records, theta)
            assert nll == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_grid_agrees_with_pointwise_pmf(self):
        # ``outcome_probs`` against the joint pmf summed by the sign of
        # Y1 - Y2.  Both scores lie below 26 goals but for under 1e-18, and
        # renormalizing a grid that misses mass T moves each outcome by at
        # most T / (1 - T).
        params = BivPoissonParams(1.2, 0.9, 0.3)
        sums = ([], [], [])
        for y1 in range(26):
            for y2 in range(26):
                sign = 0 if y1 > y2 else 1 if y1 == y2 else 2
                sums[sign].append(pmf_by_exact_summation(params, y1, y2))
        want = [math.fsum(cells) for cells in sums]
        got = outcome_probs(params).as_tuple()
        assert max(abs(g - w) for g, w in zip(got, want)) <= DEFAULT_TAIL_TOL


class TestLinkRates:
    def _strengths(self, **kwargs):
        base = dict(
            mu=0.0,
            attack={"a": 0.0, "b": 0.0},
            defense={"a": 0.0, "b": 0.0},
            gamma_home=0.0,
            lambda3=0.0,
        )
        base.update(kwargs)
        return TeamStrengths(**base)

    def test_identity_links(self):
        rates = link_rates(self._strengths(), "a", "b")
        assert (rates.lambda1, rates.lambda2) == (1.0, 1.0)

    def test_home_advantage_multiplies(self):
        rates = link_rates(self._strengths(gamma_home=math.log(2)), "a", "b")
        assert rates.lambda1 == pytest.approx(2.0, rel=1e-15, abs=0.0)
        assert rates.lambda2 == pytest.approx(1.0, rel=1e-15, abs=0.0)

    def test_composite_exponent(self):
        strengths = TeamStrengths(
            mu=0.1,
            attack={"a": 0.2, "b": -0.2},
            defense={"a": 0.1, "b": -0.1},
            gamma_home=0.3,
            lambda3=0.0,
        )
        rates = link_rates(strengths, "a", "b")
        assert rates.lambda1 == pytest.approx(math.exp(0.1 + 0.2 + 0.1 + 0.3), rel=1e-15, abs=0.0)
        assert rates.lambda2 == pytest.approx(math.exp(0.1 - 0.2 - 0.1), rel=1e-15, abs=0.0)

    def test_unknown_team(self):
        with pytest.raises(KeyError):
            link_rates(self._strengths(), "a", "zz")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mu", math.nan),
            ("mu", math.inf),
            ("gamma_home", math.nan),
            ("gamma_home", -math.inf),
            ("lambda3", math.nan),
            ("lambda3", -0.1),
        ],
    )
    def test_bad_strength_parameters_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            self._strengths(**{field: value})

    def test_strengths_refuse_a_nan_strength(self):
        with pytest.raises(ValueError, match="attack strengths sum to nan"):
            self._strengths(attack={"a": math.nan, "b": 0.0})

    @pytest.mark.parametrize(
        "rates, field",
        [
            ((math.nan, 1.0, 0.1), "lambda1"),
            ((1.0, math.nan, 0.1), "lambda2"),
            ((1.0, 1.0, math.nan), "lambda3"),
            ((0.0, 1.0, 0.1), "lambda1"),
            ((1.0, 1.0, -0.1), "lambda3"),
        ],
    )
    def test_bad_rates_name_the_field(self, rates, field):
        with pytest.raises(ValueError, match=field):
            BivPoissonParams(*rates)

    def test_an_overflowed_rate_is_refused_by_the_grid(self):
        # A boundary fit can overflow a rate; the grid refuses it, where the
        # predictor can name the fit's flags.
        params = BivPoissonParams(math.inf, 1.0, 0.1)
        with pytest.raises(ValueError, match="goals per side"):
            score_grid(params)

    def test_zero_sum_constraint_enforced(self):
        with pytest.raises(ValueError, match="sum to"):
            TeamStrengths(
                mu=0.0,
                attack={"a": 0.5, "b": 0.0},
                defense={"a": 0.0, "b": 0.0},
                gamma_home=0.0,
            )


class TestScoreGrid:
    def test_grid_size_is_minimal_for_the_marginal_bound(self):
        # The second case needs 81 goal counts, so the tail search doubles
        # its block twice; the third needs the 513 - 1,024 block.
        cases = [
            (BivPoissonParams(1.3, 0.8, 0.2), 1e-8),
            (BivPoissonParams(39.5, 1.0, 0.5), 1e-8),
            (BivPoissonParams(560.0, 1.0), 1e-8),
        ]
        rng = np.random.default_rng(20240611)
        for lambda3 in (0.0, 0.08, 1.0):
            for tail_tol in (1e-3, 1e-8, 1e-10, 1e-14):
                for _ in range(12):
                    l1, l2 = np.exp(rng.uniform(math.log(1e-6), math.log(50.0), 2))
                    cases.append((BivPoissonParams(float(l1), float(l2), lambda3), tail_tol))
        assert 512 < score_grid(*cases[2]).max_goals < MAX_GRID_GOALS
        for params, tail_tol in cases:
            grid = score_grid(params, tail_tol)
            g = grid.max_goals
            m1, m2 = params.lambda1, params.lambda2
            assert poisson_dist.sf(g, m1) + poisson_dist.sf(g, m2) <= tail_tol
            assert poisson_dist.sf(g - 1, m1) + poisson_dist.sf(g - 1, m2) > tail_tol

    def test_near_point_mass(self):
        grid = score_grid(BivPoissonParams(1e-6, 1e-6, 0.0), 1e-10)
        assert grid.max_goals <= 2

    def test_marginal_pmf_agrees_with_scipy(self, rng):
        # gammaln and math.lgamma differ in the last bit of some log(n!);
        # exp scales that by the size of the exponent, worst 1.14e-13 here.
        for lam in np.exp(rng.uniform(-8.0, 4.0, 2000)):
            k = np.arange(int(lam + 10 * math.sqrt(lam)) + 10)
            got = _poisson_pmf(k.astype(float), lam)
            np.testing.assert_allclose(got, poisson_dist.pmf(k, lam), rtol=2e-13, atol=0.0)

    def test_log_factorials_equal_math_lgamma(self):
        assert _LOG_FACTORIALS.size >= 2 * MAX_GRID_GOALS
        assert all(_LOG_FACTORIALS[n] == math.lgamma(n + 1.0) for n in range(_LOG_FACTORIALS.size))

    def test_unbounded_grid_refused(self):
        # A boundary fit can give an unseen pairing a rate near 1e8, whose
        # block search would otherwise run through 2**27 goal counts.
        with pytest.raises(ValueError, match="goals per side"):
            score_grid(BivPoissonParams(8e7, 1.0, 0.6))
        assert score_grid(BivPoissonParams(700.0, 1.0)).max_goals < MAX_GRID_GOALS

    def test_tail_tol_range_enforced(self):
        with pytest.raises(ValueError):
            score_grid(BivPoissonParams(1, 1, 0), 0.01)


class TestOutcomeProbs:
    def test_symmetric_rates_balance_win_loss(self):
        p = outcome_probs(BivPoissonParams(1.3, 1.3, 0.2))
        assert p.p_home == pytest.approx(p.p_away, abs=1e-12)

    def test_monte_carlo_oracle(self, rng):
        params = BivPoissonParams(2.0, 0.5, 0.0)
        n = 1_000_000
        y1 = rng.poisson(2.0, size=n)
        y2 = rng.poisson(0.5, size=n)
        sim = np.array(
            [(y1 > y2).mean(), (y1 == y2).mean(), (y1 < y2).mean()]
        )
        p = np.array(outcome_probs(params).as_tuple())
        se = np.sqrt(sim * (1 - sim) / n)
        assert np.all(np.abs(p - sim) <= 3 * se)

    def test_independent_scores_have_near_zero_covariance(self, rng):
        n = 500_000
        y1 = rng.poisson(1.2, size=n).astype(float)
        y2 = rng.poisson(0.9, size=n).astype(float)
        prods = (y1 - y1.mean()) * (y2 - y2.mean())
        se = prods.std(ddof=1) / np.sqrt(n)
        assert abs(prods.mean()) <= 3 * se

    def test_outcome_probs_ignores_lambda3(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(
            poisson_module, "score_grid", lambda *a: calls.append(a) or score_grid(*a)
        )
        rates = [(1.3, 0.9), (1e-6, 2.0), (39.5, 1.0)]
        rates += [tuple(float(r) for r in rng.uniform(0.2, 4.0, 2)) for _ in range(5)]
        for l1, l2 in rates:
            want = outcome_probs(BivPoissonParams(l1, l2, 0.0))
            for l3 in (9.4e-14, 0.4, float(rng.uniform(0.0, 1.0))):
                assert outcome_probs(BivPoissonParams(l1, l2, l3)) == want
        # One grid per call: the benchmark's tracer counts them.
        assert len(calls) == 4 * len(rates)

    def test_point_mass_at_zero_is_certain_draw(self):
        p = outcome_probs(BivPoissonParams(1e-6, 1e-6, 0.0))
        assert p.p_draw == pytest.approx(1.0, abs=1e-5)

    def test_on_simplex(self, rng):
        for _ in range(50):
            params = BivPoissonParams(
                float(rng.uniform(0.2, 4.0)),
                float(rng.uniform(0.2, 4.0)),
                float(rng.uniform(0.0, 1.0)),
            )
            p = outcome_probs(params)
            assert abs(sum(p.as_tuple()) - 1.0) < 1e-12


def _true_strengths(lambda3=0.0):
    return TeamStrengths(
        mu=0.15,
        attack={"a": 0.25, "b": 0.05, "c": -0.1, "d": -0.2},
        defense={"a": 0.15, "b": -0.05, "c": 0.0, "d": -0.1},
        gamma_home=0.3,
        lambda3=lambda3,
    )


class TestFit:
    def test_uniform_draws_give_zero_strengths(self):
        records = []
        for matchday, rnd in enumerate(double_round_robin(["a", "b", "c", "d"]), start=1):
            for h, a in rnd:
                records.append(MatchRecord(2014, matchday, h, a, 1, 1))
        report = poisson_fit(records)
        strengths = report.params
        assert report.converged
        for team in strengths.attack:
            assert strengths.attack[team] == pytest.approx(0.0, abs=1e-6)
            assert strengths.defense[team] == pytest.approx(0.0, abs=1e-6)
        # All scores 1-1: both rates are 1, so mu = gamma = 0.
        assert strengths.mu == pytest.approx(0.0, abs=1e-6)
        assert strengths.gamma_home == pytest.approx(0.0, abs=1e-6)

    def test_gradient_matches_central_differences(self, rng):
        records = simulate_poisson_matches(_true_strengths(0.2), list("abcd"), 6, rng)
        for correlated in (False, True):
            objective = _PoissonObjective(list("abcd"), records, correlated)
            for _ in range(5):
                theta = rng.uniform(-0.8, 0.8, size=objective.n_params)
                grad = objective(theta)[1]()
                for i in range(theta.size):
                    h = 1e-6 * max(1.0, abs(theta[i]))
                    up, down = theta.copy(), theta.copy()
                    up[i] += h
                    down[i] -= h
                    fd = (objective(up)[0] - objective(down)[0]) / (2 * h)
                    assert abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1.0) < 1e-5

    @pytest.mark.parametrize("log_lambda3", [None, 0.5, -1.5, -12.0])
    def test_hessian_matches_central_differences_of_the_gradient(self, rng, log_lambda3):
        # None is the independent model; -12 puts lambda3 near 0.
        records = simulate_poisson_matches(_true_strengths(0.2), list("abcd"), 6, rng)
        objective = _PoissonObjective(list("abcd"), records, log_lambda3 is not None)
        for _ in range(5):
            theta = rng.uniform(-0.8, 0.8, size=objective.n_params)
            if log_lambda3 is not None:
                theta[-1] = log_lambda3
            hessian = objective(theta)[2]()
            for i in range(theta.size):
                h = 1e-6 * max(1.0, abs(theta[i]))
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                fd = (objective(up)[1]() - objective(down)[1]()) / (2 * h)
                scale = np.maximum(np.maximum(np.abs(hessian[:, i]), np.abs(fd)), 1.0)
                assert (np.abs(hessian[:, i] - fd) / scale).max() < 1e-6, i

    def test_lambda3_score_at_most_zero_returns_the_independent_fit(self):
        # Two double round robins drawn with lambda3 = 0; this draw's score is -2.3.
        rng = np.random.default_rng(4)
        window = simulate_poisson_matches(_true_strengths(), list("abcd"), 2, rng)
        independent = poisson_fit(window)
        correlated = poisson_fit(window, correlated=True)
        strengths = independent.params
        score = math.fsum(
            m.home_goals * m.away_goals / (rates.lambda1 * rates.lambda2) - 1.0
            for m in window
            for rates in [link_rates(strengths, m.home, m.away)]
        )
        assert score <= 0.0
        assert independent.converged and not independent.boundary_flags
        assert correlated.params == strengths and strengths.lambda3 == 0.0
        assert correlated.boundary_flags == ("lambda3",)
        assert correlated.log_likelihood == independent.log_likelihood
        # A small shared component only lowers the likelihood.
        teams = fit_teams(window)
        objective = _PoissonObjective(teams, window, correlated=True)
        theta = np.array([
            strengths.mu,
            strengths.gamma_home,
            *(strengths.attack[t] for t in teams[:-1]),
            *(strengths.defense[t] for t in teams[:-1]),
            0.0,
        ])
        for log_lambda3 in (-3.0, -8.0):
            theta[-1] = log_lambda3
            assert -objective(theta)[0] < independent.log_likelihood

    def test_recovers_known_strengths(self, rng):
        true = _true_strengths()
        records = simulate_poisson_matches(true, list("abcd"), 250, rng)
        report = poisson_fit(records)
        strengths = report.params
        assert report.converged
        assert strengths.mu == pytest.approx(true.mu, abs=0.06)
        assert strengths.gamma_home == pytest.approx(true.gamma_home, abs=0.06)
        for t in "abcd":
            assert strengths.attack[t] == pytest.approx(true.attack[t], abs=0.06)
            assert strengths.defense[t] == pytest.approx(true.defense[t], abs=0.06)

    def test_recovers_shared_component(self, rng):
        true = _true_strengths(lambda3=0.2)
        records = simulate_poisson_matches(true, list("abcd"), 250, rng)
        strengths = poisson_fit(records, correlated=True).params
        assert strengths.lambda3 == pytest.approx(0.2, abs=0.1)

    def test_independent_fit_pins_lambda3(self, rng):
        records = simulate_poisson_matches(_true_strengths(), list("abcd"), 5, rng)
        strengths = poisson_fit(records, correlated=False).params
        assert strengths.lambda3 == 0.0

    def test_zero_sum_exact_by_construction(self, rng):
        records = simulate_poisson_matches(_true_strengths(), list("abcd"), 20, rng)
        strengths = poisson_fit(records).params
        assert float(np.array(list(strengths.attack.values())).sum()) == 0.0
        assert float(np.array(list(strengths.defense.values())).sum()) == 0.0

    def test_likelihood_log_factorials_equal_math_lgamma(self, rng):
        # Both likelihoods read the grid's table, up to a record's largest count.
        records = simulate_poisson_matches(_true_strengths(), list("abcd"), 10, rng)
        records.append(MatchRecord(2014, 1, "a", "b", MAX_GOALS, MAX_GOALS))
        obj = _PoissonObjective(list("abcd"), records, correlated=True)
        for values, logs in (
            (obj.y1, obj.lgamma_y1),
            (obj.y2, obj.lgamma_y2),
            (obj.y1_cell, obj.lgamma_y1_cell),
            (obj.y2_cell, obj.lgamma_y2_cell),
            (obj.k_cell, obj.lgamma_k_cell),
        ):
            assert logs.tolist() == [math.lgamma(v + 1.0) for v in values.tolist()]

    def test_unplayed_match_rejected(self):
        with pytest.raises(ValueError, match="played"):
            poisson_fit([MatchRecord(2014, 1, "a", "b")])

    def test_deterministic(self, rng):
        records = simulate_poisson_matches(_true_strengths(), list("abcd"), 10, rng)
        first = poisson_fit(records)
        second = poisson_fit(records)
        assert first == second


class _DenseObjective(_PoissonObjective):
    """The dense formulation, kept as the kernel's reference.

    It evaluates the shared-component sum on the whole match x k grid,
    masked past min(y1, y2), and scatters the gradient with np.add.at.
    Its Hessian is the kernel's, so fits compare the value and gradient.
    """

    def __init__(self, teams, matches, correlated):
        super().__init__(teams, matches, correlated)
        kmax = int(min(self.y1.max(), self.y2.max()))
        self.k = np.arange(kmax + 1, dtype=float)
        self.k_ok = self.k[None, :] <= np.minimum(self.y1, self.y2)[:, None]
        y1k = np.where(self.k_ok, self.y1[:, None] - self.k[None, :], 0.0)
        y2k = np.where(self.k_ok, self.y2[:, None] - self.k[None, :], 0.0)
        self.lgamma_y1k = _LOG_FACTORIALS[y1k.astype(int)]
        self.lgamma_y2k = _LOG_FACTORIALS[y2k.astype(int)]
        self.lgamma_k = np.array([math.lgamma(k + 1) for k in range(kmax + 1)])

    def __call__(self, theta):
        mu, gamma, att, dfn, lambda3 = self.unpack(theta)
        log_l1 = mu + att[self.home_idx] - dfn[self.away_idx] + gamma
        log_l2 = mu + att[self.away_idx] - dfn[self.home_idx]
        l1 = np.exp(log_l1)
        l2 = np.exp(log_l2)
        if lambda3 == 0.0:
            ll = (
                -(l1 + l2)
                + self.y1 * log_l1
                + self.y2 * log_l2
                - self.lgamma_y1k[:, 0]
                - self.lgamma_y2k[:, 0]
            )
            s1 = self.y1 - l1
            s2 = self.y2 - l2
            nll = -float(ll.sum())
            mean_k = None
        else:
            log_terms = (
                (self.y1[:, None] - self.k[None, :]) * log_l1[:, None]
                + (self.y2[:, None] - self.k[None, :]) * log_l2[:, None]
                + self.k[None, :] * math.log(lambda3)
                - self.lgamma_y1k
                - self.lgamma_y2k
                - self.lgamma_k[None, :]
            )
            log_terms = np.where(self.k_ok, log_terms, -np.inf)
            top = log_terms.max(axis=1)
            with np.errstate(invalid="ignore"):
                rel = np.exp(log_terms - top[:, None])
            rel = np.where(self.k_ok, rel, 0.0)
            s = rel.sum(axis=1)
            log_sum = top + np.log(s)
            ll = -(l1 + l2 + lambda3) + log_sum
            nll = -float(ll.sum())
            mean_k = (rel @ self.k) / s
            s1 = (self.y1 - mean_k) - l1
            s2 = (self.y2 - mean_k) - l2
        t, home, away = self.n_teams, self.home_idx, self.away_idx
        full = np.zeros(2 + 2 * t + (1 if self.correlated else 0))
        # Each coordinate adds its terms in the kernel's order: eta1's mu,
        # gamma, home attack and away defence, then eta2's, then lambda3's.
        for at, value in (
            (0, -s1), (1, -s1), (2 + home, -s1), (2 + t + away, s1),
            (0, -s2), (2 + away, -s2), (2 + t + home, s2),
        ):
            np.add.at(full, np.broadcast_to(at, value.shape), value)
        if self.correlated:
            np.add.at(full, np.full(len(s1), 2 + 2 * t), lambda3 - mean_k)
        grad = [*full[:2], *(full[2 : t + 1] - full[t + 1])]
        grad.extend(full[t + 2 : 2 * t + 1] - full[2 * t + 1])
        grad = np.asarray(grad + list(full[2 * t + 2 :]))
        return nll, lambda: grad, super().__call__(theta)[2]


def _score_window(scores):
    """Played matches with the given (home, away) goals, cycling over six teams."""
    teams = [f"t{k}" for k in range(6)]
    return [
        MatchRecord(2014, 1 + i // 3, teams[i % 6], teams[(i + 1) % 6], y1, y2)
        for i, (y1, y2) in enumerate(scores)
    ]


class TestKernelMatchesDenseReference:
    """The live-cell objective returns the dense formulation's bits exactly."""

    def _assert_same(self, matches, box_thetas):
        teams = sorted({t for m in matches for t in (m.home, m.away)})
        for correlated in (False, True):
            fast = _PoissonObjective(teams, matches, correlated)
            dense = _DenseObjective(teams, matches, correlated)
            for theta in box_thetas(fast.n_params):
                nll, gradient, _ = fast(theta)
                want_nll, want_gradient, _ = dense(theta)
                grad, want_grad = gradient(), want_gradient()
                assert nll == want_nll
                assert np.array_equal(grad, want_grad)

    def test_simulated_seasons(self, rng, box_thetas):
        records = simulate_poisson_matches(_true_strengths(0.2), list("abcd"), 6, rng)
        self._assert_same(records, box_thetas)

    def test_twenty_team_first_half(self, poisson_first_half, box_thetas):
        self._assert_same(poisson_first_half, box_thetas)

    @pytest.mark.parametrize(
        "scores",
        [
            # min(y1, y2) = 0 everywhere: one live cell per match in a grid
            # min(max y1, max y2) + 1 = 3 wide...
            [(1, 0), (0, 2), (0, 0), (3, 0), (0, 1), (2, 0)] * 3,
            # ...and, with no away goal at all, a grid one cell wide.
            [(1, 0), (0, 0), (3, 0), (2, 0), (1, 0), (0, 0)] * 3,
        ],
    )
    def test_no_match_with_both_sides_scoring(self, scores, box_thetas):
        self._assert_same(_score_window(scores), box_thetas)

    def test_wide_rows_use_the_pairwise_row_sum(self, box_thetas):
        # An 8-8 and an 11-9 score give rows of 9 and 10 live cells, past
        # the 8-element blocks of NumPy's pairwise summation.
        scores = [(8, 8), (1, 1), (0, 2), (11, 9), (2, 3), (4, 4), (1, 0), (3, 5), (6, 2)] * 2
        self._assert_same(_score_window(scores), box_thetas)

    @pytest.mark.parametrize("correlated", [False, True])
    def test_fits_equal_dense_reference_fits(
        self, poisson_first_half, correlated, monkeypatch, record_minimize
    ):
        results = record_minimize(poisson_module)
        got = poisson_fit(poisson_first_half, correlated=correlated)
        monkeypatch.setattr(poisson_module, "_PoissonObjective", _DenseObjective)
        want = poisson_fit(poisson_first_half, correlated=correlated)
        # A correlated fit solves the independent model first.
        half = len(results) // 2
        assert half == (2 if correlated else 1)
        for fast, dense in zip(results[:half], results[half:]):
            assert np.array_equal(fast.x, dense.x)
            assert (fast.fun, fast.iterations, fast.converged) == (
                dense.fun, dense.iterations, dense.converged
            )
        assert got == want


def rolling_predict(seasons, season, matchday):
    """One independent-Poisson refit on the season window, through the harness path."""
    ctx = context_for(seasons, season, matchday)
    return build_predictor("poisson-lee").predict(ctx).predictions


class TestRollingPredict:
    def test_current_season_window_composition(self, mid_season):
        md = 7
        rolling = rolling_predict([mid_season], mid_season, md)
        training = [m for m in mid_season.matches if m.matchday < md]
        strengths = poisson_fit(training).params
        for fixture, prediction in rolling.items():
            direct = outcome_probs(link_rates(strengths, fixture.home, fixture.away))
            assert prediction == direct

    def test_cross_season_window_changes_fit(self, two_seasons):
        md = 6
        ctx = context_for(two_seasons, two_seasons[1], md)

        def forecasts(all_seasons):
            strengths = poisson_fit(ctx.training(all_seasons=all_seasons)).params
            return {
                f: outcome_probs(link_rates(strengths, f.home, f.away)) for f in ctx.fixtures
            }

        lee_style = forecasts(False)
        pooled = forecasts(True)
        assert set(lee_style) == set(pooled)
        assert any(lee_style[f] != pooled[f] for f in lee_style)

    def test_repeat_call_is_bitwise_identical(self, mid_season):
        a = rolling_predict([mid_season], mid_season, 6)
        b = rolling_predict([mid_season], mid_season, 6)
        assert a == b

    def test_rejects_first_half(self, mid_season):
        with pytest.raises(ValueError, match="second half"):
            rolling_predict([mid_season], mid_season, 3)

    def test_grid_refusal_names_the_boundary_fit(self, boundary_season):
        report = evaluate([build_predictor("poisson-biv")], [boundary_season])[0]
        (skipped,) = report.skipped_matchdays
        assert skipped.matchday == 4
        assert skipped.reason.startswith("ValueError: rates ")
        assert skipped.reason.endswith("goals per side (boundary fit: def:t2, gamma, lambda3)")


class TestCsvExport:
    def test_shape(self):
        text = _true_strengths(0.1).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "team,att,def"
        assert len(lines) == 1 + 4 + 3
        assert lines[-3].startswith("mu,")
        assert lines[-1].startswith("lambda3,")

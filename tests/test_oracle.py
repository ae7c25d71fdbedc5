"""A fit that reports ``converged=True`` and no boundary flag is at the MLE.

``mle_oracle`` fits each refit model's window with its own code (scipy's
L-BFGS-B, then Newton to a gradient norm of 1e-11), and the program's
predictions must lie within ``TOL`` of the oracle's for every ordered pair
of the window's teams.  Where the oracle finds no finite MLE, the fit must
carry a boundary flag.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mle_oracle
from matchcast.data import MatchRecord, build_season, second_half_matchdays
from matchcast.davidson import bt_outcome_probs
from matchcast.evaluation import context_for
from matchcast.poisson import TeamStrengths, link_rates, outcome_probs
from matchcast.predictors import build_predictor
from matchcast.selftest import double_round_robin, simulate_poisson_matches
from test_properties import BYE, PROPERTY_SETTINGS, leagues

TOL = 1e-8

# Each refit model: its oracle model and its forecast from fitted parameters.
REFIT_MODELS = {
    "bt": ("davidson", bt_outcome_probs),
    "poisson-lee": ("poisson", lambda params, h, a: outcome_probs(link_rates(params, h, a))),
    "poisson-biv": ("bivariate", lambda params, h, a: outcome_probs(link_rates(params, h, a))),
}


def _window(spec, ctx):
    # The window each refit reads, as ``predictors._BUILDERS`` reads it.
    return ctx.training(all_seasons=spec == "poisson-biv")


def _refit(spec, ctx):
    """The fit behind ``spec``'s forecast of ``ctx``, or None for a refused boundary fit."""
    try:
        return build_predictor(spec).predict(ctx).fit
    except ValueError as exc:
        # A forecast a fit cannot make is refused only when the fit is flagged.
        assert "boundary fit" in str(exc), (spec, exc)
        return None


def assert_at_the_mle(spec, ctx):
    """An unflagged fit's window has a finite MLE, and a converged one is at it."""
    fit = _refit(spec, ctx)
    if fit is None or fit.boundary_flags:
        return
    oracle_model, forecast = REFIT_MODELS[spec]
    oracle = mle_oracle.fit(oracle_model, _window(spec, ctx))
    assert oracle.finite, (spec, "unflagged, but the window has no finite MLE")
    if not fit.converged:
        return
    teams = oracle.model.teams
    worst = max(
        abs(p - q)
        for h in teams
        for a in teams
        if h != a
        for p, q in zip(forecast(fit.params, h, a).as_tuple(), oracle.prediction(h, a))
    )
    assert worst <= TOL, (spec, worst)


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(leagues(), st.data())
def test_converged_unflagged_fits_are_at_the_mle(league, data):
    season = data.draw(st.sampled_from(league))
    ctx = context_for(league, season, data.draw(st.sampled_from(second_half_matchdays(season))))
    for spec in REFIT_MODELS:
        assert_at_the_mle(spec, ctx)


@pytest.fixture(scope="module")
def bench_size_archive():
    """Two 20-team seasons drawn from the goals model, as the bench draws them."""
    rng = np.random.default_rng(7)
    teams = [f"t{k:02d}" for k in range(20)]
    attack = rng.normal(0.0, 0.25, 20)
    defense = rng.normal(0.0, 0.25, 20)
    attack -= attack.mean()
    defense -= defense.mean()
    strengths = TeamStrengths(
        mu=0.1,
        attack=dict(zip(teams, attack.tolist())),
        defense=dict(zip(teams, defense.tolist())),
        gamma_home=0.3,
        lambda3=0.08,
    )
    return [
        build_season(simulate_poisson_matches(strengths, teams, 1, rng, year=year))
        for year in (2001, 2002)
    ]


@pytest.mark.parametrize("spec", list(REFIT_MODELS))
def test_bench_size_window_is_at_the_mle(spec, bench_size_archive):
    # Matchday 25 of the second season: 240 matches this season, 620 in all.
    ctx = context_for(bench_size_archive, bench_size_archive[1], 25)
    fit = _refit(spec, ctx)
    assert fit.converged and not fit.boundary_flags
    assert_at_the_mle(spec, ctx)


def _three_team_window(first_half_goals):
    """The context of matchday 4 of a 3-team season: its window is the first half.

    The first half is t1-t2, t1-t0 and t0-t2, with ``first_half_goals``;
    every later match ends 1-0.
    """
    schedule = double_round_robin(["t0", "t1", "t2", BYE])
    fixtures = [
        (matchday, home, away)
        for matchday, pairs in enumerate(schedule, start=1)
        for home, away in pairs
        if BYE not in (home, away)
    ]
    goals = list(first_half_goals) + [(1, 0)] * (len(fixtures) - len(first_half_goals))
    season = build_season([
        MatchRecord(2001, matchday, home, away, *score)
        for (matchday, home, away), score in zip(fixtures, goals)
    ])
    ctx = context_for([season], season, 4)
    window = [(m.home, m.away) for m in ctx.training()]
    assert window == [("t1", "t2"), ("t1", "t0"), ("t0", "t2")]
    return ctx


def _three_home_wins():
    return _three_team_window([(1, 0)] * 3)


def test_poisson_flags_the_derived_last_team():
    # Only t2, whose strengths are minus the sum of the others', drifts:
    # to attack 18.3 and defence -19.8.  No finite MLE exists.
    ctx = _three_team_window([(1, 1), (0, 0), (1, 1)])
    assert not mle_oracle.fit("poisson", ctx.training()).finite
    fit = _refit("poisson-lee", ctx)
    assert fit.boundary_flags == ("att:t2", "def:t2")
    assert_at_the_mle("poisson-lee", ctx)


def test_oracle_finds_no_finite_mle_on_three_home_wins():
    ctx = _three_home_wins()
    assert len(ctx.training()) == 3
    assert not mle_oracle.fit("davidson", ctx.training()).finite


def test_bt_flags_the_separable_three_home_wins():
    # The solver stops at log gamma 13.2, under DRIFT_LIMIT, with |g| under
    # its tolerance; the window's counts flag what it stops short of.
    fit = _refit("bt", _three_home_wins())
    assert fit.boundary_flags == ("gamma", "nu")

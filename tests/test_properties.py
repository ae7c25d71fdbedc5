"""Property tests on random small leagues and match CSVs.

They check the leakage guard, simplex output, nesting, and the line that
names each CSV row.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcast.data import (
    MatchRecord,
    build_season,
    fixture_key,
    normalize_team,
    parse_matches_with_lines,
    second_half_matchdays,
)
from matchcast.evaluation import PredictionContext, context_for
from matchcast.poisson import poisson_fit
from matchcast.predictors import KNOWN_MODELS, build_predictor
from matchcast.selftest import double_round_robin

# Derandomized and without an example database, so every run of the
# suite draws the same leagues.
PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None)
BYE = "bye"


@st.composite
def leagues(draw):
    """1-2 double round robin seasons of 3-6 teams with 0-4 goals a side.

    An odd team count plays a bye team, whose matches are dropped.
    """
    n_teams = draw(st.integers(3, 6))
    teams = [f"t{k}" for k in range(n_teams)]
    schedule = double_round_robin(teams + [BYE] if n_teams % 2 else teams)
    goals = st.integers(0, 4)
    seasons = []
    for year in range(2001, 2001 + draw(st.integers(1, 2))):
        records = [
            MatchRecord(year, matchday, home, away, draw(goals), draw(goals))
            for matchday, pairs in enumerate(schedule, start=1)
            for home, away in pairs
            if BYE not in (home, away)
        ]
        seasons.append(build_season(records))
    return seasons


@PROPERTY_SETTINGS
@given(leagues(), st.data())
def test_leakage_guard_rejects_future_or_unplayed_records(league, data):
    season = data.draw(st.sampled_from(league))
    matchday = data.draw(st.integers(1, season.rounds))
    ctx = context_for(league, season, matchday)

    def rebuilt(history, fixtures=ctx.fixtures):
        return PredictionContext(
            ctx.season_year, ctx.matchday, ctx.season_rounds, history, fixtures
        )

    records = [m for s in league for m in s.matches]
    future = [
        m
        for m in records
        if m.season > ctx.season_year
        or (m.season == ctx.season_year and m.matchday >= ctx.matchday)
    ]
    leak = data.draw(st.sampled_from(future + [m.scheduled_copy() for m in records]))
    at = data.draw(st.integers(0, len(ctx.history)))
    with pytest.raises(ValueError):
        rebuilt(ctx.history[:at] + (leak,) + ctx.history[at:])

    played_fixtures = [m for m in records if m.season == season.year and m.matchday == matchday]
    with pytest.raises(ValueError):
        rebuilt(ctx.history, fixtures=(data.draw(st.sampled_from(played_fixtures)),))


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(leagues(), st.data())
def test_every_model_predicts_on_the_simplex(league, data):
    season = data.draw(st.sampled_from(league))
    matchday = data.draw(st.sampled_from(second_half_matchdays(season)))
    ctx = context_for(league, season, matchday)
    for spec in KNOWN_MODELS:
        try:
            predictions = build_predictor(spec).predict(ctx).predictions
        except ValueError as exc:
            # On a few matches a boundary fit can give an unseen pairing a
            # rate past any score grid; the harness reports that refusal.
            assert spec.startswith("poisson") and "goals per side" in str(exc), (spec, exc)
            continue
        assert set(predictions) == set(ctx.fixtures), spec
        for prediction in predictions.values():
            probs = prediction.as_tuple()
            assert all(0.0 <= p <= 1.0 for p in probs), (spec, probs)
            assert abs(sum(probs) - 1.0) <= 1e-9, (spec, probs)


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(leagues(), st.data())
def test_correlated_fit_scores_at_least_the_independent_fit(league, data):
    # The correlated model nests the independent one at lambda3 = 0, so on
    # one window its maximised log-likelihood cannot be lower. A pair with
    # boundary flags is exempt: toward the +-30 box the likelihood is flat,
    # and a fit there need not stop at the maximum.
    season = data.draw(st.sampled_from(league))
    ctx = context_for(league, season, data.draw(st.sampled_from(second_half_matchdays(season))))
    for all_seasons in (False, True):
        training = ctx.training(all_seasons=all_seasons)
        independent = poisson_fit(training)
        correlated = poisson_fit(training, correlated=True)
        if independent.boundary_flags or correlated.boundary_flags:
            continue
        assert correlated.log_likelihood >= independent.log_likelihood - 1e-9, all_seasons


@st.composite
def match_csvs(draw):
    """Match CSV text, and per row ``(line, record, row text)`` counted by hand.

    Blank, whitespace-only and all-blank-field lines fall between rows,
    and a quoted team name may span lines.
    """
    line = 1
    lines = ["season,matchday,home,away,home_goals,away_goals"]
    rows = []
    name_tail = st.sampled_from(["", "x", " x ", "\nx", "x\n\nx", " \n"])
    goals = st.sampled_from([("", ""), ("0", "2"), ("1", "1"), ("3", "0")])
    for matchday in range(1, draw(st.integers(1, 6)) + 1):
        for filler in draw(st.lists(st.sampled_from(["", "  ", "\t", " , ,"]), max_size=3)):
            lines.append(filler)
            line += 1
        home, away = "h" + draw(name_tail), "a" + draw(name_tail)
        hg, ag = draw(goals)
        row = f'2001,{matchday},"{home}","{away}",{hg},{ag}'
        record = MatchRecord(
            2001, matchday, normalize_team(home), normalize_team(away),
            int(hg) if hg else None, int(ag) if ag else None,
        )
        rows.append((line + 1, record, row))
        lines.append(row)
        line += 1 + row.count("\n")
    return "\n".join(lines) + "\n", rows


@settings(PROPERTY_SETTINGS, max_examples=50)
@given(match_csvs(), st.data())
def test_csv_rows_are_named_by_the_line_they_start_on(drawn, data):
    text, rows = drawn
    assert parse_matches_with_lines(text) == [(line, record) for line, record, _ in rows]

    first_line, record, row = data.draw(st.sampled_from(rows))
    gap = data.draw(st.sampled_from(["", "\n", " \n\n"]))
    repeat_line = text.count("\n") + gap.count("\n") + 1
    with pytest.raises(ValueError) as exc:
        parse_matches_with_lines(text + gap + row + "\n")
    assert str(exc.value) == (
        f"line {repeat_line}: duplicate fixture {fixture_key(record)}, first on line {first_line}"
    )

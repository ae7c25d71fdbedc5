import dataclasses
import math
from itertools import chain

import numpy as np
import pytest

import matchcast.evaluation as evaluation
from matchcast.data import (
    CountVector,
    Prediction,
    build_season,
    first_half_rounds,
    fixture_key,
    outcome_of,
    second_half_matchdays,
    tally_records,
    unplayed_match,
)
from matchcast.davidson import bt_fit, bt_outcome_probs
from matchcast.dirichlet import GridSpec, cv_select, mn_dir1_predict, mn_dir2_predict
from matchcast.evaluation import (
    Forecast,
    PredictionContext,
    check_evaluable,
    context_for,
    evaluate,
)
from matchcast.predictors import build_predictor, parse_prediction_rows
from matchcast.poisson import link_rates, outcome_probs, poisson_fit
from matchcast.reports import reports_to_csv, reports_to_json
from matchcast.selftest import simulate_played_season


def oracle_csv(seasons):
    """External-file contents that encode the realized outcome as a vertex."""
    rows = ["season,matchday,home,away,p1,p2,p3"]
    for season in seasons:
        for m in season.matches:
            if not m.played:
                continue
            vertex = {1: "1,0,0", 2: "0,1,0", 3: "0,0,1"}[outcome_of(m).value]
            rows.append(f"{m.season},{m.matchday},{m.home},{m.away},{vertex}")
    return "\n".join(rows) + "\n"


def assert_zero_expected_terms_counted(report):
    """Each season's gof counts its (team, venue) terms whose predicted wins sum to 0.

    The count is taken by hand from the scored matches, and the model's
    gof holds the seasons' sum.  Returns that sum.
    """
    expected = {}
    for s in report.per_match:
        m, p = s.match, s.prediction
        for key, win_p in (((m.home, "home"), p.p_home), ((m.away, "away"), p.p_away)):
            by_season = expected.setdefault(m.season, {})
            by_season[key] = by_season.get(key, 0.0) + win_p
    counts = [
        sum(1 for e in expected[y.season].values() if e == 0.0) for y in report.per_year
    ]
    assert [y.gof.excluded_terms for y in report.per_year] == counts
    assert report.gof.excluded_terms == sum(counts)
    return sum(counts)


def out_of_order_archive(two_seasons, rng):
    """Years out of order, and two leagues sharing 2014 that must not see each other."""
    return [
        simulate_played_season([f"t{k}" for k in range(6)], 2015, rng),
        two_seasons[1],
        simulate_played_season([f"u{k}" for k in range(6)], 2014, rng),
        two_seasons[0],
    ]


@pytest.fixture
def oracle_predictor(tmp_path, two_seasons):
    path = tmp_path / "oracle.csv"
    path.write_text(oracle_csv(two_seasons), encoding="utf-8")
    return build_predictor(f"external:{path}")


class TestContext:
    def test_history_is_strictly_earlier(self, two_seasons):
        season = two_seasons[1]
        ctx = context_for(two_seasons, season, 7)
        assert all(
            r.season < season.year or r.matchday < 7 for r in ctx.history
        )
        # Earlier season fully visible for long-window models.
        assert sum(1 for r in ctx.history if r.season == 2013) == 30

    def test_fixtures_are_goal_stripped(self, two_seasons):
        ctx = context_for(two_seasons, two_seasons[1], 7)
        assert ctx.fixtures
        assert all(not f.played for f in ctx.fixtures)

    def test_leaky_history_rejected(self, two_seasons):
        season = two_seasons[1]
        ctx = context_for(two_seasons, season, 7)
        leak = season.matches_of(7)[0]
        with pytest.raises(ValueError, match="leaks"):
            PredictionContext(
                season_year=season.year,
                matchday=7,
                season_rounds=season.rounds,
                earlier=ctx.earlier,
                season_so_far=ctx.season_so_far + (leak,),
                fixtures=ctx.fixtures,
            )

    def test_later_season_in_history_rejected(self, two_seasons):
        s2013, s2014 = two_seasons
        ctx = context_for(two_seasons, s2013, 7)
        at_2014 = context_for(two_seasons, s2014, 7)
        # The later season's records in the season so far; a later or the
        # same year's season among the earlier ones, last or first.
        for base, earlier, so_far in (
            (ctx, (), ctx.season_so_far + s2014.matches_of(1)),
            (ctx, (s2014,), ctx.season_so_far),
            (at_2014, (s2013, s2014), at_2014.season_so_far),
            (at_2014, (s2014, s2013), at_2014.season_so_far),
        ):
            with pytest.raises(
                ValueError, match="^history leaks match data from matchday 1 of season 2014$"
            ):
                dataclasses.replace(base, earlier=earlier, season_so_far=so_far)

    def test_evaluate_contexts_equal_fresh_ones(self, two_seasons, rng):
        seasons = out_of_order_archive(two_seasons, rng)
        calls = []
        evaluate([RecordingPredictor("r", calls)], seasons)
        ordered = sorted(seasons, key=lambda s: s.year)
        expected = [
            context_for(seasons, season, matchday)
            for season in ordered
            for matchday in second_half_matchdays(season)
        ]
        assert [ctx for _, ctx in calls] == expected

    def test_history_is_built_from_the_earlier_seasons_and_the_season_so_far(
        self, two_seasons, rng
    ):
        seasons = out_of_order_archive(two_seasons, rng)
        for season in seasons:
            earlier = [s for s in sorted(seasons, key=lambda s: s.year) if s.year < season.year]
            for matchday in range(1, season.rounds + 1):
                ctx = context_for(seasons, season, matchday)
                assert ctx.history == tuple(
                    chain(*(s.matches for s in earlier), season.matches_before(matchday))
                )
                if matchday in second_half_matchdays(season):
                    assert ctx.training(all_seasons=True) is ctx.history

    def test_no_earlier_season_is_walked_once_per_later_context(self, rng):
        class CountedMatches(tuple):
            def __iter__(self):
                self.walks += 1
                return super().__iter__()

        seasons = []
        for year in range(2010, 2016):
            season = simulate_played_season([f"t{k}" for k in range(6)], year, rng)
            matches = CountedMatches(season.matches)
            matches.walks = 0
            seasons.append(dataclasses.replace(season, matches=matches))
        reports = evaluate([build_predictor("trivial"), build_predictor("mn-dir1")], seasons)
        assert [r.aggregates.n_scored for r in reports] == [6 * 15] * 2
        # Each season is walked as often as the last one, which no later
        # context reads: once for its first unplayed match and twice for its
        # second-half matchdays.  A context slices its own season's matches.
        assert [s.matches.walks for s in seasons] == [1 + 2] * 6

    def test_history_equals_a_hand_built_filter(self, two_seasons, rng):
        teams = [f"t{k}" for k in range(6)]
        others = [f"u{k}" for k in range(6)]

        def unplayed_last_matchday(season):
            return build_season(
                [m.scheduled_copy() if m.matchday == season.rounds else m for m in season.matches]
            )

        # Years out of order; two leagues share 2014; two seasons end in scheduled matches.
        seasons = [
            unplayed_last_matchday(simulate_played_season(teams, 2015, rng)),
            two_seasons[1],
            unplayed_last_matchday(simulate_played_season(others, 2014, rng)),
            two_seasons[0],
        ]

        def by_hand(season, matchday):
            years = sorted({s.year for s in seasons if s.year < season.year})
            earlier = [
                m for year in years for s in seasons if s.year == year for m in s.matches
            ]
            current = [m for m in season.matches if m.matchday < matchday]
            return tuple(earlier + current)

        # Every 2015 forecast reads the 2014 league's unplayed last matchday,
        # so its contexts refuse, naming the first such match.
        blanked = next(m for m in seasons[2].matches if not m.played)
        refusal = (
            f"^season 2014 matchday {blanked.matchday}: "
            f"unplayed match {blanked.home} vs {blanked.away}$"
        )
        for season in seasons:
            for matchday in range(1, season.rounds + 1):
                if season is seasons[0]:
                    assert blanked in by_hand(season, matchday)
                    with pytest.raises(ValueError, match=refusal):
                        context_for(seasons, season, matchday)
                    continue
                ctx = context_for(seasons, season, matchday)
                assert ctx.history == by_hand(season, matchday)
                assert ctx.fixtures == tuple(
                    m.scheduled_copy() for m in season.matches if m.matchday == matchday
                )
        # A season's first matchday sees the earlier years alone, and a league
        # never sees the other league of its year.
        assert context_for(seasons, seasons[2], 1).history == two_seasons[0].matches
        wanted_2015 = by_hand(seasons[0], 1)
        assert len(wanted_2015) == 30 + 30 + 30
        assert wanted_2015[30:60] == two_seasons[1].matches
        assert all(
            r.home.startswith("t") for r in context_for(seasons, two_seasons[1], 10).history
        )

    def test_current_season_history_equals_the_filter(self, two_seasons):
        s2013, s2014 = two_seasons
        ctx = context_for(two_seasons, s2014, 4)
        want = tuple(r for r in ctx.history if r.season == 2014)
        assert len(want) == 9
        assert ctx.season_so_far == want == s2014.matches_before(4)
        assert dataclasses.replace(ctx).season_so_far == want
        assert PredictionContext(2015, 1, 10, (s2013, s2014), (), ()).season_so_far == ()
        # The season so far holds the target season alone, at any position.
        for at in (0, 5, 9):
            so_far = want[:at] + (s2013.matches[at],) + want[at:]
            with pytest.raises(
                ValueError, match="^season 2014 so far holds a match of season 2013$"
            ):
                PredictionContext(2014, 4, s2014.rounds, (s2013,), so_far, ())

    def test_training_is_the_season_so_far_or_the_whole_history(self, two_seasons):
        earlier, season = two_seasons
        ctx = context_for(two_seasons, season, 6)
        current = ctx.training()
        assert current == season.matches_before(6)
        assert len(current) == 15  # matchdays 1..5, three matches each
        everything = ctx.training(all_seasons=True)
        assert everything == (*earlier.matches, *current)
        # The context's own tuples, not copies.
        assert current is ctx.season_so_far and everything is ctx.history

    @pytest.mark.parametrize("all_seasons", [False, True])
    def test_training_refuses_a_first_half_matchday(self, two_seasons, all_seasons):
        # Ten rounds: matchdays 1..5 are the first half.
        ctx = context_for(two_seasons, two_seasons[1], 5)
        with pytest.raises(ValueError, match="^matchday 5 is not in the second half$"):
            ctx.training(all_seasons=all_seasons)

    @pytest.mark.parametrize("year, matchday", [(2013, 3), (2013, 8), (2014, 2)])
    def test_guard_and_check_evaluable_word_an_unplayed_match_alike(
        self, two_seasons, year, matchday
    ):
        # An earlier year's first and second half, and the target season
        # before the forecast matchday.
        seasons = list(two_seasons)
        k = year - 2013
        target = seasons[k].matches_of(matchday)[1]
        blank = target.scheduled_copy()
        seasons[k] = build_season([blank if m == target else m for m in seasons[k].matches])
        # An earlier year's match is refused through its season, the target
        # season's through the season so far.
        earlier, so_far = ((seasons[0],), ()) if k == 0 else ((), (blank,))
        errors = []
        for refuse in (
            lambda: context_for(seasons, seasons[1], 6),
            lambda: PredictionContext(2014, 6, 10, earlier, so_far, ()),
            lambda: check_evaluable(seasons),
        ):
            with pytest.raises(ValueError) as refused:
                refuse()
            errors.append(str(refused.value))
        line = f"season {year} matchday {matchday}: unplayed match {blank.home} vs {blank.away}"
        assert errors == [line] * 3

    def test_played_fixture_rejected(self, two_seasons):
        season = two_seasons[1]
        ctx = context_for(two_seasons, season, 7)
        with pytest.raises(ValueError, match="result"):
            PredictionContext(
                season_year=season.year,
                matchday=7,
                season_rounds=season.rounds,
                earlier=ctx.earlier,
                season_so_far=ctx.season_so_far,
                fixtures=(season.matches_of(7)[0],),
            )


@pytest.mark.parametrize(
    "refuse",
    [
        lambda first_half, blank: PredictionContext(2014, 6, 10, (), first_half, ()),
        lambda first_half, blank: check_evaluable([build_season(first_half)]),
        lambda first_half, blank: bt_fit(first_half),
        lambda first_half, blank: poisson_fit(first_half),
        lambda first_half, blank: outcome_of(blank),
        lambda first_half, blank: tally_records(first_half),
        lambda first_half, blank: cv_select(first_half, GridSpec.default()),
    ],
    ids=[
        "context-guard", "check-evaluable", "bt-fit", "poisson-fit", "outcome-of",
        "tally-records", "cv-select",
    ],
)
def test_every_entry_point_refuses_an_unplayed_match_in_one_wording(two_seasons, refuse):
    season = two_seasons[1]
    target = season.matches_of(2)[1]
    blank = target.scheduled_copy()
    first_half = tuple(blank if m == target else m for m in season.matches_before(6))
    with pytest.raises(ValueError) as refused:
        refuse(first_half, blank)
    assert str(refused.value) == str(unplayed_match(blank))
    line = f"season 2014 matchday 2: unplayed match {blank.home} vs {blank.away}"
    assert str(refused.value) == line


class TestTrivialBaseline:
    def test_exact_mean_scores(self, two_seasons):
        report = evaluate([build_predictor("trivial")], two_seasons)[0]
        agg = report.aggregates
        assert agg.n_scored == 30  # 5 second-half rounds x 3 matches x 2 seasons
        assert agg.brier.mean == pytest.approx(2 / 3, abs=1e-12)
        assert agg.log.mean == pytest.approx(math.log(3), abs=1e-12)
        assert agg.spherical.mean == pytest.approx(-1 / math.sqrt(3), abs=1e-12)
        # Uniform forecasts are three-way ties: never a top-choice error,
        # but every match is flagged.
        assert agg.proportion_of_errors == 0.0
        assert agg.argmax_ties == agg.n_scored
        assert agg.entropy.mean == pytest.approx(math.log(3), abs=1e-12)

    def test_totals_match_means(self, two_seasons):
        agg = evaluate([build_predictor("trivial")], two_seasons)[0].aggregates
        assert agg.brier.total == pytest.approx(agg.brier.mean * agg.n_scored, rel=1e-12, abs=0.0)


class TestOraclePredictor:
    def test_scores_at_rule_minima(self, two_seasons, oracle_predictor):
        report = evaluate([oracle_predictor], two_seasons)[0]
        # A team that never wins in a venue is expected to win 0 times there.
        assert assert_zero_expected_terms_counted(report) > 0
        agg = report.aggregates
        assert agg.brier.mean == 0.0
        assert agg.log.mean == 0.0
        assert agg.spherical.mean == -1.0
        assert agg.proportion_of_errors == 0.0
        assert report.missing_predictions == 0

    def test_dominating_predictor_orders_totals(self, two_seasons, oracle_predictor):
        reports = evaluate([oracle_predictor, build_predictor("trivial")], two_seasons)
        assert assert_zero_expected_terms_counted(reports[0]) > 0
        assert assert_zero_expected_terms_counted(reports[1]) == 0
        assert reports[0].aggregates.brier.total < reports[1].aggregates.brier.total
        assert reports[0].aggregates.log.total < reports[1].aggregates.log.total


class FailingOn:
    """Predictor that raises on one specific matchday."""

    name = "flaky"

    def __init__(self, bad_matchday):
        self.bad_matchday = bad_matchday

    def predict(self, ctx):
        if ctx.matchday == self.bad_matchday:
            raise RuntimeError("synthetic failure")
        return Forecast({f: Prediction(1 / 3, 1 / 3, 1 / 3) for f in ctx.fixtures})


class TestHarnessRobustness:
    def test_predictor_failure_skips_matchday_and_flags(self, two_seasons):
        report = evaluate([FailingOn(bad_matchday=7)], two_seasons)[0]
        assert len(report.skipped_matchdays) == 2  # once per season
        assert {s.matchday for s in report.skipped_matchdays} == {7}
        assert "synthetic failure" in report.skipped_matchdays[0].reason
        assert report.aggregates.n_scored == 30 - 6
        assert report.flagged_count >= 2

    def test_missing_external_fixture_is_flagged(self, tmp_path, two_seasons):
        text = oracle_csv(two_seasons)
        lines = text.strip().splitlines()
        # Drop one second-half prediction row (keep header).
        target = next(
            i
            for i, line in enumerate(lines)
            if i > 0 and int(line.split(",")[1]) >= 6 and line.startswith("2013")
        )
        path = tmp_path / "partial.csv"
        path.write_text("\n".join(lines[:target] + lines[target + 1 :]) + "\n")
        report = evaluate([build_predictor(f"external:{path}")], two_seasons)[0]
        assert assert_zero_expected_terms_counted(report) > 0
        assert report.missing_predictions == 1
        assert report.aggregates.n_scored == 29

    def test_unplayed_second_half_match_rejected(self, two_seasons):
        season = two_seasons[1]
        records = list(season.matches)
        victim = records.index(season.matches_of(8)[0])
        records[victim] = records[victim].scheduled_copy()
        broken = build_season(records)
        with pytest.raises(ValueError, match="unplayed"):
            evaluate([build_predictor("trivial")], [two_seasons[0], broken])

    def test_archive_without_a_second_half_refused_before_any_predictor_runs(self, rng):
        one_round = simulate_played_season(["a", "b", "c", "d"], 2013, rng).matches_of(1)
        calls = []
        for seasons in ([build_season(list(one_round))], []):
            with pytest.raises(ValueError, match="^no second-half matchday to score$"):
                evaluate([RecordingPredictor("r", calls)], seasons)
        assert calls == []

    def test_unplayed_first_half_match_rejected(self, mid_season):
        # The refits and the mn-dir2 tuning of every second-half matchday
        # would silently miss the blanked match.
        records = list(mid_season.matches)
        victim = records.index(mid_season.matches_of(1)[0])
        records[victim] = records[victim].scheduled_copy()
        broken = build_season(records)
        m = records[victim]
        refusal = f"^season 2014 matchday 1: unplayed match {m.home} vs {m.away}$"
        with pytest.raises(ValueError, match=refusal):
            evaluate([build_predictor("trivial")], [broken])

    def test_infinite_log_scores_flagged_not_crashed(self, tmp_path, two_seasons):
        # A vertex prediction on the WRONG outcome yields an infinite log score.
        season = two_seasons[0]
        target = season.matches_of(6)[0]
        wrong_vertex = {1: "0,0,1", 2: "1,0,0", 3: "1,0,0"}[outcome_of(target).value]
        rows = ["season,matchday,home,away,p1,p2,p3"]
        for s in two_seasons:
            for m in s.matches:
                if m == target:
                    rows.append(f"{m.season},{m.matchday},{m.home},{m.away},{wrong_vertex}")
                else:
                    vertex = {1: "1,0,0", 2: "0,1,0", 3: "0,0,1"}[outcome_of(m).value]
                    rows.append(f"{m.season},{m.matchday},{m.home},{m.away},{vertex}")
        path = tmp_path / "wrong.csv"
        path.write_text("\n".join(rows) + "\n")
        report = evaluate([build_predictor(f"external:{path}")], two_seasons)[0]
        assert assert_zero_expected_terms_counted(report) > 0
        assert report.aggregates.log.infinite == 1
        assert report.aggregates.log.n == 29
        assert math.isfinite(report.aggregates.log.mean)


class RecordingPredictor:
    """Uniform forecasts; logs its name and every context it is handed."""

    def __init__(self, name, calls):
        self.name = name
        self.calls = calls

    def predict(self, ctx):
        self.calls.append((self.name, ctx))
        return Forecast({f: Prediction(1 / 3, 1 / 3, 1 / 3) for f in ctx.fixtures})


class TestSharedContext:
    @pytest.mark.parametrize("n_predictors", [1, 4])
    def test_one_context_per_matchday_for_every_predictor(
        self, two_seasons, monkeypatch, n_predictors
    ):
        built = []
        real = evaluation.context_for

        def counting(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(evaluation, "context_for", counting)
        calls = []
        predictors = [RecordingPredictor(f"r{k}", calls) for k in range(n_predictors)]
        evaluate(predictors, two_seasons)
        matchdays = [(s.year, d) for s in two_seasons for d in second_half_matchdays(s)]
        assert [(c.season_year, c.matchday) for c in built] == matchdays
        # Every predictor, in the order given, gets the matchday's one context.
        expected = [(p.name, ctx) for ctx in built for p in predictors]
        assert [name for name, _ in calls] == [name for name, _ in expected]
        assert all(got is ctx for (_, got), (_, ctx) in zip(calls, expected))

    def test_repeated_name_refused_before_any_predictor_runs(self, two_seasons):
        # Reports are keyed by name, so a repeated name is refused here;
        # both report writers refuse one too.
        calls = []
        twin = RecordingPredictor("r", calls)
        predictors = [twin, build_predictor("trivial"), RecordingPredictor("r", calls)]
        with pytest.raises(ValueError, match="predictor name 'r' given twice"):
            evaluate(predictors, two_seasons)
        assert calls == []

    def test_joint_run_matches_each_predictor_alone(self, two_seasons):
        makers = [
            lambda: build_predictor("mn-dir2"),
            lambda: FailingOn(bad_matchday=7),
            lambda: build_predictor("bt"),
        ]
        joint = evaluate([make() for make in makers], two_seasons)
        assert [r.model for r in joint] == ["mn-dir2", "flaky", "bt"]
        for report, make in zip(joint, makers):
            alone = evaluate([make()], two_seasons)
            assert reports_to_json([report]) == reports_to_json(alone)
            assert reports_to_csv([report]) == reports_to_csv(alone)
        assert [(s.season, s.matchday) for s in joint[1].skipped_matchdays] == [
            (2013, 7),
            (2014, 7),
        ]
        assert not joint[0].skipped_matchdays and not joint[2].skipped_matchdays

    def test_mn_dir2_tunes_each_league_of_a_year_on_its_own_first_half(self, rng):
        league_a = simulate_played_season([f"t{k}" for k in range(6)], 2014, rng)
        league_b = simulate_played_season([f"u{k}" for k in range(6)], 2014, rng)
        joint = evaluate([build_predictor("mn-dir2")], [league_a, league_b])[0]
        a_alone, b_alone = (
            evaluate([build_predictor("mn-dir2")], [s])[0] for s in (league_a, league_b)
        )
        a, b = a_alone.settings_by_year[2014], b_alone.settings_by_year[2014]
        assert a != b  # the two leagues choose differently
        b_rows = [s for s in joint.per_match if s.match.home.startswith("u")]
        assert b_rows == list(b_alone.per_match)
        assert joint.settings_by_year == {
            2014: {key: f"{a[key]},{b[key]}" for key in ("w", "alpha")}
        }

    def test_mn_dir2_refuses_a_first_half_context_of_a_tuned_season(self, mid_season):
        predictor = build_predictor("mn-dir2")
        predictor.predict(context_for([mid_season], mid_season, 6))
        with pytest.raises(ValueError, match="matchday 5 is not in the second half"):
            predictor.predict(context_for([mid_season], mid_season, 5))


def poisson_forecast(strengths, home, away):
    return outcome_probs(link_rates(strengths, home, away))


def relabel(m, table):
    return dataclasses.replace(m, home=table[m.home], away=table[m.away])


def reverse_team_names(seasons):
    """``seasons`` with t0..t5 renamed r5..r0, so every order by team name is
    reversed; with the renaming and its inverse."""
    names = sorted({t for s in seasons for t in s.teams})
    rename = dict(zip(names, (f"r{k}" for k in reversed(range(len(names))))))
    back = {new: old for old, new in rename.items()}
    return [build_season([relabel(m, rename) for m in s.matches]) for s in seasons], rename, back


class TestRefitRows:
    """Each refit model is its engine's fit on its window, then the engine's forecast."""

    @pytest.mark.parametrize(
        "spec, window, fit, forecast",
        [
            ("bt", "season", bt_fit, bt_outcome_probs),
            ("poisson-lee", "season", poisson_fit, poisson_forecast),
            ("poisson-biv", "all", lambda m: poisson_fit(m, correlated=True), poisson_forecast),
        ],
    )
    def test_row_composition(self, spec, window, fit, forecast, two_seasons):
        earlier, season = two_seasons
        md = 7
        current = [m for m in season.matches if m.matchday < md]
        training = current if window == "season" else [*earlier.matches, *current]
        direct = fit(training)
        rolling = build_predictor(spec).predict(context_for(two_seasons, season, md))
        assert rolling.fit == direct
        assert len(rolling.predictions) == 3
        for fixture, prediction in rolling.predictions.items():
            assert prediction == forecast(direct.params, fixture.home, fixture.away)


    @pytest.mark.parametrize("spec", ["poisson-lee", "poisson-biv"])
    def test_renaming_teams_moves_no_poisson_prediction_past_1e_11(self, spec, two_seasons):
        # Reversed names eliminate another team by the zero-sum constraint and
        # add every sum in another order, so only rounding may move a fit.
        # Strengths drifting toward the box have no finite MLE and are exempt;
        # lambda3 = 0 fits are not.
        renamed, rename, _ = reverse_team_names(two_seasons)
        compared = []
        for season, moved_season in zip(two_seasons, renamed):
            for md in second_half_matchdays(season):
                a = build_predictor(spec).predict(context_for(two_seasons, season, md))
                b = build_predictor(spec).predict(context_for(renamed, moved_season, md))
                edge = "lambda3" in a.fit.boundary_flags
                assert edge == ("lambda3" in b.fit.boundary_flags)
                if set(a.fit.boundary_flags) - {"lambda3"}:
                    continue
                assert abs(a.fit.params.lambda3 - b.fit.params.lambda3) <= 1e-11
                assert len(a.predictions) == len(b.predictions) == 3
                for fixture, p in a.predictions.items():
                    q = b.predictions[relabel(fixture, rename)]
                    assert max(abs(x - y) for x, y in zip(p.as_tuple(), q.as_tuple())) <= 1e-11
                compared.append(edge)
        assert len(compared) >= 5


class TestCountRows:
    """Each count model is its engine's forecast on the season's venue tallies."""

    def test_row_composition(self, two_seasons):
        season = two_seasons[1]
        ctx = context_for(two_seasons, season, 7)
        home, away = tally_records(ctx.season_so_far)
        empty = CountVector()

        def direct(predict, *args):
            return {
                f: predict(home.get(f.home, empty), away.get(f.away, empty), *args)
                for f in ctx.fixtures
            }

        half = first_half_rounds(season.rounds)
        cfg = cv_select([m for m in season.matches if m.matchday <= half], GridSpec.default())
        settings = {"w": f"{cfg.w_home:.6f}", "alpha": f"{cfg.alpha:.6f}"}
        mn_dir1 = build_predictor("mn-dir1").predict(ctx)
        mn_dir2 = build_predictor("mn-dir2").predict(ctx)
        assert mn_dir1 == Forecast(direct(mn_dir1_predict), fit=None, settings={})
        assert mn_dir2 == Forecast(direct(mn_dir2_predict, cfg), fit=None, settings=settings)
        assert len(mn_dir1.predictions) == len(mn_dir2.predictions) == 3

    def test_renaming_teams_moves_no_count_model_bit(self, two_seasons, tmp_path, rng):
        renamed, rename, back = reverse_team_names(two_seasons)
        matches = [m for s in two_seasons for m in s.matches]
        probs = rng.dirichlet((2.0, 1.0, 1.5), len(matches)).tolist()

        def models(csv_name, table):
            path = tmp_path / csv_name
            rows = ["season,matchday,home,away,p1,p2,p3"]
            for m, p in zip(matches, probs):
                rows.append(",".join(map(str, (*fixture_key(relabel(m, table)), *p))))
            path.write_text("\n".join(rows) + "\n", encoding="utf-8")
            specs = ("trivial", "mn-dir1", "mn-dir2", f"external:{path}")
            return [build_predictor(spec) for spec in specs]

        same = {t: t for t in rename}
        original = evaluate(models("original.csv", same), two_seasons)
        moved = evaluate(models("renamed.csv", rename), renamed)
        assert len(original) == len(moved) == 4
        for a, b in zip(original, moved):
            assert len(a.per_match) == 30
            assert [(s.match, s.prediction.as_tuple()) for s in a.per_match] == [
                (relabel(s.match, back), s.prediction.as_tuple()) for s in b.per_match
            ]
            assert a.settings_by_year == b.settings_by_year
        assert set(original[2].settings_by_year) == {2013, 2014}


class TestReportContents:
    def test_per_year_breakdown(self, two_seasons):
        report = evaluate([build_predictor("trivial")], two_seasons)[0]
        assert [y.season for y in report.per_year] == [2013, 2014]
        assert all(y.n_scored == 15 for y in report.per_year)

    def test_gof_df_accumulates_across_seasons(self, two_seasons):
        report = evaluate([build_predictor("trivial")], two_seasons)[0]
        assert report.gof.df == sum(y.gof.df for y in report.per_year)

    def test_mn_dir2_settings_exported_six_decimals(self, two_seasons):
        report = evaluate([build_predictor("mn-dir2")], two_seasons)[0]
        assert set(report.settings_by_year) == {2013, 2014}
        for values in report.settings_by_year.values():
            assert set(values) == {"w", "alpha"}
            assert len(values["w"].split(".")[1]) == 6

    def test_a_reused_mn_dir2_reports_only_its_own_run(self):
        rng = np.random.default_rng(1)
        teams = [f"t{k}" for k in range(6)]
        predictor = build_predictor("mn-dir2")
        for year in (2001, 2002, 2002):
            season = simulate_played_season(teams, year, rng)
            reused = evaluate([predictor], [season])[0]
            fresh = evaluate([build_predictor("mn-dir2")], [season])[0]
            assert list(reused.settings_by_year) == [year]
            assert reused.settings_by_year == fresh.settings_by_year
            assert "," not in "".join(reused.settings_by_year[year].values())

    def test_se_positive_for_varying_scores(self, two_seasons):
        report = evaluate([build_predictor("mn-dir1")], two_seasons)[0]
        assert report.aggregates.brier.se_mean > 0.0
        assert report.aggregates.brier.se_total == pytest.approx(
            report.aggregates.brier.se_mean * report.aggregates.n_scored, rel=1e-12
        )

    def test_calibration_present_when_enough_pairs(self, two_seasons):
        report = evaluate([build_predictor("trivial")], two_seasons)[0]
        assert report.calibration is not None
        assert report.calibration.n_pairs == 90

    def test_all_models_run_together(self, two_seasons):
        predictors = [
            build_predictor("trivial"),
            build_predictor("mn-dir1"),
            build_predictor("bt"),
            build_predictor("poisson-lee"),
        ]
        reports = evaluate(predictors, two_seasons)
        assert [r.model for r in reports] == ["trivial", "mn-dir1", "bt", "poisson-lee"]
        for r in reports:
            assert r.aggregates.n_scored == 30

    def test_evaluate_is_deterministic(self, two_seasons):
        predictors = lambda: [build_predictor("trivial"), build_predictor("mn-dir1")]  # noqa: E731
        a = evaluate(predictors(), two_seasons)
        b = evaluate(predictors(), two_seasons)
        assert reports_to_json(a) == reports_to_json(b)
        assert reports_to_csv(a) == reports_to_csv(b)


class TestLateAppearingTeam:
    """A team first seen in the second half: count models fall back to the
    prior, fitting models fail that matchday and get flagged."""

    @pytest.fixture
    def season_with_newcomer(self, two_seasons):
        season = two_seasons[1]
        records = [m for m in season.matches if m.matchday != 7]
        records.append(
            type(records[0])(season.year, 7, "newcomer", "t0", 1, 0)
        )
        return [two_seasons[0], build_season(records)]

    def test_count_model_predicts_from_prior_alone(self, season_with_newcomer):
        from matchcast.data import CountVector, tally_records
        from matchcast.dirichlet import mn_dir1_predict

        report = evaluate([build_predictor("mn-dir1")], season_with_newcomer)[0]
        rows = [s for s in report.per_match if s.match.home == "newcomer"]
        assert len(rows) == 1
        assert not report.skipped_matchdays
        # No home history: the home observer is the flat prior, the away
        # observer is t0's actual away record before matchday 7.
        season = season_with_newcomer[1]
        earlier = [m for m in season.matches if m.matchday < 7]
        home, away = tally_records(earlier)
        assert "newcomer" not in home
        expected = mn_dir1_predict(CountVector(), away["t0"])
        assert rows[0].prediction == expected

    def test_fitting_model_skips_and_flags(self, season_with_newcomer):
        report = evaluate([build_predictor("bt")], season_with_newcomer)[0]
        assert any(s.matchday == 7 and s.season == 2014 for s in report.skipped_matchdays)
        assert report.aggregates.n_scored < 30


class TestExternalParsing:
    def test_rounded_rows_renormalized(self):
        text = "season,matchday,home,away,p1,p2,p3\n2014,20,A,B,0.333,0.333,0.333\n"
        table = parse_prediction_rows(text)
        p = table[(2014, 20, "a", "b")]
        assert sum(p.as_tuple()) == pytest.approx(1.0, abs=1e-12)

    def test_far_off_simplex_rejected(self):
        text = "season,matchday,home,away,p1,p2,p3\n2014,20,A,B,0.9,0.4,0.2\n"
        with pytest.raises(ValueError, match="not a distribution"):
            parse_prediction_rows(text)

    def test_duplicate_key_rejected(self):
        text = (
            "season,matchday,home,away,p1,p2,p3\n"
            "2014,20,A,B,0.5,0.3,0.2\n"
            "2014,20,a,b,0.5,0.3,0.2\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            parse_prediction_rows(text)

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("2014.5,20,A,B,0.5,0.3,0.2", "season/matchday must be integers: '2014.5', '20'"),
            ("2_014,20,A,B,0.5,0.3,0.2", "season/matchday must be integers: '2_014', '20'"),
            (
                "2014,\u0662\u0660,A,B,0.5,0.3,0.2",
                "season/matchday must be integers: '2014', '\u0662\u0660'",
            ),
            ("2014,20,A,B,0.4_5,0.3,0.25", "p1 is not a number: '0.4_5'"),
            ("2014,20,A,B,nan,0.5,0.5", "not a distribution"),
            ("2014,20,A,B,0.9,0.4,0.2", "not a distribution"),
            ("2014,20, ,B,0.5,0.3,0.2", "empty team name"),
            ("2014,20,a,b,0.5,0.3,0.2", "duplicate fixture (2014, 20, 'a', 'b'), first on line 2"),
        ],
        ids=[
            "non-integer-season", "underscore-season", "non-ascii-matchday", "underscore-p1",
            "nan", "off-simplex", "empty-team", "duplicate-key",
        ],
    )
    def test_malformed_row_refused_with_its_line(self, row, reason):
        text = "season,matchday,home,away,p1,p2,p3\n2014,20,A,B,0.5,0.3,0.2\n\n" + row + "\n"
        with pytest.raises(ValueError) as exc:
            parse_prediction_rows(text)
        assert str(exc.value).startswith("line 4: ")
        assert reason in str(exc.value)

    def test_build_predictor_specs(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("season,matchday,home,away,p1,p2,p3\n")
        for spec in ("trivial", "mn-dir1", "mn-dir2", "bt", "poisson-lee", "poisson-biv"):
            assert build_predictor(spec).name == spec
        assert build_predictor(f"external:{path}").name == f"external:{path}"
        with pytest.raises(ValueError, match="unknown model"):
            build_predictor("nope")

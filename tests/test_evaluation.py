import dataclasses
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import matchcast
import matchcast.evaluation as evaluation
from matchcast.data import Prediction, build_season, outcome_of, second_half_matchdays
from matchcast.davidson import bt_fit, bt_outcome_probs
from matchcast.evaluation import (
    Forecast,
    PredictionContext,
    SkippedMatchday,
    check_evaluable,
    context_for,
    evaluate,
)
from matchcast.predictors import (
    KNOWN_MODELS,
    MnDir1Predictor,
    MnDir2Predictor,
    TrivialPredictor,
    build_predictor,
    parse_prediction_rows,
)
from matchcast.poisson import link_rates, outcome_probs, poisson_fit
from matchcast.reports import reports_to_csv, reports_to_json, write_reports
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
                history=ctx.history + (leak,),
                fixtures=ctx.fixtures,
            )

    def test_later_season_in_history_rejected(self, two_seasons):
        season = two_seasons[0]
        ctx = context_for(two_seasons, season, 7)
        with pytest.raises(ValueError, match="leaks match data from matchday 1 of season 2014"):
            PredictionContext(
                season_year=season.year,
                matchday=7,
                season_rounds=season.rounds,
                history=ctx.history + two_seasons[1].matches_of(1),
                fixtures=ctx.fixtures,
            )

    def test_evaluate_contexts_equal_fresh_ones(self, two_seasons, rng):
        teams = [f"t{k}" for k in range(6)]
        others = [f"u{k}" for k in range(6)]
        # Years out of order, and two leagues sharing 2014 that must not see each other.
        seasons = [
            simulate_played_season(teams, 2015, rng),
            two_seasons[1],
            simulate_played_season(others, 2014, rng),
            two_seasons[0],
        ]
        calls = []
        evaluate([RecordingPredictor("r", calls)], seasons)
        ordered = sorted(seasons, key=lambda s: s.year)
        expected = [
            context_for(seasons, season, matchday)
            for season in ordered
            for matchday in second_half_matchdays(season)
        ]
        assert [ctx for _, ctx in calls] == expected

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
        # Seasons out of order, the current season's records split around an earlier one's.
        history = (
            s2014.matches_before(4)[:5]
            + s2013.matches[10:20]
            + s2014.matches_before(4)[5:]
            + s2013.matches[:10]
        )
        ctx = PredictionContext(2014, 4, s2014.rounds, history, ())
        want = tuple(r for r in history if r.season == 2014)
        assert len(want) == 9
        assert ctx.current_season_history() == want
        assert dataclasses.replace(ctx).current_season_history() == want
        assert PredictionContext(2015, 1, 10, history, ()).current_season_history() == ()

    def test_training_is_the_season_so_far_or_the_whole_history(self, two_seasons):
        earlier, season = two_seasons
        ctx = context_for(two_seasons, season, 6)
        current = ctx.training()
        assert current == season.matches_before(6)
        assert len(current) == 15  # matchdays 1..5, three matches each
        everything = ctx.training(all_seasons=True)
        assert everything == (*earlier.matches, *current)
        # The context's own tuples, not copies.
        assert current is ctx.current_season_history() and everything is ctx.history

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
        errors = []
        for refuse in (
            lambda: context_for(seasons, seasons[1], 6),
            lambda: PredictionContext(2014, 6, 10, (blank,), ()),
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
                history=ctx.history,
                fixtures=(season.matches_of(7)[0],),
            )


class TestTrivialBaseline:
    def test_exact_mean_scores(self, two_seasons):
        report = evaluate([TrivialPredictor()], two_seasons)[0]
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
        agg = evaluate([TrivialPredictor()], two_seasons)[0].aggregates
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
        reports = evaluate([oracle_predictor, TrivialPredictor()], two_seasons)
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
            evaluate([TrivialPredictor()], [two_seasons[0], broken])

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
            evaluate([TrivialPredictor()], [broken])

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
        predictors = [twin, TrivialPredictor(), RecordingPredictor("r", calls)]
        with pytest.raises(ValueError, match="predictor name 'r' given twice"):
            evaluate(predictors, two_seasons)
        assert calls == []

    def test_joint_run_matches_each_predictor_alone(self, two_seasons):
        makers = [
            MnDir2Predictor,
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
        joint = evaluate([MnDir2Predictor()], [league_a, league_b])[0]
        a_alone, b_alone = (evaluate([MnDir2Predictor()], [s])[0] for s in (league_a, league_b))
        a, b = a_alone.settings_by_year[2014], b_alone.settings_by_year[2014]
        assert a != b  # the two leagues choose differently
        b_rows = [s for s in joint.per_match if s.match.home.startswith("u")]
        assert b_rows == list(b_alone.per_match)
        assert joint.settings_by_year == {
            2014: {key: f"{a[key]},{b[key]}" for key in ("w", "alpha")}
        }

    def test_mn_dir2_refuses_a_first_half_context_of_a_tuned_season(self, mid_season):
        predictor = MnDir2Predictor()
        predictor.predict(context_for([mid_season], mid_season, 6))
        with pytest.raises(ValueError, match="matchday 5 is not in the second half"):
            predictor.predict(context_for([mid_season], mid_season, 5))


def poisson_forecast(strengths, home, away):
    return outcome_probs(link_rates(strengths, home, away))


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


class TestRefitPool:
    """The refit models' calls on worker processes give the inline reports."""

    @staticmethod
    def on_cpus(monkeypatch, cpus):
        # 2 starts a pool even on a one-CPU machine; 1 runs every call inline.
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: cpus)

    @staticmethod
    def record_bt_fit_pids(monkeypatch, path):
        """Make every ``bt_fit`` append its process id to ``path``; returns their reader."""
        import matchcast.predictors as predictors

        real = predictors.bt_fit

        def recording(matches):
            # The fork hands this patch to the workers; an append of one line is atomic.
            with open(path, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()}\n")
            return real(matches)

        monkeypatch.setattr(predictors, "bt_fit", recording)
        return lambda: {int(pid) for pid in path.read_text(encoding="utf-8").split()}

    def test_pooled_reports_equal_the_inline_ones_byte_for_byte(
        self, tmp_path, two_seasons, monkeypatch
    ):
        external = tmp_path / "oracle.csv"
        external.write_text(oracle_csv(two_seasons), encoding="utf-8")
        specs = (*KNOWN_MODELS, f"external:{external}")
        written = []
        for cpus in (2, 1):
            self.on_cpus(monkeypatch, cpus)
            fit_pids = self.record_bt_fit_pids(monkeypatch, tmp_path / f"bt-pids{cpus}")
            predictors = [build_predictor(spec) for spec in specs]
            reports = evaluate(predictors, two_seasons)
            # The external oracle's certain forecasts leave expected counts at zero.
            assert assert_zero_expected_terms_counted(reports[-1]) > 0
            assert multiprocessing.active_children() == []
            assert [r.model for r in reports] == list(specs)
            # A pooled refit is fitted in a worker, not in this process.
            pids = fit_pids()
            assert pids and (os.getpid() in pids) == (cpus == 1)
            paths = write_reports(reports, tmp_path / f"cpus{cpus}")
            written.append([path.read_bytes() for path in paths])
        assert written[0] == written[1]

    def test_no_worker_outlives_an_evaluate_that_raises(self, two_seasons, monkeypatch):
        self.on_cpus(monkeypatch, 2)

        def failing(match, prediction):
            raise RuntimeError("scoring failed")

        monkeypatch.setattr(evaluation, "score_match", failing)
        with pytest.raises(RuntimeError, match="scoring failed"):
            evaluate([build_predictor("bt"), build_predictor("poisson-biv")], two_seasons)
        assert multiprocessing.active_children() == []

    def test_refits_run_inline_while_another_thread_runs(
        self, tmp_path, two_seasons, monkeypatch
    ):
        self.on_cpus(monkeypatch, 2)
        fit_pids = self.record_bt_fit_pids(monkeypatch, tmp_path / "bt-pids")
        predictor = build_predictor("bt")
        caller = threading.Thread(target=evaluate, args=([predictor], two_seasons))
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert fit_pids() == {os.getpid()}  # fitted here, not in a worker

    def test_a_pooled_forecast_carries_the_inline_fit(self, two_seasons, monkeypatch):
        self.on_cpus(monkeypatch, 2)
        predictors = [build_predictor(spec) for spec in ("bt", "poisson-lee", "poisson-biv")]
        matchdays = [(s, d) for s in two_seasons for d in second_half_matchdays(s)]
        with evaluation._refit_pool(predictors, two_seasons, matchdays) as refits:
            assert len(refits) == len(matchdays) * len(predictors)
            for (k, i), future in refits.items():
                pooled = future.result()
                inline = predictors[i].predict(context_for(two_seasons, *matchdays[k]))
                assert pooled.fit is not None
                assert pooled == inline

    def test_a_fit_failing_in_a_worker_reads_as_inline(self, two_seasons, monkeypatch):
        import matchcast.predictors as predictors

        real = predictors.poisson_fit

        def failing(matches, **kwargs):
            # The fork hands this patch to the workers.
            if max((m.season, m.matchday) for m in matches) == (2014, 7):
                raise ValueError("no fit before 2014 matchday 8")
            return real(matches, **kwargs)

        monkeypatch.setattr(predictors, "poisson_fit", failing)
        runs = []
        for cpus in (2, 1):
            self.on_cpus(monkeypatch, cpus)
            specs = ("trivial", "mn-dir2", "bt", "poisson-lee", "poisson-biv")
            runs.append(evaluate([build_predictor(spec) for spec in specs], two_seasons))
        pooled, inline = runs
        assert reports_to_json(pooled) == reports_to_json(inline)
        assert reports_to_csv(pooled) == reports_to_csv(inline)
        skip = SkippedMatchday(2014, 8, "ValueError: no fit before 2014 matchday 8")
        assert [r.skipped_matchdays for r in pooled] == [(), (), (), (skip,), (skip,)]
        assert [r.aggregates.n_scored for r in pooled] == [30, 30, 30, 27, 27]

    def test_a_worker_that_dies_flags_its_matchdays_and_never_hangs(
        self, two_seasons, monkeypatch
    ):
        import matchcast.predictors as predictors

        parent = os.getpid()
        real = predictors.bt_fit

        def dying(matches):
            # A worker dies in the fit for 2014 matchday 10, the last one.
            if os.getpid() != parent and max((m.season, m.matchday) for m in matches) == (2014, 9):
                os._exit(3)
            return real(matches)

        def hung(signum, frame):
            raise TimeoutError("evaluate hung on a dead worker")

        monkeypatch.setattr(predictors, "bt_fit", dying)
        self.on_cpus(monkeypatch, 2)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            trivial, bt = evaluate([TrivialPredictor(), build_predictor("bt")], two_seasons)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []
        assert trivial.aggregates.n_scored == 30
        # Calls still unanswered when the pool broke are skipped, the dead one included.
        broken = [(s.season, s.matchday) for s in bt.skipped_matchdays]
        assert (2014, 10) in broken
        assert all(s.reason.startswith("BrokenProcessPool: ") for s in bt.skipped_matchdays)
        assert bt.aggregates.n_scored + 3 * len(broken) == 30

    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        # Each worker stalls in its first fit after writing its pid; the
        # parent then dies without running any cleanup.
        script = (
            "import os, sys, time\n"
            "import numpy as np\n"
            "import matchcast.evaluation as evaluation, matchcast.predictors as predictors\n"
            "from matchcast.selftest import simulate_played_season\n"
            "def stalled(matches):\n"
            "    open(os.path.join(sys.argv[1], str(os.getpid())), 'w').close()\n"
            "    time.sleep(120)\n"
            "evaluation._usable_cpus = lambda: 2\n"
            "predictors.bt_fit = stalled\n"
            "rng = np.random.default_rng(1)\n"
            "teams = [f't{k}' for k in range(4)]\n"
            "seasons = [simulate_played_season(teams, 2014, rng)]\n"
            "evaluation.evaluate([predictors.build_predictor('bt')], seasons)\n"
        )
        src = str(Path(matchcast.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        parent = subprocess.Popen([sys.executable, "-c", script, str(tmp_path)], env=env)
        try:
            deadline = time.monotonic() + 60
            while len(list(tmp_path.iterdir())) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
        finally:
            parent.kill()
            parent.wait()
        workers = [int(path.name) for path in tmp_path.iterdir()]
        assert len(workers) == 2

        def running(pid):
            # An exited worker nobody reaps lingers as a zombie ("Z").
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        deadline = time.monotonic() + 30
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in workers if running(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert not left


class TestReportContents:
    def test_per_year_breakdown(self, two_seasons):
        report = evaluate([TrivialPredictor()], two_seasons)[0]
        assert [y.season for y in report.per_year] == [2013, 2014]
        assert all(y.n_scored == 15 for y in report.per_year)

    def test_gof_df_accumulates_across_seasons(self, two_seasons):
        report = evaluate([TrivialPredictor()], two_seasons)[0]
        assert report.gof.df == sum(y.gof.df for y in report.per_year)

    def test_mn_dir2_settings_exported_six_decimals(self, two_seasons):
        report = evaluate([MnDir2Predictor()], two_seasons)[0]
        assert set(report.settings_by_year) == {2013, 2014}
        for values in report.settings_by_year.values():
            assert set(values) == {"w", "alpha"}
            assert len(values["w"].split(".")[1]) == 6

    def test_a_reused_mn_dir2_reports_only_its_own_run(self):
        rng = np.random.default_rng(1)
        teams = [f"t{k}" for k in range(6)]
        predictor = MnDir2Predictor()
        for year in (2001, 2002, 2002):
            season = simulate_played_season(teams, year, rng)
            reused = evaluate([predictor], [season])[0]
            fresh = evaluate([MnDir2Predictor()], [season])[0]
            assert list(reused.settings_by_year) == [year]
            assert reused.settings_by_year == fresh.settings_by_year
            assert "," not in "".join(reused.settings_by_year[year].values())

    def test_se_positive_for_varying_scores(self, two_seasons):
        report = evaluate([MnDir1Predictor()], two_seasons)[0]
        assert report.aggregates.brier.se_mean > 0.0
        assert report.aggregates.brier.se_total == pytest.approx(
            report.aggregates.brier.se_mean * report.aggregates.n_scored, rel=1e-12
        )

    def test_calibration_present_when_enough_pairs(self, two_seasons):
        report = evaluate([TrivialPredictor()], two_seasons)[0]
        assert report.calibration is not None
        assert report.calibration.n_pairs == 90

    def test_all_models_run_together(self, two_seasons):
        predictors = [
            TrivialPredictor(),
            MnDir1Predictor(),
            build_predictor("bt"),
            build_predictor("poisson-lee"),
        ]
        reports = evaluate(predictors, two_seasons)
        assert [r.model for r in reports] == ["trivial", "mn-dir1", "bt", "poisson-lee"]
        for r in reports:
            assert r.aggregates.n_scored == 30

    def test_evaluate_is_deterministic(self, two_seasons):
        predictors = lambda: [TrivialPredictor(), MnDir1Predictor()]  # noqa: E731
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

        report = evaluate([MnDir1Predictor()], season_with_newcomer)[0]
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
            ("2014,20,A,B,nan,0.5,0.5", "not a distribution"),
            ("2014,20,A,B,0.9,0.4,0.2", "not a distribution"),
            ("2014,20, ,B,0.5,0.3,0.2", "empty team name"),
            ("2014,20,a,b,0.5,0.3,0.2", "duplicate fixture (2014, 20, 'a', 'b'), first on line 2"),
        ],
        ids=["non-integer-season", "nan", "off-simplex", "empty-team", "duplicate-key"],
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

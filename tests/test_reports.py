import csv
import dataclasses
import io
import json
import math

import pytest

from matchcast.data import Outcome, Prediction, outcome_of
from matchcast.evaluation import (
    Aggregates,
    DistStats,
    Forecast,
    ScoredMatch,
    ScoreStats,
    SkippedMatchday,
    YearSummary,
    evaluate,
)
from matchcast.predictors import MnDir1Predictor, TrivialPredictor
from matchcast.reports import (
    SCORES_CSV_HEADER,
    reports_to_csv,
    reports_to_json,
    write_reports,
)
from matchcast.scoring import (
    NONFINITE,
    CalibrationBin,
    CalibrationTable,
    GofResult,
    SmoothedPoint,
)
from matchcast.selftest import simulate_played_season

TRICKY_TEAMS = ('say "hi" fc', "back\\slash", "comma, united", "ñandú", "東京", "[{brace}]")


def as_json_number(value):
    """The JSON form of a float: non-finite values are strings."""
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def check_json(reports, text):
    """report.json read back against the in-memory reports, field by field."""
    loaded = json.loads(text)
    # The layout is json.dumps's indent-2 form plus a newline, ASCII only.
    assert text == json.dumps(loaded, indent=2) + "\n"
    assert list(loaded) == [r.model for r in reports]
    for r in reports:
        got = loaded[r.model]
        assert list(got) == ["aggregates", "per_year", "calibration", "gof", "settings", "flags"]
        agg = got["aggregates"]
        assert agg["n_scored"] == r.aggregates.n_scored
        for rule in ("brier", "log", "spherical"):
            stats = getattr(r.aggregates, rule)
            assert agg[rule] == {
                "mean": as_json_number(stats.mean),
                "total": as_json_number(stats.total),
                "se_mean": as_json_number(stats.se_mean),
                "se_total": as_json_number(stats.se_total),
                "n": stats.n,
                "infinite": stats.infinite,
            }
        assert agg["proportion_of_errors"] == r.aggregates.proportion_of_errors
        assert agg["argmax_ties"] == r.aggregates.argmax_ties
        assert agg["entropy"]["median"] == r.aggregates.entropy.median
        assert agg["cond_home_win_absent"] == r.aggregates.cond_home_win_absent
        assert [(y["season"], y["n_scored"], y["log_mean"]) for y in got["per_year"]] == [
            (y.season, y.n_scored, as_json_number(y.log_mean)) for y in r.per_year
        ]
        assert got["gof"] == {
            "statistic": as_json_number(r.gof.statistic),
            "df": r.gof.df,
            "p_value": as_json_number(r.gof.p_value),
            "excluded_terms": r.gof.excluded_terms,
        }
        if r.calibration is None:
            assert got["calibration"] is None
        else:
            assert got["calibration"]["n_pairs"] == r.calibration.n_pairs
            assert len(got["calibration"]["bins"]) == len(r.calibration.bins)
        assert got["settings"] == {
            str(year): dict(values) for year, values in r.settings_by_year.items()
        }
        assert got["flags"] == {
            "skipped_matchdays": [
                {"season": s.season, "matchday": s.matchday, "reason": s.reason}
                for s in r.skipped_matchdays
            ],
            "missing_predictions": r.missing_predictions,
            "flagged_count": r.flagged_count,
        }


def reference_csv(reports):
    """scores.csv with every cell formatted by hand."""

    def cell(value):
        if value is None:
            return ""
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)

    def flag(value):
        return "1" if value else "0"

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SCORES_CSV_HEADER)
    for r in reports:
        for s in r.per_match:
            p = s.prediction
            writer.writerow(
                [r.model, s.match.season, s.match.matchday, s.match.home, s.match.away]
                + [cell(p.p_home), cell(p.p_draw), cell(p.p_away), s.outcome.value]
                + [cell(s.brier), cell(s.log), cell(s.spherical)]
                + [flag(s.top_choice_error), flag(s.top_choice_tied)]
                + [cell(s.entropy), cell(s.cond_home_win)]
            )
    return out.getvalue()


class Awkward:
    """Per fixture: zero on the realized outcome, a certain draw, or a plain triple.

    Raises on matchday 7, with quotes, a backslash and a non-ASCII letter
    in the reason.
    """

    name = 'awkward "model"'

    def __init__(self, seasons):
        self.outcomes = {
            (m.season, m.matchday, m.home, m.away): outcome_of(m)
            for s in seasons
            for m in s.matches
        }

    def predict(self, ctx):
        if ctx.matchday == 7:
            raise RuntimeError('bad "day" \\ ñ')
        out = {}
        for k, f in enumerate(ctx.fixtures):
            if k % 3 == 0:
                ps = [0.5, 0.5, 0.5]
                ps[self.outcomes[(f.season, f.matchday, f.home, f.away)] - 1] = 0.0
                out[f] = Prediction(*ps)
            elif k % 3 == 1:
                out[f] = Prediction(0.0, 1.0, 0.0)
            else:
                out[f] = Prediction(0.2, 0.3, 0.5)
        return Forecast(out)


@pytest.fixture
def tricky_seasons(rng):
    return [simulate_played_season(TRICKY_TEAMS, year, rng) for year in (2013, 2014)]


@pytest.fixture
def tricky_reports(tricky_seasons):
    return evaluate(
        [TrivialPredictor(), Awkward(tricky_seasons), MnDir1Predictor()], tricky_seasons
    )


def test_edge_cases_are_present(tricky_reports):
    awkward = tricky_reports[1]
    assert awkward.aggregates.log.infinite > 0
    assert awkward.aggregates.cond_home_win_absent > 0
    assert awkward.aggregates.argmax_ties > 0
    assert awkward.skipped_matchdays
    assert "\\u00f1" in reports_to_json(tricky_reports)


def test_matches_indent_2_encoding(tricky_reports):
    text = reports_to_json(tricky_reports)
    check_json(tricky_reports, text)
    assert '"per_match"' not in text


@pytest.mark.parametrize("pick", [[0], [1], [2], [0, 2, 1]])
def test_matches_indent_2_encoding_per_subset(tricky_reports, pick):
    reports = [tricky_reports[i] for i in pick]
    check_json(reports, reports_to_json(reports))


def test_csv_matches_hand_formatted_cells(tricky_reports):
    text = reports_to_csv(tricky_reports)
    assert text == reference_csv(tricky_reports)
    assert ",inf," in text and '"comma, united"' in text


# How each scores.csv column reads back; the rest are strings.
READ_BACK = {
    "season": int,
    "matchday": int,
    "p1": float,
    "p2": float,
    "p3": float,
    "outcome": lambda cell: Outcome(int(cell)),
    "brier": float,
    "log": float,
    "spherical": float,
    "top_choice_error": int,
    "top_choice_tied": lambda cell: {"0": False, "1": True}[cell],
    "entropy": float,
    "cond_home_win": lambda cell: None if cell == "" else float(cell),
}


def in_memory_row(model, s):
    m, p = s.match, s.prediction
    return {
        "model": model,
        "season": m.season,
        "matchday": m.matchday,
        "home": m.home,
        "away": m.away,
        "p1": p.p_home,
        "p2": p.p_draw,
        "p3": p.p_away,
        **{f.name: getattr(s, f.name) for f in dataclasses.fields(s)[2:]},
    }


def test_csv_reads_back_every_scored_match_field(tricky_reports):
    # The rows hold an inf log score, a None cond_home_win, argmax ties
    # and quoted, comma-bearing and non-ASCII team names. Every ScoredMatch
    # field but the match and prediction has its own column.
    assert [f.name for f in dataclasses.fields(ScoredMatch)][2:] == list(SCORES_CSV_HEADER[8:])
    reader = csv.reader(io.StringIO(reports_to_csv(tricky_reports)))
    assert tuple(next(reader)) == SCORES_CSV_HEADER
    rows = list(reader)
    expected = [in_memory_row(r.model, s) for r in tricky_reports for s in r.per_match]
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        got = {name: READ_BACK.get(name, str)(cell) for name, cell in zip(SCORES_CSV_HEADER, row)}
        for name in SCORES_CSV_HEADER:
            assert got[name] == want[name], (name, row)


def test_zero_reports():
    assert reports_to_json([]) == "{}\n"
    assert reports_to_csv([]) == reference_csv([])


def test_single_row_and_no_rows(tricky_reports):
    one = dataclasses.replace(tricky_reports[0], per_match=tricky_reports[0].per_match[:1])
    none = dataclasses.replace(tricky_reports[2], per_match=())
    check_json([one, none], reports_to_json([one, none]))
    text = reports_to_csv([one, none])
    assert text == reference_csv([one, none])
    assert len(text.splitlines()) == 2


def test_repeated_model_name_refused_by_both_writers(tricky_reports, tmp_path):
    # Refused, since report.json would hold one report and scores.csv both.
    trivial, awkward, mn_dir1 = tricky_reports
    reports = [trivial, awkward, dataclasses.replace(mn_dir1, model="trivial")]
    for writer in (reports_to_json, reports_to_csv):
        with pytest.raises(ValueError, match="predictor name 'trivial' given twice"):
            writer(reports)
    with pytest.raises(ValueError, match="given twice"):
        write_reports(reports, tmp_path)
    assert list(tmp_path.iterdir()) == []


# Every dataclass report.json is written from, below the model level.
REPORT_CLASSES = {
    cls.__name__: cls
    for cls in (
        Aggregates,
        ScoreStats,
        DistStats,
        YearSummary,
        GofResult,
        CalibrationTable,
        CalibrationBin,
        SmoothedPoint,
        SkippedMatchday,
    )
}


def float_fields(marked):
    return [
        f"{name}.{f.name}"
        for name, cls in REPORT_CLASSES.items()
        for f in dataclasses.fields(cls)
        if f.type == "float" and (f.metadata == NONFINITE) == marked
    ]


def with_field(node, cls, name, value):
    """``node`` with ``name`` set to ``value`` on its first ``cls`` instance, and its path.

    The path holds field names and tuple indexes, so it is also the
    instance's path in report.json below the model.
    """
    if isinstance(node, cls):
        return dataclasses.replace(node, **{name: value}), (name,)
    if isinstance(node, tuple):
        items = enumerate(node)
    elif dataclasses.is_dataclass(node):
        items = ((f.name, getattr(node, f.name)) for f in dataclasses.fields(node))
    else:
        return node, None
    for key, item in items:
        new, path = with_field(item, cls, name, value)
        if path is not None:
            if isinstance(node, tuple):
                return node[:key] + (new,) + node[key + 1 :], (key, *path)
            return dataclasses.replace(node, **{key: new}), (key, *path)
    return node, None


def report_classes_in(node):
    if isinstance(node, tuple):
        return set().union(*map(report_classes_in, node))
    if not dataclasses.is_dataclass(node):
        return set()
    return {type(node).__name__}.union(
        *(report_classes_in(getattr(node, f.name)) for f in dataclasses.fields(node))
    )


def test_report_classes_and_nonfinite_fields(tricky_reports):
    # The parametrisations below cover every class a report reaches, and
    # exactly the nine fields that may read "inf", "-inf" or "nan".
    below_model = tuple(
        (r.aggregates, r.per_year, r.calibration, r.gof, r.skipped_matchdays)
        for r in tricky_reports
    )
    assert report_classes_in(below_model) == set(REPORT_CLASSES)
    assert float_fields(marked=True) == [
        "ScoreStats.mean",
        "ScoreStats.total",
        "ScoreStats.se_mean",
        "ScoreStats.se_total",
        "YearSummary.log_mean",
        "GofResult.statistic",
        "GofResult.p_value",
        "SmoothedPoint.estimate",
        "SmoothedPoint.se",
    ]


@pytest.mark.parametrize("where", ["head", "per_year", *float_fields(marked=False)])
def test_nan_still_raises(tricky_reports, where):
    report = tricky_reports[2]
    if where == "head":
        table = dataclasses.replace(report.calibration, bandwidth=math.nan)
        report = dataclasses.replace(report, calibration=table)
    elif where == "per_year":
        year = dataclasses.replace(report.per_year[0], brier_mean=math.nan)
        report = dataclasses.replace(report, per_year=(year, *report.per_year[1:]))
    else:
        cls, name = where.split(".")
        report, path = with_field(report, REPORT_CLASSES[cls], name, math.nan)
        assert path is not None
    with pytest.raises(ValueError):
        reports_to_json([report])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=str)
@pytest.mark.parametrize("where", float_fields(marked=True))
def test_nonfinite_field_written_as_string(tricky_reports, where, value):
    report = tricky_reports[2]
    cls, name = where.split(".")
    changed, path = with_field(report, REPORT_CLASSES[cls], name, value)
    want = json.loads(reports_to_json([report]))
    node = want[report.model]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = str(value)
    assert json.loads(reports_to_json([changed])) == want

import csv
import dataclasses
import io
import json
import math

import pytest

from matchcast.data import Prediction, outcome_of
from matchcast.evaluation import evaluate
from matchcast.predictors import MnDir1Predictor, TrivialPredictor
from matchcast.reports import (
    SCORES_CSV_HEADER,
    _match_dict,
    _report_head,
    reports_to_csv,
    reports_to_json,
)
from matchcast.selftest import simulate_played_season

# The awkward predictor leaves some expected win counts at zero.
pytestmark = pytest.mark.filterwarnings("ignore:.*zero-expected-count terms:UserWarning")

TRICKY_TEAMS = ('say "hi" fc', "back\\slash", "comma, united", "ñandú", "東京", "[{brace}]")


def reference_json(reports):
    """The indent-2 encoding of the whole payload, as report.json was always written."""
    payload = {
        r.model: {**_report_head(r), "per_match": [_match_dict(s) for s in r.per_match]}
        for r in reports
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def reference_csv(reports):
    """scores.csv as first written: every float cell formatted by hand."""

    def cell(value):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)

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
        return out


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
    assert awkward.skipped_matchdays
    assert "\\u00f1" in reports_to_json(tricky_reports)


def test_matches_indent_2_encoding(tricky_reports):
    assert reports_to_json(tricky_reports) == reference_json(tricky_reports)


@pytest.mark.parametrize("pick", [[0], [1], [2], [0, 2, 1]])
def test_matches_indent_2_encoding_per_subset(tricky_reports, pick):
    reports = [tricky_reports[i] for i in pick]
    assert reports_to_json(reports) == reference_json(reports)


def test_csv_matches_hand_formatted_cells(tricky_reports):
    text = reports_to_csv(tricky_reports)
    assert text == reference_csv(tricky_reports)
    assert ",inf," in text and '"comma, united"' in text


def test_zero_reports():
    assert reports_to_json([]) == reference_json([]) == "{}\n"
    assert reports_to_csv([]) == reference_csv([])


def test_single_row_and_no_rows(tricky_reports):
    one = dataclasses.replace(tricky_reports[0], per_match=tricky_reports[0].per_match[:1])
    none = dataclasses.replace(tricky_reports[2], per_match=())
    assert reports_to_json([one, none]) == reference_json([one, none])


def test_repeated_model_name_keeps_first_position_and_last_report(tricky_reports):
    trivial, awkward, mn_dir1 = tricky_reports
    again = dataclasses.replace(mn_dir1, model="trivial")
    reports = [trivial, awkward, again]
    text = reports_to_json(reports)
    assert text == reference_json(reports)
    assert text.count('"trivial":') == 1
    payload = json.loads(text)
    assert list(payload) == ["trivial", 'awkward "model"']
    assert payload["trivial"]["per_match"][0]["p1"] == mn_dir1.per_match[0].prediction.p_home


@pytest.mark.parametrize("where", ["row", "head"])
def test_nan_still_raises(tricky_reports, where):
    report = tricky_reports[2]
    if where == "row":
        rows = list(report.per_match)
        rows[3] = dataclasses.replace(rows[3], brier=math.nan)
        report = dataclasses.replace(report, per_match=tuple(rows))
    else:
        table = dataclasses.replace(report.calibration, bandwidth=math.nan)
        report = dataclasses.replace(report, calibration=table)
    with pytest.raises(ValueError):
        reference_json([report])
    with pytest.raises(ValueError):
        reports_to_json([report])

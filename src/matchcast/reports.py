"""Deterministic report files: JSON per model, flat per-match CSV, text summary.

The writers keep key order and float formatting fixed so that two runs over
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Iterator, Sequence

from .data import fixture_key, format_csv, write_csv
from .evaluation import ModelReport, check_unique_names
from .scoring import NONFINITE

SCORES_CSV_HEADER = (
    "model",
    "season",
    "matchday",
    "home",
    "away",
    "p1",
    "p2",
    "p3",
    "outcome",
    "brier",
    "log",
    "spherical",
    "top_choice_error",
    "top_choice_tied",
    "entropy",
    "cond_home_win",
)


def _plain(value: object, nonfinite: bool = False) -> object:
    """A report dataclass as a dict of its fields in declaration order, a tuple as a list.

    JSON has no Infinity or NaN literals: a field marked ``NONFINITE`` writes
    them as the strings "inf", "-inf" and "nan". Anywhere else they reach
    ``json.dumps(allow_nan=False)``, which refuses them.
    """
    if nonfinite and not math.isfinite(value):
        return str(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {
            f.name: _plain(getattr(value, f.name), f.metadata == NONFINITE)
            for f in dataclasses.fields(value)
        }
    return value


def _report_dict(report: ModelReport) -> dict:
    # The model level is not one dataclass: settings are keyed by year, and
    # flags carry the derived flagged_count.
    return {
        "aggregates": _plain(report.aggregates),
        "per_year": _plain(report.per_year),
        "calibration": _plain(report.calibration),
        "gof": _plain(report.gof),
        "settings": {
            str(year): dict(values)
            for year, values in sorted(report.settings_by_year.items())
        },
        "flags": {
            "skipped_matchdays": _plain(report.skipped_matchdays),
            "missing_predictions": report.missing_predictions,
            "flagged_count": report.flagged_count,
        },
    }


def reports_to_json(reports: Sequence[ModelReport]) -> str:
    """One object keyed by model name, indented by 2; rows live in ``scores.csv``.

    A repeated model name raises ``ValueError``, as does NaN
    (``allow_nan=False``).
    """
    check_unique_names([r.model for r in reports])
    payload = {r.model: _report_dict(r) for r in reports}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _score_rows(reports: Sequence[ModelReport]) -> Iterator[tuple]:
    """``scores.csv``'s rows below its header: every scored match of every model."""
    for report in reports:
        for s in report.per_match:
            yield (
                report.model,
                *fixture_key(s.match),
                s.prediction.p_home,
                s.prediction.p_draw,
                s.prediction.p_away,
                int(s.outcome),
                s.brier,
                s.log,
                s.spherical,
                s.top_choice_error,
                int(s.top_choice_tied),
                s.entropy,
                "" if s.cond_home_win is None else s.cond_home_win,
            )


def reports_to_csv(reports: Sequence[ModelReport]) -> str:
    """Every scored match of every model, one row each, headed by ``SCORES_CSV_HEADER``.

    A repeated model name raises ``ValueError``.
    """
    check_unique_names([r.model for r in reports])
    return format_csv(SCORES_CSV_HEADER, _score_rows(reports))


def write_reports(reports: Sequence[ModelReport], out_dir: str | Path) -> tuple[Path, Path]:
    """Write ``report.json`` and ``scores.csv``; returns the two paths.

    ``scores.csv`` is written a row at a time, in the bytes of
    :func:`reports_to_csv`.  A repeated model name raises ``ValueError``
    before either file is opened.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    csv_path = out / "scores.csv"
    json_path.write_text(reports_to_json(reports), encoding="utf-8")
    with csv_path.open("w", encoding="utf-8", newline="") as f:
        write_csv(f, SCORES_CSV_HEADER, _score_rows(reports))
    return json_path, csv_path


def summary_table(reports: Sequence[ModelReport]) -> str:
    """Per-model one-liners: mean scores, error proportion, goodness of fit."""
    width = max([24] + [len(r.model) for r in reports])
    header = (
        f"{'model':<{width}} {'n':>5} {'brier':>8} {'log':>8} {'spher':>8} "
        f"{'errors':>8} {'gof':>8} {'df':>4} {'p':>8} {'flags':>6}"
    )
    lines = [header, "-" * len(header)]
    for r in reports:
        a = r.aggregates
        lines.append(
            f"{r.model:<{width}} {a.n_scored:>5} {a.brier.mean:>8.4f} {a.log.mean:>8.4f} "
            f"{a.spherical.mean:>8.4f} {a.proportion_of_errors:>8.4f} "
            f"{r.gof.statistic:>8.2f} {r.gof.df:>4} {r.gof.p_value:>8.4f} "
            f"{r.flagged_count:>6}"
        )
    return "\n".join(lines) + "\n"

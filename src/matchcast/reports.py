"""Deterministic report files: JSON per model, flat per-match CSV, text summary.

The writers keep key order and float formatting fixed so that two runs over
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

from .data import format_csv
from .evaluation import DistStats, ModelReport, ScoreStats, check_unique_names
from .scoring import CalibrationTable, GofResult

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


def _num(value: float | None) -> float | str | None:
    # JSON has no Infinity/NaN literals; encode them as strings.
    if value is None or math.isfinite(value):
        return value
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def _stats_dict(stats: ScoreStats) -> dict:
    return {
        "mean": _num(stats.mean),
        "total": _num(stats.total),
        "se_mean": _num(stats.se_mean),
        "se_total": _num(stats.se_total),
        "n": stats.n,
        "infinite": stats.infinite,
    }


def _dist_dict(stats: DistStats) -> dict:
    return {
        "mean": stats.mean,
        "min": stats.minimum,
        "q25": stats.q25,
        "median": stats.median,
        "q75": stats.q75,
        "max": stats.maximum,
    }


def _gof_dict(gof: GofResult) -> dict:
    return {
        "statistic": _num(gof.statistic),
        "df": gof.df,
        "p_value": _num(gof.p_value),
        "excluded_terms": gof.excluded_terms,
    }


def _calibration_dict(table: CalibrationTable | None) -> dict | None:
    if table is None:
        return None
    return {
        "n_pairs": table.n_pairs,
        "bandwidth": table.bandwidth,
        "bins": [
            {
                "lo": b.lo,
                "hi": b.hi,
                "n": b.n,
                "mean_prob": b.mean_prob,
                "event_rate": b.event_rate,
                "se": b.se,
            }
            for b in table.bins
        ],
        "smoothed": [
            {"prob": p.prob, "estimate": _num(p.estimate), "se": _num(p.se)}
            for p in table.smoothed
        ],
    }


def _report_dict(report: ModelReport) -> dict:
    agg = report.aggregates
    return {
        "aggregates": {
            "n_scored": agg.n_scored,
            "brier": _stats_dict(agg.brier),
            "log": _stats_dict(agg.log),
            "spherical": _stats_dict(agg.spherical),
            "proportion_of_errors": agg.proportion_of_errors,
            "argmax_ties": agg.argmax_ties,
            "entropy": _dist_dict(agg.entropy),
            "cond_home_win": (
                None if agg.cond_home_win is None else _dist_dict(agg.cond_home_win)
            ),
            "cond_home_win_absent": agg.cond_home_win_absent,
        },
        "per_year": [
            {
                "season": y.season,
                "n_scored": y.n_scored,
                "brier_mean": y.brier_mean,
                "log_mean": _num(y.log_mean),
                "spherical_mean": y.spherical_mean,
                "proportion_of_errors": y.proportion_of_errors,
                "entropy_mean": y.entropy_mean,
                "gof": _gof_dict(y.gof),
            }
            for y in report.per_year
        ],
        "calibration": _calibration_dict(report.calibration),
        "gof": _gof_dict(report.gof),
        "settings": {
            str(year): dict(values)
            for year, values in sorted(report.settings_by_year.items())
        },
        "flags": {
            "skipped_matchdays": [
                {"season": s.season, "matchday": s.matchday, "reason": s.reason}
                for s in report.skipped_matchdays
            ],
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


def reports_to_csv(reports: Sequence[ModelReport]) -> str:
    """Every scored match of every model, one row each, headed by ``SCORES_CSV_HEADER``.

    A repeated model name raises ``ValueError``.
    """
    check_unique_names([r.model for r in reports])
    return format_csv(
        SCORES_CSV_HEADER,
        (
            (
                report.model,
                s.match.season,
                s.match.matchday,
                s.match.home,
                s.match.away,
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
            for report in reports
            for s in report.per_match
        ),
    )


def write_reports(reports: Sequence[ModelReport], out_dir: str | Path) -> tuple[Path, Path]:
    """Write ``report.json`` and ``scores.csv``; returns the two paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    csv_path = out / "scores.csv"
    json_path.write_text(reports_to_json(reports), encoding="utf-8")
    csv_path.write_text(reports_to_csv(reports), encoding="utf-8")
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

"""Rolling second-half evaluation harness.

Every predictor is driven through the same protocol: for each second-half
matchday of each season it receives a :class:`PredictionContext` exposing
only strictly earlier results (plus the matchday's fixtures with goals
stripped) and returns a probability triple per fixture.  The context is
the leakage guard: a predictor cannot read the outcome of any match it is
asked to forecast, because that information never crosses the interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from .data import (
    MatchRecord,
    Outcome,
    Prediction,
    Season,
    first_half_rounds,
    outcome_of,
    second_half_matchdays,
)
from .scoring import (
    CalibrationTable,
    GofResult,
    brier,
    calibration_curve,
    chi_square_gof,
    cond_home_win_given_no_draw,
    entropy,
    log_score,
    spherical,
    top_choice_error,
)


@dataclass(frozen=True)
class PredictionContext:
    """Everything a predictor may see when forecasting one matchday.

    ``history`` holds played matches strictly before the target matchday
    (earlier seasons included, for models with long training windows);
    ``fixtures`` are the target matchday's pairings with goals stripped.
    Construction enforces both properties.
    """

    season_year: int
    matchday: int
    season_rounds: int
    history: tuple[MatchRecord, ...]
    fixtures: tuple[MatchRecord, ...]
    _current: tuple[MatchRecord, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        year, matchday = self.season_year, self.matchday
        current = []
        for r in self.history:
            if r.home_goals is None:
                raise ValueError(f"history contains an unplayed match: {r}")
            season = r.season
            if season < year:
                continue
            if season == year and r.matchday < matchday:
                current.append(r)
            else:
                raise ValueError(
                    f"history leaks match data from matchday {r.matchday} "
                    f"of season {r.season}"
                )
        object.__setattr__(self, "_current", tuple(current))
        for f in self.fixtures:
            if f.played:
                raise ValueError(f"fixture carries a result: {f}")
            if f.season != self.season_year or f.matchday != self.matchday:
                raise ValueError(f"fixture outside the target matchday: {f}")

    def current_season_history(self) -> tuple[MatchRecord, ...]:
        """The history's records of the target season, in history order."""
        return self._current


@runtime_checkable
class Predictor(Protocol):
    """A named model that maps a context to one prediction per fixture."""

    name: str

    def predict(self, ctx: PredictionContext) -> Mapping[MatchRecord, Prediction]:
        ...


def _played(season: Season) -> tuple[MatchRecord, ...]:
    return tuple(m for m in season.matches if m.home_goals is not None)


def context_for(
    seasons: Sequence[Season],
    season: Season,
    matchday: int,
    earlier: tuple[MatchRecord, ...] | None = None,
) -> PredictionContext:
    """Build the context for one matchday from a full dataset.

    ``earlier``, when given, must be the played records of every season
    before ``season``'s year, in year order: what this function would
    gather from ``seasons`` itself.
    """
    if earlier is None:
        earlier = tuple(
            m
            for other in sorted(seasons, key=lambda s: s.year)
            if other.year < season.year
            for m in _played(other)
        )
    fixtures = tuple(m.scheduled_copy() for m in season.matches_of(matchday))
    return PredictionContext(
        season_year=season.year,
        matchday=matchday,
        season_rounds=season.rounds,
        history=earlier + season.played_before(matchday),
        fixtures=fixtures,
    )


@dataclass(frozen=True)
class ScoredMatch:
    """One second-half match scored under every rule."""

    match: MatchRecord
    prediction: Prediction
    outcome: Outcome
    brier: float
    log: float
    spherical: float
    top_choice_error: int
    top_choice_tied: bool
    entropy: float
    cond_home_win: float | None


@dataclass(frozen=True)
class ScoreStats:
    """Mean and total of one rule with standard errors (finite entries only)."""

    mean: float
    total: float
    se_mean: float
    se_total: float
    n: int
    infinite: int = 0


@dataclass(frozen=True)
class DistStats:
    mean: float
    minimum: float
    q25: float
    median: float
    q75: float
    maximum: float


@dataclass(frozen=True)
class Aggregates:
    n_scored: int
    brier: ScoreStats
    log: ScoreStats
    spherical: ScoreStats
    proportion_of_errors: float
    argmax_ties: int
    entropy: DistStats
    cond_home_win: DistStats | None
    cond_home_win_absent: int


@dataclass(frozen=True)
class YearSummary:
    season: int
    n_scored: int
    brier_mean: float
    log_mean: float
    spherical_mean: float
    proportion_of_errors: float
    entropy_mean: float
    gof: GofResult


@dataclass(frozen=True)
class SkippedMatchday:
    season: int
    matchday: int
    reason: str


@dataclass(frozen=True)
class ModelReport:
    """Scores and diagnostics for one predictor over the evaluation window."""

    model: str
    per_match: tuple[ScoredMatch, ...]
    aggregates: Aggregates
    per_year: tuple[YearSummary, ...]
    calibration: CalibrationTable | None
    gof: GofResult
    settings_by_year: Mapping[int, Mapping[str, str]]
    skipped_matchdays: tuple[SkippedMatchday, ...]
    missing_predictions: int

    @property
    def flagged_count(self) -> int:
        return (
            len(self.skipped_matchdays)
            + self.missing_predictions
            + self.aggregates.log.infinite
            + self.aggregates.argmax_ties
        )


def _score_stats(values: Sequence[float]) -> ScoreStats:
    finite = np.asarray([v for v in values if math.isfinite(v)], dtype=float)
    infinite = len(values) - finite.size
    if finite.size == 0:
        return ScoreStats(math.nan, math.nan, math.nan, math.nan, 0, infinite)
    sd = float(np.std(finite, ddof=1)) if finite.size > 1 else 0.0
    root_n = math.sqrt(finite.size)
    return ScoreStats(
        mean=float(finite.mean()),
        total=float(finite.sum()),
        se_mean=sd / root_n,
        se_total=sd * root_n,
        n=int(finite.size),
        infinite=infinite,
    )


def _dist_stats(values: Sequence[float]) -> DistStats:
    arr = np.asarray(values, dtype=float)
    q25, median, q75 = (float(q) for q in np.quantile(arr, [0.25, 0.5, 0.75]))
    return DistStats(
        mean=float(arr.mean()),
        minimum=float(arr.min()),
        q25=q25,
        median=median,
        q75=q75,
        maximum=float(arr.max()),
    )


def score_match(match: MatchRecord, prediction: Prediction) -> ScoredMatch:
    """Apply every rule to one played match."""
    outcome = outcome_of(match)
    error, tied = top_choice_error(outcome, prediction)
    return ScoredMatch(
        match=match,
        prediction=prediction,
        outcome=outcome,
        brier=brier(outcome, prediction),
        log=log_score(outcome, prediction),
        spherical=spherical(outcome, prediction),
        top_choice_error=error,
        top_choice_tied=tied,
        entropy=entropy(prediction),
        cond_home_win=cond_home_win_given_no_draw(prediction),
    )


def _aggregate(scored: Sequence[ScoredMatch]) -> Aggregates:
    cond_values = [s.cond_home_win for s in scored if s.cond_home_win is not None]
    return Aggregates(
        n_scored=len(scored),
        brier=_score_stats([s.brier for s in scored]),
        log=_score_stats([s.log for s in scored]),
        spherical=_score_stats([s.spherical for s in scored]),
        proportion_of_errors=sum(s.top_choice_error for s in scored) / len(scored),
        argmax_ties=sum(1 for s in scored if s.top_choice_tied),
        entropy=_dist_stats([s.entropy for s in scored]),
        cond_home_win=_dist_stats(cond_values) if cond_values else None,
        cond_home_win_absent=len(scored) - len(cond_values),
    )


def _year_summary(year: int, scored: Sequence[ScoredMatch]) -> YearSummary:
    finite_logs = [s.log for s in scored if math.isfinite(s.log)]
    return YearSummary(
        season=year,
        n_scored=len(scored),
        brier_mean=float(np.mean([s.brier for s in scored])),
        log_mean=float(np.mean(finite_logs)) if finite_logs else math.nan,
        spherical_mean=float(np.mean([s.spherical for s in scored])),
        proportion_of_errors=sum(s.top_choice_error for s in scored) / len(scored),
        entropy_mean=float(np.mean([s.entropy for s in scored])),
        gof=chi_square_gof([(s.match, s.prediction) for s in scored]),
    )


def check_evaluable(seasons: Sequence[Season]) -> None:
    """A season with a second half must be fully played.

    Second-half matches are scored, and every refit before them must see
    the whole earlier record of its season, as ``matchcast predict``
    demands: an unplayed first-half match would leave the refits and the
    ``mn-dir2`` tuning short of it without any flag.
    """
    for season in seasons:
        matchdays = second_half_matchdays(season)
        m = next((m for m in season.matches if not m.played), None)
        if m is None or not matchdays:
            continue
        if m.matchday > first_half_rounds(season.rounds):
            raise ValueError(
                f"season {season.year} matchday {m.matchday}: unplayed match "
                f"{m.home} vs {m.away}"
            )
        raise ValueError(
            f"season {season.year}: unplayed matches before matchday {matchdays[0]} "
            f"({m.home} vs {m.away} on matchday {m.matchday})"
        )


def evaluate(
    predictors: Sequence[Predictor],
    seasons: Sequence[Season],
    *,
    calibration_bins: int = 10,
) -> list[ModelReport]:
    """Score every predictor over the second half of every season.

    Each second-half matchday gets one context, handed to every predictor
    in the order given, so all models are refit from the same earlier
    results.  Predictors are refit/updated per their own protocol through
    that context; a predictor failure on a matchday skips that matchday for
    that predictor (flagged) and the run continues.  Reports come back in
    the predictor order given, each covering all seasons with a per-year
    breakdown.  A predictor that produced no prediction at all gets no
    report, so one empty model never costs the others theirs.
    """
    ordered_seasons = sorted(seasons, key=lambda s: s.year)
    check_evaluable(ordered_seasons)
    scored_by: list[list[ScoredMatch]] = [[] for _ in predictors]
    skipped_by: list[list[SkippedMatchday]] = [[] for _ in predictors]
    missing_by = [0] * len(predictors)
    earlier: tuple[MatchRecord, ...] = ()  # played records of the seasons before
    folded = 0
    for season in ordered_seasons:
        while ordered_seasons[folded].year < season.year:
            earlier += _played(ordered_seasons[folded])
            folded += 1
        for matchday in second_half_matchdays(season):
            ctx = context_for(ordered_seasons, season, matchday, earlier)
            matches = season.matches_of(matchday)
            for i, predictor in enumerate(predictors):
                try:
                    predictions = predictor.predict(ctx)
                except Exception as exc:  # noqa: BLE001 - predictor failures are data
                    skipped_by[i].append(
                        SkippedMatchday(season.year, matchday, f"{type(exc).__name__}: {exc}")
                    )
                    continue
                for fixture, match in zip(ctx.fixtures, matches):
                    prediction = predictions.get(fixture)
                    if prediction is None:
                        missing_by[i] += 1
                        continue
                    scored_by[i].append(score_match(match, prediction))
    reports = []
    for predictor, scored, skipped, missing in zip(predictors, scored_by, skipped_by, missing_by):
        if not scored:
            continue

        by_year: dict[int, list[ScoredMatch]] = {}
        for s in scored:
            by_year.setdefault(s.match.season, []).append(s)
        per_year = tuple(_year_summary(y, by_year[y]) for y in sorted(by_year))
        gof = per_year[0].gof
        for summary in per_year[1:]:
            gof = gof + summary.gof

        pairs = [(s.outcome, s.prediction) for s in scored]
        calibration = None
        if len(pairs) * 3 >= 30:
            calibration = calibration_curve(pairs, bins=calibration_bins)

        settings: Mapping[int, Mapping[str, str]] = {}
        exporter = getattr(predictor, "settings_by_year", None)
        if callable(exporter):
            settings = exporter()

        reports.append(
            ModelReport(
                model=predictor.name,
                per_match=tuple(scored),
                aggregates=_aggregate(scored),
                per_year=per_year,
                calibration=calibration,
                gof=gof,
                settings_by_year=settings,
                skipped_matchdays=tuple(skipped),
                missing_predictions=missing,
            )
        )
    return reports

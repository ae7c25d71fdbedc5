"""Rolling second-half evaluation harness.

Every predictor is driven through the same protocol: for each second-half
matchday of each season it receives a :class:`PredictionContext` exposing
only strictly earlier results (plus the matchday's fixtures with goals
stripped) and returns a :class:`Forecast` of them.  The context is the
leakage guard: a predictor cannot read the outcome of any match it is
asked to forecast, because that information never crosses the interface.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Protocol, Sequence

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
from .optimize import FitReport
from .scoring import (
    NONFINITE,
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


def _unplayed(m: MatchRecord) -> ValueError:
    """The one refusal of an unplayed match that a forecast would read or score."""
    return ValueError(
        f"season {m.season} matchday {m.matchday}: unplayed match {m.home} vs {m.away}"
    )


@dataclass(frozen=True)
class PredictionContext:
    """Everything a predictor may see when forecasting one matchday.

    ``history`` holds played matches strictly before the target matchday
    (earlier seasons included, for models with long training windows);
    ``fixtures`` are the target matchday's pairings with goals stripped.
    Construction enforces both properties: an unplayed history record is
    refused, never dropped, so no forecast reads a shortened record.
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
                raise _unplayed(r)
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

    def training(self, all_seasons: bool = False) -> tuple[MatchRecord, ...]:
        """The played matches a refit for this matchday may use.

        The current season so far, or with ``all_seasons`` the whole
        history.  Refits serve second-half matchdays only, as the
        evaluation protocol prescribes.
        """
        if self.matchday <= first_half_rounds(self.season_rounds):
            raise ValueError(f"matchday {self.matchday} is not in the second half")
        return self.history if all_seasons else self._current


@dataclass(frozen=True)
class Forecast:
    """One ``predict`` call's triple per forecast fixture, the refit behind
    them (if any), and the settings chosen for the season (listed by year)."""

    predictions: Mapping[MatchRecord, Prediction]
    fit: FitReport | None = None
    settings: Mapping[str, str] = field(default_factory=dict)


class Predictor(Protocol):
    """A named model that maps a context to a :class:`Forecast` of its fixtures.

    A predictor may set ``parallel_refit = True`` when each call reads only
    its context and the predictor's settings: ``evaluate`` may then make
    its calls in worker processes, and each forecast comes back whole.
    """

    name: str

    def predict(self, ctx: PredictionContext) -> Forecast:
        ...


def context_for(seasons: Sequence[Season], season: Season, matchday: int) -> PredictionContext:
    """Build the context for one matchday from a full dataset.

    The history is every record of every season of an earlier year, in
    year order, then ``season``'s own records before ``matchday``.  None is
    filtered out: the context refuses the history if one is unplayed.
    """
    earlier = (s.matches for s in sorted(seasons, key=lambda s: s.year) if s.year < season.year)
    fixtures = tuple(m.scheduled_copy() for m in season.matches_of(matchday))
    return PredictionContext(
        season_year=season.year,
        matchday=matchday,
        season_rounds=season.rounds,
        history=tuple(chain(*earlier, season.matches_before(matchday))),
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

    mean: float = field(metadata=NONFINITE)
    total: float = field(metadata=NONFINITE)
    se_mean: float = field(metadata=NONFINITE)
    se_total: float = field(metadata=NONFINITE)
    n: int
    infinite: int = 0


@dataclass(frozen=True)
class DistStats:
    mean: float
    min: float
    q25: float
    median: float
    q75: float
    max: float


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
    log_mean: float = field(metadata=NONFINITE)
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


def check_unique_names(names: Sequence[str]) -> None:
    """Refuse a repeated name: reports are keyed by name, one name one report."""
    repeated = next((n for i, n in enumerate(names) if n in names[:i]), None)
    if repeated is not None:
        raise ValueError(f"predictor name {repeated!r} given twice")


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
        min=float(arr.min()),
        q25=q25,
        median=median,
        q75=q75,
        max=float(arr.max()),
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
    agg = _aggregate(scored)
    return YearSummary(
        season=year,
        n_scored=agg.n_scored,
        brier_mean=agg.brier.mean,
        log_mean=agg.log.mean,
        spherical_mean=agg.spherical.mean,
        proportion_of_errors=agg.proportion_of_errors,
        entropy_mean=agg.entropy.mean,
        gof=chi_square_gof([(s.match, s.prediction) for s in scored]),
    )


def check_evaluable(seasons: Sequence[Season]) -> None:
    """Refuse, before anything runs, an archive ``evaluate`` cannot score.

    It needs a second-half matchday.  Second-half matches are scored, and the
    refits read every match of a season with a second half and of every
    earlier year: an unplayed one is refused as the context guard does.
    """
    last = max((s.year for s in seasons if second_half_matchdays(s)), default=None)
    if last is None:
        raise ValueError("no second-half matchday to score")
    for season in seasons:
        if season.year < last or second_half_matchdays(season):
            m = next((m for m in season.matches if not m.played), None)
            if m is not None:
                raise _unplayed(m)


def _usable_cpus() -> int:
    """The CPUs this process may run on (``taskset`` narrows them); 1 where unknown."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _skip_reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def predict_or_reason(predictor: Predictor, ctx: PredictionContext) -> Forecast | str:
    """``predictor.predict(ctx)``, or the reason its failure skips the matchday.

    A worker sends the reason rather than the exception: every string
    pickles, so it reads in the parent exactly as it would inline.
    """
    try:
        return predictor.predict(ctx)
    except Exception as exc:  # noqa: BLE001 - predictor failures are data
        return _skip_reason(exc)


# A pool worker's inputs, inherited through the fork: predictors, seasons
# and the (season, matchday) of each matchday index.
_worker_inputs: tuple = ()


def _init_worker(predictors, seasons, matchdays) -> None:
    global _worker_inputs
    _worker_inputs = (predictors, seasons, matchdays)
    # A worker whose parent is killed would otherwise wait for tasks forever.
    threading.Thread(target=_exit_with_parent, daemon=True).start()


def _exit_with_parent() -> None:
    from multiprocessing import connection, parent_process

    connection.wait([parent_process().sentinel])
    os._exit(1)


def _refit(i: int, k: int):
    """Predictor ``i`` on matchday ``k``, from a context built (and guarded) here."""
    predictors, seasons, matchdays = _worker_inputs
    season, matchday = matchdays[k]
    return predict_or_reason(predictors[i], context_for(seasons, season, matchday))


@contextlib.contextmanager
def _refit_pool(
    predictors: Sequence[Predictor],
    seasons: Sequence[Season],
    matchdays: Sequence[tuple[Season, int]],
):
    """Futures of the ``parallel_refit`` calls, keyed (index into ``matchdays``, predictor index).

    Empty, so every call runs inline, on one usable CPU, with no such
    predictor or a single call, without the ``fork`` start method, or
    while another thread runs: a fork copies only the calling thread, and
    a lock another thread holds stays locked in the child.  The workers
    inherit their inputs through the fork, unpickled; the pool forks them
    all before it starts its own thread.  They are joined on exit, and
    pending calls are cancelled.
    """
    pooled = [i for i, p in enumerate(predictors) if getattr(p, "parallel_refit", False)]
    cpus = _usable_cpus() if pooled and threading.active_count() == 1 else 1
    tasks = [(k, i) for k in range(len(matchdays)) for i in pooled] if cpus > 1 else []
    if len(tasks) < 2:
        yield {}
        return
    import multiprocessing  # here, so a run without a pool never loads it

    if "fork" not in multiprocessing.get_all_start_methods():
        yield {}
        return
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        min(cpus, len(tasks)),
        multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(predictors, seasons, matchdays),
    )
    try:
        yield {(k, i): pool.submit(_refit, i, k) for k, i in tasks}
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def evaluate(
    predictors: Sequence[Predictor],
    seasons: Sequence[Season],
) -> list[ModelReport]:
    """Score every predictor over the second half of every season.

    Each second-half matchday gets one context, handed to every predictor
    in the order given, so all models are refit from the same earlier
    results.  Predictors are refit/updated per their own protocol through
    that context; a predictor failure on a matchday skips that matchday for
    that predictor (flagged) and the run continues.  Reports come back in
    the predictor order given, each covering all seasons with a per-year
    breakdown.  A predictor that produced no prediction at all gets no
    report, so one empty model never costs the others theirs.  Predictor
    names key the reports, so a repeated name is refused before any runs.

    ``parallel_refit`` predictors are called on one worker process per
    usable CPU, each from an equal context that the worker builds; their
    results are taken in the inline order, so the reports are the same.
    A worker that dies breaks the pool: each call still unanswered is
    skipped, its reason naming ``BrokenProcessPool``.
    """
    check_unique_names([p.name for p in predictors])
    ordered_seasons = sorted(seasons, key=lambda s: s.year)
    check_evaluable(ordered_seasons)
    scored_by: list[list[ScoredMatch]] = [[] for _ in predictors]
    skipped_by: list[list[SkippedMatchday]] = [[] for _ in predictors]
    missing_by = [0] * len(predictors)
    chosen_by: list[dict] = [{} for _ in predictors]  # id(season) -> (year, settings)
    matchdays = [(s, d) for s in ordered_seasons for d in second_half_matchdays(s)]
    with _refit_pool(predictors, ordered_seasons, matchdays) as refits:
        for k, (season, matchday) in enumerate(matchdays):
            ctx = context_for(ordered_seasons, season, matchday)
            matches = season.matches_of(matchday)
            for i, predictor in enumerate(predictors):
                future = refits.pop((k, i), None)
                if future is None:
                    forecast = predict_or_reason(predictor, ctx)
                else:
                    try:
                        forecast = future.result()
                    except Exception as exc:  # noqa: BLE001 - e.g. BrokenProcessPool
                        forecast = _skip_reason(exc)
                if isinstance(forecast, str):
                    skipped_by[i].append(SkippedMatchday(season.year, matchday, forecast))
                    continue
                if forecast.settings:
                    chosen_by[i][id(season)] = (season.year, forecast.settings)
                for fixture, match in zip(ctx.fixtures, matches):
                    prediction = forecast.predictions.get(fixture)
                    if prediction is None:
                        missing_by[i] += 1
                        continue
                    scored_by[i].append(score_match(match, prediction))
    reports = []
    for i, (predictor, scored) in enumerate(zip(predictors, scored_by)):
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
            calibration = calibration_curve(pairs)

        settings: dict[int, dict[str, str]] = {}
        for year, values in chosen_by[i].values():  # a year's leagues join with commas
            joined = settings.setdefault(year, {})
            for key, value in values.items():
                joined[key] = f"{joined[key]},{value}" if key in joined else value

        reports.append(
            ModelReport(
                model=predictor.name,
                per_match=tuple(scored),
                aggregates=_aggregate(scored),
                per_year=per_year,
                calibration=calibration,
                gof=gof,
                settings_by_year=settings,
                skipped_matchdays=tuple(skipped_by[i]),
                missing_predictions=missing_by[i],
            )
        )
    return reports

"""Model adapters: each wires one engine into the evaluation Predictor protocol.

Model identifiers accepted on the command line and in config files:

    trivial         uniform (1/3, 1/3, 1/3) baseline
    mn-dir1         equal-weight Dirichlet count mixture, flat prior
    mn-dir2         weighted Dirichlet mixture, (w, alpha) cross-validated
                    on each season's first half
    bt              Davidson paired-comparison model, refit every matchday
    poisson-lee     independent bivariate Poisson, current season window
    poisson-biv     correlated bivariate Poisson, configurable window
    external:<path> third-party predictions from an interchange CSV
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Mapping

from .data import (
    CountVector,
    MatchRecord,
    Prediction,
    TRIVIAL_PREDICTION,
    first_half_rounds,
    normalize_team,
    tally_records,
)
from .davidson import bt_fit, bt_outcome_probs
from .dirichlet import GridSpec, MnDir2Config, cv_select, mn_dir1_predict, mn_dir2_predict
from .evaluation import PredictionContext
from .optimize import OptimSettings
from .poisson import (
    DEFAULT_TAIL_TOL,
    MAX_OUTCOME_DEFICIT,
    TrainingWindow,
    check_tail_tol,
    link_rates,
    outcome_probs,
    poisson_fit,
)

KNOWN_MODELS = ("trivial", "mn-dir1", "mn-dir2", "bt", "poisson-lee", "poisson-biv")
SEASON_WINDOW = TrainingWindow("season")


class TrivialPredictor:
    """The baseline every model must beat: the uniform forecast."""

    name = "trivial"

    def predict(self, ctx: PredictionContext) -> Mapping[MatchRecord, Prediction]:
        return {fixture: TRIVIAL_PREDICTION for fixture in ctx.fixtures}


def _count_predictions(ctx: PredictionContext, predict) -> dict[MatchRecord, Prediction]:
    """``predict(home team's home record, away team's away record)`` per fixture.

    The season's venue counts are tallied once for the whole matchday; a
    team with no record yet in its role gets empty counts, so the prior.
    """
    home, away = tally_records(ctx.current_season_history())
    empty = CountVector()
    return {
        fixture: predict(home.get(fixture.home, empty), away.get(fixture.away, empty))
        for fixture in ctx.fixtures
    }


class MnDir1Predictor:
    """Equal-weight mixture of home-venue and away-venue count posteriors."""

    name = "mn-dir1"

    def predict(self, ctx: PredictionContext) -> Mapping[MatchRecord, Prediction]:
        return _count_predictions(ctx, mn_dir1_predict)


class MnDir2Predictor:
    """Weighted mixture: (w, alpha) picked by first-half Brier cross-validation.

    Selection happens once per league season, the first time a second-half
    context of it arrives, and is keyed by the first-half records it reads:
    two leagues of one year are tuned apart.
    """

    name = "mn-dir2"

    def __init__(self, grid: GridSpec | None = None):
        self.grid = grid or GridSpec.default()
        self._selected: dict[tuple[MatchRecord, ...], MnDir2Config] = {}

    def _config_for(self, ctx: PredictionContext) -> MnDir2Config:
        half = first_half_rounds(ctx.season_rounds)
        first_half = tuple(r for r in SEASON_WINDOW.training(ctx) if r.matchday <= half)
        cfg = self._selected.get(first_half)
        if cfg is None:
            cfg = self._selected[first_half] = cv_select(first_half, self.grid)
        return cfg

    def predict(self, ctx: PredictionContext) -> Mapping[MatchRecord, Prediction]:
        cfg = self._config_for(ctx)
        return _count_predictions(ctx, lambda h, a: mn_dir2_predict(h, a, cfg))

    def settings_by_year(self) -> dict[int, dict[str, str]]:
        """Each year's (w, alpha); leagues sharing a year are listed in season order."""
        by_year: dict[int, list[MnDir2Config]] = {}
        for first_half, cfg in self._selected.items():
            by_year.setdefault(first_half[0].season, []).append(cfg)
        return {
            year: {
                "w": ",".join(f"{cfg.weights.w_home:.6f}" for cfg in cfgs),
                "alpha": ",".join(f"{cfg.alpha:.6f}" for cfg in cfgs),
            }
            for year, cfgs in sorted(by_year.items())
        }


class _RefitPredictor:
    """Refit on ``window`` (``_fit``), then forecast each fixture (``_forecast``).

    A fixture the fit cannot forecast fails the matchday; the error then
    names the fit's boundary parameters, if any.  Each call reads only its
    context, so ``evaluate`` may run it in a worker (``parallel_refit``).
    """

    parallel_refit = True
    last_fit = None

    def predict(self, ctx: PredictionContext) -> Mapping[MatchRecord, Prediction]:
        fitted = self._fit(self.window.training(ctx))
        self.last_fit = fitted
        out = {}
        for fixture in ctx.fixtures:
            try:
                out[fixture] = self._forecast(fitted.params, fixture.home, fixture.away)
            except ValueError as exc:
                if not fitted.boundary_flags:
                    raise
                flags = ", ".join(fitted.boundary_flags)
                raise ValueError(f"{exc} (boundary fit: {flags})") from exc
        return out


class DavidsonPredictor(_RefitPredictor):
    """Paired-comparison model refit on all earlier matches of the season."""

    name = "bt"
    window = SEASON_WINDOW

    _forecast = staticmethod(bt_outcome_probs)

    def __init__(self, settings: OptimSettings | None = None):
        self.settings = settings

    def _fit(self, matches: list[MatchRecord]):
        return bt_fit(matches, self.settings)


class PoissonPredictor(_RefitPredictor):
    """Goals model refit on a training window, scores summed into outcomes."""

    def __init__(
        self,
        name: str,
        correlated: bool,
        window: TrainingWindow,
        tail_tol: float = DEFAULT_TAIL_TOL,
        settings: OptimSettings | None = None,
    ):
        check_tail_tol(tail_tol, MAX_OUTCOME_DEFICIT)
        self.name = name
        self.correlated = correlated
        self.window = window
        self.tail_tol = tail_tol
        self.settings = settings

    def _fit(self, matches: list[MatchRecord]):
        return poisson_fit(matches, correlated=self.correlated, settings=self.settings)

    def _forecast(self, params, home: str, away: str) -> Prediction:
        return outcome_probs(link_rates(params, home, away), self.tail_tol)


PREDICTIONS_CSV_HEADER = ("season", "matchday", "home", "away", "p1", "p2", "p3")


def parse_prediction_rows(
    csv_text: str,
) -> dict[tuple[int, int, str, str], Prediction]:
    """Parse the prediction interchange CSV into a fixture-keyed table.

    Probability triples off the simplex by at most 1e-3 (rounded published
    numbers) are renormalized; anything worse is rejected.
    """
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader, None)
    if header is None or tuple(h.strip().lower() for h in header) != PREDICTIONS_CSV_HEADER:
        raise ValueError(
            f"bad predictions header {header!r}, expected {','.join(PREDICTIONS_CSV_HEADER)}"
        )
    table: dict[tuple[int, int, str, str], Prediction] = {}
    for line, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 7:
            raise ValueError(f"line {line}: expected 7 fields, got {len(row)}")
        try:
            season, matchday = int(row[0]), int(row[1])
            probs = [float(x) for x in row[4:7]]
        except ValueError as exc:
            raise ValueError(f"line {line}: {exc}") from None
        total = sum(probs)
        if any(p < 0.0 for p in probs) or not 1.0 - 1e-3 <= total <= 1.0 + 1e-3:
            raise ValueError(f"line {line}: probabilities {probs} are not a distribution")
        probs = [p / total for p in probs]
        key = (season, matchday, normalize_team(row[2]), normalize_team(row[3]))
        if key in table:
            raise ValueError(f"line {line}: duplicate prediction for {key}")
        table[key] = Prediction(*probs)
    return table


class ExternalPredictor:
    """Published third-party forecasts, matched to fixtures by key.

    Fixtures absent from the file simply get no prediction; the evaluation
    harness records and flags them.
    """

    def __init__(self, path: str | Path):
        self.name = f"external:{path}"
        self.table = parse_prediction_rows(Path(path).read_text(encoding="utf-8"))

    def predict(self, ctx: PredictionContext) -> Mapping[MatchRecord, Prediction]:
        out = {}
        for fixture in ctx.fixtures:
            key = (fixture.season, fixture.matchday, fixture.home, fixture.away)
            found = self.table.get(key)
            if found is not None:
                out[fixture] = found
        return out


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _grid(settings: Mapping[str, str]) -> GridSpec:
    default = GridSpec.default()
    w = settings.get("mn_dir2.w_grid")
    alpha = settings.get("mn_dir2.alpha_grid")
    return GridSpec(
        w_points=default.w_points if w is None else _parse_floats(w),
        alpha_points=default.alpha_points if alpha is None else _parse_floats(alpha),
    )


def _optim_settings(settings: Mapping[str, str], prefix: str) -> OptimSettings:
    default = OptimSettings()
    return OptimSettings(
        tol=float(settings.get(f"{prefix}.tol", default.tol)),
        max_iter=int(settings.get(f"{prefix}.max_iter", default.max_iter)),
    )


def build_predictor(spec: str, settings: Mapping[str, str] | None = None):
    """Instantiate a predictor from its identifier and ``key=value`` settings.

    Each model reads only its own keys; an absent key takes its default.

        mn-dir2      mn_dir2.w_grid, mn_dir2.alpha_grid (GridSpec.default())
        bt           bt.tol, bt.max_iter (OptimSettings())
        poisson-lee  poisson.tol, poisson.max_iter (OptimSettings()),
                     poisson.tail_tol (DEFAULT_TAIL_TOL; at most MAX_OUTCOME_DEFICIT)
        poisson-biv  the poisson-lee keys, poisson.window (all),
                     poisson.correlated (true)

    ``poisson-lee`` is pinned to an independent fit on the current season.
    A bad value raises ``ValueError`` here, at build time.
    """
    if settings is None:
        settings = {}
    if spec == "trivial":
        return TrivialPredictor()
    if spec == "mn-dir1":
        return MnDir1Predictor()
    if spec == "mn-dir2":
        return MnDir2Predictor(_grid(settings))
    if spec == "bt":
        return DavidsonPredictor(_optim_settings(settings, "bt"))
    if spec in ("poisson-lee", "poisson-biv"):
        solver = _optim_settings(settings, "poisson")
        tail_tol = float(settings.get("poisson.tail_tol", DEFAULT_TAIL_TOL))
        if spec == "poisson-lee":
            return PoissonPredictor(
                spec, correlated=False, window=SEASON_WINDOW, tail_tol=tail_tol, settings=solver
            )
        window = TrainingWindow.parse(settings.get("poisson.window", "all"))
        correlated = settings.get("poisson.correlated", "true").lower()
        if correlated not in ("true", "false"):
            raise ValueError(f"poisson.correlated must be true or false, got {correlated!r}")
        return PoissonPredictor(spec, correlated == "true", window, tail_tol, solver)
    if spec.startswith("external:"):
        return ExternalPredictor(spec.split(":", 1)[1])
    raise ValueError(f"unknown model {spec!r}; known: {', '.join(KNOWN_MODELS)} or external:<path>")


class _KeyRecorder(Mapping[str, str]):
    """Empty settings that remember every key looked up in them."""

    def __init__(self) -> None:
        self.read: set[str] = set()

    def __getitem__(self, key: str) -> str:
        self.read.add(key)
        raise KeyError(key)

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0


def settings_keys() -> frozenset[str]:
    """Every key ``build_predictor`` reads for some model in ``KNOWN_MODELS``."""
    recorder = _KeyRecorder()
    for spec in KNOWN_MODELS:
        build_predictor(spec, recorder)
    return frozenset(recorder.read)

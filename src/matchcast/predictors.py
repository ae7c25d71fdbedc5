"""Model adapters: each wires one engine into the evaluation Predictor protocol.

Model identifiers accepted on the command line:

    trivial         uniform (1/3, 1/3, 1/3) baseline
    mn-dir1         equal-weight Dirichlet count mixture, flat prior
    mn-dir2         weighted Dirichlet mixture, (w, alpha) cross-validated
                    on each season's first half
    bt              Davidson paired-comparison model, refit every matchday
    poisson-lee     independent bivariate Poisson, current season window
    poisson-biv     correlated bivariate Poisson, every earlier match as window
    external:<path> third-party predictions from an interchange CSV
"""

from __future__ import annotations

from operator import itemgetter
from pathlib import Path

from .data import (
    CountVector,
    MatchRecord,
    Prediction,
    TRIVIAL_PREDICTION,
    first_half_rounds,
    fixture_key,
    parse_fixture,
    read_csv_text,
    read_rows,
    tally_records,
)
from .davidson import bt_fit, bt_outcome_probs
from .dirichlet import GridSpec, MnDir2Config, cv_select, mn_dir1_predict, mn_dir2_predict
from .evaluation import Forecast, PredictionContext
from .poisson import link_rates, outcome_probs, poisson_fit


class TrivialPredictor:
    """The baseline every model must beat: the uniform forecast."""

    name = "trivial"

    def predict(self, ctx: PredictionContext) -> Forecast:
        return Forecast({fixture: TRIVIAL_PREDICTION for fixture in ctx.fixtures})


def _count_predictions(ctx: PredictionContext, predict) -> dict[MatchRecord, Prediction]:
    """``predict(home team's home record, away team's away record)`` per fixture.

    The season's venue counts are tallied once for the whole matchday; a
    team with no record yet in its role gets empty counts, so the prior.
    """
    home, away = tally_records(ctx.season_so_far)
    empty = CountVector()
    return {
        fixture: predict(home.get(fixture.home, empty), away.get(fixture.away, empty))
        for fixture in ctx.fixtures
    }


class MnDir1Predictor:
    """Equal-weight mixture of home-venue and away-venue count posteriors."""

    name = "mn-dir1"

    def predict(self, ctx: PredictionContext) -> Forecast:
        return Forecast(_count_predictions(ctx, mn_dir1_predict))


class MnDir2Predictor:
    """Weighted mixture: (w, alpha) picked on ``GridSpec.default()`` by first-half Brier CV.

    Selection happens once per league season, the first time a second-half
    context of it arrives, and is keyed by the first-half records it reads:
    two leagues of one year are tuned apart.
    """

    name = "mn-dir2"

    def __init__(self):
        self._selected: dict[tuple[MatchRecord, ...], MnDir2Config] = {}

    def _config_for(self, ctx: PredictionContext) -> MnDir2Config:
        half = first_half_rounds(ctx.season_rounds)
        first_half = tuple(r for r in ctx.training() if r.matchday <= half)
        cfg = self._selected.get(first_half)
        if cfg is None:
            cfg = self._selected[first_half] = cv_select(first_half, GridSpec.default())
        return cfg

    def predict(self, ctx: PredictionContext) -> Forecast:
        cfg = self._config_for(ctx)
        return Forecast(
            _count_predictions(ctx, lambda h, a: mn_dir2_predict(h, a, cfg)),
            settings={"w": f"{cfg.w_home:.6f}", "alpha": f"{cfg.alpha:.6f}"},
        )


class _RefitPredictor:
    """Fit on the context (``fit``), then forecast each fixture (``forecast``).

    Each model is one row of ``_BUILDERS``.  A fixture the fit cannot
    forecast fails the matchday; the error then names the fit's boundary
    parameters, if any.  Each call reads only its context, so ``evaluate``
    may run it in a worker (``parallel_refit``); its forecast carries the fit.
    """

    parallel_refit = True

    def __init__(self, name: str, fit, forecast):
        self.name = name
        self._fit = fit
        self._forecast = forecast

    def predict(self, ctx: PredictionContext) -> Forecast:
        fitted = self._fit(ctx)
        out = {}
        for fixture in ctx.fixtures:
            try:
                out[fixture] = self._forecast(fitted.params, fixture.home, fixture.away)
            except ValueError as exc:
                if not fitted.boundary_flags:
                    raise
                flags = ", ".join(fitted.boundary_flags)
                raise ValueError(f"{exc} (boundary fit: {flags})") from exc
        return Forecast(out, fit=fitted)


def _poisson_forecast(params, home: str, away: str) -> Prediction:
    return outcome_probs(link_rates(params, home, away))


PREDICTIONS_CSV_HEADER = ("season", "matchday", "home", "away", "p1", "p2", "p3")


def _parse_prediction(row: list[str]) -> tuple[tuple[int, int, str, str], Prediction]:
    key = parse_fixture(row)
    probs = [float(x) for x in row[4:7]]
    total = sum(probs)
    if any(p < 0.0 for p in probs) or not 1.0 - 1e-3 <= total <= 1.0 + 1e-3:
        raise ValueError(f"probabilities {probs} are not a distribution")
    return key, Prediction(*(p / total for p in probs))


def parse_prediction_rows(csv_text: str) -> dict[tuple[int, int, str, str], Prediction]:
    """Parse the prediction interchange CSV into a table keyed by :func:`fixture_key`.

    Probability triples off the simplex by at most 1e-3 (rounded published
    numbers) are renormalized; anything worse is rejected.
    """
    rows = read_rows(csv_text, PREDICTIONS_CSV_HEADER, _parse_prediction, itemgetter(0))
    return dict(row for _, row in rows)


class ExternalPredictor:
    """Published third-party forecasts, matched to fixtures by key.

    Fixtures absent from the file simply get no prediction; the evaluation
    harness records and flags them.
    """

    def __init__(self, path: str | Path):
        self.name = f"external:{path}"
        self.table = parse_prediction_rows(read_csv_text(path))

    def predict(self, ctx: PredictionContext) -> Forecast:
        out = {}
        for fixture in ctx.fixtures:
            found = self.table.get(fixture_key(fixture))
            if found is not None:
                out[fixture] = found
        return Forecast(out)


_BUILDERS = {
    "trivial": TrivialPredictor,
    "mn-dir1": MnDir1Predictor,
    "mn-dir2": MnDir2Predictor,
    # Each fit is looked up when called, so a patched ``predictors.bt_fit`` is the one run.
    "bt": lambda: _RefitPredictor("bt", lambda ctx: bt_fit(ctx.training()), bt_outcome_probs),
    "poisson-lee": lambda: _RefitPredictor(
        "poisson-lee", lambda ctx: poisson_fit(ctx.training()), _poisson_forecast
    ),
    "poisson-biv": lambda: _RefitPredictor(
        "poisson-biv",
        lambda ctx: poisson_fit(ctx.training(all_seasons=True), correlated=True),
        _poisson_forecast,
    ),
}
KNOWN_MODELS = tuple(_BUILDERS)


def build_predictor(spec: str):
    """The predictor a model identifier names, at the package defaults.

    ``external:<path>`` reads its interchange CSV here, so a missing or
    malformed file raises at build time.
    """
    if spec.startswith("external:"):
        return ExternalPredictor(spec.split(":", 1)[1])
    builder = _BUILDERS.get(spec)
    if builder is None:
        known = ", ".join(KNOWN_MODELS)
        raise ValueError(f"unknown model {spec!r}; known: {known} or external:<path>")
    return builder()

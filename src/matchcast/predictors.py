"""The models: each is one row of ``_Model``, the one Predictor implementation.

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

from .data import (
    CountVector,
    MatchRecord,
    Prediction,
    TRIVIAL_PREDICTION,
    first_half_rounds,
    fixture_key,
    parse_fixture,
    parse_number,
    read_csv_text,
    read_rows,
    tally_records,
)
from .davidson import bt_fit, bt_outcome_probs
from .dirichlet import GridSpec, MnDir2Config, cv_select, mn_dir1_predict, mn_dir2_predict
from .evaluation import Forecast, PredictionContext
from .poisson import link_rates, outcome_probs, poisson_fit


class _Model:
    """A named model: ``read(ctx)`` once per matchday, then a forecast per fixture.

    ``read`` returns ``(forecast, fit, settings)``.  ``forecast(fixture)`` is
    the fixture's prediction, or None when the model has none for it (the
    harness records it missing); ``fit`` is the refit behind them, if any,
    and ``settings`` what was chosen for the season.  A fixture the forecast
    cannot serve fails the matchday; the error then names the fit's boundary
    parameters, if any.  The :class:`Forecast` returned carries ``fit`` and
    ``settings``.
    """

    def __init__(self, name: str, read):
        self.name = name
        self._read = read

    def predict(self, ctx: PredictionContext) -> Forecast:
        forecast, fit, settings = self._read(ctx)
        out = {}
        for fixture in ctx.fixtures:
            try:
                prediction = forecast(fixture)
            except ValueError as exc:
                if fit is None or not fit.boundary_flags:
                    raise
                flags = ", ".join(fit.boundary_flags)
                raise ValueError(f"{exc} (boundary fit: {flags})") from exc
            if prediction is not None:
                out[fixture] = prediction
        return Forecast(out, fit, settings)


def _venue_counts(ctx: PredictionContext, predict, *args):
    """``forecast(fixture)``: ``predict(home team's home record, away team's away record, *args)``.

    The season's venue counts are tallied once for the whole matchday; a
    team with no record yet in its role gets empty counts, so the prior.
    """
    home, away = tally_records(ctx.season_so_far)
    empty = CountVector()
    return lambda f: predict(home.get(f.home, empty), away.get(f.away, empty), *args)


def _mn_dir2() -> _Model:
    """(w, alpha) picked on ``GridSpec.default()`` by first-half Brier CV.

    Selection happens once per league season, the first time a second-half
    context of it arrives, and is keyed by the first-half records it reads:
    two leagues of one year are tuned apart.
    """
    selected: dict[tuple[MatchRecord, ...], MnDir2Config] = {}

    def read(ctx: PredictionContext):
        half = first_half_rounds(ctx.season_rounds)
        first_half = tuple(r for r in ctx.training() if r.matchday <= half)
        cfg = selected.get(first_half)
        if cfg is None:
            cfg = selected[first_half] = cv_select(first_half, GridSpec.default())
        settings = {"w": f"{cfg.w_home:.6f}", "alpha": f"{cfg.alpha:.6f}"}
        return _venue_counts(ctx, mn_dir2_predict, cfg), None, settings

    return _Model("mn-dir2", read)


def _refit(name: str, fit, forecast) -> _Model:
    """Fit on the context (``fit``), then ``forecast(params, home, away)`` per fixture."""

    def read(ctx: PredictionContext):
        fitted = fit(ctx)
        return lambda f: forecast(fitted.params, f.home, f.away), fitted, {}

    return _Model(name, read)


def _poisson_forecast(params, home: str, away: str) -> Prediction:
    return outcome_probs(link_rates(params, home, away))


PREDICTIONS_CSV_HEADER = ("season", "matchday", "home", "away", "p1", "p2", "p3")


def _parse_prediction(row: list[str]) -> tuple[tuple[int, int, str, str], Prediction]:
    key = parse_fixture(row)
    probs = [parse_number(x, float, name) for name, x in zip(PREDICTIONS_CSV_HEADER[4:], row[4:7])]
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


# Each row looks its engine up when called, so a patched ``predictors.bt_fit`` is the one run.
_BUILDERS = {
    "trivial": lambda: _Model("trivial", lambda ctx: (lambda f: TRIVIAL_PREDICTION, None, {})),
    "mn-dir1": lambda: _Model(
        "mn-dir1", lambda ctx: (_venue_counts(ctx, mn_dir1_predict), None, {})
    ),
    "mn-dir2": _mn_dir2,
    "bt": lambda: _refit("bt", lambda ctx: bt_fit(ctx.training()), bt_outcome_probs),
    "poisson-lee": lambda: _refit(
        "poisson-lee", lambda ctx: poisson_fit(ctx.training()), _poisson_forecast
    ),
    "poisson-biv": lambda: _refit(
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
        # Published forecasts, matched by key; a fixture absent from the file gets none.
        table = parse_prediction_rows(read_csv_text(spec.split(":", 1)[1]))
        return _Model(spec, lambda ctx: (lambda f: table.get(fixture_key(f)), None, {}))
    builder = _BUILDERS.get(spec)
    if builder is None:
        known = ", ".join(KNOWN_MODELS)
        raise ValueError(f"unknown model {spec!r}; known: {known} or external:<path>")
    return builder()

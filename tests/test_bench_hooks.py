"""The benchmark's trace hooks still find the call sites they patch.

``bench/spans.py`` wraps matchcast functions by module attribute name and
counts calls per layer.  A renamed attribute or a changed argument shape
would otherwise surface only in a benchmark run.
"""

import importlib.util
from pathlib import Path

import matchcast.cli as cli
from matchcast.data import first_half_rounds, second_half_matchdays
from matchcast.dirichlet import GridSpec
from matchcast.predictors import KNOWN_MODELS

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_model_hooks_count_one_tally_per_matchday(two_seasons):
    tracer = _load_spans().Tracer()
    tracer.install()
    patched = list(tracer._patched)
    try:
        predictors = [cli.build_predictor(spec) for spec in ("mn-dir1", "mn-dir2")]
        reports = cli.evaluate(predictors, two_seasons)
    finally:
        tracer.remove()
    assert [r.model for r in reports] == ["mn-dir1", "mn-dir2"]
    matchdays = sum(len(second_half_matchdays(s)) for s in two_seasons)
    assert tracer.counts["data.tally_calls"] == 2 * matchdays
    assert tracer.counts["dirichlet.cv_calls"] == 2
    # Both rows reach the engines through the names the tracer patches.
    fixtures = sum(
        len(s.matches_of(md)) for s in two_seasons for md in second_half_matchdays(s)
    )
    assert tracer.names.count("dirichlet.predict") == 2 * fixtures
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_every_model_hook_counts_its_calls(two_seasons):
    tracer = _load_spans().Tracer()
    tracer.install()
    patched = list(tracer._patched)
    try:
        reports = cli.evaluate([cli.build_predictor(spec) for spec in KNOWN_MODELS], two_seasons)
    finally:
        tracer.remove()
    assert [r.model for r in reports] == list(KNOWN_MODELS)
    matchdays = sum(len(second_half_matchdays(s)) for s in two_seasons)
    fixtures = sum(
        len(s.matches_of(md)) for s in two_seasons for md in second_half_matchdays(s)
    )
    assert (matchdays, fixtures) == (10, 30)
    counts = tracer.counts
    for model in KNOWN_MODELS:
        assert counts[f"predict.{model}.calls"] == matchdays, model
    # bt and poisson-lee train on the season so far; poisson-biv adds 2013 to 2014's fits.
    season_so_far = sum(
        len(s.matches_before(md)) for s in two_seasons for md in second_half_matchdays(s)
    )
    earlier = len(two_seasons[0].matches) * len(second_half_matchdays(two_seasons[1]))
    for model, trained in (
        ("bt", season_so_far),
        ("poisson-lee", season_so_far),
        ("poisson-biv", season_so_far + earlier),
    ):
        assert counts[f"fit.{model}.fits"] == matchdays, model
        assert counts[f"fit.{model}.train_matches"] == trained, model
        assert counts[f"fit.{model}.obj_evals"] > 0, model
    grid = GridSpec.default()
    first_halves = sum(len(s.matches_before(first_half_rounds(s.rounds) + 1)) for s in two_seasons)
    assert counts["dirichlet.cv_calls"] == 2
    assert counts["dirichlet.cv_brier_evals"] == (
        len(grid.w_points) * len(grid.alpha_points) * first_halves
    )
    assert counts["poisson.grids"] == 2 * fixtures
    assert counts["poisson.grid_cells"] > 0
    assert counts["evaluation.scored"] == len(KNOWN_MODELS) * fixtures
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"

"""The benchmark's trace hooks still find the call sites they patch.

``bench/spans.py`` wraps matchcast functions by module attribute name and
counts calls per layer.  A renamed attribute or a changed argument shape
would otherwise surface only in a benchmark run.
"""

import importlib.util
from pathlib import Path

import matchcast.cli as cli
from matchcast.data import second_half_matchdays

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
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"

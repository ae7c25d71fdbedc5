"""Out-of-program tracing: spans and counts around matchcast's public calls.

The package imports most names by value (``from .poisson import
poisson_fit``), so a wrapper on the defining module alone sees no calls.
Every wrapper here is installed at a *use site*: the module attribute that
the calling code actually looks up at run time.

Span names are ``<layer>.<operation>`` (``fit.poisson-biv``,
``evaluation.context``, ...), the names that in-program hooks can adopt
unchanged.  Spans live in memory as (name, start, end, parent) rows and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

FIT_MODELS = ("bt", "poisson-lee", "poisson-biv")
PREDICT_MODELS = ("trivial", "mn-dir1", "mn-dir2", "bt", "poisson-lee", "poisson-biv", "external")


def model_key(name: str) -> str:
    """``external:<path>`` collapses to ``external``; other names are kept."""
    return name.split(":", 1)[0]


class Tracer:
    """Spans and counters for one traced pass; ``install`` patches, ``remove`` restores."""

    def __init__(self) -> None:
        # One row per span; flat arrays keep the garbage collector's work
        # unchanged by tracing.
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # index of the enclosing span, or -1
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._model: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- patching ------------------------------------------------------------

    def _patch(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make(original)))

    def _span(self, module, attr: str, name, after=None) -> None:
        """Wrap ``module.attr`` in a span; ``after(args, result)`` adds counts."""

        def make(original):
            def wrapper(*args, **kwargs):
                span = name() if callable(name) else name
                result = self.call(span, original, *args, **kwargs)
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        self._patch(module, attr, make)

    def remove(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def install(self) -> None:
        import matchcast.cli as cli
        import matchcast.davidson as davidson
        import matchcast.evaluation as evaluation
        import matchcast.poisson as poisson
        import matchcast.predictors as predictors
        import matchcast.reports as reports

        c = self.counts

        def fit_name() -> str:
            return f"fit.{self._model}"

        def count_fit(args, result) -> None:
            c[f"fit.{self._model}.fits"] += 1
            c[f"fit.{self._model}.train_matches"] += len(args[0])

        # data
        self._span(cli, "parse_matches_with_lines", "data.parse",
                   lambda a, r: self.add("data.records", len(r)))
        self._span(cli, "build_seasons", "data.build")
        self._span(predictors, "tally_records", "data.tally",
                   lambda a, r: self.add("data.tally_calls"))

        # evaluation
        def count_context(args, ctx) -> None:
            c["evaluation.contexts"] += 1
            c["evaluation.history_records"] += len(ctx.history)

        for module in (evaluation, cli):
            self._span(module, "context_for", "evaluation.context", count_context)
        self._span(evaluation, "score_match", "evaluation.score",
                   lambda a, r: self.add("evaluation.scored"))
        self._span(cli, "evaluate", "evaluation.evaluate")

        # predictors: every instance built through the CLI gets a predict span
        def make_build(original):
            def build(*args, **kwargs):
                predictor = original(*args, **kwargs)
                self._wrap_predict(predictor)
                return predictor

            return build

        self._patch(cli, "build_predictor", make_build)

        # fits
        self._span(predictors, "bt_fit", fit_name, count_fit)
        self._span(predictors, "poisson_fit", fit_name, count_fit)
        for module in (davidson, poisson):
            self._patch(module, "minimize", self._make_minimize)

        # poisson score grid
        def count_grid(args, grid) -> None:
            size = grid.max_goals + 1
            c["poisson.grids"] += 1
            c["poisson.grid_cells"] += size * size
            c["poisson.tail_steps"] += size

        self._span(poisson, "score_grid", "poisson.grid", count_grid)
        self._span(predictors, "outcome_probs", "poisson.outcome")

        # dirichlet
        def count_cv(args, result) -> None:
            first_half, grid = args
            c["dirichlet.cv_calls"] += 1
            c["dirichlet.cv_brier_evals"] += (
                len(grid.w_points) * len(grid.alpha_points) * len(first_half)
            )

        self._span(predictors, "cv_select", "dirichlet.cv_select", count_cv)
        self._span(predictors, "mn_dir1_predict", "dirichlet.predict")
        self._span(predictors, "mn_dir2_predict", "dirichlet.predict")

        # scoring
        self._span(evaluation, "calibration_curve", "scoring.calibration",
                   lambda a, r: self.add("scoring.calibration_pairs", r.n_pairs))
        self._span(evaluation, "chi_square_gof", "scoring.gof")

        # reports
        def count_bytes(args, text) -> None:
            c["reports.bytes"] += len(text.encode("utf-8"))

        self._span(reports, "reports_to_json", "reports.json", count_bytes)
        self._span(reports, "reports_to_csv", "reports.csv", count_bytes)
        self._span(cli, "write_reports", "reports.write")
        self._span(cli, "summary_table", "reports.summary")

    def _wrap_predict(self, predictor) -> None:
        model = model_key(predictor.name)
        original = predictor.predict

        def predict(ctx):
            outer, self._model = self._model, model
            c = self.counts
            c[f"predict.{model}.calls"] += 1
            try:
                return self.call(f"predict.{model}", original, ctx)
            finally:
                self._model = outer

        predictor.predict = predict

    def _make_minimize(self, original):
        def minimize(objective, x0, settings=None):
            c = self.counts
            prefix = f"fit.{self._model}"

            def counted(theta):
                c[f"{prefix}.obj_evals"] += 1
                return objective(theta)

            result = original(counted, x0, settings)
            c[f"{prefix}.iters"] += result.iterations
            c[f"{prefix}.nonconverged"] += 0 if result.converged else 1
            return result

        return minimize

    # -- results -------------------------------------------------------------

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name (self = span minus its children)."""
        total: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.names)
        for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents):
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for name, start, end, inner in zip(self.names, self.starts, self.ends, child):
            own[name] += end - start - inner
        return total, own

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, zero where the layer did no work."""
        total, own = self.times()
        c = self.counts
        out: dict[str, tuple[float, str]] = {
            "data.parse_s": (total["data.parse"], "s"),
            "data.build_s": (total["data.build"], "s"),
            "data.records": (c["data.records"], "count"),
            "data.tally_s": (total["data.tally"], "s"),
            "data.tally_calls": (c["data.tally_calls"], "count"),
            "evaluation.context_s": (total["evaluation.context"], "s"),
            "evaluation.contexts": (c["evaluation.contexts"], "count"),
            "evaluation.history_records": (c["evaluation.history_records"], "count"),
            "evaluation.score_s": (total["evaluation.score"], "s"),
            "evaluation.scored": (c["evaluation.scored"], "count"),
            "evaluation.self_s": (own["evaluation.evaluate"], "s"),
        }
        for m in PREDICT_MODELS:
            out[f"predict.{m}.s"] = (total[f"predict.{m}"], "s")
            out[f"predict.{m}.calls"] = (c[f"predict.{m}.calls"], "count")
        for m in FIT_MODELS:
            p = f"fit.{m}"
            evals = c[f"{p}.obj_evals"]
            out[f"{p}.s"] = (total[p], "s")
            for key in ("fits", "train_matches", "obj_evals", "iters", "nonconverged"):
                out[f"{p}.{key}"] = (c[f"{p}.{key}"], "count")
            out[f"{p}.accept_ratio"] = (c[f"{p}.iters"] / evals if evals else 0.0, "ratio")
        out.update({
            "poisson.grid_s": (total["poisson.grid"], "s"),
            "poisson.grids": (c["poisson.grids"], "count"),
            "poisson.grid_cells": (c["poisson.grid_cells"], "count"),
            "poisson.tail_steps": (c["poisson.tail_steps"], "count"),
            "dirichlet.cv_select_s": (total["dirichlet.cv_select"], "s"),
            "dirichlet.cv_calls": (c["dirichlet.cv_calls"], "count"),
            "dirichlet.cv_brier_evals": (c["dirichlet.cv_brier_evals"], "count"),
            "dirichlet.predict_s": (total["dirichlet.predict"], "s"),
            "scoring.calibration_s": (total["scoring.calibration"], "s"),
            "scoring.calibration_pairs": (c["scoring.calibration_pairs"], "count"),
            "scoring.gof_s": (total["scoring.gof"], "s"),
            "reports.json_s": (total["reports.json"], "s"),
            "reports.csv_s": (total["reports.csv"], "s"),
            "reports.summary_s": (total["reports.summary"], "s"),
            "reports.bytes": (c["reports.bytes"], "bytes"),
            "cli.predict_self_s": (own["cli.predict"], "s"),
        })
        return {k: (int(v) if u in ("count", "bytes") else v, u) for k, (v, u) in out.items()}

    def write(self, path: Path) -> None:
        """Dump the spans, origin at the first span, as JSON rows."""
        origin = self.starts[0] if self.starts else 0.0
        rows = [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p}
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}), encoding="utf-8")

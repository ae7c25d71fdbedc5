"""Command-line entry point: validate, predict, evaluate, selftest.

Runs are reproducible: the flags plus the input CSV fully determine
every output byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .data import build_seasons, fixture_key, format_csv, parse_matches_with_lines, read_csv_text
from .evaluation import check_evaluable, context_for, evaluate, predict_or_reason
from .predictors import KNOWN_MODELS, build_predictor
from .reports import summary_table, write_reports


@dataclass
class RunConfig:
    matches_path: str | None = None
    models: tuple[str, ...] = KNOWN_MODELS
    output_dir: str | None = None  # evaluate: matchcast-report; predict: stdout
    seed: int | None = None  # selftest's own default when unset

    def build(self, spec: str):
        """Build one model (see ``build_predictor``)."""
        return build_predictor(spec)


def load_config(args: argparse.Namespace) -> RunConfig:
    """The run's flags; an empty flag counts as not given."""
    if os.environ.get("MATCHCAST_CONFIG"):
        raise ValueError(
            "MATCHCAST_CONFIG is not read: give the run as flags "
            "(--matches, --models, --out, --seed)"
        )
    given = {k: v for k, v in vars(args).items() if v not in (None, "")}
    cfg = RunConfig(
        matches_path=given.get("matches"), output_dir=given.get("out"), seed=given.get("seed")
    )
    if "models" in given:
        cfg.models = tuple(m.strip() for m in given["models"].split(",") if m.strip())
    if cfg.seed is not None and cfg.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {cfg.seed}")
    if not cfg.models:
        raise ValueError("no models configured")
    repeated = next((m for i, m in enumerate(cfg.models) if m in cfg.models[:i]), None)
    if repeated is not None:
        raise ValueError(f"model {repeated} listed twice")
    return cfg


def build_models(cfg: RunConfig) -> tuple[list, list[str]]:
    """The listed models that build, and the specs of those that fail (named on stderr)."""
    predictors, failed = [], []
    for spec in cfg.models:
        try:
            predictors.append(cfg.build(spec))
        except Exception as exc:  # noqa: BLE001 - per-model failures must not stop the run
            print(f"model {spec} failed to build: {exc}", file=sys.stderr)
            failed.append(spec)
    return predictors, failed


def _load_records(cfg: RunConfig):
    if not cfg.matches_path:
        raise ValueError("no matches file given (use --matches)")
    records = [r for _, r in parse_matches_with_lines(read_csv_text(cfg.matches_path))]
    if not records:
        raise ValueError(f"no matches in {cfg.matches_path}")
    return records


def cmd_validate(args: argparse.Namespace) -> int:
    records = _load_records(load_config(args))
    seasons = build_seasons(records, strict=args.strict)
    for season in seasons:
        scheduled = [m for m in season.matches if not m.played]
        shape = "complete season" if not season.irregular else "irregular season"
        print(
            f"season {season.year}: {shape} "
            f"({len(season.teams)} teams, {len(season.matches)} matches, "
            f"{season.rounds} rounds, {len(scheduled)} scheduled)"
        )
        for m in scheduled:
            print(f"  scheduled: matchday {m.matchday}, {m.home} vs {m.away}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    seasons = build_seasons(_load_records(cfg))
    if args.season is not None:
        wanted = [s for s in seasons if s.year == args.season]
        if not wanted:
            raise ValueError(f"season {args.season} not in {cfg.matches_path}")
        season = wanted[0]
    elif len(seasons) == 1:
        season = seasons[0]
    else:
        raise ValueError("multiple seasons in file; pick one with --season")

    matchday = args.matchday
    if not season.matches_of(matchday):
        raise ValueError(f"no fixtures for matchday {matchday}")

    ctx = context_for(seasons, season, matchday)
    rows: list[tuple[object, ...]] = []
    param_dumps: list[tuple[str, str]] = []
    for predictor in build_models(cfg)[0]:
        name = predictor.name
        forecast = predict_or_reason(predictor, ctx)
        if isinstance(forecast, str):
            print(f"model {name} failed: {forecast}", file=sys.stderr)
            continue
        for fixture in ctx.fixtures:
            p = forecast.predictions.get(fixture)
            if p is None:
                print(
                    f"model {name}: no prediction for {fixture.home} vs {fixture.away}",
                    file=sys.stderr,
                )
                continue
            rows.append((name, *fixture_key(fixture), *p.as_tuple()))
        if args.dump_params and forecast.fit is not None:
            param_dumps.append((name, forecast.fit.params.to_csv()))
    if not rows:
        raise ValueError("no usable models")
    output = format_csv(("model", "season", "matchday", "home", "away", "p1", "p2", "p3"), rows)
    if cfg.output_dir:
        out_dir = Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"predictions_matchday{matchday}.csv"
        path.write_text(output, encoding="utf-8")
        print(f"wrote {path}")
        for spec, text in param_dumps:
            params_path = out_dir / f"params_{spec}_matchday{matchday}.csv"
            params_path.write_text(text, encoding="utf-8")
            print(f"wrote {params_path}")
    else:
        print(output, end="")
        for spec, text in param_dumps:
            print(f"# fitted parameters for {spec}")
            print(text, end="")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    seasons = build_seasons(_load_records(cfg))
    check_evaluable(seasons)

    predictors, failed = build_models(cfg)
    if not predictors:
        raise ValueError("no usable models")

    reports = evaluate(predictors, seasons)
    reported = {r.model for r in reports}
    for predictor in predictors:
        if predictor.name not in reported:
            print(f"model {predictor.name} produced no predictions", file=sys.stderr)
            failed.append(predictor.name)
    if not reports:
        raise ValueError("no usable models")
    json_path, csv_path = write_reports(reports, cfg.output_dir or "matchcast-report")
    print(summary_table(reports), end="")
    if failed:
        print(f"failed models (excluded from report): {', '.join(failed)}")
    print(f"wrote {json_path} and {csv_path}")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import DEFAULT_SEED, run_all

    cfg = load_config(args)
    results = run_all(DEFAULT_SEED if cfg.seed is None else cfg.seed)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchcast",
        description="Categorical football match forecasting and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flag_help = {
        "matches": "match CSV path",
        "models": "comma-separated model list",
        "out": "output directory",
    }

    def flags(p: argparse.ArgumentParser, *names: str) -> None:
        for name in names:
            p.add_argument(f"--{name}", help=flag_help[name])

    p_validate = sub.add_parser("validate", help="check a match CSV")
    flags(p_validate, "matches")
    p_validate.add_argument("--strict", action="store_true", help="reject irregular seasons")
    p_validate.set_defaults(func=cmd_validate)

    p_predict = sub.add_parser("predict", help="predict one matchday")
    flags(p_predict, "matches", "models", "out")
    p_predict.add_argument("--matchday", type=int, required=True)
    p_predict.add_argument("--season", type=int, help="season year (if several in the file)")
    p_predict.add_argument(
        "--dump-params",
        action="store_true",
        help="also export fitted model parameters (bt, poisson models)",
    )
    p_predict.set_defaults(func=cmd_predict)

    p_evaluate = sub.add_parser("evaluate", help="score models over second halves")
    flags(p_evaluate, "matches", "models", "out")
    p_evaluate.set_defaults(func=cmd_evaluate)

    p_selftest = sub.add_parser("selftest", help="run the acceptance checks")
    p_selftest.add_argument("--seed", type=int, help="simulation seed (default: the frozen one)")
    p_selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: validate, predict, evaluate, selftest.

Runs are reproducible: a single key=value config file (overridable by
flags) plus the input CSV fully determine every output byte.  The config
path may also come from the ``MATCHCAST_CONFIG`` environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .data import MatchDataError, build_seasons, format_csv, parse_matches_with_lines
from .evaluation import (
    check_evaluable,
    check_played_before,
    context_for,
    evaluate,
    predict_or_reason,
)
from .predictors import KNOWN_MODELS, build_predictor, settings_keys
from .reports import summary_table, write_reports

CONFIG_ENV_VAR = "MATCHCAST_CONFIG"
RUN_KEYS = frozenset({"matches", "models", "out", "seed"})


@dataclass
class RunConfig:
    matches_path: str | None = None
    models: tuple[str, ...] = KNOWN_MODELS
    output_dir: str | None = None  # evaluate: matchcast-report; predict: stdout
    seed: int | None = None  # selftest's own default when unset
    raw: dict[str, str] = field(default_factory=dict)

    def build(self, spec: str):
        """Build one model from the config's settings (see ``build_predictor``)."""
        return build_predictor(spec, self.raw)


def parse_config_file(path: str | Path) -> dict[str, str]:
    """key=value lines; blank lines and ``#`` comments ignored, a repeated key refused."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in stripped.partition("="))
        if not eq or not key:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
        if key in values:
            raise ValueError(
                f"{path}:{line_no}: key {key} given twice (first on line {first_line[key]})"
            )
        values[key] = value
        first_line[key] = line_no
    return values


def load_config(args: argparse.Namespace) -> RunConfig:
    """The config file's run keys, overridden by every flag given (not None, not "")."""
    raw: dict[str, str] = {}
    config_path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        raw = parse_config_file(config_path)
        unknown = sorted(set(raw) - RUN_KEYS - settings_keys())
        if unknown:
            raise ValueError(f"{config_path}: unknown config key {', '.join(unknown)}")
    run = {key: raw[key] for key in RUN_KEYS if key in raw}
    for key in RUN_KEYS:
        if getattr(args, key, None) not in (None, ""):
            run[key] = getattr(args, key)
    cfg = RunConfig(matches_path=run.get("matches"), output_dir=run.get("out"), raw=raw)
    if "models" in run:
        cfg.models = tuple(m.strip() for m in run["models"].split(",") if m.strip())
    if "seed" in run:
        cfg.seed = int(run["seed"])
        if cfg.seed < 0:
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
        raise ValueError("no matches file given (use --matches or the config file)")
    text = Path(cfg.matches_path).read_text(encoding="utf-8")
    return parse_matches_with_lines(text)


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    try:
        numbered = _load_records(cfg)
    except (MatchDataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = [r for _, r in numbered]

    # Duplicate fixtures, reported with every involved line.
    lines_by_key: dict[tuple[int, int, str, str], list[int]] = {}
    for line, r in numbered:
        lines_by_key.setdefault((r.season, r.matchday, r.home, r.away), []).append(line)
    duplicates = {k: v for k, v in lines_by_key.items() if len(v) > 1}
    for key, lines in sorted(duplicates.items()):
        print(
            f"error: duplicate fixture {key} on lines {', '.join(map(str, lines))}",
            file=sys.stderr,
        )
    if duplicates:
        return 2

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
    numbered = _load_records(cfg)
    seasons = build_seasons([r for _, r in numbered])
    if args.season is not None:
        wanted = [s for s in seasons if s.year == args.season]
        if not wanted:
            print(f"error: season {args.season} not in {cfg.matches_path}", file=sys.stderr)
            return 2
        season = wanted[0]
    elif len(seasons) == 1:
        season = seasons[0]
    else:
        print("error: multiple seasons in file; pick one with --season", file=sys.stderr)
        return 2

    matchday = args.matchday
    if not season.matches_of(matchday):
        print(f"error: no fixtures for matchday {matchday}", file=sys.stderr)
        return 2
    check_played_before(season, matchday)

    ctx = context_for(seasons, season, matchday)
    rows: list[tuple[object, ...]] = []
    param_dumps: list[tuple[str, str]] = []
    for predictor in build_models(cfg)[0]:
        name = predictor.name
        predictions = predict_or_reason(predictor, ctx)
        if isinstance(predictions, str):
            print(f"model {name} failed: {predictions}", file=sys.stderr)
            continue
        for fixture in ctx.fixtures:
            p = predictions.get(fixture)
            if p is None:
                print(
                    f"model {name}: no prediction for {fixture.home} vs {fixture.away}",
                    file=sys.stderr,
                )
                continue
            rows.append(
                (name, fixture.season, fixture.matchday, fixture.home, fixture.away, *p.as_tuple())
            )
        fitted = getattr(predictor, "last_fit", None)
        if args.dump_params and fitted is not None:
            param_dumps.append((name, fitted.params.to_csv()))
    if not rows:
        print("error: no usable models", file=sys.stderr)
        return 2
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
    numbered = _load_records(cfg)
    seasons = build_seasons([r for _, r in numbered])
    check_evaluable(seasons)

    predictors, failed = build_models(cfg)
    if not predictors:
        print("error: no usable models", file=sys.stderr)
        return 2

    reports = evaluate(predictors, seasons)
    reported = {r.model for r in reports}
    for predictor in predictors:
        if predictor.name not in reported:
            print(f"model {predictor.name} produced no predictions", file=sys.stderr)
            failed.append(predictor.name)
    if not reports:
        print("error: no usable models", file=sys.stderr)
        return 2
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
        "config": f"config file (or ${CONFIG_ENV_VAR})",
    }

    def flags(p: argparse.ArgumentParser, *names: str) -> None:
        for name in names:
            p.add_argument(f"--{name}", help=flag_help[name])

    p_validate = sub.add_parser("validate", help="check a match CSV")
    flags(p_validate, "matches", "config")
    p_validate.add_argument("--strict", action="store_true", help="reject irregular seasons")
    p_validate.set_defaults(func=cmd_validate)

    p_predict = sub.add_parser("predict", help="predict one matchday")
    flags(p_predict, "matches", "models", "out", "config")
    p_predict.add_argument("--matchday", type=int, required=True)
    p_predict.add_argument("--season", type=int, help="season year (if several in the file)")
    p_predict.add_argument(
        "--dump-params",
        action="store_true",
        help="also export fitted model parameters (bt, poisson models)",
    )
    p_predict.set_defaults(func=cmd_predict)

    p_evaluate = sub.add_parser("evaluate", help="score models over second halves")
    flags(p_evaluate, "matches", "models", "out", "config")
    p_evaluate.set_defaults(func=cmd_evaluate)

    p_selftest = sub.add_parser("selftest", help="run the acceptance checks")
    flags(p_selftest, "config")
    p_selftest.add_argument("--seed", type=int, help="simulation seed (default: the frozen one)")
    p_selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MatchDataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

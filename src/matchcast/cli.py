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

from .data import MatchDataError, build_seasons, parse_matches_with_lines
from .dirichlet import GridSpec
from .evaluation import check_evaluable, context_for, evaluate
from .optimize import OptimSettings
from .poisson import DEFAULT_TAIL_TOL, TrainingWindow
from .predictors import build_predictor
from .reports import summary_table, write_reports

DEFAULT_MODELS = ("trivial", "mn-dir1", "mn-dir2", "bt", "poisson-lee", "poisson-biv")
DEFAULT_SEED = 20062014
CONFIG_ENV_VAR = "MATCHCAST_CONFIG"


@dataclass
class RunConfig:
    matches_path: str | None = None
    models: tuple[str, ...] = DEFAULT_MODELS
    output_dir: str = "matchcast-report"
    seed: int = DEFAULT_SEED
    raw: dict[str, str] = field(default_factory=dict)

    def _get(self, key: str, default: str) -> str:
        return self.raw.get(key, default)

    def bt_settings(self) -> OptimSettings:
        return OptimSettings(
            tol=float(self._get("bt.tol", "1e-8")),
            max_iter=int(self._get("bt.max_iter", "500")),
        )

    def poisson_settings(self) -> OptimSettings:
        return OptimSettings(
            tol=float(self._get("poisson.tol", "1e-8")),
            max_iter=int(self._get("poisson.max_iter", "500")),
        )

    def tail_tol(self) -> float:
        return float(self._get("poisson.tail_tol", repr(DEFAULT_TAIL_TOL)))

    def poisson_correlated(self) -> bool:
        value = self._get("poisson.correlated", "true").lower()
        if value not in ("true", "false"):
            raise ValueError(f"poisson.correlated must be true or false, got {value!r}")
        return value == "true"

    def window(self) -> TrainingWindow:
        return TrainingWindow.parse(self._get("poisson.window", "all"))

    def grid(self) -> GridSpec:
        default = GridSpec.default()
        w = self.raw.get("mn_dir2.w_grid")
        alpha = self.raw.get("mn_dir2.alpha_grid")
        return GridSpec(
            w_points=_parse_floats(w) if w else default.w_points,
            alpha_points=_parse_floats(alpha) if alpha else default.alpha_points,
        )

    def build(self, spec: str):
        """Build one model, parsing only that model's own settings keys."""
        if spec == "mn-dir2":
            return build_predictor(spec, grid=self.grid())
        if spec == "bt":
            return build_predictor(spec, bt_settings=self.bt_settings())
        if spec in ("poisson-lee", "poisson-biv"):
            return build_predictor(
                spec,
                poisson_settings=self.poisson_settings(),
                tail_tol=self.tail_tol(),
                window=self.window(),
                correlated=self.poisson_correlated(),
            )
        return build_predictor(spec)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def parse_config_file(path: str | Path) -> dict[str, str]:
    """key=value lines; blank lines and ``#`` comments ignored."""
    values: dict[str, str] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    config_path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        cfg.raw = parse_config_file(config_path)
        if "matches" in cfg.raw:
            cfg.matches_path = cfg.raw["matches"]
        if "models" in cfg.raw:
            cfg.models = tuple(m.strip() for m in cfg.raw["models"].split(",") if m.strip())
        if "out" in cfg.raw:
            cfg.output_dir = cfg.raw["out"]
        if "seed" in cfg.raw:
            cfg.seed = int(cfg.raw["seed"])
    if getattr(args, "matches", None):
        cfg.matches_path = args.matches
    if getattr(args, "models", None):
        cfg.models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    if getattr(args, "out", None):
        cfg.output_dir = args.out
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if not cfg.models:
        raise ValueError("no models configured")
    repeated = next((m for i, m in enumerate(cfg.models) if m in cfg.models[:i]), None)
    if repeated is not None:
        raise ValueError(f"model {repeated} listed twice")
    return cfg


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
    if any(not m.played for m in season.matches if m.matchday < matchday):
        print(f"error: unplayed matches before matchday {matchday}", file=sys.stderr)
        return 2

    ctx = context_for(seasons, season, matchday)
    rows = ["model,season,matchday,home,away,p1,p2,p3"]
    param_dumps: list[tuple[str, str]] = []
    for spec in cfg.models:
        try:
            predictor = cfg.build(spec)
            predictions = predictor.predict(ctx)
        except Exception as exc:  # noqa: BLE001 - per-model failures must not stop the run
            print(f"model {spec} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        for fixture in ctx.fixtures:
            p = predictions.get(fixture)
            if p is None:
                print(
                    f"model {spec}: no prediction for {fixture.home} vs {fixture.away}",
                    file=sys.stderr,
                )
                continue
            rows.append(
                f"{spec},{fixture.season},{fixture.matchday},{fixture.home},"
                f"{fixture.away},{p.p_home!r},{p.p_draw!r},{p.p_away!r}"
            )
        fitted = getattr(predictor, "last_fit", None)
        if args.dump_params and fitted is not None:
            param_dumps.append((spec, fitted.params.to_csv()))
    output = "\n".join(rows) + "\n"
    if args.out:
        out_dir = Path(args.out)
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

    predictors = []
    failed: list[str] = []
    for spec in cfg.models:
        try:
            predictors.append(cfg.build(spec))
        except Exception as exc:  # noqa: BLE001
            print(f"model {spec} failed to build: {exc}", file=sys.stderr)
            failed.append(spec)
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
    json_path, csv_path = write_reports(reports, cfg.output_dir)
    print(summary_table(reports), end="")
    if failed:
        print(f"failed models (excluded from report): {', '.join(failed)}")
    print(f"wrote {json_path} and {csv_path}")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_all

    cfg = load_config(args)
    results = run_all(seed=cfg.seed)
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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--matches", help="match CSV path")
        p.add_argument("--models", help="comma-separated model list")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="run seed")
        p.add_argument("--config", help=f"config file (or ${CONFIG_ENV_VAR})")

    p_validate = sub.add_parser("validate", help="check a match CSV")
    common(p_validate)
    p_validate.add_argument("--strict", action="store_true", help="reject irregular seasons")
    p_validate.set_defaults(func=cmd_validate)

    p_predict = sub.add_parser("predict", help="predict one matchday")
    common(p_predict)
    p_predict.add_argument("--matchday", type=int, required=True)
    p_predict.add_argument("--season", type=int, help="season year (if several in the file)")
    p_predict.add_argument(
        "--dump-params",
        action="store_true",
        help="also export fitted model parameters (bt, poisson models)",
    )
    p_predict.set_defaults(func=cmd_predict)

    p_evaluate = sub.add_parser("evaluate", help="score models over second halves")
    common(p_evaluate)
    p_evaluate.set_defaults(func=cmd_evaluate)

    p_selftest = sub.add_parser("selftest", help="run the acceptance checks")
    common(p_selftest)
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

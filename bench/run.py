"""matchcast benchmark: rolling evaluation, long-archive scoring, cold predict.

Run from the repository root:

    python3 bench/run.py --workload paper-evaluate --seed 7 --seconds 30 --trace 0

Each run is one fresh process with single-threaded BLAS, one closed-loop
client and no warm-up.  It generates (or reuses) the seed's archives under
``bench/_work/``, times set-up several times, runs about ``--seconds`` of
passes, checks every prediction (``check.py``) and prints one JSON object
as its last line.  ``--trace 1`` halves the untraced passes, adds one
traced pass and reports the per-layer metrics instead of the end-to-end
ones.

Other modes:

    python3 bench/run.py --smoke                 every workload at desk scale
    python3 bench/run.py --record-ref --seed N   store a reference for seed N

See ``bench/README.md`` for the workloads, metrics and layer map.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
REF_DIRS = [BENCH / "refs", WORK / "refs"]
SETUP_SAMPLES = 3

sys.path.insert(0, str(BENCH))
import check  # noqa: E402
from spans import Tracer, model_key  # noqa: E402


@dataclass(frozen=True)
class Archive:
    """Consecutive seasons ``first ..`` of a seed's season stream."""

    seed: int
    first: int
    seasons: int
    teams: int

    @property
    def name(self) -> str:
        last = self.first + self.seasons - 1
        return f"seed{self.seed}-s{self.first}-{last}-t{self.teams}"

    def files(self) -> Path:
        """The generated CSVs, made once in a separate process."""
        out = WORK / "fixtures" / self.name
        if not (out / "external.csv").is_file():
            tmp = out.with_name(out.name + ".tmp")
            shutil.rmtree(tmp, ignore_errors=True)
            subprocess.run(
                [sys.executable, str(BENCH / "fixture.py"), "--seed", str(self.seed),
                 "--first-season", str(self.first), "--seasons", str(self.seasons),
                 "--teams", str(self.teams), "--out", str(tmp)],
                check=True, stdout=subprocess.DEVNULL,
            )
            shutil.rmtree(out, ignore_errors=True)
            tmp.rename(out)
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    seasons: int  # per archive
    archives: int  # pass k runs on archive k mod archives
    models: tuple[str, ...]
    pass_s: float  # seconds budgeted per pass; sets how many passes --seconds buys
    predict: bool = False  # a pass is one cycle of CLI predict requests

    def archive_list(self, seed: int, smoke: bool) -> list[Archive]:
        seasons, teams = SMOKE_SIZE if smoke else (self.seasons, 20)
        return [Archive(seed, k * seasons, seasons, teams) for k in range(self.archives)]

    def passes(self, seconds: float) -> int:
        """Fixed from ``--seconds``, so every commit measures the same work."""
        return max(1, round(seconds / self.pass_s))

    def specs(self, files: Path) -> list[str]:
        # Relative to the checkout root, so report sizes do not depend on
        # where the checkout lives.
        external = (files / "external.csv").relative_to(ROOT)
        return [f"external:{external}" if m == "external" else m for m in self.models]


# Fit effort differs between archives (one non-converging fit can add 30%
# to a pass), so the fitted workloads cycle through independent archives.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-evaluate", 2, 3,
            ("trivial", "mn-dir1", "mn-dir2", "bt", "poisson-lee", "poisson-biv", "external"),
            pass_s=11.0,
        ),
        Workload("deep-archive", 20, 1, ("trivial", "mn-dir1", "external"), pass_s=4.5),
        Workload(
            "matchday-predict", 2, 3,
            ("trivial", "mn-dir1", "bt", "poisson-lee", "poisson-biv"),
            pass_s=10.0, predict=True,
        ),
    )
}
SMOKE_SIZE = (2, 6)
PAPER = WORKLOADS["paper-evaluate"]


def log(text: str) -> None:
    print(text, flush=True)


# -- set-up and passes -----------------------------------------------------------


def setup(workload: Workload, files: Path):
    """Import matchcast, parse and build the archive, build every predictor."""
    start = time.perf_counter()
    import matchcast.cli as cli

    numbered = cli.parse_matches_with_lines((files / "matches.csv").read_text(encoding="utf-8"))
    seasons = cli.build_seasons([r for _, r in numbered])
    cfg = cli.RunConfig()
    predictors = [cfg.build(spec) for spec in workload.specs(files)]
    return time.perf_counter() - start, (seasons, predictors)


def evaluate_pass(cli, seasons, predictors, out_dir: Path):
    """One ``evaluate`` + ``write_reports`` + ``summary_table``, as ``cmd_evaluate``."""
    gc.collect()
    start = time.perf_counter()
    reports = cli.evaluate(predictors, seasons)
    cli.write_reports(reports, out_dir)
    cli.summary_table(reports)
    return time.perf_counter() - start, reports


def predict_requests(seasons) -> list[tuple[int, int]]:
    """(season, matchday) for every second-half matchday of the two newest seasons."""
    from matchcast.data import second_half_matchdays

    return [(s.year, d) for s in seasons[-2:] for d in second_half_matchdays(s)]


def predict_request(cli, files: Path, models, year: int, matchday: int):
    argv = ["predict", "--matches", str(files / "matches.csv"), "--season", str(year),
            "--matchday", str(matchday), "--models", ",".join(models)]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


# -- checks ----------------------------------------------------------------------


def check_reports(checker: check.Checker, reports, keys) -> None:
    got = {}
    mn_dir2 = {}
    for report in reports:
        model = model_key(report.model)
        for s in report.per_match:
            m = s.match
            got[(model, m.season, m.matchday, m.home, m.away)] = s.prediction.as_tuple()
        if model == "mn-dir2":
            mn_dir2 = checker.mn_dir2_settings(report.settings_by_year)
    models = [model_key(r.model) for r in reports]
    checker.predictions(got, models, keys, mn_dir2)


def check_predict(checker: check.Checker, models, keys, code: int, out: str, err: str) -> None:
    if code != 0:
        checker.attempted += len(models) * len(keys)
        checker.fail(f"predict exited {code}: {err.strip()[:200]}", len(models) * len(keys))
        return
    got = {}
    for line in out.splitlines()[1:]:
        model, season, day, home, away, *probs = line.split(",")
        got[(model, int(season), int(day), home, away)] = tuple(float(p) for p in probs)
    checker.predictions(got, models, keys)


# -- measurement -----------------------------------------------------------------


@dataclass
class Loaded:
    """One archive, parsed outside any timed region, with its checker."""

    files: Path
    seasons: list
    checker: check.Checker
    keys: list


def load(archive: Archive, seasons=None) -> Loaded:
    files = archive.files()
    if seasons is None:
        seasons = parse_archive(files)
    matches = check.read_matches(files / "matches.csv")
    ref = check.load_ref(REF_DIRS, archive.name)
    checker = check.Checker(matches, check.read_external(files / "external.csv"), ref)
    log(f"archive {archive.name}: "
        + ("reference found" if ref else "no stored reference: fitted models are checked "
           "for presence and simplex validity only"))
    return Loaded(files, seasons, checker, check.second_half_keys(matches))


def parse_archive(files: Path):
    import matchcast.cli as cli

    text = (files / "matches.csv").read_text(encoding="utf-8")
    return cli.build_seasons([r for _, r in cli.parse_matches_with_lines(text)])


def setup_samples(args, first: float) -> list[float]:
    """The in-process set-up plus fresh-process repeats of it."""
    samples = [first]
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, check=True, capture_output=True, text=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_pass(cli, workload: Workload, data: Loaded, predictors=None, tracer=None) -> list[float]:
    """Per-command seconds of one pass, every output checked."""
    if not workload.predict:
        if predictors is None:
            cfg = cli.RunConfig()
            predictors = [cfg.build(spec) for spec in workload.specs(data.files)]
        dt, reports = evaluate_pass(cli, data.seasons, predictors, WORK / f"out-{workload.name}")
        check_reports(data.checker, reports, data.keys)
        return [dt]
    samples = []
    for year, day in predict_requests(data.seasons):
        span = tracer.open("cli.predict") if tracer else None
        dt, code, out, err = predict_request(cli, data.files, workload.models, year, day)
        if tracer:
            tracer.close(span)
        samples.append(dt)
        day_keys = [k for k in data.keys if k[0] == year and k[1] == day]
        check_predict(data.checker, workload.models, day_keys, code, out, err)
    return samples


# -- run records ----------------------------------------------------------------


def machine_record() -> dict:
    """Where and on what the numbers were taken."""
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "matchcast").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_head(),
        "source_sha256": digest.hexdigest()[:16],
    }


def git_head() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def percentile_line(samples_ms: list[float]) -> str:
    """Median and the highest whole percentile with at least ten samples beyond it."""
    n = len(samples_ms)
    line = f"n={n} p50={statistics.median(samples_ms):.3f}ms"
    if n <= 10:
        line += f" samples={[round(x, 1) for x in samples_ms]}"
    top = (n - 10) * 100 // n if n > 10 else 0
    if top > 50:
        cut = statistics.quantiles(samples_ms, n=100, method="inclusive")[top - 1]
        line += f" p{top}={cut:.3f}ms"
    return line


def record_ref(args) -> int:
    """Store the fitted models' predictions on each ``paper-evaluate`` archive."""
    import matchcast.cli as cli

    for archive in PAPER.archive_list(args.seed, args.scale == "smoke"):
        files = archive.files()
        cfg = cli.RunConfig()
        predictors = [cfg.build(m) for m in ("mn-dir2", *check.REF_MODELS)]
        reports = cli.evaluate(predictors, parse_archive(files))
        predictions = {
            (r.model, s.match.season, s.match.matchday, s.match.home, s.match.away):
                s.prediction.as_tuple()
            for r in reports for s in r.per_match
        }
        mn_dir2 = {str(y): v for y, v in reports[0].settings_by_year.items()}
        keys = check.second_half_keys(check.read_matches(files / "matches.csv"))
        path = check.ref_path(WORK / "refs", archive.name)
        check.write_ref(path, keys, predictions, mn_dir2)
        log(f"wrote {path}")
    return 0


# -- entry points ---------------------------------------------------------------


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    load_at_start = os.getloadavg()
    archives = workload.archive_list(args.seed, args.scale == "smoke")
    if args.trace:
        archives = archives[:1]  # traced and untraced passes on the same input
    files = archives[0].files()

    first, (seasons, predictors) = setup(workload, files)
    import matchcast.cli as cli

    machine = machine_record()
    machine["loadavg_start"] = [round(x, 2) for x in load_at_start]
    log("machine " + json.dumps(machine))
    log(f"workload {workload.name}, seed {args.seed}, models {','.join(workload.models)}")
    loaded = [load(archives[0], seasons)] + [load(a) for a in archives[1:]]

    passes = workload.passes(args.seconds / 2 if args.trace else args.seconds)
    plain: list[float] = []
    for k in range(passes):
        plain += run_pass(cli, workload, loaded[k % len(loaded)], predictors if k == 0 else None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(f"command: {passes} passes, {percentile_line([t * 1000 for t in plain])}")

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            _, (seasons, predictors) = setup(workload, files)
            traced = run_pass(cli, workload, loaded[0], predictors, tracer)
        finally:
            tracer.remove()
        tracer.write(WORK / f"spans-{workload.name}-seed{args.seed}.json")
        metrics = tracer.metrics()
        overhead = (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0
        metrics["trace.overhead_pct"] = (overhead, "%")
    else:
        setup_s = setup_samples(args, first)
        log(f"setup: samples {[round(s, 4) for s in setup_s]}")
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "command_p50_ms": (statistics.median(plain) * 1000.0, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    attempted = sum(d.checker.attempted for d in loaded)
    failed = sum(d.checker.failed for d in loaded)
    log(f"check: attempted {attempted}, failed {failed}")
    for data in loaded:
        for note in data.checker.notes:
            log(f"  failed: {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def setup_probe(args) -> int:
    workload = WORKLOADS[args.workload]
    files = workload.archive_list(args.seed, args.scale == "smoke")[0].files()
    seconds, _ = setup(workload, files)
    print(json.dumps({"setup_s": seconds}))
    return 0


def smoke(args) -> int:
    """Every workload, plain and traced, at desk scale: all metrics, no failures."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    seed = str(args.seed)
    base = [sys.executable, str(BENCH / "run.py"), "--seed", seed, "--scale", "smoke"]
    subprocess.run(base + ["--record-ref"], check=True, stdout=subprocess.DEVNULL)
    problems = []
    for name in WORKLOADS:
        for trace_flag in (0, 1):
            done = subprocess.run(
                # Long enough for every workload to visit each of its archives.
                base + ["--workload", name, "--seconds", str(PAPER.archives * PAPER.pass_s),
                        "--trace", str(trace_flag)],
                capture_output=True, text=True,
            )
            label = f"{name} --trace {trace_flag}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            missing = wanted[trace_flag] - set(result["metrics"])
            extra = set(result["metrics"]) - wanted[trace_flag]
            if missing or extra:
                problems.append(f"{label}: missing {sorted(missing)}, unexpected {sorted(extra)}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            log(f"{label}: attempted {result['attempted']}, failed {result['failed']}")
    for problem in problems:
        log(f"SMOKE FAIL {problem}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="matchcast benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "smoke"), default="bench",
                        help="archive size: the workload's own, or 2 seasons x 6 teams")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true", help="run every workload at desk scale")
    mode.add_argument("--record-ref", action="store_true",
                      help="store this tree's fitted predictions for --seed under bench/_work/refs")
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "matchcast" / "__init__.py").is_file():
        print(f"error: no matchcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    if args.smoke:
        return smoke(args)
    if args.record_ref:
        return record_ref(args)
    if args.workload is None:
        parser.error("--workload is required")
    return setup_probe(args) if args.setup_probe else run(args)


if __name__ == "__main__":
    sys.exit(main())

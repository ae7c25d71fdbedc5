"""Acceptance checks runnable from the CLI (``matchcast selftest``).

Each check is a self-contained function returning whether it passed and
a detail line; :func:`run_all` names each result after its function, and
the pytest acceptance module drives the same functions.  Statistical checks
are seeded: with the default seed every check is expected to pass, while a
custom seed re-rolls the simulations (the tolerances then hold with high
probability, not with certainty).
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .data import CountVector, MatchRecord, Outcome, Prediction, build_season, outcome_of
from .davidson import BTParams, _DavidsonObjective, bt_fit, bt_outcome_probs
from .dirichlet import (
    DirichletParams,
    GridSpec,
    MnDir2Config,
    cv_select,
    mn_dir1_predict,
    mn_dir2_predict,
    posterior,
)
from .evaluation import PredictionContext, context_for, evaluate
from .poisson import (
    DEFAULT_TAIL_TOL,
    BivPoissonParams,
    TeamStrengths,
    link_rates,
    outcome_probs,
    poisson_fit,
    score_grid,
)
from .predictors import KNOWN_MODELS, build_predictor
from .reports import write_reports
from .scoring import brier, calibration_curve, chi_square_gof, log_score, spherical

DEFAULT_SEED = 20062014


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def single_round_robin(teams: Sequence[str]) -> list[list[tuple[str, str]]]:
    """Circle-method schedule: every team plays once per round."""
    n = len(teams)
    if n % 2 != 0:
        raise ValueError("need an even number of teams")
    rounds = []
    others = list(range(1, n))
    for r in range(n - 1):
        order = [0] + [others[(r + i) % (n - 1)] for i in range(n - 1)]
        pairs = []
        for i in range(n // 2):
            a, b = order[i], order[n - 1 - i]
            if r % 2 == 1:
                a, b = b, a
            pairs.append((teams[a], teams[b]))
        rounds.append(pairs)
    return rounds


def double_round_robin(teams: Sequence[str]) -> list[list[tuple[str, str]]]:
    first = single_round_robin(teams)
    return first + [[(b, a) for a, b in rnd] for rnd in first]


def _goals_for(outcome: Outcome) -> tuple[int, int]:
    if outcome is Outcome.HOME_WIN:
        return 1, 0
    if outcome is Outcome.DRAW:
        return 0, 0
    return 0, 1


def _sample_outcome(rng: np.random.Generator, p: Prediction) -> Outcome:
    u = rng.random()
    if u < p.p_home:
        return Outcome.HOME_WIN
    if u < p.p_home + p.p_draw:
        return Outcome.DRAW
    return Outcome.AWAY_WIN


def _results(
    probs: Callable[[str, str], Prediction], rng: np.random.Generator
) -> Callable[[str, str], tuple[int, int]]:
    """Goals that encode an outcome drawn from ``probs(home, away)`` with one uniform."""
    return lambda h, a: _goals_for(_sample_outcome(rng, probs(h, a)))


def _play(
    goals: Callable[[str, str], tuple[int, int]], teams: Sequence[str], replications: int,
    year: int,
) -> list[MatchRecord]:
    """Scores drawn from ``goals(home, away)`` over repeated schedules, in schedule order."""
    return [
        MatchRecord(year, matchday, h, a, *goals(h, a))
        for matchday, rnd in enumerate(double_round_robin(teams) * replications, 1)
        for h, a in rnd
    ]


def simulate_davidson_season(
    params: BTParams, teams: Sequence[str], replications: int,
    rng: np.random.Generator, year: int = 2000,
) -> list[MatchRecord]:
    """Outcomes drawn from the paired-comparison model over repeated schedules."""
    goals = _results(lambda h, a: bt_outcome_probs(params, h, a), rng)
    return _play(goals, teams, replications, year)


def simulate_poisson_matches(
    strengths: TeamStrengths,
    teams: Sequence[str],
    replications: int,
    rng: np.random.Generator,
    year: int = 2000,
) -> list[MatchRecord]:
    """Scores drawn from the goals model over repeated schedules."""
    rates = {(h, a): link_rates(strengths, h, a) for h in teams for a in teams if h != a}

    def goals(h: str, a: str) -> tuple[int, int]:
        r = rates[(h, a)]
        shared = rng.poisson(r.lambda3) if r.lambda3 > 0 else 0
        return int(rng.poisson(r.lambda1)) + shared, int(rng.poisson(r.lambda2)) + shared

    return _play(goals, teams, replications, year)


def simulate_played_season(
    teams: Sequence[str], year: int, rng: np.random.Generator,
    probs: tuple[float, float, float] = (0.45, 0.27, 0.28),
):
    """A fully played synthetic season with i.i.d. outcomes."""
    p = Prediction(*probs)
    return build_season(_play(_results(lambda h, a: p, rng), teams, 1, year))


# ---------------------------------------------------------------------------
# The acceptance checks
# ---------------------------------------------------------------------------

def check_worked_example(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Count-mixture prediction for h=(6,2,1), a=(2,3,4) under the flat prior."""
    h = CountVector(6, 2, 1)
    a = CountVector(2, 3, 4)
    p = mn_dir1_predict(h, a)
    expected = (0.5, 0.2917, 0.2083)
    errs = [abs(x - e) for x, e in zip(p.as_tuple(), expected)]
    start = time.perf_counter()
    loops = 1000
    for _ in range(loops):
        mn_dir1_predict(h, a)
    per_call = (time.perf_counter() - start) / loops
    passed = max(errs) <= 5e-5 and per_call < 1e-3
    return passed, (
        f"prediction={tuple(round(x, 6) for x in p.as_tuple())}, "
        f"max_err={max(errs):.2e}, per_call={per_call * 1e6:.1f}us"
    )


def check_golden_scores(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Scoring-rule values for P=(0.25,0.35,0.40) with an away win, and the uniform forecast."""
    p = Prediction(0.25, 0.35, 0.40)
    x = Outcome.AWAY_WIN
    tol = 1e-12
    checks = [
        ("brier", brier(x, p), 0.545),
        ("log", log_score(x, p), -math.log(0.4)),
        ("spherical", spherical(x, p), -0.4 / math.sqrt(0.345)),
    ]
    uniform = Prediction(1 / 3, 1 / 3, 1 / 3)
    for outcome in Outcome:
        checks.append((f"trivial-brier-{outcome.value}", brier(outcome, uniform), 2 / 3))
        checks.append((f"trivial-log-{outcome.value}", log_score(outcome, uniform), math.log(3)))
        checks.append(
            (f"trivial-spherical-{outcome.value}", spherical(outcome, uniform), -1 / math.sqrt(3))
        )
    worst = max(abs(got - want) for _, got, want in checks)
    return worst <= tol, f"max_abs_err={worst:.2e}"


def _simplex_grid(step_denominator: int) -> list[Prediction]:
    d = step_denominator
    return [
        Prediction(i / d, j / d, (d - i - j) / d)
        for i in range(d + 1)
        for j in range(d + 1 - i)
    ]


def check_propriety_grid(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Expected score over a 0.05-step simplex grid is minimized at P = Q, per rule."""
    start = time.perf_counter()
    grid = _simplex_grid(20)
    m = len(grid)
    q_arr = np.array([q.as_tuple() for q in grid])
    failures = []
    for rule_name, rule in (("brier", brier), ("log", log_score), ("spherical", spherical)):
        s = np.array([[rule(outcome, p) for p in grid] for outcome in Outcome])
        expected = np.zeros((m, m))
        for x in range(3):
            q_x = q_arr[:, x : x + 1]
            with np.errstate(invalid="ignore"):
                contrib = q_x * s[x][None, :]
            contrib[q_arr[:, x] == 0.0, :] = 0.0  # outcomes Q rules out cost nothing
            expected += contrib
        argmins = expected.argmin(axis=1)
        wrong = int((argmins != np.arange(m)).sum())
        if wrong:
            failures.append(f"{rule_name}:{wrong}")
    elapsed = time.perf_counter() - start
    passed = not failures and elapsed < 10.0
    detail = f"grid={m} points x {m} forecasts, elapsed={elapsed:.2f}s"
    if failures:
        detail += f", failures={failures}"
    return passed, detail


def check_dirichlet_conjugacy(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Sequential posterior updates equal the one-shot update, bit for bit."""
    rng = _rng(seed, 4)
    cases = 10_000
    for _ in range(cases):
        base = rng.uniform(0.001, 20.0, size=3)
        prior = DirichletParams(*base)
        c1 = CountVector(*(int(k) for k in rng.integers(0, 100, size=3)))
        c2 = CountVector(*(int(k) for k in rng.integers(0, 100, size=3)))
        two_step = posterior(posterior(prior, c1), c2)
        one_step = posterior(prior, c1 + c2)
        same = two_step == one_step and (
            two_step.a_win == one_step.a_win
            and two_step.a_draw == one_step.a_draw
            and two_step.a_loss == one_step.a_loss
        )
        if not same:
            return False, f"mismatch at base={base}, c1={c1}, c2={c2}"
    return True, f"{cases} random cases exact"


def check_davidson_recovery(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Refitting data simulated from known worths recovers them."""
    start = time.perf_counter()
    teams = ["alpha", "beta", "gamma", "delta"]
    true = BTParams(
        worth={"alpha": 0.4, "beta": 0.3, "gamma": 0.2, "delta": 0.1},
        gamma=1.5,
        nu=0.8,
    )
    records = simulate_davidson_season(true, teams, replications=500, rng=_rng(seed, 5))
    report = bt_fit(records)
    again = bt_fit(records)
    deterministic = report.params == again.params
    worth_err = max(abs(report.params.worth[t] - true.worth[t]) for t in teams)
    gamma_err = abs(report.params.gamma - true.gamma)
    nu_err = abs(report.params.nu - true.nu)
    elapsed = time.perf_counter() - start
    passed = (
        worth_err <= 0.05
        and gamma_err <= 0.1
        and nu_err <= 0.1
        and deterministic
        and elapsed < 30.0
    )
    return passed, (
        f"worth_err={worth_err:.4f}, gamma_err={gamma_err:.4f}, nu_err={nu_err:.4f}, "
        f"deterministic={deterministic}, elapsed={elapsed:.1f}s ({len(records)} matches)"
    )


def check_davidson_gradient(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Analytic likelihood gradient against central finite differences."""
    rng = _rng(seed, 6)
    teams = ["a", "b", "c", "d", "e", "f"]
    true = BTParams(
        worth={t: w for t, w in zip(teams, (0.3, 0.25, 0.15, 0.12, 0.1, 0.08))},
        gamma=1.4,
        nu=0.9,
    )
    records = simulate_davidson_season(true, teams, replications=2, rng=rng)
    objective = _DavidsonObjective(teams, records)
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(-1.5, 1.5, size=objective.n_params)
        grad = objective(theta)[1]()
        for i in range(theta.size):
            h = 1e-6 * max(1.0, abs(theta[i]))
            up = theta.copy()
            up[i] += h
            down = theta.copy()
            down[i] -= h
            fd = (objective(up)[0] - objective(down)[0]) / (2 * h)
            rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1.0)
            worst = max(worst, rel)
    return worst <= 1e-5, f"max_rel_err={worst:.2e}"


def check_bivariate_poisson(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Outcomes from U - V, the certified tail bound, and simulated covariance.

    Standard-library sums by the sign of the goal difference: of P(U) P(V)
    on the certified grid, renormalized (to 1e-12 relative), and of the
    joint pmf on 40 x 40 goals (to DEFAULT_TAIL_TOL, as renormalizing a grid
    missing mass T moves each outcome by at most T / (1 - T)).
    """

    def pmf(k: int, lam: float) -> float:
        return math.exp(-lam) * lam**k / math.factorial(k)

    def by_sign(cells: Iterable[tuple[int, float]]) -> list[float]:
        parts: list[list[float]] = [[], [], []]
        for diff, p in cells:
            parts[0 if diff > 0 else 1 if diff == 0 else 2].append(p)
        return [math.fsum(part) for part in parts]

    worst_rel = worst_joint = 0.0
    for rates in ((1.3, 0.9, 0.0), (1.4, 1.1, 0.3)):
        params = BivPoissonParams(*rates)
        got = outcome_probs(params).as_tuple()
        p_u, p_v, p_w = ([pmf(k, lam) for k in range(40)] for lam in rates)
        g = range(score_grid(params).max_goals + 1)
        grid = by_sign((u - v, p_u[u] * p_v[v]) for u in g for v in g)
        total = math.fsum(grid)
        worst_rel = max(worst_rel, *(abs(p - w / total) / (w / total) for p, w in zip(got, grid)))
        joint = by_sign(
            (y1 - y2, math.fsum(p_u[y1 - k] * p_v[y2 - k] * p_w[k] for k in range(min(y1, y2) + 1)))
            for y1 in range(40)
            for y2 in range(40)
        )
        worst_joint = max(worst_joint, *(abs(p - w) for p, w in zip(got, joint)))

    def tail_ok(tail_tol: float) -> bool:
        g = score_grid(BivPoissonParams(1.4, 1.1, 0.3), tail_tol).max_goals
        tails = math.fsum(pmf(k, lam) for lam in (1.4, 1.1) for k in range(g + 1, g + 100))
        return tails <= tail_tol  # P(U > g) + P(V > g)

    rng = _rng(seed, 7)
    n = 1_000_000
    lam3 = 0.3
    w = rng.poisson(lam3, size=n)
    x = rng.poisson(1.0, size=n) + w
    y = rng.poisson(0.8, size=n) + w
    prods = (x - x.mean()) * (y - y.mean())
    cov = float(prods.mean())
    se = float(prods.std(ddof=1)) / math.sqrt(n)
    cov_ok = abs(cov - lam3) <= 3 * se
    tails_ok = tail_ok(1e-8) and tail_ok(1e-10)
    passed = worst_rel <= 1e-12 and worst_joint <= DEFAULT_TAIL_TOL and tails_ok and cov_ok
    return passed, (
        f"outcome_rel_err={worst_rel:.2e}, joint_abs_err={worst_joint:.2e}, tails_ok={tails_ok}, "
        f"cov={cov:.5f} (target {lam3}, 3se={3 * se:.5f})"
    )


def check_poisson_recovery(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Refitting scores simulated from known strengths recovers them."""
    teams = ["a", "b", "c", "d"]
    true = TeamStrengths(
        mu=0.15,
        attack={"a": 0.25, "b": 0.05, "c": -0.1, "d": -0.2},
        defense={"a": 0.15, "b": -0.05, "c": 0.0, "d": -0.1},
        gamma_home=0.3,
        lambda3=0.0,
    )
    records = simulate_poisson_matches(true, teams, replications=400, rng=_rng(seed, 8))
    report = poisson_fit(records, correlated=False)
    strengths = report.params
    errs = [abs(strengths.mu - true.mu), abs(strengths.gamma_home - true.gamma_home)]
    errs += [abs(strengths.attack[t] - true.attack[t]) for t in teams]
    errs += [abs(strengths.defense[t] - true.defense[t]) for t in teams]
    att = np.array([strengths.attack[t] for t in teams])
    dfn = np.array([strengths.defense[t] for t in teams])
    zero_sum_exact = float(att.sum()) == 0.0 and float(dfn.sum()) == 0.0
    passed = max(errs) <= 0.05 and zero_sum_exact and report.converged
    return passed, (
        f"max_err={max(errs):.4f}, zero_sum_exact={zero_sum_exact}, "
        f"converged={report.converged} ({len(records)} matches)"
    )


def check_chi_square_gof(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Exact zero statistic on perfect agreement; mean near df when well specified."""
    m1 = MatchRecord(2000, 1, "a", "b", 1, 0)
    m2 = MatchRecord(2000, 2, "a", "b", 0, 1)
    p = Prediction(0.5, 0.0, 0.5)
    perfect = chi_square_gof([(m1, p), (m2, p)])
    perfect_ok = perfect.statistic == 0.0 and perfect.p_value == 1.0

    rng = _rng(seed, 9)
    teams = [f"t{k:02d}" for k in range(20)]
    preds: list[Prediction] = []

    def draw(h: str, a: str) -> Prediction:
        p_home = float(rng.uniform(0.01, 0.05))
        p_away = float(rng.uniform(0.01, 0.05))
        preds.append(Prediction(p_home, 1.0 - p_home - p_away, p_away))
        return preds[-1]

    stats = []
    df = None
    for _ in range(200):
        preds.clear()
        records = _play(_results(draw, rng), teams, 1, 2000)
        result = chi_square_gof(list(zip(records, preds)))
        df = result.df
        stats.append(result.statistic)
    mean_stat = float(np.mean(stats))
    mean_ok = df is not None and abs(mean_stat - df) <= 0.10 * df
    passed = perfect_ok and mean_ok and df == 40
    return passed, (
        f"perfect=({perfect.statistic}, p={perfect.p_value}), "
        f"mean_stat={mean_stat:.2f} vs df={df} over 200 seasons"
    )


def check_calibration_band(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Outcomes drawn from the forecasts land inside the 95% reliability band."""
    rng = _rng(seed, 10)
    n = 12_000
    pairs = []
    for _ in range(n):
        p = Prediction(*(float(v) for v in rng.dirichlet((1.0, 1.0, 1.0))))
        pairs.append((_sample_outcome(rng, p), p))
    table = calibration_curve(pairs, bins=20)
    inside = 0
    for b in table.bins:
        band = 1.96 * b.se
        if abs(b.event_rate - b.mean_prob) <= band:
            inside += 1
    fraction = inside / len(table.bins)
    return fraction >= 0.95, (
        f"{inside}/{len(table.bins)} bins inside the 95% band ({fraction:.0%})"
    )


def check_leakage_guard(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """The prediction context cannot carry same-or-later matchday results."""
    season = simulate_played_season([f"t{k}" for k in range(4)], 2001, _rng(seed, 11))
    target = 5
    ctx = context_for([season], season, target)
    no_future = all(r.matchday < target for r in ctx.history)
    fixtures_blank = all(not f.played for f in ctx.fixtures)
    leak = MatchRecord(2001, target, "x", "y", 2, 1)
    try:
        PredictionContext(
            season_year=2001,
            matchday=target,
            season_rounds=season.rounds,
            earlier=ctx.earlier,
            season_so_far=ctx.season_so_far + (leak,),
            fixtures=ctx.fixtures,
        )
        rejected = False
    except ValueError:
        rejected = True
    passed = no_future and fixtures_blank and rejected
    return passed, (
        f"history_bounded={no_future}, fixtures_blank={fixtures_blank}, "
        f"leaky_context_rejected={rejected}"
    )


def _cv_brute_force(first_half: list[MatchRecord], grid: GridSpec) -> MnDir2Config:
    # Independent re-scoring: venue counts recomputed from scratch per match,
    # and the grid walked in transposed order to exercise the claim that the
    # tie-break makes selection independent of enumeration order.
    from .data import tally_records

    best = None
    for w in grid.w_points:
        for alpha in grid.alpha_points:
            cfg = MnDir2Config(alpha=alpha, w_home=w)
            total = 0.0
            for match in first_half:
                earlier = [m for m in first_half if m.matchday < match.matchday]
                home, away = tally_records(earlier)
                h = home.get(match.home, CountVector())
                a = away.get(match.away, CountVector())
                total += brier(outcome_of(match), mn_dir2_predict(h, a, cfg))
            key = (total, alpha, w)
            if best is None or key < best:
                best = key
    return MnDir2Config(alpha=best[1], w_home=best[2])


def check_cv_select_brute_force(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Grid selection equals exhaustive re-scoring for 20 random seasons."""
    grid = GridSpec.default()
    for k in range(20):
        season = simulate_played_season([f"t{i}" for i in range(4)], 2002, _rng(seed, 100 + k))
        first_half = [m for m in season.matches if m.matchday <= 3]
        fast = cv_select(first_half, grid)
        slow = _cv_brute_force(first_half, grid)
        if (fast.alpha, fast.w_home) != (slow.alpha, slow.w_home):
            return False, (
                f"seed {k}: fast=({fast.alpha}, {fast.w_home}) "
                f"slow=({slow.alpha}, {slow.w_home})"
            )
    return True, "20 seeded seasons agree"


def check_determinism(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Two evaluation runs of every model write byte-identical reports to a removed temp dir."""
    teams = [f"t{k}" for k in range(6)]
    seasons = [
        simulate_played_season(teams, 2003, _rng(seed, 12)),
        simulate_played_season(teams, 2004, _rng(seed, 13)),
    ]

    def run(out_dir: Path) -> tuple[list[str], bytes, bytes]:
        reports = evaluate([build_predictor(spec) for spec in KNOWN_MODELS], seasons)
        json_path, csv_path = write_reports(reports, out_dir)
        return [r.model for r in reports], json_path.read_bytes(), csv_path.read_bytes()

    with tempfile.TemporaryDirectory(prefix="matchcast-selftest-") as workdir:
        first = run(Path(workdir) / "run1")
        second = run(Path(workdir) / "run2")
    if first[0] != list(KNOWN_MODELS):
        return False, f"reports only for {', '.join(first[0])}"
    passed = first == second
    return passed, (
        f"byte-identical JSON and CSV reports for {len(KNOWN_MODELS)} models"
        if passed
        else "reports differ between runs"
    )


ALL_CHECKS: tuple[Callable[[int], tuple[bool, str]], ...] = (
    check_worked_example,
    check_golden_scores,
    check_propriety_grid,
    check_dirichlet_conjugacy,
    check_davidson_recovery,
    check_davidson_gradient,
    check_bivariate_poisson,
    check_poisson_recovery,
    check_chi_square_gof,
    check_calibration_band,
    check_leakage_guard,
    check_cv_select_brute_force,
    check_determinism,
)


def check_name(check: Callable[[int], tuple[bool, str]]) -> str:
    """A check's one name, its function's: ``check_chi_square_gof`` is ``chi-square-gof``."""
    return check.__name__.removeprefix("check_").replace("_", "-")


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Every check's result under its name; a check that raises fails with the exception."""
    results = []
    for check in ALL_CHECKS:
        try:
            passed, detail = check(seed)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(check_name(check), passed, detail))
    return results

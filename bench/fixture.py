"""Synthetic archive generator for the benchmark.

Season ``s`` of seed ``seed`` draws its team strengths from
``np.random.default_rng([seed, s])``: attack and defence are N(0, 0.25)
(standard deviation 0.25), centred to sum to zero, with mu = 0.1,
gamma = 0.3 and lambda3 = 0.08.  Each season is one double round robin
played through ``selftest.simulate_poisson_matches``.

Two files come out: the match CSV and a prediction interchange CSV that
holds the generating model's outcome probabilities rounded to 4 decimals
for every second-half fixture (the rounding exercises the renormalisation
in ``parse_prediction_rows``).  The program under test reads only these.

Usage: python3 bench/fixture.py --seed 7 [--first-season 0] --seasons 9 --teams 20 --out DIR
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

import numpy as np

MU = 0.1
GAMMA = 0.3
LAMBDA3 = 0.08
STRENGTH_SD = 0.25
FIRST_YEAR = 2001


def team_names(n_teams: int) -> list[str]:
    return [f"club {k:02d}" for k in range(n_teams)]


def outcome_probabilities(
    lambda1: np.ndarray, lambda2: np.ndarray, lambda3: float, size: int = 30
) -> np.ndarray:
    """(home win, draw, away win) per fixture of the bivariate Poisson model.

    The joint score mass is summed on a [0, size)^2 grid, far past any
    rate drawn here, so the missing tail is below 1e-12.
    """
    from scipy.stats import poisson

    goals = np.arange(size)
    p_u = poisson.pmf(goals[None, :], lambda1[:, None])
    p_v = poisson.pmf(goals[None, :], lambda2[:, None])
    p_w = poisson.pmf(goals, lambda3)
    mass = np.zeros((lambda1.size, size, size))
    for k in range(size):
        mass[:, k:, k:] += p_w[k] * p_u[:, : size - k, None] * p_v[:, None, : size - k]
    lower = np.tril(np.ones((size, size), dtype=bool), -1)
    home = mass[:, lower].sum(axis=1)
    draw = np.trace(mass, axis1=1, axis2=2)
    away = mass[:, lower.T].sum(axis=1)
    out = np.stack([home, draw, away], axis=1)
    return out / out.sum(axis=1, keepdims=True)


def generate(
    seed: int, first: int, n_seasons: int, n_teams: int, out_dir: Path
) -> tuple[Path, Path]:
    """Write seasons ``first .. first + n_seasons - 1`` to ``matches.csv`` and ``external.csv``."""
    from matchcast.data import serialize_matches
    from matchcast.poisson import TeamStrengths
    from matchcast.selftest import simulate_poisson_matches

    teams = team_names(n_teams)
    records = []
    rows = ["season,matchday,home,away,p1,p2,p3"]
    for s in range(first, first + n_seasons):
        rng = np.random.default_rng([seed, s])
        attack = rng.normal(0.0, STRENGTH_SD, n_teams)
        defense = rng.normal(0.0, STRENGTH_SD, n_teams)
        attack -= attack.mean()
        defense -= defense.mean()
        strengths = TeamStrengths(
            mu=MU,
            attack=dict(zip(teams, attack.tolist())),
            defense=dict(zip(teams, defense.tolist())),
            gamma_home=GAMMA,
            lambda3=LAMBDA3,
        )
        year = FIRST_YEAR + s
        season = simulate_poisson_matches(strengths, teams, 1, rng, year=year)
        records.extend(season)
        half = math.ceil(max(m.matchday for m in season) / 2)
        second = [m for m in season if m.matchday > half]
        index = {t: k for k, t in enumerate(teams)}
        home = np.array([index[m.home] for m in second])
        away = np.array([index[m.away] for m in second])
        lambda1 = np.exp(MU + attack[home] - defense[away] + GAMMA)
        lambda2 = np.exp(MU + attack[away] - defense[home])
        for m, p in zip(second, outcome_probabilities(lambda1, lambda2, LAMBDA3)):
            rows.append(
                f"{year},{m.matchday},{m.home},{m.away},{p[0]:.4f},{p[1]:.4f},{p[2]:.4f}"
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    matches_path = out_dir / "matches.csv"
    external_path = out_dir / "external.csv"
    matches_path.write_text(serialize_matches(records), encoding="utf-8")
    external_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return matches_path, external_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first-season", type=int, default=0)
    parser.add_argument("--seasons", type=int, required=True)
    parser.add_argument("--teams", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for path in generate(args.seed, args.first_season, args.seasons, args.teams, args.out):
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    main()

import numpy as np
import pytest

from matchcast.data import build_season
from matchcast.selftest import simulate_played_season


@pytest.fixture
def rng():
    return np.random.default_rng(2014)


@pytest.fixture
def small_season(rng):
    """Fully played 4-team double round robin (6 rounds, 12 matches)."""
    return simulate_played_season([f"t{k}" for k in range(4)], 2014, rng)


@pytest.fixture
def mid_season(rng):
    """Fully played 6-team double round robin (10 rounds, 30 matches)."""
    return simulate_played_season([f"t{k}" for k in range(6)], 2014, rng)


@pytest.fixture
def two_seasons(rng):
    teams = [f"t{k}" for k in range(6)]
    return [
        simulate_played_season(teams, 2013, rng),
        simulate_played_season(teams, 2014, rng),
    ]


@pytest.fixture
def boundary_season():
    """4-team double round robin whose first three matchdays fit to a boundary.

    The Poisson fit on them sends gamma to -24.6 and def:t2 to -19.1, and
    gives t1 an away rate near 1e11 at t2; its lambda3 score is negative,
    so the correlated fit is that fit with lambda3 = 0.
    """
    from matchcast.data import MatchRecord
    from matchcast.selftest import double_round_robin

    rng = np.random.default_rng(3)
    records = []
    for matchday, pairs in enumerate(double_round_robin([f"t{k}" for k in range(4)]), start=1):
        for home, away in pairs:
            home_goals = int(rng.poisson(1.3))
            away_goals = int(rng.poisson(1.0))
            records.append(MatchRecord(2014, matchday, home, away, home_goals, away_goals))
    return build_season(records)


def make_season(records):
    return build_season(records)


@pytest.fixture(params=[1, 2, 3])
def poisson_first_half(request):
    """First half (190 matches) of a 20-team season drawn from the goals model."""
    from matchcast.poisson import TeamStrengths
    from matchcast.selftest import simulate_poisson_matches

    rng = np.random.default_rng(request.param)
    teams = [f"t{k:02d}" for k in range(20)]
    attack = rng.normal(0.0, 0.25, 20)
    defense = rng.normal(0.0, 0.25, 20)
    attack -= attack.mean()
    defense -= defense.mean()
    strengths = TeamStrengths(
        mu=0.1,
        attack=dict(zip(teams, attack.tolist())),
        defense=dict(zip(teams, defense.tolist())),
        gamma_home=0.3,
        lambda3=0.08,
    )
    season = simulate_poisson_matches(strengths, teams, 1, rng)
    return [m for m in season if m.matchday <= 19]


@pytest.fixture
def record_minimize(monkeypatch):
    """Route a module's ``minimize`` through a recorder that keeps each result."""

    def install(module):
        results = []
        real = module.minimize

        def recording(objective, x0, settings=None):
            results.append(real(objective, x0, settings))
            return results[-1]

        monkeypatch.setattr(module, "minimize", recording)
        return results

    return install


@pytest.fixture
def box_thetas(rng):
    """Draws parameter vectors at several scales, some with coordinates on the +-30 box faces."""

    def draw(n_params, count=40):
        out = []
        for i in range(count):
            theta = rng.normal(0.0, (0.05, 0.3, 1.0, 4.0)[i % 4], n_params)
            if i % 5 == 4:
                faces = rng.random(n_params) < 0.3
                theta[faces] = rng.choice([-30.0, 30.0], int(faces.sum()))
            out.append(theta)
        return out

    return draw

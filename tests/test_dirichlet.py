import tracemalloc
from fractions import Fraction
from math import inf, nan

import numpy as np
import pytest

from matchcast.data import CountVector, MatchRecord, Outcome, Prediction, outcome_of
from matchcast.dirichlet import (
    DirichletParams,
    GridSpec,
    MnDir2Config,
    _brier_totals,
    cv_select,
    mn_dir1_predict,
    mn_dir2_predict,
    pool,
    posterior,
    predictive,
)
from matchcast.scoring import brier
from matchcast.selftest import simulate_played_season


def dirichlet_mean_by_quadrature(a1, a2, a3, cells=400):
    """Midpoint quadrature of the Dirichlet density over the 2-simplex.

    Independent oracle for the predictive probabilities: integrates
    theta_i * density on a triangular grid and normalizes numerically.
    """
    step = 1.0 / cells
    norm = 0.0
    moments = np.zeros(3)
    for i in range(cells):
        t1 = (i + 0.5) * step
        for j in range(cells - i):
            t2 = (j + 0.5) * step
            t3 = 1.0 - t1 - t2
            if t3 <= 0.0:
                continue
            density = t1 ** (a1 - 1) * t2 ** (a2 - 1) * t3 ** (a3 - 1)
            norm += density
            moments += density * np.array([t1, t2, t3])
    return moments / norm


class TestPosterior:
    def test_table_counts_home(self):
        post = posterior(DirichletParams.symmetric(1.0), CountVector(6, 2, 1))
        assert (post.a_win, post.a_draw, post.a_loss) == (7.0, 3.0, 2.0)

    def test_table_counts_away(self):
        post = posterior(DirichletParams.symmetric(1.0), CountVector(2, 3, 4))
        assert (post.a_win, post.a_draw, post.a_loss) == (3.0, 4.0, 5.0)

    def test_empty_counts_is_identity(self):
        prior = DirichletParams(0.7, 1.3, 2.2)
        assert posterior(prior, CountVector()) == prior

    def test_sequential_updates_compose_exactly(self, rng):
        for _ in range(1000):
            prior = DirichletParams(*rng.uniform(0.001, 20.0, size=3))
            c1 = CountVector(*(int(v) for v in rng.integers(0, 100, size=3)))
            c2 = CountVector(*(int(v) for v in rng.integers(0, 100, size=3)))
            assert posterior(posterior(prior, c1), c2) == posterior(prior, c1 + c2)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            DirichletParams(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("base", [(nan, 1.0, 1.0), (1.0, nan, 1.0), (1.0, 1.0, inf)])
    def test_non_finite_concentration_rejected(self, base):
        with pytest.raises(ValueError):
            DirichletParams(*base)


class TestPredictive:
    def test_uniform_prior_gives_uniform_prediction(self):
        p = predictive(DirichletParams.symmetric(1.0))
        assert p.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)

    @pytest.mark.parametrize(
        "params,expected",
        [
            ((7, 3, 2), (7 / 12, 3 / 12, 2 / 12)),
            ((3, 4, 5), (0.25, 1 / 3, 5 / 12)),
        ],
    )
    def test_closed_form_ratios(self, params, expected):
        p = predictive(DirichletParams(*params))
        assert p.as_tuple() == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("params", [(7, 3, 2), (3, 4, 5), (1, 1, 1), (2.5, 1.2, 4.3)])
    def test_matches_numerical_simplex_integration(self, params):
        expected = dirichlet_mean_by_quadrature(*params)
        got = predictive(DirichletParams(*params)).as_tuple()
        assert got == pytest.approx(tuple(expected), abs=2e-3)


class TestPool:
    def test_full_weight_returns_home_view(self):
        home = Prediction(0.6, 0.3, 0.1)
        away = Prediction(0.2, 0.3, 0.5)
        assert pool(home, away, 1.0) == home

    def test_zero_weight_swaps_perspective(self):
        away = Prediction(0.2, 0.3, 0.5)
        pooled = pool(Prediction(0.6, 0.3, 0.1), away, 0.0)
        assert pooled.as_tuple() == (0.5, 0.3, 0.2)

    def test_equal_weight_worked_example(self):
        home = predictive(DirichletParams(7, 3, 2))
        away = predictive(DirichletParams(3, 4, 5))
        pooled = pool(home, away, 0.5)
        assert pooled.p_home == pytest.approx(0.5, abs=1e-12)
        assert pooled.p_draw == pytest.approx(7 / 24, abs=1e-12)
        assert pooled.p_away == pytest.approx(5 / 24, abs=1e-12)

    def test_output_on_simplex_for_random_inputs(self, rng):
        for _ in range(1000):
            a = rng.dirichlet((1, 1, 1))
            b = rng.dirichlet((1, 1, 1))
            w = float(rng.random())
            pooled = pool(
                Prediction(*(float(x) for x in a)),
                Prediction(*(float(x) for x in b)),
                w,
            )
            assert abs(sum(pooled.as_tuple()) - 1.0) < 1e-12
            assert min(pooled.as_tuple()) >= 0.0


def _mixture_oracle(h, a, alpha, w):
    """Exact-rational evaluation of the weighted two-observer mixture."""
    alpha = Fraction(alpha)
    w = Fraction(w)
    h_total = Fraction(h.wins + h.draws + h.losses) + 3 * alpha
    a_total = Fraction(a.wins + a.draws + a.losses) + 3 * alpha
    home = [(Fraction(c) + alpha) / h_total for c in (h.wins, h.draws, h.losses)]
    away = [(Fraction(c) + alpha) / a_total for c in (a.wins, a.draws, a.losses)]
    return (
        float(w * home[0] + (1 - w) * away[2]),
        float(w * home[1] + (1 - w) * away[1]),
        float(w * home[2] + (1 - w) * away[0]),
    )


class TestMnDir1:
    def test_worked_example(self):
        p = mn_dir1_predict(CountVector(6, 2, 1), CountVector(2, 3, 4))
        assert p.p_home == pytest.approx(0.5, abs=1e-12)
        assert p.p_draw == pytest.approx(0.291667, abs=5e-7)
        assert p.p_away == pytest.approx(0.208333, abs=5e-7)

    def test_no_data_gives_uniform(self):
        p = mn_dir1_predict(CountVector(), CountVector())
        assert p.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_symmetric_counts_give_uniform(self, k):
        counts = CountVector(k, k, k)
        p = mn_dir1_predict(counts, counts)
        assert p.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)

    def test_role_swap_reverses_prediction(self, rng):
        # Exchanging the two observers (each keeps its own perspective)
        # must mirror the pooled prediction.
        for _ in range(500):
            h = CountVector(*(int(v) for v in rng.integers(0, 20, size=3)))
            a = CountVector(*(int(v) for v in rng.integers(0, 20, size=3)))
            forward = mn_dir1_predict(h, a)
            swapped = mn_dir1_predict(a, h)
            assert swapped.p_home == pytest.approx(forward.p_away, abs=1e-12)
            assert swapped.p_draw == pytest.approx(forward.p_draw, abs=1e-12)
            assert swapped.p_away == pytest.approx(forward.p_home, abs=1e-12)

    def test_extra_home_win_raises_home_probability(self, rng):
        for _ in range(200):
            h = CountVector(*(int(v) for v in rng.integers(0, 20, size=3)))
            a = CountVector(*(int(v) for v in rng.integers(0, 20, size=3)))
            base = mn_dir1_predict(h, a)
            bumped = mn_dir1_predict(CountVector(h.wins + 1, h.draws, h.losses), a)
            assert bumped.p_home > base.p_home


class TestMnDir2:
    def test_reduces_to_equal_mixture_at_alpha_one_half_weight(self, rng):
        cfg = MnDir2Config(alpha=1.0, w_home=0.5)
        for _ in range(200):
            h = CountVector(*(int(v) for v in rng.integers(0, 15, size=3)))
            a = CountVector(*(int(v) for v in rng.integers(0, 15, size=3)))
            assert mn_dir2_predict(h, a, cfg) == mn_dir1_predict(h, a)

    def test_tuned_config_against_exact_oracle(self):
        # Expected values computed with the exact-rational oracle below:
        # (0.455628, 0.299242, 0.245130) to six decimals.
        h = CountVector(6, 2, 1)
        a = CountVector(2, 3, 4)
        cfg = MnDir2Config(alpha=3.16, w_home=0.63)
        oracle = _mixture_oracle(h, a, 3.16, 0.63)
        got = mn_dir2_predict(h, a, cfg).as_tuple()
        assert got == pytest.approx(oracle, abs=1e-12)
        assert tuple(round(x, 6) for x in got) == (0.455628, 0.299242, 0.245130)

    def test_full_home_weight_ignores_away_counts(self, rng):
        cfg = MnDir2Config(alpha=2.0, w_home=1.0)
        h = CountVector(5, 2, 3)
        p1 = mn_dir2_predict(h, CountVector(9, 0, 0), cfg)
        p2 = mn_dir2_predict(h, CountVector(0, 0, 9), cfg)
        assert p1 == p2

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            MnDir2Config(alpha=0.0, w_home=0.5)

    @pytest.mark.parametrize("alpha", [nan, inf])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(ValueError):
            MnDir2Config(alpha=alpha, w_home=0.5)

    def test_weight_range_enforced(self):
        with pytest.raises(ValueError, match=r"^w_home must lie in \[0, 1\], got 1.5$"):
            MnDir2Config(alpha=1.0, w_home=1.5)


class TestGridSpec:
    def test_default_shape(self):
        grid = GridSpec.default()
        assert len(grid.w_points) == 20
        assert len(grid.alpha_points) == 20
        assert grid.w_points[0] == 0.0
        assert grid.w_points[-1] == 1.0
        assert grid.alpha_points[0] == pytest.approx(0.001)
        assert grid.alpha_points[-1] == pytest.approx(20.0)

    def test_rejects_unordered_points(self):
        with pytest.raises(ValueError):
            GridSpec(w_points=(0.5, 0.2), alpha_points=(1.0,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GridSpec(w_points=(), alpha_points=(1.0,))

    @pytest.mark.parametrize(
        "w_points, alpha_points",
        [
            ((0.0, nan, 1.0), (1.0,)),
            ((nan,), (1.0,)),
            ((0.5,), (inf,)),
            ((0.5,), (nan,)),
            ((0.5,), (1.0, nan)),
            ((0.5, 1.5), (1.0,)),
        ],
    )
    def test_rejects_points_out_of_range(self, w_points, alpha_points):
        with pytest.raises(ValueError):
            GridSpec(w_points=w_points, alpha_points=alpha_points)


def _first_half(season):
    from matchcast.data import second_half_matchdays

    half_start = min(second_half_matchdays(season))
    return [m for m in season.matches if m.matchday < half_start]


def _tallied(counts, outcome, home):
    """``counts`` plus one result, seen from the home (or the away) side."""
    if outcome is Outcome.DRAW:
        return CountVector(counts.wins, counts.draws + 1, counts.losses)
    if (outcome is Outcome.HOME_WIN) == home:
        return CountVector(counts.wins + 1, counts.draws, counts.losses)
    return CountVector(counts.wins, counts.draws, counts.losses + 1)


def _scalar_cv_select(first_half, grid):
    """The scalar selection loop that ``cv_select`` replaced, kept as its reference.

    It keeps its own running venue tallies, one result at a time.  Returns
    the per-match (home counts, away counts, outcome) rows, the (alpha, w)
    array of summed Brier scores and the selected config.
    """
    ordered = sorted(enumerate(first_half), key=lambda item: (item[1].matchday, item[0]))
    home_tallies, away_tallies = {}, {}
    prepared, pending = [], []
    current_matchday = None
    for _, match in ordered:
        if current_matchday is not None and match.matchday != current_matchday:
            for m, o in pending:
                home_tallies[m.home] = _tallied(home_tallies.get(m.home, CountVector()), o, True)
                away_tallies[m.away] = _tallied(away_tallies.get(m.away, CountVector()), o, False)
            pending.clear()
        current_matchday = match.matchday
        outcome = outcome_of(match)
        prepared.append(
            (
                home_tallies.get(match.home, CountVector()),
                away_tallies.get(match.away, CountVector()),
                outcome,
            )
        )
        pending.append((match, outcome))

    totals = np.zeros((len(grid.alpha_points), len(grid.w_points)))
    best = None
    for i, alpha in enumerate(grid.alpha_points):
        for j, w in enumerate(grid.w_points):
            cfg = MnDir2Config(alpha=alpha, w_home=w)
            total = 0.0
            for h, a, outcome in prepared:
                total += brier(outcome, mn_dir2_predict(h, a, cfg))
            totals[i, j] = total
            key = (total, alpha, w)
            if best is None or key < best:
                best = key
    return prepared, totals, MnDir2Config(alpha=best[1], w_home=best[2])


class TestCvSelect:
    def test_single_point_grid(self, small_season):
        grid = GridSpec(w_points=(0.4,), alpha_points=(2.0,))
        cfg = cv_select(_first_half(small_season), grid)
        assert cfg.alpha == 2.0
        assert cfg.w_home == 0.4

    def test_exact_ties_break_to_smallest_alpha_then_w(self):
        # With only matchday-1 matches there are no earlier counts, so every
        # grid point produces the uniform prediction and all scores tie.
        matches = [
            MatchRecord(2014, 1, "a", "b", 1, 0),
            MatchRecord(2014, 1, "c", "d", 0, 0),
        ]
        grid = GridSpec(w_points=(0.25, 0.75), alpha_points=(1.5, 3.0))
        cfg = cv_select(matches, grid)
        assert (cfg.alpha, cfg.w_home) == (1.5, 0.25)

    def test_empty_first_half_rejected(self):
        with pytest.raises(ValueError):
            cv_select([], GridSpec.default())

    # Both sides square by multiplying.  Seeds 2 and 7 each hold a total
    # that glibc's pow (Python's float ``**``) would move by one ulp, so a
    # ``**`` on either side alone fails them.  The 7 w x 3 alpha grid is not
    # square, so a swapped axis cannot pass.
    @pytest.mark.parametrize(
        ("seed", "grid"),
        [
            pytest.param(2, GridSpec.default(), id="2"),
            pytest.param(7, GridSpec.default(), id="7"),
            pytest.param(2014, GridSpec.default(), id="2014"),
            pytest.param(
                7,
                GridSpec(w_points=tuple(k / 6.0 for k in range(7)), alpha_points=(0.5, 2.0, 9.0)),
                id="7-w7xa3",
            ),
        ],
    )
    def test_matches_scalar_loop_on_a_full_first_half(self, seed, grid):
        teams = [f"t{k}" for k in range(20)]
        season = simulate_played_season(teams, 2010, np.random.default_rng(seed))
        first_half = _first_half(season)
        assert len(first_half) == 190
        prepared, totals, expected = _scalar_cv_select(first_half, grid)
        assert np.array_equal(_brier_totals(prepared, grid), totals)
        assert cv_select(first_half, grid) == expected

    def test_one_selection_holds_one_concentration_at_a_time(self):
        # Scoring all 400 default grid points in one broadcast peaked at
        # 12.4 MiB on this half; one concentration's slab needs under 1 MiB.
        teams = [f"t{k}" for k in range(20)]
        season = simulate_played_season(teams, 2010, np.random.default_rng(7))
        first_half = _first_half(season)
        assert len(first_half) == 190
        grid = GridSpec.default()
        tracemalloc.start()
        try:
            cv_select(first_half, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_selected_point_beats_or_ties_every_grid_point(self, rng):
        season = simulate_played_season([f"t{k}" for k in range(4)], 2010, rng)
        first_half = _first_half(season)
        grid = GridSpec(
            w_points=tuple(np.linspace(0, 1, 7)),
            alpha_points=tuple(np.linspace(0.5, 8.0, 7)),
        )
        best = cv_select(first_half, grid)

        def total_brier(cfg):
            from matchcast.data import tally_records
            from matchcast.scoring import brier

            total = 0.0
            for match in first_half:
                earlier = [m for m in first_half if m.matchday < match.matchday]
                home, away = tally_records(earlier)
                h = home.get(match.home, CountVector())
                a = away.get(match.away, CountVector())
                total += brier(outcome_of(match), mn_dir2_predict(h, a, cfg))
            return total

        best_score = total_brier(best)
        for alpha in grid.alpha_points:
            for w in grid.w_points:
                other = total_brier(MnDir2Config(alpha=alpha, w_home=w))
                assert best_score <= other + 1e-12

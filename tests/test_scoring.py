import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaincc
from scipy.stats import chi2 as chi2_dist

import matchcast
from matchcast.data import MatchRecord, Outcome, Prediction
from matchcast.evaluation import Forecast, _aggregate, evaluate, score_match
from matchcast.scoring import (
    _BANDWIDTHS,
    _LOO_CAP,
    CalibrationTable,
    SmoothedPoint,
    _binned,
    _loo_errors,
    _unroll,
    brier,
    calibration_curve,
    chi_square_gof,
    chi_square_p_value,
    cond_home_win_given_no_draw,
    entropy,
    log_score,
    spherical,
    top_choice_error,
)

GOLDEN_P = Prediction(0.25, 0.35, 0.40)
UNIFORM = Prediction(1 / 3, 1 / 3, 1 / 3)


def random_prediction(rng):
    return Prediction(*(float(x) for x in rng.dirichlet((1, 1, 1))))


class TestBrier:
    def test_golden_value(self):
        assert brier(Outcome.AWAY_WIN, GOLDEN_P) == pytest.approx(0.545, abs=1e-12)

    def test_vertex_scores_zero(self):
        assert brier(Outcome.AWAY_WIN, Prediction(0.0, 0.0, 1.0)) == 0.0

    def test_uniform_scores_two_thirds_regardless_of_outcome(self):
        for outcome in Outcome:
            assert brier(outcome, UNIFORM) == pytest.approx(2 / 3, abs=1e-12)

    def test_equals_appendix_form(self, rng):
        # Squared distance to the vertex == (1 - P_x)^2 + sum of other P_i^2.
        for _ in range(1000):
            p = random_prediction(rng)
            for outcome in Outcome:
                ps = p.as_tuple()
                x = outcome.value - 1
                alt = (1 - ps[x]) ** 2 + sum(
                    ps[i] ** 2 for i in range(3) if i != x
                )
                assert brier(outcome, p) == pytest.approx(alt, abs=1e-14)

    def test_range(self, rng):
        for _ in range(1000):
            p = random_prediction(rng)
            for outcome in Outcome:
                assert 0.0 <= brier(outcome, p) <= 2.0


class TestLogScore:
    def test_golden_value(self):
        assert log_score(Outcome.AWAY_WIN, GOLDEN_P) == pytest.approx(
            -math.log(0.4), abs=1e-12
        )

    def test_uniform(self):
        assert log_score(Outcome.DRAW, UNIFORM) == pytest.approx(math.log(3), abs=1e-12)

    def test_certainty_scores_zero(self):
        assert log_score(Outcome.HOME_WIN, Prediction(1.0, 0.0, 0.0)) == 0.0

    def test_zero_probability_gives_infinity(self):
        assert log_score(Outcome.HOME_WIN, Prediction(0.0, 0.5, 0.5)) == math.inf

    def test_nonnegative(self, rng):
        for _ in range(1000):
            assert log_score(Outcome.DRAW, random_prediction(rng)) >= 0.0


class TestSpherical:
    def test_golden_value(self):
        assert spherical(Outcome.AWAY_WIN, GOLDEN_P) == pytest.approx(
            -0.4 / math.sqrt(0.345), abs=1e-12
        )

    def test_vertex_scores_minus_one(self):
        assert spherical(Outcome.AWAY_WIN, Prediction(0.0, 0.0, 1.0)) == -1.0

    def test_uniform(self):
        assert spherical(Outcome.HOME_WIN, UNIFORM) == pytest.approx(
            -1 / math.sqrt(3), abs=1e-12
        )

    def test_range(self, rng):
        for _ in range(1000):
            s = spherical(Outcome.AWAY_WIN, random_prediction(rng))
            assert -1.0 <= s <= 0.0


class TestPropriety:
    @pytest.mark.parametrize(
        "rule", [brier, log_score, spherical], ids=["brier", "log", "spherical"]
    )
    def test_expected_score_minimized_at_truth(self, rule):
        # Coarse 0.1-step grid here; the acceptance suite runs the 0.05 grid.
        grid = [
            Prediction(i / 10, j / 10, (10 - i - j) / 10)
            for i in range(11)
            for j in range(11 - i)
        ]
        for q in grid:
            best = None
            for candidate in grid:
                e = 0.0
                for outcome in Outcome:
                    q_x = q.prob_of(outcome)
                    if q_x > 0.0:
                        e += q_x * rule(outcome, candidate)
                if best is None or e < best[0]:
                    best = (e, candidate)
            assert best[1] == q

    def test_improper_rule_fails_the_same_check(self):
        # Negative control: the linear score 1 - P_x is NOT proper, so the
        # same grid search must find a better report than the truth somewhere.
        def linear(outcome, p):
            return 1.0 - p.prob_of(outcome)

        grid = [
            Prediction(i / 10, j / 10, (10 - i - j) / 10)
            for i in range(11)
            for j in range(11 - i)
        ]
        violations = 0
        for q in grid:
            best = min(
                grid,
                key=lambda c: sum(
                    q.prob_of(o) * linear(o, c) for o in Outcome if q.prob_of(o) > 0
                ),
            )
            if best != q:
                violations += 1
        assert violations > 0


class TestEntropy:
    def test_uniform_is_maximal(self):
        assert entropy(UNIFORM) == pytest.approx(math.log(3), abs=1e-12)

    def test_degenerate_is_zero(self):
        assert entropy(Prediction(1.0, 0.0, 0.0)) == 0.0

    def test_hand_value(self):
        assert entropy(Prediction(0.5, 0.25, 0.25)) == pytest.approx(
            1.5 * math.log(2), abs=1e-12
        )

    def test_range(self, rng):
        for _ in range(1000):
            h = entropy(random_prediction(rng))
            assert 0.0 <= h <= math.log(3) + 1e-12


class TestCondHomeWin:
    def test_ratio(self):
        assert cond_home_win_given_no_draw(Prediction(0.5, 0.3, 0.2)) == pytest.approx(
            5 / 7, abs=1e-12
        )

    def test_symmetric(self):
        assert cond_home_win_given_no_draw(Prediction(0.3, 0.4, 0.3)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_certain_draw_is_absent(self):
        assert cond_home_win_given_no_draw(Prediction(0.0, 1.0, 0.0)) is None


def _scored(outcomes, p):
    """score_match rows: one match per outcome, each forecast ``p``."""
    goals = {Outcome.HOME_WIN: (1, 0), Outcome.DRAW: (0, 0), Outcome.AWAY_WIN: (0, 1)}
    return [
        score_match(MatchRecord(2014, k, f"h{k}", f"a{k}", *goals[outcome]), p)
        for k, outcome in enumerate(outcomes, start=1)
    ]


class TestProportionOfErrors:
    def test_perfect_top_choice(self):
        scored = _scored([Outcome.HOME_WIN] * 4, Prediction(0.6, 0.3, 0.1))
        assert _aggregate(scored).proportion_of_errors == 0.0

    def test_always_wrong(self):
        scored = _scored([Outcome.AWAY_WIN] * 4, Prediction(0.6, 0.3, 0.1))
        assert _aggregate(scored).proportion_of_errors == 1.0

    def test_counting(self):
        outcomes = [Outcome.HOME_WIN] * 3 + [Outcome.DRAW]
        assert _aggregate(_scored(outcomes, Prediction(0.6, 0.3, 0.1))).proportion_of_errors == 0.25

    def test_tie_attained_is_not_an_error_but_flagged(self):
        error, tied = top_choice_error(Outcome.DRAW, UNIFORM)
        assert error == 0
        assert tied

    def test_tie_not_attained_is_an_error(self):
        p = Prediction(0.4, 0.4, 0.2)
        error, tied = top_choice_error(Outcome.AWAY_WIN, p)
        assert error == 1
        assert tied

    def test_empty_rejected(self, two_seasons):
        # A model with no scored match gets no report, so nothing aggregates
        # an empty list.
        class Silent:
            name = "silent"

            def predict(self, ctx):
                return Forecast({})

        assert evaluate([Silent()], two_seasons) == []


def _calibrated_pairs(rng, n):
    pairs = []
    for _ in range(n):
        p = random_prediction(rng)
        u = rng.random()
        if u < p.p_home:
            outcome = Outcome.HOME_WIN
        elif u < p.p_home + p.p_draw:
            outcome = Outcome.DRAW
        else:
            outcome = Outcome.AWAY_WIN
        pairs.append((outcome, p))
    return pairs


class TestCalibration:
    def test_calibrated_simulation_tracks_identity(self, rng):
        table = calibration_curve(_calibrated_pairs(rng, 4000), bins=10)
        inside = sum(
            1
            for b in table.bins
            if abs(b.event_rate - b.mean_prob) <= 1.96 * b.se
        )
        assert inside >= 0.9 * len(table.bins)

    def test_constant_prediction_recovers_frequency(self, rng):
        p = Prediction(0.7, 0.2, 0.1)
        pairs = []
        for _ in range(3000):
            outcome = (
                Outcome.HOME_WIN if rng.random() < 0.7 else Outcome.AWAY_WIN
            )
            pairs.append((outcome, p))
        table = calibration_curve(pairs, bins=10)
        top_bin = [b for b in table.bins if b.lo <= 0.7 < b.hi][0]
        assert top_bin.event_rate == pytest.approx(0.7, abs=0.03)

    def test_overconfident_predictor_sits_below_identity(self, rng):
        # Claims 90% home win, true rate 50%: the reliability curve at 0.9
        # must fall well below the identity.
        p = Prediction(0.9, 0.05, 0.05)
        pairs = []
        for _ in range(2000):
            outcome = Outcome.HOME_WIN if rng.random() < 0.5 else Outcome.AWAY_WIN
            pairs.append((outcome, p))
        table = calibration_curve(pairs, bins=10)
        top_bin = [b for b in table.bins if b.lo <= 0.9 < b.hi][0]
        assert top_bin.event_rate + 1.96 * top_bin.se < top_bin.mean_prob
        smoothed_near_09 = [pt for pt in table.smoothed if abs(pt.prob - 0.9) < 0.05]
        assert all(pt.estimate < 0.75 for pt in smoothed_near_09)

    def test_insufficient_data_rejected(self, rng):
        with pytest.raises(ValueError, match=">= 30"):
            calibration_curve(_calibrated_pairs(rng, 9))

    def test_bandwidth_chosen_from_candidates(self, rng):
        table = calibration_curve(_calibrated_pairs(rng, 500))
        assert table.bandwidth in (0.02, 0.05, 0.1, 0.2)

    def test_table_does_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a long dot product across its threads, which
        # reorders the sum; 5,000 predictions give 15,000 pairs.
        src = str(Path(matchcast.__file__).resolve().parents[1])
        tables = []
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            }
            run = subprocess.run(
                [sys.executable, "-c", _SEEDED_TABLE],
                env=env, check=True, capture_output=True, text=True,
            )
            tables.append(run.stdout)
        assert "SmoothedPoint" in tables[0]
        assert tables[0] == tables[1]


_SEEDED_TABLE = """
import numpy as np
from matchcast.data import Outcome, Prediction
from matchcast.scoring import calibration_curve

rng = np.random.default_rng(5000)
probs = rng.dirichlet((1.0, 1.0, 1.0), size=5000)
draws = rng.random(5000)
scored = [
    (Outcome(1 + int((u >= p[0]) + (u >= p[0] + p[1]))), Prediction(*map(float, p)))
    for p, u in zip(probs, draws)
]
print(repr(calibration_curve(scored)))
"""


# Reference copies of the calibration kernels as first written: one
# Python loop per pair, and the dense n x n weight matrix per bandwidth.
# The smoothed curve takes numpy sums, as the shipped kernel does.  The
# shipped kernels must equal them bit for bit.

def _unroll_loop(scored):
    probs, events = [], []
    for outcome, p in scored:
        for i, p_i in enumerate(p.as_tuple(), start=1):
            probs.append(p_i)
            events.append(1.0 if outcome.value == i else 0.0)
    return np.asarray(probs), np.asarray(events)


def _loo_error_dense(probs, events, bw):
    d = (probs[:, None] - probs[None, :]) / bw
    w = np.exp(-0.5 * d * d)
    num = w @ events - np.diag(w) * events
    den = w.sum(axis=1) - np.diag(w)
    ok = den > 0
    if not ok.any():
        return math.inf
    resid = events[ok] - num[ok] / den[ok]
    return float(np.mean(resid * resid))


def _calibration_curve_dense(scored, bins=10):
    probs, events = _unroll_loop(scored)
    grid = np.linspace(0.05, 0.95, 19)
    if probs.size > _LOO_CAP:
        order = np.argsort(probs, kind="stable")
        pick = order[np.linspace(0, probs.size - 1, _LOO_CAP).astype(int)]
        sel_p, sel_e = probs[pick], events[pick]
    else:
        sel_p, sel_e = probs, events
    errors = [(_loo_error_dense(sel_p, sel_e, bw), bw) for bw in _BANDWIDTHS]
    bw = min(errors)[1]
    d = (grid[:, None] - probs[None, :]) / bw
    w = np.exp(-0.5 * d * d)
    den = w.sum(axis=1)
    points = []
    for g, w_row, den_g in zip(grid, w, den):
        if den_g < 1e-8:
            continue
        est = float((w_row * events).sum() / den_g)
        var = float((w_row * (w_row * est * (1.0 - est))).sum()) / (den_g * den_g)
        points.append(SmoothedPoint(prob=float(g), estimate=est, se=math.sqrt(max(var, 0.0))))
    return CalibrationTable(
        bins=_binned(probs, events, bins),
        smoothed=tuple(points),
        bandwidth=bw,
        n_pairs=int(probs.size),
    )


class TestKernelParity:
    @pytest.mark.parametrize("n_scored", [0, 1, 7, 500])
    def test_unroll_equals_the_pair_loop(self, n_scored):
        rng = np.random.default_rng(n_scored)
        scored = [
            (Outcome(int(rng.integers(1, 4))), random_prediction(rng)) for _ in range(n_scored)
        ]
        probs, events = _unroll(scored)
        ref_probs, ref_events = _unroll_loop(scored)
        assert probs.dtype == ref_probs.dtype and events.dtype == ref_events.dtype
        assert np.array_equal(probs, ref_probs) and np.array_equal(events, ref_events)

    @pytest.mark.parametrize("n", [30, 31, 999, 1140, 2000])
    @pytest.mark.parametrize("ordered", [False, True])
    def test_blocked_loo_equals_dense(self, n, ordered):
        rng = np.random.default_rng(n)
        probs = rng.dirichlet((1.0, 1.0, 1.0), size=n // 3 + 1).reshape(-1)[:n]
        events = (rng.random(n) < probs).astype(float)
        if ordered:
            order = np.argsort(probs, kind="stable")
            probs, events = probs[order], events[order]
        assert _loo_errors(probs, events) == [
            _loo_error_dense(probs, events, bw) for bw in _BANDWIDTHS
        ]

    def test_blocked_loo_equals_dense_for_the_uniform_forecast(self):
        probs, events = _unroll_loop(
            [(Outcome((k % 3) + 1), UNIFORM) for k in range(400)]
        )
        assert _loo_errors(probs, events) == [
            _loo_error_dense(probs, events, bw) for bw in _BANDWIDTHS
        ]

    def test_two_far_points_give_infinite_errors(self):
        probs, events = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        errors = _loo_errors(probs, events)
        assert errors == [_loo_error_dense(probs, events, bw) for bw in _BANDWIDTHS]
        assert errors[:3] == [math.inf] * 3

    @pytest.mark.parametrize("n_scored", [40, 4000])
    def test_calibration_table_equals_dense(self, n_scored):
        scored = _calibrated_pairs(np.random.default_rng(n_scored), n_scored)
        table = calibration_curve(scored)
        assert table == _calibration_curve_dense(scored)
        assert (table.n_pairs > _LOO_CAP) == (n_scored == 4000)


def _round_of_20_teams():
    return [
        MatchRecord(2014, 1, f"h{k}", f"a{k}", 1, 0) for k in range(10)
    ]


class TestChiSquareGof:
    def test_perfect_agreement(self):
        m1 = MatchRecord(2014, 1, "a", "b", 1, 0)
        m2 = MatchRecord(2014, 2, "a", "b", 0, 1)
        p = Prediction(0.5, 0.0, 0.5)
        result = chi_square_gof([(m1, p), (m2, p)])
        assert result.statistic == 0.0
        assert result.p_value == 1.0
        assert result.df == 4

    def test_twenty_teams_gives_40_df(self):
        p = Prediction(0.5, 0.3, 0.2)
        result = chi_square_gof([(m, p) for m in _round_of_20_teams()])
        assert result.df == 40

    def test_zero_expected_term_excluded_and_counted(self):
        matches = [
            (MatchRecord(2014, 1, "a", "b", 0, 0), Prediction(0.0, 0.5, 0.5)),
            (MatchRecord(2014, 2, "b", "a", 1, 0), Prediction(0.5, 0.25, 0.25)),
        ]
        result = chi_square_gof(matches)
        # ("a", "home") expects 0 wins; the other three terms are summed.
        assert result.excluded_terms == 1
        assert result.statistic == 0.5 + 0.5 + 0.25
        assert result.df == 4

    def test_p_value_matches_reference_distribution(self):
        for stat, df in [(0.5, 2), (40.0, 40), (112.8, 40), (61.5, 40)]:
            assert chi_square_p_value(stat, df) == pytest.approx(
                float(chi2_dist.sf(stat, df)), rel=1e-10
            )

    def test_p_value_matches_gammaincc_for_every_even_df(self):
        for df in range(2, 81, 2):
            far = 2.0 * df + 250.0
            assert gammaincc(df / 2.0, far / 2.0) < 1e-30
            for stat in (0.0, df / 4.0, float(df), 3.0 * df, far):
                got = chi_square_p_value(stat, df)
                assert 0.0 <= got <= 1.0
                assert got == pytest.approx(gammaincc(df / 2.0, stat / 2.0), rel=1e-12, abs=0.0)

    def test_p_value_never_exceeds_one(self):
        # Near p = 1 the rounded terms of these cases sum past 1.0.
        for stat in (1.1201087101177483, 1.4951403046553415, 2.6486526471183494):
            assert chi_square_p_value(stat, 40) <= 1.0

    @pytest.mark.parametrize("df", [2, 40, 80])
    def test_infinite_statistic_has_p_zero(self, df):
        assert float(chi2_dist.sf(math.inf, df)) == 0.0
        assert chi_square_p_value(math.inf, df) == 0.0

    @pytest.mark.parametrize("df", [2, 40, 80])
    def test_nan_statistic_refused(self, df):
        with pytest.raises(ValueError, match="NaN"):
            chi_square_p_value(math.nan, df)

    def test_win_at_zero_probability_is_the_worst_fit(self):
        # 0 * log(inf) is NaN, which min(1.0, nan) once turned into p = 1.0.
        worst = chi_square_gof(
            [(MatchRecord(2000, 1, "a", "b", 1, 0), Prediction(1e-320, 0.5, 0.5 - 1e-320))]
        )
        assert worst.statistic == math.inf
        assert worst.p_value == 0.0
        fair = chi_square_gof(
            [(MatchRecord(2001, 1, "a", "b", 1, 0), Prediction(0.5, 0.25, 0.25))]
        )
        assert fair.p_value > 0.0
        for total in (worst + fair, fair + worst):
            assert (total.statistic, total.df, total.p_value) == (math.inf, 8, 0.0)

    @pytest.mark.parametrize("df", [1, 3, 39])
    def test_odd_df_refused(self, df):
        with pytest.raises(ValueError, match="even"):
            chi_square_p_value(1.0, df)

    def test_statistic_accumulates_known_cells(self):
        # Single match, hand-computed: the home cell contributes
        # (0.8 - 1)^2 / 0.8, the away cell (0.2 - 0)^2 / 0.2.
        m = MatchRecord(2014, 1, "a", "b", 2, 0)
        p = Prediction(0.8, 0.0, 0.2)
        result = chi_square_gof([(m, p)])
        want = (0.8 - 1) ** 2 / 0.8 + (0.2 - 0) ** 2 / 0.2
        assert result.statistic == pytest.approx(want, abs=1e-12)

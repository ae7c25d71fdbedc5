"""Proper scoring rules, calibration and goodness-of-fit diagnostics.

Conventions: lower scores are better for every rule.  Brier is the squared
Euclidean distance to the realized outcome's vertex, the logarithmic score
is the negative log probability of the realized outcome, and the spherical
score is minus that probability normalized by the L2 norm of the forecast.
The uniform forecast (1/3, 1/3, 1/3) therefore scores 2/3, ln 3 and -1/sqrt(3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import MatchRecord, Outcome, Prediction, outcome_of

# Field metadata: report.json writes this field's inf, -inf or nan as a string.
NONFINITE = {"nonfinite": True}


def brier(outcome: Outcome, p: Prediction) -> float:
    """sum_i (I(x = i) - p_i)^2, in [0, 2]; squares are products, as ``_brier_totals`` squares."""
    d1, d2, d3 = (float(outcome == i) - p_i for i, p_i in enumerate(p.as_tuple(), start=1))
    return d1 * d1 + d2 * d2 + d3 * d3


def log_score(outcome: Outcome, p: Prediction) -> float:
    """-ln p_x; +inf when the realized outcome had probability zero."""
    p_x = p.prob_of(outcome)
    if p_x == 0.0:
        return math.inf
    return -math.log(p_x)


def spherical(outcome: Outcome, p: Prediction) -> float:
    """-p_x / ||p||_2, in [-1, 0]."""
    norm = math.sqrt(sum(p_i * p_i for p_i in p.as_tuple()))
    return -p.prob_of(outcome) / norm


def entropy(p: Prediction) -> float:
    """-sum p_i ln p_i with 0 ln 0 = 0; ranges over [0, ln 3]."""
    total = 0.0
    for p_i in p.as_tuple():
        if p_i > 0.0:
            total -= p_i * math.log(p_i)
    return total


def cond_home_win_given_no_draw(p: Prediction) -> float | None:
    """p_home / (p_home + p_away), or None when the match is a certain draw."""
    denom = p.p_home + p.p_away
    if denom == 0.0:
        return None
    return p.p_home / denom


def top_choice_error(outcome: Outcome, p: Prediction) -> tuple[int, bool]:
    """(error, tied): error=1 unless the outcome attains the maximum probability.

    When several outcomes tie for the maximum the prediction's top choice is
    undefined; the match counts as an error only if the realized outcome is
    not among the tied set, and ``tied`` is flagged either way.
    """
    ps = p.as_tuple()
    top = max(ps)
    tied_set = [i + 1 for i, p_i in enumerate(ps) if p_i == top]
    error = 0 if outcome in tied_set else 1
    return error, len(tied_set) > 1


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationBin:
    """One reliability-table row: events observed among probabilities in [lo, hi)."""

    lo: float
    hi: float
    n: int
    mean_prob: float
    event_rate: float
    se: float


@dataclass(frozen=True)
class SmoothedPoint:
    prob: float
    estimate: float = field(metadata=NONFINITE)
    se: float = field(metadata=NONFINITE)


@dataclass(frozen=True)
class CalibrationTable:
    n_pairs: int
    bandwidth: float
    bins: tuple[CalibrationBin, ...]
    smoothed: tuple[SmoothedPoint, ...]


def _unroll(scored: Sequence[tuple[Outcome, Prediction]]) -> tuple[np.ndarray, np.ndarray]:
    # Three (probability, event indicator) pairs per prediction, in order.
    probs = np.fromiter(
        (v for _, p in scored for v in (p.p_home, p.p_draw, p.p_away)), float, 3 * len(scored)
    )
    outcomes = np.fromiter((outcome for outcome, _ in scored), int, len(scored))
    events = (outcomes[:, None] == np.arange(1, 4)).astype(float).reshape(-1)
    return probs, events


def _binned(probs: np.ndarray, events: np.ndarray, bins: int) -> tuple[CalibrationBin, ...]:
    edges = np.linspace(0.0, 1.0, bins + 1)
    idx = np.clip(np.digitize(probs, edges[1:-1]), 0, bins - 1)
    rows = []
    for b in range(bins):
        mask = idx == b
        n = int(mask.sum())
        if n == 0:
            continue
        rate = float(events[mask].mean())
        rows.append(
            CalibrationBin(
                lo=float(edges[b]),
                hi=float(edges[b + 1]),
                n=n,
                mean_prob=float(probs[mask].mean()),
                event_rate=rate,
                se=math.sqrt(rate * (1.0 - rate) / n),
            )
        )
    return tuple(rows)


_BANDWIDTHS = (0.02, 0.05, 0.1, 0.2)
_LOO_CAP = 2000
_LOO_BLOCK = 32


def _loo_errors(probs: np.ndarray, events: np.ndarray) -> list[float]:
    """Leave-one-out squared error of the Nadaraya-Watson smoother, per bandwidth.

    Closed form from the Gaussian weight matrix.  Pairs with one probability
    share one weight row, so the rows are built per distinct value,
    ``_LOO_BLOCK`` at a time (no n x n array is held), and gathered back per
    pair.  The columns run events first, so a row's numerator is the sum of
    its leading slice.  Both are numpy row sums, whose bits follow the row's
    values alone, not where it sits; so the errors equal the dense n x n
    computation in the same column order bit for bit.  The diagonal weight
    is exp(-0.0) = 1.0.
    """
    values, inverse = np.unique(probs, return_inverse=True)
    hit = events == 1.0
    n_hits = int(hit.sum())
    cols = np.concatenate((probs[hit], probs[~hit]))
    num = np.empty((len(_BANDWIDTHS), values.size))
    den = np.empty((len(_BANDWIDTHS), values.size))
    for start in range(0, values.size, _LOO_BLOCK):
        rows = slice(start, start + _LOO_BLOCK)
        diff = values[rows, None] - cols[None, :]
        for b, bw in enumerate(_BANDWIDTHS):
            d = diff / bw
            w = -0.5 * d
            w *= d
            np.exp(w, out=w)
            num[b, rows] = w[:, :n_hits].sum(axis=1)
            den[b, rows] = w.sum(axis=1)
    num = num[:, inverse] - events
    den = den[:, inverse] - 1.0
    errors = []
    for num_b, den_b in zip(num, den):
        ok = den_b > 0
        if not ok.any():
            errors.append(math.inf)
            continue
        resid = events[ok] - num_b[ok] / den_b[ok]
        errors.append(float(np.mean(resid * resid)))
    return errors


def _smoothed(
    probs: np.ndarray, events: np.ndarray, grid: np.ndarray
) -> tuple[tuple[SmoothedPoint, ...], float]:
    if probs.size > _LOO_CAP:
        # Deterministic thinning: evenly spaced picks from the stably sorted pairs.
        order = np.argsort(probs, kind="stable")
        pick = order[np.linspace(0, probs.size - 1, _LOO_CAP).astype(int)]
        sel_p, sel_e = probs[pick], events[pick]
    else:
        sel_p, sel_e = probs, events
    bw = min(zip(_loo_errors(sel_p, sel_e), _BANDWIDTHS))[1]

    points = []
    for g in grid:
        # One grid point's weights at a time: no grid x pairs matrix is held.
        d = (g - probs) / bw
        w_row = np.exp(-0.5 * d * d)
        den_g = w_row.sum()
        if den_g < 1e-8:  # no effective sample mass near this grid point
            continue
        # numpy sums, not BLAS dot products: a threaded dot's summation
        # order, so its last digits, follow the BLAS thread count.
        est = float((w_row * events).sum() / den_g)
        var = float((w_row * (w_row * est * (1.0 - est))).sum()) / (den_g * den_g)
        points.append(SmoothedPoint(prob=float(g), estimate=est, se=math.sqrt(max(var, 0.0))))
    return tuple(points), bw


def calibration_curve(
    scored: Sequence[tuple[Outcome, Prediction]],
    *,
    bins: int = 10,
) -> CalibrationTable:
    """Reliability estimates: equal-width bins plus a kernel smoother.

    Each prediction contributes its three (probability, event indicator)
    pairs.  The smoother is Nadaraya-Watson with a Gaussian kernel whose
    bandwidth minimizes leave-one-out squared error over a small candidate
    set; it is evaluated at 0.05, 0.10, ..., 0.95.  Requires at least 30
    pairs.
    """
    probs, events = _unroll(scored)
    if probs.size < 30:
        raise ValueError(f"need >= 30 probability/event pairs, got {probs.size}")
    smoothed, bw = _smoothed(probs, events, np.linspace(0.05, 0.95, 19))
    return CalibrationTable(
        n_pairs=int(probs.size),
        bandwidth=bw,
        bins=_binned(probs, events, bins),
        smoothed=smoothed,
    )


# ---------------------------------------------------------------------------
# Goodness of fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GofResult:
    statistic: float = field(metadata=NONFINITE)
    df: int
    p_value: float = field(metadata=NONFINITE)
    excluded_terms: int = 0

    def __add__(self, other: "GofResult") -> "GofResult":
        # Independent chi-square statistics add, with degrees of freedom.
        stat = self.statistic + other.statistic
        df = self.df + other.df
        return GofResult(stat, df, chi_square_p_value(stat, df),
                         self.excluded_terms + other.excluded_terms)


def chi_square_p_value(statistic: float, df: int) -> float:
    """Upper-tail chi-square probability for an even ``df``.

    For df = 2n the regularized upper incomplete gamma Q(n, x / 2) equals
    P(Poisson(x / 2) < n), a sum of n Poisson terms, each taken in log
    space so that no factor underflows on its own.  The rounded terms can
    sum to an ulp past 1, so the sum is capped there.  An infinite
    statistic (an observed win given zero probability, to rounding) has
    p = 0.  Every df here is twice a team count or a sum of such, so an
    odd df is refused, as is a NaN statistic.
    """
    if df % 2:
        raise ValueError(f"chi-square df must be even, got {df}")
    if math.isnan(statistic):
        raise ValueError("chi-square statistic is NaN")
    if df <= 0 or statistic == 0.0:
        return 1.0
    if math.isinf(statistic):
        return 0.0
    rate = statistic / 2.0
    log_rate = math.log(rate)
    total = math.fsum(
        math.exp(j * log_rate - math.lgamma(j + 1.0) - rate) for j in range(df // 2)
    )
    return min(1.0, total)


def chi_square_gof(predictions: Sequence[tuple[MatchRecord, Prediction]]) -> GofResult:
    """Per-team win-count goodness of fit, split by venue.

    For each team, the expected number of wins at home (away) is the sum of
    its predicted win probabilities over those matches; the statistic sums
    (observed - expected)^2 / expected over both venues and all teams, and
    is referred to a chi-square distribution with 2 x (number of teams)
    degrees of freedom.  Terms with zero expected count are dropped and
    counted in ``excluded_terms``; they still count toward the df.
    """
    expected: dict[tuple[str, str], float] = {}
    observed: dict[tuple[str, str], int] = {}
    for match, p in predictions:
        outcome = outcome_of(match)
        for key, win_p, won in (
            ((match.home, "home"), p.p_home, outcome is Outcome.HOME_WIN),
            ((match.away, "away"), p.p_away, outcome is Outcome.AWAY_WIN),
        ):
            expected[key] = expected.get(key, 0.0) + win_p
            observed[key] = observed.get(key, 0) + won

    statistic = 0.0
    excluded = 0
    for key in sorted(expected):
        e = expected[key]
        if e <= 0.0:
            excluded += 1
        else:
            d = e - observed[key]
            statistic += d * d / e
    df = 2 * len({team for team, _ in expected})
    return GofResult(statistic, df, chi_square_p_value(statistic, df), excluded)

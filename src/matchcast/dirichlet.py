"""Conjugate Dirichlet updating, opinion pooling and the count-based predictors.

The categorical outcome of a match (win/draw/loss) under a Dirichlet prior
has a closed-form posterior predictive: each outcome probability is
(count + concentration) / (total + concentration sum).  Two observers --
one watching the home side at home, one watching the away side away --
are combined by linear opinion pooling with the away observer's win/loss
components swapped into the home team's frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import CountVector, MatchRecord, Outcome, Prediction, outcome_of, tally_records


@dataclass(frozen=True)
class DirichletParams:
    """Dirichlet concentrations over (win, draw, loss).

    The prior base is kept apart from accumulated integer match counts so
    that sequential conjugate updates compose exactly: updating with c1 and
    then c2 produces the same object, bit for bit, as updating once with
    c1 + c2.  The effective concentrations are ``a_win``, ``a_draw``,
    ``a_loss``.
    """

    base_win: float
    base_draw: float
    base_loss: float
    wins: int = 0
    draws: int = 0
    losses: int = 0

    def __post_init__(self) -> None:
        if not all(0.0 < b < math.inf for b in (self.base_win, self.base_draw, self.base_loss)):
            raise ValueError("concentration parameters must be positive and finite")
        if min(self.wins, self.draws, self.losses) < 0:
            raise ValueError("counts must be non-negative")

    @classmethod
    def symmetric(cls, alpha: float) -> "DirichletParams":
        return cls(alpha, alpha, alpha)

    @property
    def a_win(self) -> float:
        return self.base_win + self.wins

    @property
    def a_draw(self) -> float:
        return self.base_draw + self.draws

    @property
    def a_loss(self) -> float:
        return self.base_loss + self.losses

    @property
    def a_total(self) -> float:
        return (
            self.base_win
            + self.base_draw
            + self.base_loss
            + (self.wins + self.draws + self.losses)
        )


def posterior(prior: DirichletParams, counts: CountVector) -> DirichletParams:
    """Conjugate update: add observed (win, draw, loss) counts component-wise."""
    return DirichletParams(
        prior.base_win,
        prior.base_draw,
        prior.base_loss,
        prior.wins + counts.wins,
        prior.draws + counts.draws,
        prior.losses + counts.losses,
    )


def predictive(params: DirichletParams) -> Prediction:
    """Posterior predictive outcome probabilities: the Dirichlet mean."""
    total = params.a_total
    return Prediction(
        params.a_win / total, params.a_draw / total, params.a_loss / total
    )


def pool(home_view: Prediction, away_view: Prediction, w_home: float) -> Prediction:
    """Linear opinion pool of the two observers, in the home team's frame.

    The home observer gets weight ``w_home``, the away observer 1 - w_home.
    ``away_view`` is expressed from the away team's perspective, so its
    win/loss components swap roles: the away observer's *loss* probability
    feeds the pooled *home-win* slot and vice versa.
    """
    w, v = w_home, 1.0 - w_home
    return Prediction(
        w * home_view.p_home + v * away_view.p_away,
        w * home_view.p_draw + v * away_view.p_draw,
        w * home_view.p_away + v * away_view.p_home,
    )


@dataclass(frozen=True)
class MnDir2Config:
    """Tuned variant: symmetric prior concentration and the home observer's pool weight."""

    alpha: float
    w_home: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 <= self.w_home <= 1.0:
            raise ValueError(f"w_home must lie in [0, 1], got {self.w_home}")


def mn_dir2_predict(
    home_counts: CountVector, away_counts: CountVector, cfg: MnDir2Config
) -> Prediction:
    """Pooled predictive with symmetric prior D(alpha, alpha, alpha) and weight w."""
    prior = DirichletParams.symmetric(cfg.alpha)
    home_view = predictive(posterior(prior, home_counts))
    away_view = predictive(posterior(prior, away_counts))
    return pool(home_view, away_view, cfg.w_home)


MN_DIR1 = MnDir2Config(1.0, 0.5)


def mn_dir1_predict(home_counts: CountVector, away_counts: CountVector) -> Prediction:
    """Equal-weight mixture of the two posterior predictives (flat prior).

    ``home_counts`` tallies the home team's past home matches,
    ``away_counts`` the away team's past away matches, each from that
    team's own perspective.
    """
    return mn_dir2_predict(home_counts, away_counts, MN_DIR1)


@dataclass(frozen=True)
class GridSpec:
    """Candidate (w, alpha) values for cross-validated selection."""

    w_points: tuple[float, ...]
    alpha_points: tuple[float, ...]

    def __post_init__(self) -> None:
        for name, pts in (("w_points", self.w_points), ("alpha_points", self.alpha_points)):
            if not pts:
                raise ValueError(f"{name} must be non-empty")
            if not all(a < b for a, b in zip(pts, pts[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if not all(0.0 <= w <= 1.0 for w in self.w_points):
            raise ValueError("w_points must lie in [0, 1]")
        if not all(0.0 < a < math.inf for a in self.alpha_points):
            raise ValueError("alpha_points must be positive and finite")

    @classmethod
    def default(cls) -> "GridSpec":
        """20 equally spaced weights on [0, 1] and concentrations on (0.001, 20]."""
        w = tuple(k / 19.0 for k in range(20))
        alpha = tuple(0.001 + k * (19.999 / 19.0) for k in range(20))
        return cls(w, alpha)


def cv_select(first_half: Sequence[MatchRecord], grid: GridSpec) -> MnDir2Config:
    """Pick the (w, alpha) grid point with the smallest total first-half Brier.

    ``first_half`` holds played records.  Scoring is sequential: each match
    is predicted from the :func:`~matchcast.data.tally_records` counts of
    the half's matchdays strictly before its own (the symmetric prior alone
    on the first matchday) and scored against its own result.  Ties are
    broken toward the smallest alpha, then the smallest w, so the result
    does not depend on grid enumeration order.
    """
    if not first_half:
        raise ValueError("first_half must be non-empty")

    # Counts are grid-independent; tally them once per matchday.  The sort
    # is stable, so matches keep their given order within a matchday.
    ordered = sorted(first_half, key=lambda m: m.matchday)
    empty = CountVector()
    prepared: list[tuple[CountVector, CountVector, Outcome]] = []
    for i, match in enumerate(ordered):
        if i == 0 or match.matchday != ordered[i - 1].matchday:
            home, away = tally_records(ordered[:i])
        prepared.append(
            (home.get(match.home, empty), away.get(match.away, empty), outcome_of(match))
        )

    totals = _brier_totals(prepared, grid)
    # Python tuples order (total, alpha, w) with the documented tie-break.
    best = min(
        (float(totals[i, j]), alpha, w)
        for i, alpha in enumerate(grid.alpha_points)
        for j, w in enumerate(grid.w_points)
    )
    return MnDir2Config(alpha=best[1], w_home=best[2])


def _brier_totals(
    prepared: Sequence[tuple[CountVector, CountVector, Outcome]], grid: GridSpec
) -> np.ndarray:
    """Summed Brier score of ``mn_dir2_predict`` per grid point, shape (alpha, w).

    Bit-identical to the scalar loop ``total += brier(outcome,
    mn_dir2_predict(h, a, cfg))`` over ``prepared``: each array operation
    is the scalar code's operation, in its order, and the sum runs match by
    match.  One concentration is scored at a time, so only its (w, match,
    outcome) slab is held.
    """
    home = np.array([(h.wins, h.draws, h.losses) for h, _, _ in prepared], dtype=float)
    away = np.array([(a.wins, a.draws, a.losses) for _, a, _ in prepared], dtype=float)
    hit = np.array(
        [(o is Outcome.HOME_WIN, o is Outcome.DRAW, o is Outcome.AWAY_WIN) for _, _, o in prepared],
        dtype=float,
    )
    home_seen = home.sum(axis=1)[:, None]
    away_seen = away.sum(axis=1)[:, None]
    w = np.array(grid.w_points)[:, None, None]  # (w, match, outcome)
    totals = np.empty((len(grid.alpha_points), len(grid.w_points)))
    for i, alpha in enumerate(grid.alpha_points):
        prior_total = alpha + alpha + alpha
        home_view = (alpha + home) / (prior_total + home_seen)
        away_view = (alpha + away) / (prior_total + away_seen)
        # The away observer's (win, draw, loss) feeds the pool as (loss, draw, win).
        pooled = w * home_view + (1.0 - w) * away_view[:, ::-1]
        diff = hit - pooled
        sq = diff * diff
        per_match = (sq[..., 0] + sq[..., 1]) + sq[..., 2]
        totals[i] = np.add.accumulate(per_match, axis=1)[:, -1]
    return totals

"""Davidson extension of the Bradley-Terry model: ties and home advantage.

For home team i and visitor j with worths pi_i, pi_j, home-advantage gamma
and tie parameter nu, the outcome probabilities are proportional to

    win:  gamma * pi_i      draw:  nu * sqrt(pi_i * pi_j)      loss:  pi_j

Fitting maximizes the log-likelihood over an unconstrained space: log-worths
relative to a reference team plus log gamma and log nu, which builds the
positivity and sum-to-one identifiability constraints into the geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .data import MatchRecord, Outcome, Prediction, format_csv, outcome_of
from .optimize import FitReport, fit_report, fit_teams, minimize

WORTH_SUM_TOL = 1e-9


@dataclass(frozen=True)
class BTParams:
    """Fitted worths (normalized to sum 1), home advantage and tie propensity."""

    worth: Mapping[str, float]
    gamma: float
    nu: float

    def __post_init__(self) -> None:
        if not self.worth:
            raise ValueError("worth map must be non-empty")
        if not all(w > 0.0 for w in self.worth.values()):
            raise ValueError("worths must be positive")
        total = sum(self.worth.values())
        if not abs(total - 1.0) <= WORTH_SUM_TOL:
            raise ValueError(f"worths sum to {total!r}, not 1")
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.nu >= 0.0:
            raise ValueError(f"nu must be non-negative, got {self.nu}")

    def to_csv(self) -> str:
        """``team,worth`` rows with a ``gamma,nu`` footer."""
        rows = [(team, self.worth[team]) for team in sorted(self.worth)]
        return format_csv(("team", "worth"), rows + [("gamma", self.gamma), ("nu", self.nu)])


def bt_outcome_probs(params: BTParams, home: str, away: str) -> Prediction:
    """Win/draw/loss probabilities for a single fixture."""
    for team in (home, away):
        if team not in params.worth:
            raise KeyError(f"unknown team {team!r}")
    pi_h = params.worth[home]
    pi_a = params.worth[away]
    win = params.gamma * pi_h
    draw = params.nu * math.sqrt(pi_h * pi_a)
    loss = pi_a
    denom = win + draw + loss
    return Prediction(win / denom, draw / denom, loss / denom)


class _DavidsonObjective:
    """Negative log-likelihood and gradient over (r_2..r_T, log gamma, log nu).

    ``matches`` are played records between ``teams``; each one's result is
    read once, through :func:`~matchcast.data.outcome_of`.  Outcome masks,
    gradient targets and the scatter index depend on the data only and are
    built once per fit.  A call returns the value and a callable that
    finishes the gradient from that call's arrays.
    """

    def __init__(self, teams: Sequence[str], matches: Sequence[MatchRecord]):
        self.teams = list(teams)
        index = {t: k for k, t in enumerate(self.teams)}
        self.home_idx = np.array([index[m.home] for m in matches], dtype=int)
        self.away_idx = np.array([index[m.away] for m in matches], dtype=int)
        self.team_idx = np.concatenate((self.home_idx, self.away_idx))
        outcome = np.array([outcome_of(m).value for m in matches])
        self.is_win = outcome == Outcome.HOME_WIN.value
        self.is_draw = outcome == Outcome.DRAW.value
        is_loss = outcome == Outcome.AWAY_WIN.value
        self.target_home = self.is_win * 1.0 + self.is_draw * 0.5
        self.target_away = is_loss * 1.0 + self.is_draw * 0.5
        self.n_teams = len(self.teams)

    @property
    def n_params(self) -> int:
        return self.n_teams + 1  # T - 1 free log-worths, log gamma, log nu

    def unpack(self, theta: np.ndarray) -> tuple[np.ndarray, float, float]:
        r = np.concatenate(([0.0], theta[: self.n_teams - 1]))
        return r, float(theta[-2]), float(theta[-1])

    def __call__(self, theta: np.ndarray) -> tuple[float, Callable[[], np.ndarray]]:
        r, log_gamma, log_nu = self.unpack(theta)
        r_h = r[self.home_idx]
        r_a = r[self.away_idx]
        # Log numerators of win / loss / draw terms.
        log_win = log_gamma + r_h
        log_loss = r_a
        log_draw = log_nu + 0.5 * (r_h + r_a)
        stacked = np.stack([log_win, log_draw, log_loss])
        top = stacked.max(axis=0)
        log_denom = top + np.log(np.exp(stacked - top).sum(axis=0))

        chosen = np.where(self.is_win, log_win, np.where(self.is_draw, log_draw, log_loss))
        nll = float(np.sum(log_denom - chosen))

        def gradient() -> np.ndarray:
            # Softmax weights of the three terms in each denominator.
            w_win = np.exp(log_win - log_denom)
            w_draw = np.exp(log_draw - log_denom)
            w_loss = np.exp(log_loss - log_denom)

            # d(log denominator)/d(param) minus d(log numerator)/d(param).
            d_home = (w_win + 0.5 * w_draw) - self.target_home
            d_away = (w_loss + 0.5 * w_draw) - self.target_away
            d_gamma = float(np.sum(w_win - self.is_win))
            d_nu = float(np.sum(w_draw - self.is_draw))

            # bincount adds in index order from 0.0, as paired np.add.at calls do.
            d_r = np.bincount(self.team_idx, np.concatenate((d_home, d_away)), self.n_teams)
            return np.concatenate((d_r[1:], [d_gamma, d_nu]))

        return nll, gradient


def bt_fit(matches: Sequence[MatchRecord]) -> FitReport[BTParams]:
    """Maximum-likelihood fit to played ``matches`` from the symmetric start.

    The window is checked by :func:`~matchcast.optimize.fit_teams`, as for
    every likelihood fit.  Initialization is equal worths with gamma = nu
    = 1, so repeated fits on the same data are identical.  Parameters
    running off to the clamp box (separable data, or no draws pushing nu
    to zero) come back flagged in ``boundary_flags`` rather than as an
    exception.  A window with no draw flags ``nu``, and one with no draw
    and only home wins, or only away wins, flags ``gamma`` too.
    """
    objective = _DavidsonObjective(fit_teams(matches), matches)
    x0 = np.zeros(objective.n_params)
    result = minimize(objective, x0)

    r, log_gamma, log_nu = objective.unpack(result.x)
    worths = np.exp(r)
    worths /= worths.sum()
    params = BTParams(
        worth={t: float(w) for t, w in zip(objective.teams, worths)},
        gamma=float(math.exp(log_gamma)),
        nu=float(math.exp(log_nu)),
    )
    # The first team's log-worth is fixed at 0: the free coordinates are
    # every parameter that can drift.
    names = [f"worth:{t}" for t in objective.teams[1:]] + ["gamma", "nu"]
    # Outcome counts alone decide two limits, which the solver can stop
    # short of as the gradient flattens: with no draw the likelihood falls
    # in nu everywhere, and with no draw and one side never winning it
    # rises without bound along gamma.
    unbounded = []
    if not objective.is_draw.any():
        unbounded.append("nu")
        if objective.is_win.all() or not objective.is_win.any():
            unbounded.append("gamma")
    return fit_report(params, result, dict(zip(names, result.x)), unbounded)

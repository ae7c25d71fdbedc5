"""Goals-based models: bivariate Poisson scores with log-linear team strengths.

The joint score (Y1, Y2) follows Holgate's bivariate Poisson with rates
(lambda1, lambda2) and shared component lambda3; marginals are Poisson
(lambda1 + lambda3) and (lambda2 + lambda3) with covariance lambda3, and
lambda3 = 0 recovers independent marginals.  Under the trivariate reduction
(Y1, Y2) = (U + W, V + W) the goal difference is U - V, so match outcomes
depend on lambda1 and lambda2 alone.  Scoring rates come from log-linear
links in per-team attack/defence strengths with a home-advantage offset,
identified by zero-sum constraints on the strengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import MAX_GOALS, MatchRecord, Prediction, format_csv
from .optimize import FitReport, fit_report, fit_teams, minimize

STRENGTH_SUM_TOL = 1e-9
DEFAULT_TAIL_TOL = 1e-10
# Far past any football score; a boundary fit can put an unseen pairing's
# rate near 1e8, whose grid would exhaust memory.
MAX_GRID_GOALS = 1024
# ``score_grid`` tests the counts 0 .. block - 1 against tail sums that stop
# at 2 * block + 31 goals: for a mean below ``block``, the mass past that
# lies below the last bit of every tail under 1e-3 (checked at each block).
_TAIL_PAD = 32

# log(n!) for the score grid's pmf and both likelihoods, which index it by a record's goals.
_LOG_FACTORIALS = np.array([math.lgamma(n + 1.0) for n in range(2 * MAX_GRID_GOALS + _TAIL_PAD)])
assert _LOG_FACTORIALS.size > MAX_GOALS
_GOALS = np.arange(_LOG_FACTORIALS.size, dtype=float)
# Which of a match's Hessian cells a pair of its (eta1, eta2, log lambda3)
# rows reads: 0-2 the diagonal, then (eta1, eta2), (eta1 or eta2, log lambda3).
_CELL = np.array([[0, 3, 4], [3, 1, 4], [4, 4, 2]])


@dataclass(frozen=True)
class BivPoissonParams:
    lambda1: float
    lambda2: float
    lambda3: float = 0.0

    def __post_init__(self) -> None:
        # A boundary fit can overflow a rate to inf: score_grid refuses it,
        # where the caller can name the fit.  NaN is refused here.
        for name in ("lambda1", "lambda2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.lambda3 >= 0.0:
            raise ValueError(f"lambda3 must be non-negative, got {self.lambda3}")


@dataclass(frozen=True)
class TeamStrengths:
    """Log-linear rate parameters: baseline, attack/defence maps, home offset."""

    mu: float
    attack: Mapping[str, float]
    defense: Mapping[str, float]
    gamma_home: float
    lambda3: float = 0.0

    def __post_init__(self) -> None:
        if set(self.attack) != set(self.defense):
            raise ValueError("attack and defense must cover the same teams")
        for name, strengths in (("attack", self.attack), ("defense", self.defense)):
            total = sum(strengths.values())
            if not abs(total) <= STRENGTH_SUM_TOL:
                raise ValueError(f"{name} strengths sum to {total!r}, not 0")
        for name in ("mu", "gamma_home"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.lambda3 >= 0.0:
            raise ValueError(f"lambda3 must be non-negative, got {self.lambda3}")

    def to_csv(self) -> str:
        """``team,att,def`` rows with a ``mu,gamma,lambda3`` footer."""
        rows = [(team, self.attack[team], self.defense[team]) for team in sorted(self.attack)]
        rows += [("mu", self.mu, ""), ("gamma", self.gamma_home, ""), ("lambda3", self.lambda3, "")]
        return format_csv(("team", "att", "def"), rows)


def link_rates(strengths: TeamStrengths, home: str, away: str) -> BivPoissonParams:
    """Scoring rates for one fixture from the log-linear links."""
    for team in (home, away):
        if team not in strengths.attack:
            raise KeyError(f"unknown team {team!r}")
    log_l1 = (
        strengths.mu
        + strengths.attack[home]
        - strengths.defense[away]
        + strengths.gamma_home
    )
    log_l2 = strengths.mu + strengths.attack[away] - strengths.defense[home]
    return BivPoissonParams(math.exp(log_l1), math.exp(log_l2), strengths.lambda3)


@dataclass(frozen=True)
class ScoreGrid:
    """Goals per side of the certified grid; a type, as ``bench/spans.py`` reads ``.max_goals``."""

    max_goals: int


def _poisson_pmf(k: np.ndarray, lam: float) -> np.ndarray:
    return np.exp(k * math.log(lam) - _LOG_FACTORIALS[k.astype(int)] - lam)


def score_grid(params: BivPoissonParams, tail_tol: float = DEFAULT_TAIL_TOL) -> ScoreGrid:
    """Smallest (U, V) grid whose certified missing mass is at most ``tail_tol``.

    The size is chosen from the tails of U ~ Poisson(lambda1) and
    V ~ Poisson(lambda2): P(U > g) + P(V > g) bounds the mass outside the
    grid.  Rates that would need more than ``MAX_GRID_GOALS`` goals per
    side raise ``ValueError``, as does a ``tail_tol`` outside (0, 1e-3]
    (NaN included).
    """
    if not 0.0 < tail_tol <= 1e-3:
        raise ValueError(f"tail_tol must lie in (0, 0.001], got {tail_tol}")
    m1, m2 = params.lambda1, params.lambda2
    # Search blocks of goal counts, doubling the block until some count k
    # meets the tolerance; the first such count is where a goal-by-goal
    # search would stop.  A mean at or past ``block`` leaves at least half
    # its mass at ``block`` goals or more (the Poisson median exceeds the
    # mean minus log 2), so every count of that block is above.
    block = 32
    while True:
        if max(m1, m2) < block:
            goals = _GOALS[: 2 * block + _TAIL_PAD]
            # The pmf summed from the far end, smallest term first: entry i
            # is P(Y > goals[-2 - i]), so the reversed slice holds P(Y > k)
            # for k = 0 .. block - 1.
            tail1, tail2 = (np.add.accumulate(_poisson_pmf(goals, m)[:0:-1]) for m in (m1, m2))
            above = (tail1 + tail2)[: -block - 1 : -1] > tail_tol
            # Sums of non-negative terms only grow, so ``above`` runs True
            # then False, and the last count decides whether any meets.
            if not above[-1]:
                break
        if block >= MAX_GRID_GOALS:
            raise ValueError(
                f"rates {m1!r}, {m2!r} need more than {MAX_GRID_GOALS} goals per side"
            )
        block *= 2
    return ScoreGrid(max_goals=int(above.argmin()))


def outcome_probs(params: BivPoissonParams) -> Prediction:
    """Win/draw/loss probabilities: the (U, V) grid's cells below, on and above the
    diagonal, renormalized.  Y1 - Y2 = U - V, so lambda3 is never read."""
    goals = _GOALS[: score_grid(params).max_goals + 1]
    mass = np.outer(_poisson_pmf(goals, params.lambda1), _poisson_pmf(goals, params.lambda2))
    total = float(mass.sum())
    return Prediction(
        float(np.tril(mass, -1).sum()) / total,
        float(np.trace(mass)) / total,
        float(np.triu(mass, 1).sum()) / total,
    )


class _PoissonObjective:
    """Negative log-likelihood over (mu, gamma, att_1..T-1, def_1..T-1[, log lambda3]).

    The last team's attack and defence are minus the sum of the others, so
    the zero-sum identifiability constraints hold exactly at every iterate.

    Every data-only term is built once here.  The shared-component sum of
    the correlated model runs over the live cells k <= min(y1, y2) only,
    row-major by match; its row sums are taken on the dense match x k
    layout, whose reduction order fixes the rounding of the fits.  A call
    returns the value and two callables that finish the gradient and the
    Hessian from that call's arrays.  In (eta1, eta2, log lambda3), with
    eta = log lambda, a match's Hessian is
    diag(lambda1, lambda2, lambda3) - Var[k] w w^T with w = (1, 1, -1), for
    k the shared count under the live cells' weights (Karlis & Ntzoufras
    2003); Var[k] = 0 if independent.
    """

    def __init__(self, teams: Sequence[str], matches: Sequence[MatchRecord], correlated: bool):
        self.teams = list(teams)
        self.correlated = correlated
        index = {t: k for k, t in enumerate(self.teams)}
        self.home_idx = np.array([index[m.home] for m in matches])
        self.away_idx = np.array([index[m.away] for m in matches])
        self.y1 = np.array([m.home_goals for m in matches], dtype=float)
        self.y2 = np.array([m.away_goals for m in matches], dtype=float)
        self.n_teams = len(self.teams)
        self.lgamma_y1 = _LOG_FACTORIALS[self.y1.astype(int)]
        self.lgamma_y2 = _LOG_FACTORIALS[self.y2.astype(int)]
        self._scatter(len(matches))
        if correlated:
            n = len(self.y1)
            n_cells = np.minimum(self.y1, self.y2).astype(int) + 1
            # Dense width min(max y1, max y2) + 1, not the widest live row:
            # BLAS rounds ``rel @ k`` differently at another width.
            kmax = int(min(self.y1.max(), self.y2.max()))
            self.k = np.arange(kmax + 1, dtype=float)
            self.row_start = np.concatenate(([0], np.cumsum(n_cells)[:-1]))
            self.rows = np.repeat(np.arange(n), n_cells)
            k_cell = np.arange(int(n_cells.sum())) - self.row_start[self.rows]
            self.dense_at = self.rows * self.k.size + k_cell
            self.dense_shape = (n, self.k.size)
            self.k_cell = k_cell.astype(float)
            self.y1_cell = self.y1[self.rows] - self.k_cell
            self.y2_cell = self.y2[self.rows] - self.k_cell
            self.lgamma_y1_cell = _LOG_FACTORIALS[self.y1_cell.astype(int)]
            self.lgamma_y2_cell = _LOG_FACTORIALS[self.y2_cell.astype(int)]
            self.lgamma_k_cell = _LOG_FACTORIALS[self.k_cell.astype(int)]

    def _scatter(self, n: int) -> None:
        """Where each match's derivatives in (eta1, eta2[, log lambda3]) land.

        Each entry below puts one row on a full coordinate (mu, gamma,
        att_0..T-1, def_0..T-1[, log lambda3]) with a sign; ``np.bincount``
        adds in index order, whatever the BLAS thread count.  Pairs of
        entries i <= j fill half the Hessian, the transpose the rest.
        """
        t, home, away = self.n_teams, self.home_idx, self.away_idx
        zero = np.zeros(n, dtype=int)
        # mu, gamma, home attack, away defence in eta1; mu, away attack, home defence in eta2.
        coords = [zero, zero + 1, 2 + home, 2 + t + away, zero, 2 + away, 2 + t + home]
        rows = [0, 0, 0, 0, 1, 1, 1]
        signs = [1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0]
        if self.correlated:
            coords, rows, signs = coords + [zero + 2 + 2 * t], rows + [2], signs + [1.0]
        self.n_full = self.n_params + 2  # with the last team's attack and defence
        coords, self.entry_rows, signs = np.array(coords), np.array(rows), np.array(signs)
        self.g_bins = coords.ravel()
        self.g_signs = signs[:, None]
        i, j = np.triu_indices(len(rows))
        # The independent model's Hessian is diagonal in (eta1, eta2).
        keep = (self.entry_rows[i] == self.entry_rows[j]) | self.correlated
        i, j = i[keep], j[keep]
        self.h_bins = (coords[i] * self.n_full + coords[j]).ravel()
        self.h_cells = _CELL[self.entry_rows[i], self.entry_rows[j]]
        # A pair of an entry with itself counts half: the transpose adds it again.
        self.h_signs = (signs[i] * signs[j] * np.where(i == j, 0.5, 1.0))[:, None]

    @property
    def n_params(self) -> int:
        return 2 + 2 * (self.n_teams - 1) + (1 if self.correlated else 0)

    def unpack(self, theta: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray, float]:
        t = self.n_teams
        mu, gamma = float(theta[0]), float(theta[1])
        att_free = theta[2 : 2 + t - 1]
        def_free = theta[2 + t - 1 : 2 + 2 * (t - 1)]
        att = np.empty(t)
        att[:-1] = att_free
        att[-1] = -att_free.sum()
        dfn = np.empty(t)
        dfn[:-1] = def_free
        dfn[-1] = -def_free.sum()
        lambda3 = math.exp(float(theta[-1])) if self.correlated else 0.0
        return mu, gamma, att, dfn, lambda3

    def log_rates(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Each match's log lambda1 and log lambda2 at ``theta``, and lambda3."""
        mu, gamma, att, dfn, lambda3 = self.unpack(theta)
        log_l1 = mu + att[self.home_idx] - dfn[self.away_idx] + gamma
        log_l2 = mu + att[self.away_idx] - dfn[self.home_idx]
        return log_l1, log_l2, lambda3

    def _to_free(self, full: np.ndarray) -> np.ndarray:
        """Chain rule through the eliminated last team, along the first axis."""
        t = self.n_teams
        return np.concatenate((
            full[:2],
            full[2 : t + 1] - full[t + 1],
            full[t + 2 : 2 * t + 1] - full[2 * t + 1],
            full[2 * t + 2 :],
        ))

    def __call__(self, theta: np.ndarray):
        log_l1, log_l2, lambda3 = self.log_rates(theta)
        l1 = np.exp(log_l1)
        l2 = np.exp(log_l2)

        if lambda3 == 0.0:
            ll = (
                -(l1 + l2)
                + self.y1 * log_l1
                + self.y2 * log_l2
                - self.lgamma_y1
                - self.lgamma_y2
            )
            nll = -float(ll.sum())
            assert not self.correlated  # the box keeps lambda3 >= exp(-30)
        else:
            log_terms = (
                self.y1_cell * log_l1[self.rows]
                + self.y2_cell * log_l2[self.rows]
                + self.k_cell * math.log(lambda3)
                - self.lgamma_y1_cell
                - self.lgamma_y2_cell
                - self.lgamma_k_cell
            )
            # Every match has its k = 0 cell, so no row is empty.
            top = np.maximum.reduceat(log_terms, self.row_start)
            rel = np.zeros(self.dense_shape)
            with np.errstate(invalid="ignore"):
                rel.ravel()[self.dense_at] = np.exp(log_terms - top[self.rows])
            s = rel.sum(axis=1)
            log_sum = top + np.log(s)
            ll = -(l1 + l2 + lambda3) + log_sum
            nll = -float(ll.sum())
            mean_k = (rel @ self.k) / s

        def gradient() -> np.ndarray:
            # Per match in (eta1, eta2[, log lambda3]); y - 0.0 is y exactly.
            shared = mean_k if self.correlated else 0.0
            eta_grad = [l1 - (self.y1 - shared), l2 - (self.y2 - shared)]
            if self.correlated:
                eta_grad.append(lambda3 - mean_k)
            # bincount adds in index order from 0.0, entry by entry.
            weights = (np.stack(eta_grad)[self.entry_rows] * self.g_signs).ravel()
            return self._to_free(np.bincount(self.g_bins, weights, self.n_full))

        def hessian() -> np.ndarray:
            if not self.correlated:
                cells = np.stack((l1, l2))
            else:
                # Var[k] as the mean squared deviation over each match's cells.
                dev = self.k - mean_k[:, None]
                var = (rel * dev * dev).sum(axis=1) / s
                cells = np.stack((l1 - var, l2 - var, lambda3 - var, -var, var))
            weights = (cells[self.h_cells] * self.h_signs).ravel()
            half = np.bincount(self.h_bins, weights, self.n_full**2).reshape(self.n_full, -1)
            full = half + half.T
            return self._to_free(self._to_free(full).T)

        return nll, gradient, hessian


def poisson_fit(
    matches: Sequence[MatchRecord], correlated: bool = False
) -> FitReport[TeamStrengths]:
    """Maximum-likelihood team strengths; ``correlated=False`` pins lambda3 = 0.

    The correlated fit starts from the independent one.  There the score in
    lambda3 at lambda3 = 0 is sum(y1 * y2 / (lambda1 * lambda2) - 1), and
    every other score is 0; a score <= 0 puts the constrained MLE on the
    edge lambda3 = 0, and the independent fit is returned with lambda3 = 0
    exactly and the ``lambda3`` flag.  Strengths running off toward
    infinity (separable data) come back flagged in ``boundary_flags``.
    """
    teams = fit_teams(matches)
    objective = _PoissonObjective(teams, matches, correlated=False)
    result = minimize(objective, np.zeros(objective.n_params))
    if correlated:
        log_l1, log_l2, _ = objective.log_rates(result.x)
        score = float((objective.y1 * objective.y2 / np.exp(log_l1 + log_l2) - 1.0).sum())
        if score > 0.0:
            objective = _PoissonObjective(teams, matches, correlated=True)
            # From there, with a small positive shared component.
            result = minimize(objective, np.append(result.x, math.log(0.1)))

    mu, gamma, att, dfn, lambda3 = objective.unpack(result.x)
    strengths = TeamStrengths(
        mu=mu,
        attack={t: float(a) for t, a in zip(teams, att)},
        defense={t: float(d) for t, d in zip(teams, dfn)},
        gamma_home=gamma,
        lambda3=lambda3,
    )
    log_scale = {
        "mu": mu,
        "gamma": gamma,
        **{f"att:{t}": float(a) for t, a in zip(teams, att)},
        **{f"def:{t}": float(d) for t, d in zip(teams, dfn)},
    }
    if objective.correlated:
        log_scale["lambda3"] = float(result.x[-1])
    on_edge = ["lambda3"] if correlated and not objective.correlated else []
    return fit_report(strengths, result, log_scale, on_edge)

"""Maximum-likelihood oracle for the three fitted models, from their definitions.

It uses numpy, the standard library and ``scipy.optimize``, and imports
nothing from ``matchcast``: a fit is checked against an optimiser that
shares none of the package's code.  A window is any sequence of played
matches with ``home``, ``away``, ``home_goals`` and ``away_goals``.

Each model's log-rates (or log-terms) are linear in its parameters, so
each is written as design matrices over the parameter vector:

- ``davidson``: the Davidson (1970) tie model as a 3-term logit.  The
  log-terms are log gamma + r_h (home win), log nu + (r_h + r_a) / 2
  (draw) and r_a (away win), with r = 0 for the first team in sorted
  order.
- ``poisson``: independent Poisson goals with log lambda1 = mu + att_h -
  def_a + gamma and log lambda2 = mu + att_a - def_h, where the last team's
  attack and defence are minus the sum of the others'.
- ``bivariate``: the same rates plus a shared component lambda3 >= 0 on
  its natural scale, bounded at 0, with the pmf summed over the
  trivariate reduction (Y1, Y2) = (U + W, V + W) in ``math.lgamma`` terms.

``fit`` runs L-BFGS-B, then polishes with Newton steps on a central
difference Hessian of the analytic gradient until the projected gradient
norm is at most ``GRAD_TOL``.  A bivariate fit whose lambda3 reaches 0
with a non-negative derivative there stays at lambda3 = 0 exactly.  When
any parameter, the eliminated team's included, drifts to ``DRIFT_LIMIT``
the window has no finite MLE, and the fit says so instead of predicting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

DRIFT_LIMIT = 15.0  # |parameter| on a log scale past any plausible finite MLE
GRAD_TOL = 1e-11
BOX = 40.0          # L-BFGS-B bound on every log-scale coordinate
MAX_NEWTON = 60


class OracleError(RuntimeError):
    """The oracle could not polish the fit to ``GRAD_TOL``."""


@dataclass(frozen=True)
class OracleFit:
    finite: bool          # False: the iterates drifted, so no finite MLE
    theta: np.ndarray
    grad_norm: float
    model: "_Model"

    def prediction(self, home: str, away: str) -> tuple[float, float, float]:
        """(home win, draw, away win) probabilities at the MLE."""
        if not self.finite:
            raise ValueError("the window has no finite MLE")
        return self.model.prediction(self.theta, home, away)


def _teams(window: Sequence) -> list[str]:
    return sorted({t for m in window for t in (m.home, m.away)})


class _Model:
    """Parameters, negative log-likelihood with gradient, and predictions."""

    n_params: int
    lower_bounds: np.ndarray

    def __init__(self, window: Sequence):
        self.teams = _teams(window)
        self.index = {t: k for k, t in enumerate(self.teams)}
        self.home = np.array([self.index[m.home] for m in window])
        self.away = np.array([self.index[m.away] for m in window])
        self.y1 = np.array([m.home_goals for m in window], dtype=float)
        self.y2 = np.array([m.away_goals for m in window], dtype=float)

    def start(self) -> np.ndarray:
        return np.zeros(self.n_params)

    def nll(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def log_scale(self, theta: np.ndarray) -> np.ndarray:
        """Every parameter on a log scale, derived ones included."""
        raise NotImplementedError

    def prediction(self, theta: np.ndarray, home: str, away: str) -> tuple[float, float, float]:
        raise NotImplementedError


class _Davidson(_Model):
    """theta = (r_2 .. r_T, log gamma, log nu)."""

    def __init__(self, window: Sequence):
        super().__init__(window)
        t = len(self.teams)
        self.n_params = t + 1
        self.lower_bounds = np.full(self.n_params, -BOX)
        n = len(self.home)
        home_worth = np.zeros((n, t))
        home_worth[np.arange(n), self.home] = 1.0
        away_worth = np.zeros((n, t))
        away_worth[np.arange(n), self.away] = 1.0

        def design(r_part, gamma, nu):
            x = np.zeros((n, self.n_params))
            x[:, : t - 1] = r_part[:, 1:]
            x[:, -2] = gamma
            x[:, -1] = nu
            return x

        # Rows: the log-terms of a home win, a draw and an away win.
        self.designs = np.stack([
            design(home_worth, 1.0, 0.0),
            design(0.5 * (home_worth + away_worth), 0.0, 1.0),
            design(away_worth, 0.0, 0.0),
        ])
        result = np.sign(self.y1 - self.y2)
        self.chosen = np.stack([result > 0, result == 0, result < 0]).astype(float)

    def nll(self, theta):
        terms = self.designs @ theta                      # (3, n)
        top = terms.max(axis=0)
        log_denom = top + np.log(np.exp(terms - top).sum(axis=0))
        value = float((log_denom - (self.chosen * terms).sum(axis=0)).sum())
        weights = np.exp(terms - log_denom)
        grad = np.einsum("kn,knp->p", weights - self.chosen, self.designs)
        return value, grad

    def log_scale(self, theta):
        return np.concatenate(([0.0], theta))

    def prediction(self, theta, home, away):
        r = np.concatenate(([0.0], theta[: len(self.teams) - 1]))
        log_gamma, log_nu = theta[-2], theta[-1]
        h, a = r[self.index[home]], r[self.index[away]]
        terms = np.array([log_gamma + h, log_nu + 0.5 * (h + a), a])
        w = np.exp(terms - terms.max())
        return tuple(float(v) for v in w / w.sum())


class _Poisson(_Model):
    """theta = (mu, gamma, att_1 .. att_T-1, def_1 .. def_T-1[, lambda3])."""

    correlated = False

    def __init__(self, window: Sequence):
        super().__init__(window)
        t = len(self.teams)
        self.n_strengths = 2 + 2 * (t - 1)
        self.n_params = self.n_strengths + (1 if self.correlated else 0)
        self.lower_bounds = np.full(self.n_params, -BOX)
        # Zero-sum map from the free strengths to all T of them.
        self.zero_sum = np.vstack([np.eye(t - 1), -np.ones((1, t - 1))])
        self.x1 = np.vstack([self._row(h, a, 1.0) for h, a in zip(self.home, self.away)])
        self.x2 = np.vstack([self._row(a, h, 0.0) for h, a in zip(self.home, self.away)])

    def _row(self, attacker: int, defender: int, home: float) -> np.ndarray:
        # log rate = mu + att[attacker] - def[defender] + home * gamma
        t = len(self.teams)
        row = np.zeros(self.n_strengths)
        row[0] = 1.0
        row[1] = home
        row[2 : t + 1] = self.zero_sum[attacker]
        row[t + 1 :] = -self.zero_sum[defender]
        return row

    def strengths(self, theta):
        t = len(self.teams)
        att = self.zero_sum @ theta[2 : t + 1]
        dfn = self.zero_sum @ theta[t + 1 : self.n_strengths]
        return theta[0], theta[1], att, dfn

    def rates(self, theta, home: str, away: str) -> tuple[float, float]:
        mu, gamma, att, dfn = self.strengths(theta)
        h, a = self.index[home], self.index[away]
        return (math.exp(mu + att[h] - dfn[a] + gamma), math.exp(mu + att[a] - dfn[h]))

    def nll(self, theta):
        eta1 = self.x1 @ theta[: self.n_strengths]
        eta2 = self.x2 @ theta[: self.n_strengths]
        l1, l2 = np.exp(eta1), np.exp(eta2)
        value = float((l1 + l2 - self.y1 * eta1 - self.y2 * eta2).sum())
        grad = self.x1.T @ (l1 - self.y1) + self.x2.T @ (l2 - self.y2)
        return value, grad

    def log_scale(self, theta):
        mu, gamma, att, dfn = self.strengths(theta)
        return np.concatenate(([mu, gamma], att, dfn))

    def prediction(self, theta, home, away):
        # lambda3 is common to both scores, so it cancels in Y1 - Y2.
        return _skellam_outcomes(*self.rates(theta, home, away))


class _Bivariate(_Poisson):
    correlated = True

    def __init__(self, window: Sequence):
        super().__init__(window)
        self.lower_bounds[-1] = 0.0
        y1 = self.y1.astype(int)
        y2 = self.y2.astype(int)
        width = int(np.minimum(y1, y2).max()) + 1
        # log c_k = log [y1! y2! / ((y1 - k)! (y2 - k)! k!)], the k-th term
        # of the sum over W = k relative to its k = 0 term at r = 1.
        log_c = np.full((len(y1), width), -np.inf)
        for i, (a, b) in enumerate(zip(y1, y2)):
            for j in range(min(a, b) + 1):
                log_c[i, j] = (
                    math.lgamma(a + 1) - math.lgamma(a - j + 1)
                    + math.lgamma(b + 1) - math.lgamma(b - j + 1)
                    - math.lgamma(j + 1)
                )
        self.log_c = log_c
        self.k = np.arange(width, dtype=float)

    def start(self):
        theta = np.zeros(self.n_params)
        theta[-1] = 0.1
        return theta

    def nll(self, theta):
        value, grad = super().nll(theta)
        lambda3 = theta[-1]
        eta1 = self.x1 @ theta[: self.n_strengths]
        eta2 = self.x2 @ theta[: self.n_strengths]
        # p(y1, y2) = e^-(l1 + l2 + l3) * l1^y1 l2^y2 / (y1! y2!) * P(r), with
        # r = l3 / (l1 l2) and P(r) = sum_k c_k r^k, so only P is new here.
        if lambda3 > 0.0:
            log_r = math.log(lambda3) - eta1 - eta2
            log_terms = self.log_c + self.k[None, :] * log_r[:, None]
            top = log_terms.max(axis=1)
            rel = np.exp(log_terms - top[:, None])
            total = rel.sum(axis=1)
            log_p = top + np.log(total)
            mean_k = (rel * self.k).sum(axis=1) / total
            # dP/dl3 / P = E[k] / l3
            d_lambda3 = float((mean_k / lambda3).sum())
        else:
            log_p = np.zeros(len(self.y1))
            mean_k = np.zeros(len(self.y1))
            # At r = 0 only the k = 1 term has a slope: c_1 / (l1 l2).
            d_lambda3 = float((self.y1 * self.y2 * np.exp(-eta1 - eta2)).sum())
        value += len(self.y1) * lambda3 - float(log_p.sum())
        # d log P / d eta = -E[k] for both log-rates.
        grad = grad + self.x1.T @ mean_k + self.x2.T @ mean_k
        return value, np.append(grad, len(self.y1) - d_lambda3)

    def log_scale(self, theta):
        # lambda3 -> 0 is the bound, not a drift; only a growing lambda3 drifts.
        return np.append(super().log_scale(theta), math.log(max(theta[-1], 1.0)))


def _poisson_pmf(lam: float) -> np.ndarray:
    size = int(lam + 20.0 * math.sqrt(lam) + 40.0)
    if size > 100_000:
        raise ValueError(f"rate {lam!r} is past the oracle's grid")
    k = np.arange(size)
    log_pmf = k * math.log(lam) - lam - np.array([math.lgamma(j + 1.0) for j in k])
    return np.exp(log_pmf)


def _skellam_outcomes(l1: float, l2: float) -> tuple[float, float, float]:
    u, v = _poisson_pmf(l1), _poisson_pmf(l2)
    size = max(u.size, v.size)
    u = np.pad(u, (0, size - u.size))
    v = np.pad(v, (0, size - v.size))
    # P(U > V) = sum_v P(V = v) P(U > v), with P(U > v) summed from the tail.
    u_above = np.concatenate((np.cumsum(u[::-1])[::-1][1:], [0.0]))
    v_above = np.concatenate((np.cumsum(v[::-1])[::-1][1:], [0.0]))
    home = float(math.fsum(v * u_above))
    away = float(math.fsum(u * v_above))
    draw = float(math.fsum(u * v))
    return home, draw, away


MODELS = {"davidson": _Davidson, "poisson": _Poisson, "bivariate": _Bivariate}


def _projected(theta: np.ndarray, grad: np.ndarray, model: _Model) -> np.ndarray:
    g = grad.copy()
    at_lower = (theta <= model.lower_bounds) & (g > 0.0)
    g[at_lower] = 0.0
    return g


def _drifted(theta: np.ndarray, model: _Model) -> bool:
    return bool((np.abs(model.log_scale(theta)) >= DRIFT_LIMIT).any())


def _hessian(model: _Model, theta: np.ndarray, free: np.ndarray) -> np.ndarray:
    idx = np.flatnonzero(free)
    h = np.empty((idx.size, idx.size))
    for col, i in enumerate(idx):
        step = 1e-5 * max(1.0, abs(theta[i]))
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        h[:, col] = (model.nll(up)[1][idx] - model.nll(down)[1][idx]) / (2.0 * step)
    return 0.5 * (h + h.T)


def fit(model_name: str, window: Sequence) -> OracleFit:
    """The polished MLE of ``model_name`` on ``window``, or its drift."""
    model = MODELS[model_name](window)
    bounds = [(lo, BOX) for lo in model.lower_bounds]
    first = minimize(
        model.nll, model.start(), jac=True, method="L-BFGS-B", bounds=bounds,
        options={"maxiter": 20_000, "maxfun": 40_000, "ftol": 1e-15, "gtol": 1e-10},
    )
    theta = first.x
    for _ in range(MAX_NEWTON):
        if _drifted(theta, model):
            return OracleFit(False, theta, math.nan, model)
        value, grad = model.nll(theta)
        pg = _projected(theta, grad, model)
        norm = float(np.linalg.norm(pg))
        if norm <= GRAD_TOL:
            return OracleFit(True, theta, norm, model)
        free = ~((theta <= model.lower_bounds) & (grad > 0.0))
        hess = _hessian(model, theta, free)
        if not np.isfinite(hess).all():
            raise OracleError("non-finite Hessian")
        shift = 0.0
        while True:
            try:
                chol = np.linalg.cholesky(hess + shift * np.eye(len(hess)))
                break
            except np.linalg.LinAlgError:
                shift = max(2.0 * shift, 1e-10 * max(1.0, float(np.abs(hess).max())))
        step_free = -np.linalg.solve(chol.T, np.linalg.solve(chol, grad[free]))
        step = np.zeros_like(theta)
        step[free] = step_free
        # Backtrack on the value, projecting lambda3 onto its bound; near
        # the optimum the full step is taken, as the value cannot resolve it.
        t = 1.0
        while True:
            candidate = np.maximum(theta + t * step, model.lower_bounds)
            new_value = model.nll(candidate)[0]
            if new_value <= value + 1e-12 * max(1.0, abs(value)) or t < 1e-10:
                break
            t *= 0.5
        theta = candidate
    raise OracleError(f"gradient norm {norm:.3g} after {MAX_NEWTON} Newton steps")

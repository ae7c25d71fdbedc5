"""Box-clamped Newton and BFGS minimizers with backtracking line search, and the fit contract.

Both likelihood fits in this package are smooth, low-dimensional and
unconstrained apart from a wide safety box that catches separable data
(parameters running to infinity).  Determinism matters more than raw
speed here: the same data and settings must always produce the same fit,
so there is no randomized restart logic.

An objective returns its value and a zero-argument callable that finishes
the gradient from the arrays that same call built, and may add a third
that finishes the Hessian: ``minimize`` then takes Newton steps, and BFGS
steps otherwise.  The solver calls them at the start point and at accepted
line-search points only, so a rejected trial costs a value and nothing
more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generic, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .data import MatchRecord, unplayed_match

# x -> (value, gradient[, hessian]): calling ``gradient()`` gives the gradient
# at x, and ``hessian()`` the Hessian.
ObjectiveFn = Callable[[np.ndarray], tuple]
P = TypeVar("P")

BOX = 30.0          # iterates clamped to [-BOX, BOX]^d
DRIFT_LIMIT = 15.0  # |x| past any plausible finite MLE on a log scale
NEWTON_TOL = 1e-10  # Newton's stop on the projected gradient norm


@dataclass(frozen=True)
class OptimSettings:
    tol: float = 1e-8          # on the projected gradient norm
    max_iter: int = 500

    def __post_init__(self) -> None:
        if not (0 < self.tol < math.inf and self.max_iter >= 1):
            raise ValueError(f"invalid optimizer settings: {self}")


@dataclass(frozen=True)
class OptimResult:
    x: np.ndarray
    fun: float
    grad_norm: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class FitReport(Generic[P]):
    """A maximum-likelihood fit: its parameters and how the solver ended."""

    params: P
    log_likelihood: float
    iterations: int
    converged: bool
    gradient_norm: float
    boundary_flags: tuple[str, ...]


def fit_teams(matches: Sequence[MatchRecord]) -> list[str]:
    """Sorted teams of a fit's window of one or more played records, else ``ValueError``."""
    if not matches:
        raise ValueError("need at least one match to fit")
    if unplayed := [m for m in matches if not m.played]:
        raise unplayed_match(unplayed[0])
    return sorted({t for m in matches for t in (m.home, m.away)})


def fit_report(
    params: P,
    result: OptimResult,
    log_scale: Mapping[str, float],
    unbounded: Iterable[str] = (),
) -> FitReport[P]:
    """The report of a fit whose parameters, by name, take ``log_scale``'s values.

    ``log_scale`` holds every parameter on the solver's log scale, those
    derived from the free coordinates included, such as a team eliminated
    by a zero-sum constraint.  Separable data sends such parameters toward
    infinity, and the gradient flattens well before the box, so a parameter
    is flagged once it drifts to ``DRIFT_LIMIT`` or beyond; that covers a
    clamped one too, as ``DRIFT_LIMIT < BOX``.  ``unbounded`` names the
    parameters the window's data shows in closed form to have no finite
    MLE; they are flagged wherever the solver stopped.
    """
    drifted = {name for name, value in log_scale.items() if abs(value) >= DRIFT_LIMIT}
    return FitReport(
        params=params,
        log_likelihood=-result.fun,
        iterations=result.iterations,
        converged=result.converged,
        gradient_norm=result.grad_norm,
        boundary_flags=tuple(sorted(drifted.union(unbounded))),
    )


def _norm(v: np.ndarray) -> float:
    # What np.linalg.norm computes for a 1-D float array, without its checks.
    return math.sqrt(float(v @ v))


def _clamp(x: np.ndarray) -> np.ndarray:
    # np.clip's values, without its dispatch overhead.
    return np.minimum(np.maximum(x, -BOX), BOX)


def _pinned(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    # Components at a box face whose gradient points outward: there the
    # objective cannot be decreased without leaving the box.
    return ((x >= BOX) & (grad < 0.0)) | ((x <= -BOX) & (grad > 0.0))


def _projected_gradient(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    return np.where(_pinned(x, grad), 0.0, grad)


def _newton_direction(x: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """The Newton step over the coordinates not pinned at a box face.

    Where the Hessian is not positive definite, a Levenberg shift of its
    diagonal makes it so; if none does, the step is steepest descent.
    """
    free = ~_pinned(x, grad)
    h = hess[np.ix_(free, free)]
    direction = np.zeros_like(grad)
    direction[free] = -grad[free]
    scale = max(1.0, float(np.abs(np.diag(h)).max(initial=0.0)))
    shift = 0.0
    for _ in range(40):
        shifted = h + shift * np.eye(h.shape[0])
        try:
            np.linalg.cholesky(shifted)
            direction[free] = -np.linalg.solve(shifted, grad[free])
            break
        except np.linalg.LinAlgError:
            shift = max(10.0 * shift, 1e-8 * scale)
    return direction


def minimize(
    objective: ObjectiveFn,
    x0: np.ndarray,
    settings: OptimSettings | None = None,
) -> OptimResult:
    """Minimize ``objective`` (value, gradient and maybe Hessian callables) from ``x0``.

    With a Hessian, each step is Newton's, and the run converges when the
    2-norm of the projected gradient drops to ``NEWTON_TOL``; otherwise
    steps are BFGS's, converging at ``settings.tol``.  A line search that
    finds no descent, or the iteration cap, stops the run non-converged.
    The derivatives are taken at ``x0`` and at each accepted point.
    """
    cfg = settings or OptimSettings()
    x = _clamp(np.asarray(x0, dtype=float))
    f, *derivatives = objective(x)
    newton = len(derivatives) == 2
    tol = NEWTON_TOL if newton else cfg.tol
    grad = derivatives[0]()
    hess = derivatives[1]() if newton else None
    eye = np.eye(x.size)
    h_inv = eye
    iterations = 0
    c1 = 1e-4

    def done(converged: bool) -> OptimResult:
        return OptimResult(
            x=x.copy(),
            fun=float(f),
            grad_norm=_norm(_projected_gradient(x, grad)),
            iterations=iterations,
            converged=converged,
        )

    for iterations in range(1, cfg.max_iter + 1):
        if _norm(_projected_gradient(x, grad)) <= tol:
            iterations -= 1
            return done(True)

        if newton:
            direction = _newton_direction(x, grad, hess)
        else:
            direction = -h_inv @ grad
            if float(direction @ grad) >= 0.0:
                h_inv = eye
                direction = -grad

        # Backtracking Armijo search on the clamped candidate point.  A Newton
        # step must also lower the value as rounded, or a flat boundary fit
        # creeps on by rounding to the iteration cap.  Once the decrement
        # falls below that rounding, the test cannot tell a good step from a
        # bad one: the full step is taken.
        step = 1.0
        slope = float(grad @ direction)
        untested = newton and -slope <= 1e-12 * abs(f)
        for _ in range(60):
            candidate = _clamp(x + step * direction)
            if (candidate != x).any():
                f_cand, *derivatives = objective(candidate)
                armijo = f_cand <= f + c1 * step * slope and (f_cand < f or not newton)
                if math.isfinite(f_cand) and (untested or armijo):
                    break
            step *= 0.5
        else:
            # No descent possible (boundary or numerically flat): stop here.
            return done(False)

        grad_new = derivatives[0]()
        if newton:
            hess = derivatives[1]()
        else:
            s = candidate - x
            y = grad_new - grad
            sy = float(s @ y)
            if sy > 1e-12 * _norm(s) * _norm(y):
                rho = 1.0 / sy
                left = eye - rho * np.outer(s, y)
                # eye is symmetric, so this copy is bitwise eye - rho * outer(s, y).T.
                right = np.ascontiguousarray(left.T)
                h_inv = left @ h_inv @ right + rho * np.outer(s, s)
        x, f, grad = candidate, f_cand, grad_new

    return done(_norm(_projected_gradient(x, grad)) <= tol)

"""Objective and constraint building blocks.

Vectors are plain 1-D numpy float arrays. Objective terms come in two
flavors: smooth (value + gradient) and prox-friendly (value + proximal
map). Constraint maps carry a Jacobian; at kinks the Jacobian callable
must return one designated subgradient element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SubproblemFailure


@dataclass(frozen=True)
class SmoothTerm:
    """``lipschitz``, when known, bounds the Lipschitz constant of the
    gradient; callers pass it to ``fista``, whose step is 1/lipschitz and
    which raises ValueError without it. ``prox``, when known, is the exact
    map prox(center, rho, x0) = argmin_x f(x) + (rho/2)||x - center||^2,
    warm-started at x0, which lets a caller skip ``fista``."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    lipschitz: float | None = None
    prox: Callable[[np.ndarray, float, np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class ProxTerm:
    """``l1_weight``, when known, declares the term to be l1_weight * ||.||_1
    (0.0 for the zero term), which lets a caller solve a lasso exactly."""

    value: Callable[[np.ndarray], float]
    prox: Callable[[np.ndarray, float], np.ndarray]
    l1_weight: float | None = None


@dataclass(frozen=True)
class ConstraintTerm:
    """Nonlinear map R^n -> R^m with its m-by-n Jacobian."""

    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CompositeObjective:
    """Smooth part plus prox-friendly part, both over the same dimension."""

    smooth: SmoothTerm
    nonsmooth: ProxTerm

    def value(self, x: np.ndarray) -> float:
        return float(self.smooth.value(x) + self.nonsmooth.value(x))


def soft_threshold(v: np.ndarray, thresh: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


def zero_prox() -> ProxTerm:
    return ProxTerm(value=lambda x: 0.0, prox=lambda v, step: v, l1_weight=0.0)


def l1_term(lam: float = 1.0) -> ProxTerm:
    """lam * ||.||_1 with its exact shrinkage prox."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"l1 weight must be finite and nonnegative, got {lam}")
    return ProxTerm(
        value=lambda x: lam * float(np.sum(np.abs(x))),
        prox=lambda v, step: soft_threshold(v, lam * step),
        l1_weight=lam,
    )


def _sigmoid_halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigmoid(a) and sigmoid(-a) for a >= 0, each to full relative
    precision, from exp(-a), which cannot overflow."""
    e = np.exp(-a)
    t = 1.0 / (1.0 + e)
    return t, e * t


_MAX_NEWTON_STEPS = 100
_EPS4 = 4.0 * np.finfo(float).eps


def logistic_loss(labels: np.ndarray) -> SmoothTerm:
    """Componentwise log loss sum_i log(1 + exp(q_i)) - labels_i * q_i.
    The sigmoid's slope is at most 1/4, which bounds the gradient's
    Lipschitz constant.

    For labels in {0, 1} it declares its prox: per coordinate, the root of
    the increasing g(q) = sigmoid(q) - y + rho (q - c), which lies in
    [c - 1/rho, c + 1/rho]; sigmoid(q) - y is sigmoid(q) or -sigmoid(-q),
    so g has no cancellation. Safeguarded Newton steps run on all
    coordinates at once from x0. The bracket starts as that interval
    widened by 4 eps (|c| + 1/rho), as the root can round onto its ends,
    and shrinks at each evaluation of g. A Newton point on or outside it,
    or one that turns back without halving the last move (Newton can cycle
    across the sigmoid's inflection), is replaced by its midpoint. A
    coordinate is done once its step is below sqrt(4 eps max(|q|, 1)), as
    the Newton point's error is then about step^2 / 2 (|g''| <= g'), or
    once g is at the rounding level of rho (q - c); neither test scales
    with 1/rho. More than 100 steps, or a non-finite center, start or
    bracket, raise SubproblemFailure."""
    y = np.asarray(labels, dtype=float)

    def value(q):
        return float(np.sum(np.logaddexp(0.0, q) - y * q))

    def gradient(q):
        t, u = _sigmoid_halves(np.abs(q))
        return np.where(q >= 0.0, t, u) - y

    if not np.all((y == 0.0) | (y == 1.0)):
        return SmoothTerm(value=value, gradient=gradient, lipschitz=0.25)
    flip = y == 1.0
    sign = 1.0 - 2.0 * y

    def prox(center, rho, q0):
        # At a tiny rho the bracket and a Newton step can overflow: the
        # first raises below, and the bracket test replaces the second
        # (whose turn test then divides by inf or by 0).
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            half = 1.0 / rho + _EPS4 * (np.abs(center) + 1.0 / rho)
            lo, hi = center - half, center + half
            if not (np.isfinite(lo).all() and np.isfinite(hi).all() and np.isfinite(q0).all()):
                raise SubproblemFailure("logistic prox: non-finite center, start or "
                                        f"bracket c -+ 1/rho at rho = {rho!r}")
            q = np.where((q0 > lo) & (q0 < hi), q0, center)
            back = np.full_like(q, np.inf)  # the last move, as q_old - q_new
            done = np.zeros(q.shape, dtype=bool)
            for _ in range(_MAX_NEWTON_STEPS):
                a = np.abs(q)
                t, u = _sigmoid_halves(a)
                penalty = rho * (q - center)
                # sigmoid(q) - y: sigmoid(q) for y = 0, -sigmoid(-q) for y = 1.
                g = sign * np.where((q >= 0.0) != flip, t, u) + penalty
                np.copyto(lo, q, where=g < 0.0)
                np.copyto(hi, q, where=g > 0.0)
                step = g / (t * u + rho)
                qn = q - step
                tol = _EPS4 * np.maximum(a, 1.0)
                fin = step * step <= tol
                # -2 < back/step < 0: the step turns back without halving.
                bisect = (qn <= lo) | (qn >= hi) | (np.abs(back / step + 1.0) < 1.0)
                if bisect.any():
                    # A finishing step is kept, or ends on the bracket that
                    # it would leave. A point that is done, or whose g is at
                    # the rounding level (Newton steps there are rounding
                    # noise, and they turn back), stays put.
                    qn = np.where(fin, np.minimum(np.maximum(qn, lo), hi),
                                  np.where(bisect, 0.5 * lo + 0.5 * hi, qn))
                    stay = done | (np.abs(g) <= _EPS4 * np.abs(penalty))
                    np.copyto(qn, q, where=stay)
                    fin |= stay | (bisect & (hi - lo <= tol))
                done |= fin
                if done.all():
                    return qn
                back = q - qn
                q = qn
        raise SubproblemFailure(f"logistic prox: no root within {_MAX_NEWTON_STEPS} "
                                "Newton steps")

    return SmoothTerm(value=value, gradient=gradient, lipschitz=0.25, prox=prox)


def linear_constraint(A: np.ndarray) -> ConstraintTerm:
    A = np.asarray(A, dtype=float)
    return ConstraintTerm(eval=lambda x: A @ x, jacobian=lambda x: A)

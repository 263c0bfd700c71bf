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
    """``prox``, when known, is the exact map prox(center, rho, x0) =
    argmin_x f(x) + (rho/2)||x - center||^2, warm-started at x0."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    prox: Callable[[np.ndarray, float, np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class ProxTerm:
    """``l1_weight`` declares the term to be l1_weight * ||.||_1 (0.0 for
    the zero term), which lets a caller solve a lasso exactly."""

    value: Callable[[np.ndarray], float]
    prox: Callable[[np.ndarray, float], np.ndarray]
    l1_weight: float


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
    """Componentwise log loss sum_i log(1 + exp(q_i)) - labels_i * q_i for
    labels in {0, 1}; any other label raises ValueError.

    Its prox solves sigmoid(q) - y + rho (q - c) = 0 per coordinate. With
    s = 1 - 2y, u = s q and d = s c this is h(u) = sigmoid(u) + rho (u - d)
    = 0 for either label, as sigmoid(-q) = 1 - sigmoid(q), with the root in
    [d - 1/rho, d]. h is increasing, convex below 0 and concave above it,
    so Newton's method started between 0 and the root moves monotonically
    onto the root. The start is x0 where it lies there (u0 h(u0) <= 0), and
    clip(0, d - 1/rho, d) elsewhere. All coordinates step at once, and one
    is done once its step is below sqrt(4 eps max(|u|, 1)), as the Newton
    point's error is then about step^2 / 2 (|h''| <= h'), or once h is at
    the rounding level of rho (u - d); neither test scales with 1/rho.
    More than 100 steps, or a non-finite center, start or d - 1/rho, raise
    SubproblemFailure."""
    y = np.asarray(labels, dtype=float)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("logistic loss labels must be 0 or 1")
    sign = 1.0 - 2.0 * y

    def value(q):
        return float(np.sum(np.logaddexp(0.0, q) - y * q))

    def gradient(q):
        t, u = _sigmoid_halves(np.abs(q))
        return np.where(q >= 0.0, t, u) - y

    def residual(u, d, rho):
        """h(u), its slope and rho (u - d)."""
        t, e = _sigmoid_halves(np.abs(u))
        penalty = rho * (u - d)
        return np.where(u >= 0.0, t, e) + penalty, t * e + rho, penalty

    def prox(center, rho, q0):
        # 1/rho can overflow at a tiny rho, and u - d for a start far from d:
        # the first fails the check below, the second the start test.
        with np.errstate(over="ignore"):
            d = sign * center
            low = d - 1.0 / rho
            if not (np.isfinite(low).all() and np.isfinite(q0).all()):
                raise SubproblemFailure("logistic prox: non-finite center, start or "
                                        f"bracket end c -+ 1/rho at rho = {rho!r}")
            u = sign * q0
            h, slope, penalty = residual(u, d, rho)
            away = u * h > 0.0  # x0 lies beyond the root, or on the far side of 0
            if away.any():
                u = np.where(away, np.minimum(np.maximum(0.0, low), d), u)
                h, slope, penalty = residual(u, d, rho)
            done = np.zeros(u.shape, dtype=bool)
            for _ in range(_MAX_NEWTON_STEPS):
                step = h / slope
                fin = ((step * step <= _EPS4 * np.maximum(np.abs(u), 1.0))
                       | (np.abs(h) <= _EPS4 * np.abs(penalty)))
                u = np.where(done, u, u - step)
                done |= fin
                if done.all():
                    return sign * u
                h, slope, penalty = residual(u, d, rho)
        raise SubproblemFailure(f"logistic prox: no root within {_MAX_NEWTON_STEPS} "
                                "Newton steps")

    return SmoothTerm(value=value, gradient=gradient, prox=prox)


def linear_constraint(A: np.ndarray) -> ConstraintTerm:
    A = np.asarray(A, dtype=float)
    return ConstraintTerm(eval=lambda x: A @ x, jacobian=lambda x: A)

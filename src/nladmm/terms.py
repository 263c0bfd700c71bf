"""Objective and constraint building blocks.

Vectors are plain 1-D numpy float arrays. Objective terms come in two
flavors: smooth (a value and an exact prox) and the l1 term lam * ||.||_1,
whose weight is all a lasso solve needs. Constraint maps carry a Jacobian;
at kinks the Jacobian callable must return one designated subgradient
element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SubproblemFailure


@dataclass(frozen=True)
class SmoothTerm:
    """``prox`` is the exact map prox(center, rho, x0, slope) =
    argmin_x f(x) + (rho/2)||x - center||^2, warm-started at x0. A prox that
    solves f'(x) + rho (x - center) = 0 by Newton's method writes into the
    array ``slope`` the slope f''(x) + rho it ended on; one that does not
    leaves ``slope`` as it is."""

    value: Callable[[np.ndarray], float]
    prox: Callable[..., np.ndarray]


@dataclass(frozen=True)
class ProxTerm:
    """l1_weight * ||.||_1 for a finite l1_weight >= 0 (the zero term at 0);
    the weight is all a lasso solve needs."""

    l1_weight: float

    def __post_init__(self):
        lam = self.l1_weight
        if not (math.isfinite(lam) and lam >= 0):
            raise ValueError(f"l1 weight must be finite and nonnegative, got {lam}")

    def value(self, x: np.ndarray) -> float:
        return 0.0 if self.l1_weight == 0.0 else self.l1_weight * float(np.abs(x).sum())


@dataclass(frozen=True)
class ConstraintTerm:
    """Nonlinear map R^n -> R^m with its m-by-n Jacobian."""

    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CompositeObjective:
    """Smooth part plus l1 part, both over the same dimension."""

    smooth: SmoothTerm
    nonsmooth: ProxTerm

    def value(self, x: np.ndarray) -> float:
        return float(self.smooth.value(x) + self.nonsmooth.value(x))


def soft_threshold(v: np.ndarray, thresh: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


def zero_prox() -> ProxTerm:
    return ProxTerm(0.0)


def l1_term(lam: float = 1.0) -> ProxTerm:
    return ProxTerm(lam)


def _sigmoid_halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigmoid(a) and sigmoid(-a) for a >= 0, each to full relative
    precision, from exp(-a), which cannot overflow."""
    e = np.exp(-a)
    t = 1.0 / (1.0 + e)
    return t, e * t


# Down the sigmoid's tail Newton climbs about one unit per step, ln(1/rho)
# < 710 steps from 0 wherever 1/rho is finite: 713 residuals at rho = 6e-309.
_MAX_NEWTON_STEPS = 800
_EPS4 = 4.0 * np.finfo(float).eps


def logistic_loss(labels: np.ndarray) -> SmoothTerm:
    """Componentwise log loss sum_i log(1 + exp(q_i)) - labels_i * q_i for
    labels in {0, 1}; any other label raises ValueError.

    Its prox solves sigmoid(q) - y + rho (q - c) = 0 per coordinate. With
    s = 1 - 2y, u = s q and d = s c this is h(u) = sigmoid(u) + rho (u - d)
    = 0 for either label, as sigmoid(-q) = 1 - sigmoid(q), with the root in
    [d - 1/rho, d]. h is increasing, convex below 0 and concave above it,
    so Newton's method started between 0 and the root moves monotonically
    onto the root. Each coordinate is done once its step is below
    sqrt(4 eps max(|u|, 1)), as the Newton point's error is then about
    step^2 / 2 (|h''| <= h'), or once h is at the rounding level of
    rho (u - d); neither test scales with 1/rho. The start is x0 where it
    lies between 0 and the root (u0 h(u0) <= 0) or where it already passes
    the stopping test, as a root returned before does, and
    clip(0, d - 1/rho, d) elsewhere. Every coordinate takes one untested
    step, and then one loop tests each step: a coordinate done there takes
    it and leaves, and only the rest step on, each until it is done.

    More than 800 steps in all, the first included, or a non-finite center,
    start or d - 1/rho, raise SubproblemFailure. The array ``slope`` gets
    sigmoid'(q) + rho at each coordinate's last Newton point."""
    y = np.asarray(labels, dtype=float)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("logistic loss labels must be 0 or 1")
    sign = 1.0 - 2.0 * y

    def value(q):
        loss = np.logaddexp(0.0, q)
        loss -= y * q
        return float(loss.sum())

    def residual(u, d, rho):
        """h(u), its slope h'(u), rho (u - d) and |u|."""
        a = np.abs(u)
        t, e = _sigmoid_halves(a)
        penalty = rho * (u - d)
        return np.where(u >= 0.0, t, e) + penalty, t * e + rho, penalty, a

    def done(step, h, penalty, a):
        """Where u - step is the root: step^2 <= 4 eps max(|u|, 1), or
        |h| < 4 eps |rho (u - d)|, strictly, so that a start whose penalty
        overflows is not taken for a root."""
        return (step * step <= _EPS4 * np.maximum(a, 1.0)) | (np.abs(h) < _EPS4 * np.abs(penalty))

    def prox(center, rho, q0, slope):
        # 1/rho can overflow at a tiny rho, and u - d for a start far from d:
        # the first fails the check below, the second the start test.
        with np.errstate(over="ignore"):
            d = sign * center
            low = d - 1.0 / rho
            if not (np.isfinite(low).all() and np.isfinite(q0).all()):
                raise SubproblemFailure("logistic prox: non-finite center, start or "
                                        f"bracket end c -+ 1/rho at rho = {rho!r}")
            u = sign * q0
            h, dh, penalty, a = residual(u, d, rho)
            away = u * h > 0.0  # x0 lies beyond the root, or on the far side of 0
            if away.any():
                # unless x0 meets the stopping test: then it is the root.
                away &= ~done(h / dh, h, penalty, a)
                if away.any():
                    u = np.where(away, np.minimum(np.maximum(0.0, low), d), u)
                    h, dh, penalty, a = residual(u, d, rho)
            # u and d hold the coordinates still stepping and todo their places
            # in out; until the first compaction, u is out itself, stepped in place.
            out = u = u - h / dh  # the first step, untested
            todo = ...
            for _ in range(_MAX_NEWTON_STEPS - 1):
                h, dh, penalty, a = residual(u, d, rho)
                step = h / dh
                fin = done(step, h, penalty, a)
                u -= step
                n_fin = np.count_nonzero(fin)
                if n_fin:
                    out[todo] = u
                    slope[todo] = dh
                    if n_fin == fin.size:
                        return sign * out
                    keep = ~fin
                    todo = keep.nonzero()[0] if todo is ... else todo[keep]
                    u, d = u[keep], d[keep]
        raise SubproblemFailure(f"logistic prox: no root within {_MAX_NEWTON_STEPS} "
                                "Newton steps")

    return SmoothTerm(value=value, prox=prox)

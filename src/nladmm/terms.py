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


@dataclass(frozen=True)
class SmoothTerm:
    """``lipschitz``, when known, bounds the Lipschitz constant of the
    gradient; callers pass it to ``fista``, whose step is 1/lipschitz and
    which raises ValueError without it."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    lipschitz: float | None = None


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


def logistic_loss(labels: np.ndarray) -> SmoothTerm:
    """Componentwise log loss sum_i log(1 + exp(q_i)) - labels_i * q_i.
    The sigmoid's slope is at most 1/4, which bounds the gradient's
    Lipschitz constant."""
    y = np.asarray(labels, dtype=float)

    def value(q):
        return float(np.sum(np.logaddexp(0.0, q) - y * q))

    def gradient(q):
        return 1.0 / (1.0 + np.exp(-q)) - y

    return SmoothTerm(value=value, gradient=gradient, lipschitz=0.25)


def linear_constraint(A: np.ndarray) -> ConstraintTerm:
    A = np.asarray(A, dtype=float)
    return ConstraintTerm(eval=lambda x: A @ x, jacobian=lambda x: A)

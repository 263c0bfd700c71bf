"""Convex inner solvers: accelerated proximal gradient and a real-root
cubic solver."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import List

import numpy as np

from .errors import NoCandidate, NonFiniteIterate
from .terms import CompositeObjective


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


@dataclass(frozen=True)
class FistaConfig:
    max_iter: int = 500
    tol: float = 1e-8

    def __post_init__(self):
        if not (isinstance(self.max_iter, Integral) and self.max_iter >= 1
                and math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"invalid {self!r}: need an integer max_iter >= 1, tol > 0")


def fista(obj: CompositeObjective, x0: np.ndarray,
          cfg: FistaConfig = FistaConfig(),
          lipschitz: float | None = None) -> np.ndarray:
    """Accelerated proximal gradient (Beck & Teboulle 2009) with the fixed
    step 1/L.

    ``lipschitz`` = L bounds the Lipschitz constant of the smooth gradient
    (callers pass the declared ``obj.smooth.lipschitz``); a missing or
    non-positive L raises ValueError, a NaN or Inf one (a declared constant
    that overflowed) NonFiniteIterate. No objective values are taken inside
    the loop. Momentum restarts when it points against the
    generalized gradient, (z - x_new)·(x_new - x) > 0 (O'Donoghue & Candès
    2015), and x0 is returned if the result has a larger composite
    objective, so the result is never worse than x0.
    """
    if isinstance(lipschitz, Real) and not math.isfinite(lipschitz):
        raise NonFiniteIterate(f"lipschitz constant is {lipschitz!r}, so there is no step")
    if not (isinstance(lipschitz, Real) and lipschitz > 0):
        raise ValueError(f"lipschitz must be finite and positive, got {lipschitz!r}")
    x = np.asarray(x0, dtype=float).copy()
    fx = obj.value(x)
    z = x
    t = 1.0
    step = 1.0 / lipschitz

    for _ in range(cfg.max_iter):
        xn = obj.nonsmooth.prox(z - step * obj.smooth.gradient(z), step)
        d = xn - x
        dd = float(d @ d)
        # A NaN or Inf in xn makes dd non-finite; the full check runs only
        # then, since finite iterates far apart can overflow dd as well.
        if not math.isfinite(dd) and not np.all(np.isfinite(xn)):
            raise NonFiniteIterate("non-finite iterate in accelerated proximal gradient")
        if (z - xn) @ d > 0.0:
            t = 1.0
        tn = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = xn + ((t - 1.0) / tn) * d
        x, t = xn, tn
        if math.sqrt(dd) <= cfg.tol:
            break
    if obj.value(x) > fx:
        return np.asarray(x0, dtype=float).copy()
    return x


def _polish_root(p: float, q: float, r: float) -> float:
    # A few Newton steps remove the floating-point error of the closed form.
    # Steps are only accepted while they shrink the residual, so a nearly
    # vanishing derivative (repeated roots) cannot throw the estimate away.
    def poly(t: float) -> float:
        return (t * t + p) * t + q

    f = poly(r)
    for _ in range(8):
        df = 3.0 * r * r + p
        if df == 0.0:
            break
        rn = r - f / df
        if not math.isfinite(rn):
            break
        fn = poly(rn)
        if abs(fn) >= abs(f):
            break
        r, f = rn, fn
        if f == 0.0:
            break
    return r


def cubic_real_roots(p: float, q: float) -> List[float]:
    """All real roots of the depressed cubic t^3 + p*t + q = 0, ascending.

    Uses the closed form (trigonometric branch when all three roots are
    real) followed by a Newton polish per root. A discriminant that
    overflows or is NaN raises NoCandidate naming (p, q).
    """
    try:
        disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
        # Rounding can push a repeated root across the disc = 0 boundary,
        # so the boundary case is detected with a relative tolerance.
        scale = (q / 2.0) ** 2 + abs(p / 3.0) ** 3
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise NoCandidate(f"cubic t^3 + p*t + q with (p, q) = ({p!r}, {q!r}): "
                          "the discriminant overflows or is NaN")
    if abs(disc) <= 1e-12 * scale:
        # A triple root, or one simple root and one double root.
        roots = [0.0] if p == 0.0 else [3.0 * q / p, -3.0 * q / (2.0 * p)]
    elif disc > 0.0:
        sq = math.sqrt(disc)
        roots = [_cbrt(-q / 2.0 + sq) + _cbrt(-q / 2.0 - sq)]
    else:
        # Three real roots (casus irreducibilis): trigonometric form.
        m = 2.0 * math.sqrt(-p / 3.0)
        theta = math.acos(min(1.0, max(-1.0, 3.0 * q / (p * m))))
        roots = [m * math.cos((theta - 2.0 * math.pi * j) / 3.0) for j in range(3)]

    polished = sorted(_polish_root(p, q, r) for r in roots)
    deduped: List[float] = []
    for r in polished:
        if not deduped or abs(r - deduped[-1]) > 1e-12 * max(1.0, abs(r)):
            deduped.append(r)
    return deduped

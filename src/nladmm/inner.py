"""Convex inner solvers: accelerated proximal gradient, an exact active-set
solver for small lassos, and a real-root cubic solver."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Integral, Real
from typing import List

import numpy as np

from .errors import NonFiniteIterate, SubproblemFailure
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

    ``lipschitz`` = L, from the caller, bounds the Lipschitz constant of
    the smooth gradient; a missing or non-positive L raises ValueError, a
    NaN or Inf one (a constant that overflowed) NonFiniteIterate. No
    objective values are taken inside the loop. Momentum restarts when it
    points against the generalized gradient, (z - x_new)·(x_new - x) > 0
    (O'Donoghue & Candès 2015), and x0 is returned if the result has a
    larger composite objective, so the result is never worse than x0.
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


def _max_lasso_steps(p: int) -> int:
    return 10 * p + 10


def _active_factor(block: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """(inv(block), block), or (None, block) for an ill-conditioned block,
    lambda_min <= 1e-6 lambda_max, where a product with the inverse would
    lose accuracy that a (backward stable) solve keeps."""
    eigs = np.linalg.eigvalsh(block)
    if eigs.size and eigs[0] > 1e-6 * eigs[-1]:
        return np.linalg.inv(block), block
    return None, block


def lasso_active_set(G: np.ndarray, c: np.ndarray, mu: float, x0: np.ndarray,
                     factors: dict | None = None) -> np.ndarray:
    """Exact argmin_x (1/2) x'Gx - c'x + mu ||x||_1 for a symmetric positive
    definite G, by feature-sign search (Lee, Battle, Raina & Ng 2007) from x0.

    Each step solves the quadratic with the signs theta of the active set
    fixed, G_AA x_A = c_A - mu theta_A. A solution whose signs disagree
    with theta is not taken: the segment to it is searched at every zero
    crossing for the lowest objective, and the coordinates that reach zero
    leave the active set. Once the active solution is sign-consistent, the
    inactive coordinate with the largest |gradient| > mu joins it; when
    there is none, or when the one that joined comes out with the wrong
    sign (its |gradient| - mu was rounding), x is the minimizer. Every step
    lowers the objective, so no sign pattern recurs; past 10p + 10 steps,
    or for a non-finite c, mu or x0, SubproblemFailure is raised.

    Each step takes x_A = inv(G_AA) (c_A - mu theta_A), with the inverse
    kept in ``factors``, a dict keyed by the active set, which a caller
    solving many lassos with one G passes to all of them; an
    ill-conditioned G_AA is solved afresh instead. Every block is dense
    k x k, so this is for small p.
    """
    if not (np.isfinite(c).all() and math.isfinite(mu) and np.isfinite(x0).all()):
        raise SubproblemFailure("lasso: non-finite linear term, l1 weight or start")
    x = np.asarray(x0, dtype=float)  # never written to: every step makes a new x
    theta = np.sign(x)
    solve = np.count_nonzero(theta) > 0  # a warm start first solves on its own support
    if factors is None:
        factors = {}
    for _ in range(_max_lasso_steps(c.size)):
        if not solve:
            g = G @ x - c
            score = np.where(theta == 0.0, np.abs(g), 0.0)
            new = int(score.argmax())
            if not score[new] > mu:
                return x
            theta[new] = -np.sign(g[new])
        active = theta.nonzero()[0]
        key = active.tobytes()
        factor = factors.get(key)
        if factor is None:
            factor = factors[key] = _active_factor(G[active[:, None], active])
        inverse, block = factor
        rhs = c[active] - mu * theta[active]
        xn = np.zeros(x.shape)
        xn[active] = np.linalg.solve(block, rhs) if inverse is None else inverse @ rhs
        flipped = (np.sign(xn) != theta).nonzero()[0]
        if flipped.size == 0:
            x, solve = xn, False
            continue
        if not solve and np.sign(xn[new]) != theta[new]:
            # From the exact solution on the old active set the new
            # coordinate moves along theta whenever |g_new| > mu.
            return x
        # The objective is convex on the segment x -> xn and equals the
        # sign-fixed quadratic up to the first crossing, so its lowest point
        # is xn or a zero crossing; each crossing zeroes its coordinate.
        cross = x[flipped] / (x[flipped] - xn[flipped])
        points = x + np.append(cross, 1.0)[:, None] * (xn - x)
        points[np.arange(flipped.size), flipped] = 0.0
        values = (0.5 * np.einsum("ij,jk,ik->i", points, G, points) - points @ c
                  + mu * np.abs(points).sum(axis=1))
        x = points[int(np.argmin(values))]
        theta = np.sign(x)
        solve = True
    raise SubproblemFailure("lasso: no solution within "
                            f"{_max_lasso_steps(c.size)} feature-sign steps")


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
    return r


def cubic_real_roots(p: float, q: float) -> List[float]:
    """All real roots of the depressed cubic t^3 + p*t + q = 0, ascending.

    Uses the closed form (trigonometric branch when all three roots are
    real) followed by a Newton polish per root. Each branch lists its roots
    in ascending order, so nothing is sorted or merged afterwards, and
    distinct roots are all returned however close to zero they lie, also
    where the discriminant's scale underflows: the cubic is then solved at
    an exact power-of-two scale. A discriminant that overflows or is NaN
    raises SubproblemFailure naming (p, q).
    """
    try:
        disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
        # Rounding can push a repeated root across the disc = 0 boundary,
        # so the boundary case is detected with a relative tolerance.
        scale = (q / 2.0) ** 2 + abs(p / 3.0) ** 3
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise SubproblemFailure(f"cubic t^3 + p*t + q with (p, q) = ({p!r}, {q!r}): "
                                "the discriminant overflows or is NaN")
    if scale < sys.float_info.min and (p != 0.0 or q != 0.0):
        e = math.frexp(max(math.sqrt(abs(p)), _cbrt(abs(q))))[1]
        roots = cubic_real_roots(math.ldexp(p, -2 * e), math.ldexp(q, -3 * e))
        return [math.ldexp(r, e) for r in roots]
    if abs(disc) <= 1e-12 * scale:
        # A triple root, or a simple root 3q/p and a double root -3q/(2p),
        # which have opposite signs.
        roots = [0.0] if p == 0.0 else sorted((3.0 * q / p, -3.0 * q / (2.0 * p)))
    elif disc > 0.0:
        sq = math.sqrt(disc)
        roots = [_cbrt(-q / 2.0 + sq) + _cbrt(-q / 2.0 - sq)]
    else:
        # Three real roots (casus irreducibilis): trigonometric form. With
        # theta in [0, pi], j = 2, 1, 0 give them in ascending order.
        m = 2.0 * math.sqrt(-p / 3.0)
        theta = math.acos(min(1.0, max(-1.0, 3.0 * q / (p * m))))
        roots = [m * math.cos((theta - 2.0 * math.pi * j) / 3.0) for j in (2, 1, 0)]
    return [_polish_root(p, q, r) for r in roots]

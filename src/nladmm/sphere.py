"""1-bit compressive sensing on the unit sphere ||x||^2 = 1: a four-block
splitting in which every block has a closed form. The sphere-side x-block
is the exact minimizer of ||w - v||^2 + (||w||^2 - 1 + alpha)^2, a scalar
cubic in ||w||; z is a per-coordinate clip, the smooth copy v one linear
solve with a rho-free matrix, and the sparse w a soft threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import inner
from .engine import RhoSchedule, SolveResult, StopCriteria, iterate
from .inner import cubic_real_roots
from .terms import soft_threshold

fista = inner.fista  # no block calls it; kept only for the benchmark tracer to wrap


def _sphere_penalty_objective(w: np.ndarray, v: np.ndarray, alpha: float) -> float:
    d = w - v
    s = float(w @ w) - 1.0 + alpha
    return float(d @ d) + s * s


def sphere_penalty_min(v: np.ndarray, alpha: float) -> np.ndarray:
    """Global minimizer of ||w - v||^2 + (||w||^2 - 1 + alpha)^2 over R^n.

    A stationary point is w = (sigma*u) v/||v|| for a sign sigma = +-1 and
    a root u >= 0 of u^3 + (alpha - 1/2)u - sigma*||v||/2; each candidate is
    scored by the objective and the best one returned. For v = 0 the
    direction is free and the first basis vector is used.
    """
    v = np.asarray(v, dtype=float)
    m = float(np.linalg.norm(v))
    if m > 0.0:
        direction = v / m
    else:
        direction = np.zeros_like(v)
        direction[0] = 1.0
    candidates = [(sigma * u) * direction for sigma in (1.0, -1.0)
                  for u in cubic_real_roots(alpha - 0.5, -0.5 * sigma * m) if u >= 0.0]
    return min(candidates, key=lambda w: _sphere_penalty_objective(w, v, alpha))


@dataclass(frozen=True)
class OneBitCsProblem:
    """Sign-only sparse recovery: min ||x||_1 + (lam/2) sum min(Y Phi x, 0)^2
    subject to ||x||^2 = 1, where Y holds the observed measurement signs."""

    Phi: np.ndarray
    y_sign: np.ndarray  # diagonal of Y, entries in {-1, +1}
    lam: float

    def __post_init__(self):
        if not np.all(np.isin(self.y_sign, (-1.0, 1.0))):
            raise ValueError("sign measurements must be +-1")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lambda must be finite and positive, got {self.lam}")

    @property
    def signed_matrix(self) -> np.ndarray:
        """Y Phi with Y = diag(y_sign)."""
        return self.y_sign[:, None] * self.Phi

    def objective(self, w: np.ndarray, z: np.ndarray) -> float:
        return float(np.sum(np.abs(w)) + 0.5 * self.lam * np.sum(np.minimum(z, 0.0) ** 2))


@dataclass
class OneBitCsState:
    """Iterates and duals; the smooth copy v of w starts at w, its dual y4 at 0."""

    x: np.ndarray
    w: np.ndarray
    z: np.ndarray
    y1: float
    y2: np.ndarray
    y3: np.ndarray
    rho: float
    v: np.ndarray = field(init=False)
    y4: np.ndarray = field(init=False)

    def __post_init__(self):
        self.v = np.array(self.w, dtype=float)
        self.y4 = np.zeros_like(self.v)


def onebit_update_z(v: np.ndarray, y2: np.ndarray, rho: float, lam: float,
                    M: np.ndarray) -> np.ndarray:
    """Per-coordinate exact minimizer of
    (lam/2) min(z,0)^2 + (rho/2)(z - a)^2 with a = M v + y2/rho, M = Y Phi;
    the shrink rho*a/(lam + rho) is formed only where a < 0, not where it is unused."""
    z = M @ v + y2 / rho
    neg = z < 0.0
    z[neg] = rho * z[neg] / (lam + rho)
    return z


def onebit_update_v(z: np.ndarray, x: np.ndarray, w: np.ndarray, y2: np.ndarray,
                    y3: np.ndarray, y4: np.ndarray, rho: float, M: np.ndarray,
                    K: np.ndarray) -> np.ndarray:
    """Exact minimizer of the v-terms of the augmented Lagrangian: the solution
    of (M'M + 2I) v = M'(z - y2/rho) + (x - y3/rho) + (w + y4/rho), K = inv(M'M + 2I)."""
    return K @ (M.T @ (z - y2 / rho) + (x - y3 / rho) + (w + y4 / rho))


def onebit_update_w(v: np.ndarray, y4: np.ndarray, rho: float) -> np.ndarray:
    """argmin_w ||w||_1 + (rho/2)||w - v + y4/rho||^2: soft(v - y4/rho, 1/rho)."""
    return soft_threshold(v - y4 / rho, 1.0 / rho)


def onebit_solve(problem: OneBitCsProblem, init: OneBitCsState,
                 schedule: RhoSchedule, stop: StopCriteria) -> SolveResult:
    """Blocks x, z, v, w, then dual steps on ||x||^2 = 1, M v = z, v = x and
    w = v. rho does not enter v's matrix, so it is inverted once per solve."""
    M = problem.signed_matrix
    K = np.linalg.inv(M.T @ M + 2.0 * np.eye(M.shape[1]))
    blocks = [
        ("x", lambda s, rho: sphere_penalty_min(s.v + s.y3 / rho, s.y1 / rho)),
        ("z", lambda s, rho: onebit_update_z(s.v, s.y2, rho, problem.lam, M)),
        ("v", lambda s, rho: onebit_update_v(s.z, s.x, s.w, s.y2, s.y3, s.y4, rho, M, K)),
        ("w", lambda s, rho: onebit_update_w(s.v, s.y4, rho)),
    ]
    constraints = [("y1", lambda s: float(s.x @ s.x) - 1.0),
                   ("y2", lambda s: M @ s.v - s.z),
                   ("y3", lambda s: s.v - s.x),
                   ("y4", lambda s: s.w - s.v)]

    def dual_norm(s, old, rho):
        dz, dv, dw = s.z - old.z, s.v - old.v, s.w - old.w
        return rho * float(np.sqrt(dz @ dz + dv @ dv + dw @ dw))

    return iterate(init, blocks, constraints, dual_norm,
                   lambda s: problem.objective(s.w, s.z), schedule, stop)

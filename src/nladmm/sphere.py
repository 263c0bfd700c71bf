"""1-bit compressive sensing on the unit sphere ||x||^2 = 1: a three-block
splitting whose sphere-side block has an exact closed form.

That block's primitive is the exact minimizer of

    ||w - v||^2 + (||w||^2 - 1 + alpha)^2

whose stationarity condition reduces to a scalar cubic in ||w||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import RhoSchedule, SolveResult, StopCriteria, iterate
from .inner import FistaConfig, cubic_real_roots, fista, gram_lmax
from .terms import CompositeObjective, l1_term, SmoothTerm


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
    x: np.ndarray
    w: np.ndarray
    z: np.ndarray
    y1: float
    y2: np.ndarray
    y3: np.ndarray
    rho: float


def onebit_update_z(w: np.ndarray, y2: np.ndarray, rho: float, lam: float,
                    M: np.ndarray) -> np.ndarray:
    """Per-coordinate exact minimizer of
    (lam/2) min(z,0)^2 + (rho/2)(z - a)^2 with a = M w + y2/rho, M = Y Phi;
    the shrink rho*a/(lam + rho) is formed only where a < 0, not where it is unused."""
    z = M @ w + y2 / rho
    neg = z < 0.0
    z[neg] = rho * z[neg] / (lam + rho)
    return z


def onebit_update_w(z: np.ndarray, x: np.ndarray, y2: np.ndarray,
                    y3: np.ndarray, rho: float, M: np.ndarray,
                    gram: tuple[np.ndarray, float], w0: np.ndarray,
                    cfg: FistaConfig = FistaConfig()) -> np.ndarray:
    """Approximate argmin_w ||w||_1 + (rho/2)||M w - z + y2/rho||^2
    + (rho/2)||w - x + y3/rho||^2 from w0 via the accelerated proximal
    method, with M = Y Phi and ``gram`` = ``gram_lmax(M)``.

    The smooth part's gradient is Lipschitz with constant
    rho (lambda_max(M'M) + 1), so FISTA takes the fixed step 1/L."""
    MtM, lmax = gram
    b = z - y2 / rho
    Mtb = M.T @ b
    c = x - y3 / rho

    def value(w):
        rz = M @ w - b
        rx = w - c
        return 0.5 * rho * float(rz @ rz + rx @ rx)

    def gradient(w):
        return rho * (MtM @ w - Mtb + w - c)

    smooth = SmoothTerm(value=value, gradient=gradient, lipschitz=rho * (lmax + 1.0))
    obj = CompositeObjective(smooth, l1_term(1.0))
    return fista(obj, w0, cfg, lipschitz=obj.smooth.lipschitz)


def onebit_solve(problem: OneBitCsProblem, init: OneBitCsState,
                 schedule: RhoSchedule, stop: StopCriteria) -> SolveResult:
    """Three-block cycle: sphere-penalized x (closed form), clipped z
    (closed form), sparse w (proximal gradient), then the dual ascent steps."""
    M = problem.signed_matrix
    gram = gram_lmax(M)
    blocks = [
        ("x", lambda s, rho: sphere_penalty_min(s.w + s.y3 / rho, s.y1 / rho)),
        ("z", lambda s, rho: onebit_update_z(s.w, s.y2, rho, problem.lam, M)),
        ("w", lambda s, rho: onebit_update_w(s.z, s.x, s.y2, s.y3, rho, M, gram, s.w)),
    ]
    constraints = [("y1", lambda s: float(s.x @ s.x) - 1.0),
                   ("y2", lambda s: M @ s.w - s.z),
                   ("y3", lambda s: s.w - s.x)]

    def dual_norm(s, old, rho):
        dz, dw = s.z - old.z, s.w - old.w
        return rho * float(np.sqrt(dz @ dz + dw @ dw))

    return iterate(init, blocks, constraints, dual_norm,
                   lambda s: problem.objective(s.w, s.z), schedule, stop)

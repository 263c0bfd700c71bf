"""1-bit compressive sensing on the unit sphere ||x||^2 = 1: a four-block
splitting in which every block has a closed form. The sphere-side x-block
is the exact minimizer of ||w - v||^2 + (||w||^2 - 1 + alpha)^2, a scalar
cubic in ||w||; z is a per-coordinate clip, the smooth copy v one linear
solve with a rho-free matrix, and the sparse w a soft threshold.

A solve forms M v and each y/rho once per iteration (see onebit_solve).
Its vector products use ``ndarray.dot``, which gives the bits of ``@``
with less dispatch at these sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import inner
from .engine import RhoSchedule, SolveResult, StopCriteria, check_shapes, iterate
from .inner import cubic_real_roots
from .terms import soft_threshold

fista = inner.fista  # no block calls it; kept only for the benchmark tracer to wrap


def sphere_penalty_min(v: np.ndarray, alpha: float) -> np.ndarray:
    """Global minimizer of ||w - v||^2 + (||w||^2 - 1 + alpha)^2 over R^n:
    w = t v/m for the largest real root t of t^3 + (alpha - 1/2)t - m/2,
    m = ||v||. For m > 0, q = -m/2 < 0 leaves exactly one positive root,
    and a t < 0 loses to -t, which lies closer to v:
    (t - m)^2 - (-t - m)^2 = -4tm > 0. For v = 0 the direction is free and
    the first basis vector is used; the objective is even in t, so the
    largest root ties with its mirror and beats t = 0 by (alpha - 1/2)^2.
    """
    v = np.asarray(v, dtype=float)
    m = math.sqrt(v.dot(v))  # np.linalg.norm's own formula, without its dispatch
    if m < 1e-150 and v.any():
        # v @ v is subnormal or underflows to 0, and v may be subnormal
        # itself: take the norm and the direction of v / max|v|.
        s = float(np.max(np.abs(v)))
        u = v / s
        norm_u = math.sqrt(u.dot(u))
        direction, m = u / norm_u, s * norm_u
    elif m > 0.0:
        direction = v / m
    else:
        direction = np.zeros_like(v)
        direction[0] = 1.0
    return cubic_real_roots(alpha - 0.5, -0.5 * m)[-1] * direction


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
        if np.ndim(self.Phi) != 2 or len(self.Phi) != len(self.y_sign):
            raise ValueError(f"Phi must be a matrix with one row per sign, got shape "
                             f"{np.shape(self.Phi)} for {len(self.y_sign)} signs")
        if not np.isfinite(self.Phi).all():
            raise ValueError("Phi holds a non-finite value")

    @property
    def signed_matrix(self) -> np.ndarray:
        """Y Phi with Y = diag(y_sign)."""
        return self.y_sign[:, None] * self.Phi

    def objective(self, w: np.ndarray, z: np.ndarray) -> float:
        zn = np.minimum(z, 0.0)
        return float(np.abs(w).sum() + 0.5 * self.lam * (zn * zn).sum())


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


def onebit_update_z(Mv: np.ndarray, y2_rho: np.ndarray, rho: float,
                    lam: float) -> np.ndarray:
    """Per-coordinate exact minimizer of (lam/2) min(z,0)^2 + (rho/2)(z - a)^2
    with a = M v + y2/rho, from Mv = M v and y2_rho = y2/rho; the shrink
    rho*a/(lam + rho) is formed only where a < 0, not where it is unused."""
    z = Mv + y2_rho
    neg = z < 0.0
    z[neg] = rho * z[neg] / (lam + rho)
    return z


def onebit_update_v(z: np.ndarray, x: np.ndarray, w: np.ndarray, y2_rho: np.ndarray,
                    y3_rho: np.ndarray, y4_rho: np.ndarray, M: np.ndarray,
                    K: np.ndarray) -> np.ndarray:
    """Exact minimizer of the v-terms of the augmented Lagrangian: the solution
    of (M'M + 2I) v = M'(z - y2/rho) + (x - y3/rho) + (w + y4/rho), K = inv(M'M + 2I),
    from the quotients yi_rho = yi/rho."""
    return K.dot(M.T.dot(z - y2_rho) + (x - y3_rho) + (w + y4_rho))


def onebit_update_w(v: np.ndarray, y4_rho: np.ndarray, rho: float) -> np.ndarray:
    """argmin_w ||w||_1 + (rho/2)||w - v + y4/rho||^2: soft(v - y4/rho, 1/rho),
    from y4_rho = y4/rho."""
    return soft_threshold(v - y4_rho, 1.0 / rho)


def onebit_solve(problem: OneBitCsProblem, init: OneBitCsState,
                 schedule: RhoSchedule, stop: StopCriteria) -> SolveResult:
    """Blocks x, z, v, w, then dual steps on ||x||^2 = 1, M v = z, v = x and
    w = v. rho does not enter v's matrix, so it is inverted once per solve.

    rho and the duals stay fixed through an iteration's blocks, so the
    x-block forms y2/rho, y3/rho and y4/rho for all four. Being the first
    block, it also keeps the z, v and w the iteration starts from, which
    the dual norm reads. The y2 residual keeps M v for the new v; x does
    not move v, so the next z-block reuses it, whatever rho then is. A
    start field shaped unlike the data needs raises DimensionMismatch."""
    m, n = problem.Phi.shape
    check_shapes(init, [("x", (n,)), ("w", (n,)), ("z", (m,)), ("v", (n,)), ("y1", ()),
                        ("y2", (m,)), ("y3", (n,)), ("y4", (n,))])
    M = problem.signed_matrix
    K = np.linalg.inv(M.T @ M + 2.0 * np.eye(M.shape[1]))
    Mv = M.dot(np.asarray(init.v, dtype=float))
    y2_rho = y3_rho = y4_rho = z_old = v_old = w_old = None

    def update_x(s, rho):
        nonlocal y2_rho, y3_rho, y4_rho, z_old, v_old, w_old
        y2_rho, y3_rho, y4_rho = s.y2 / rho, s.y3 / rho, s.y4 / rho
        z_old, v_old, w_old = s.z, s.v, s.w
        return sphere_penalty_min(s.v + y3_rho, s.y1 / rho)

    def residual_y2(s):
        nonlocal Mv
        Mv = M.dot(s.v)
        return Mv - s.z

    blocks = [
        ("x", update_x),
        ("z", lambda s, rho: onebit_update_z(Mv, y2_rho, rho, problem.lam)),
        ("v", lambda s, rho: onebit_update_v(s.z, s.x, s.w, y2_rho, y3_rho, y4_rho, M, K)),
        ("w", lambda s, rho: onebit_update_w(s.v, y4_rho, rho)),
    ]
    constraints = [("y1", lambda s: float(s.x.dot(s.x)) - 1.0),
                   ("y2", residual_y2),
                   ("y3", lambda s: s.v - s.x),
                   ("y4", lambda s: s.w - s.v)]

    def dual_norm(s, rho):
        dz, dv, dw = s.z - z_old, s.v - v_old, s.w - w_old
        return rho * math.sqrt(dz.dot(dz) + dv.dot(dv) + dw.dot(dw))

    return iterate(init, blocks, constraints, dual_norm,
                   lambda s: problem.objective(s.w, s.z), schedule, stop)

"""Convergence diagnostics computed against a known optimum or along a
recorded solve: the objective-gap bound, the Lyapunov merit function, and
the variational-inequality contraction value."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .engine import IterateState, SolveResult
from .errors import MissingReference
from .terms import ConstraintTerm


@dataclass(frozen=True)
class OptimumReference:
    """A known optimum of the constrained problem, used to evaluate the
    theoretical bounds."""

    x1_star: np.ndarray
    x2_star: np.ndarray
    y_star: np.ndarray
    p_star: float


def check_reference_feasible(ref: OptimumReference, f1: ConstraintTerm,
                             f2: ConstraintTerm) -> None:
    viol = np.linalg.norm(f1.eval(ref.x1_star) + f2.eval(ref.x2_star))
    if viol > 1e-8:
        raise ValueError(f"reference optimum is infeasible: ||f1+f2|| = {viol:.3e}")


def error_bound(state: IterateState, p_current: float, prev_f2: np.ndarray,
                ref: OptimumReference, f1: ConstraintTerm,
                f2: ConstraintTerm) -> tuple:
    """Returns (bound, gap) where gap = p^k - p* and

        bound = rho * eps^k * ||f2(x2^k) - f2(x2^{k-1})||_1 - y^k . r^k

    with eps^k the sup-norm of the f1 gap to the optimum.
    """
    if ref is None:
        raise MissingReference("error bound needs a known optimum")
    eps = float(np.max(np.abs(f1.eval(state.x1) - f1.eval(ref.x1_star))))
    delta_f2 = f2.eval(state.x2) - np.asarray(prev_f2, dtype=float)
    r = f1.eval(state.x1) + f2.eval(state.x2)
    bound = state.rho * eps * float(np.sum(np.abs(delta_f2))) - float(state.y @ r)
    gap = float(p_current) - ref.p_star
    return bound, gap


def lyapunov(state: IterateState, ref: OptimumReference,
             f2: ConstraintTerm) -> float:
    """rho * ||f2(x2) - f2(x2*)||^2 + (1/rho) * ||y - y*||^2."""
    if ref is None:
        raise MissingReference("Lyapunov value needs a known optimum")
    d2 = f2.eval(state.x2) - f2.eval(ref.x2_star)
    dy = state.y - np.asarray(ref.y_star, dtype=float)
    return float(state.rho * (d2 @ d2) + (dy @ dy) / state.rho)


@dataclass(frozen=True)
class ViMatrices:
    """Block matrices of the variational-inequality analysis, acting on the
    stacked vector (f1(x1), f2(x2), y) in R^{3d}."""

    d: int
    rho: float
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    G: np.ndarray


def vi_matrices(d: int, rho: float) -> ViMatrices:
    """Build C = [[rho A, 0],[B, I/rho]], D = blockdiag(rho A, I/rho),
    E = [[I, 0],[rho B, I]], G = C + C' - E'DE, with A = blockdiag(0, I)
    and B = [0 I] on d-dimensional blocks."""
    if d < 1 or rho <= 0:
        raise ValueError("need d >= 1 and rho > 0")
    Z = np.zeros((d, d))
    I = np.eye(d)
    A = np.block([[Z, Z], [Z, I]])
    B = np.hstack([Z, I])

    C = np.block([[rho * A, np.zeros((2 * d, d))], [B, I / rho]])
    D = np.block([[rho * A, np.zeros((2 * d, d))],
                  [np.zeros((d, 2 * d)), I / rho]])
    E = np.block([[np.eye(2 * d), np.zeros((2 * d, d))], [rho * B, I]])
    G = C + C.T - E.T @ D @ E
    return ViMatrices(d=d, rho=rho, C=C, D=D, E=E, G=G)


@dataclass(frozen=True)
class DiagnosticsRow:
    k: int
    bound: float
    gap: float
    lyapunov: float
    vi_norm: float
    flags: str


def recover_duals(result: SolveResult, f1: ConstraintTerm, f2: ConstraintTerm,
                  x1_history: Sequence[np.ndarray],
                  x2_history: Sequence[np.ndarray]) -> List[np.ndarray]:
    """The duals y^0, ..., y^K of a solve, from its final dual y^K backward:
    y^k = y^{k+1} - rho_k (f1(x1^{k+1}) + f2(x2^{k+1})), undoing the
    engine's dual steps. The histories are as in ``diagnose_result``."""
    ys = [np.asarray(result.state.y, dtype=float)]
    for k in range(len(result.trace) - 1, -1, -1):
        r = f1.eval(x1_history[k + 1]) + f2.eval(x2_history[k + 1])
        ys.append(ys[-1] - result.trace[k].rho * r)
    return ys[::-1]


def diagnose_result(result: SolveResult, ref: OptimumReference,
                    f1: ConstraintTerm, f2: ConstraintTerm,
                    x1_history: Sequence[np.ndarray],
                    x2_history: Sequence[np.ndarray]) -> List[DiagnosticsRow]:
    """Per-iteration bound/gap/Lyapunov/VI table for a constant-rho solve.

    ``x1_history`` / ``x2_history`` are the primal iterates including the
    initial point (length len(trace) + 1).
    """
    rhos = {row.rho for row in result.trace}
    if len(rhos) > 1:
        raise ValueError("diagnostics require a constant penalty parameter")
    rho = result.trace[0].rho
    check_reference_feasible(ref, f1, f2)
    ys = recover_duals(result, f1, f2, x1_history, x2_history)

    rows = []
    f2_prev = f2.eval(x2_history[0])
    for i, tr in enumerate(result.trace):
        # ||E(w^i - w~^i)||_D^2 of vi_matrices in closed form, with
        # w = (f1(x1), f2(x2), y): b = f2(x2^i) - f2(x2^{i+1}) and
        # c = -rho (f1(x1^{i+1}) + f2(x2^i)) are the f2 and y parts of
        # w^i - w~^i, and the value is rho ||b||^2 + ||rho b + c||^2 / rho.
        f2_next = f2.eval(x2_history[i + 1])
        b = f2_prev - f2_next
        c = -rho * (f1.eval(x1_history[i + 1]) + f2_prev)
        e = rho * b + c
        vi_norm = rho * float(b @ b) + float(e @ e) / rho
        state = IterateState(x1=x1_history[i + 1], x2=x2_history[i + 1], y=ys[i + 1],
                             rho=rho)
        bound, gap = error_bound(state, tr.objective, f2_prev, ref, f1, f2)
        V = lyapunov(state, ref, f2)
        flags = "increase" if rows and vi_norm > rows[-1].vi_norm + 1e-10 else ""
        rows.append(DiagnosticsRow(k=tr.k, bound=bound, gap=gap, lyapunov=V,
                                   vi_norm=vi_norm, flags=flags))
        f2_prev = f2_next
    return rows

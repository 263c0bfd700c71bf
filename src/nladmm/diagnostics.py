"""Convergence diagnostics computed against a known optimum or along a
recorded solve: the objective-gap bound, the Lyapunov merit function, and
the variational-inequality contraction value."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .engine import SolveResult
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
    and B = [0 I] on d-dimensional blocks. ``diagnose_result`` does not
    build them: it evaluates the VI value in closed form, and these dense
    matrices are its test oracle."""
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


def diagnose_result(result: SolveResult, ref: OptimumReference,
                    f1: ConstraintTerm, f2: ConstraintTerm,
                    x1_history: Sequence[np.ndarray],
                    x2_history: Sequence[np.ndarray]) -> List[DiagnosticsRow]:
    """Per-iteration bound/gap/Lyapunov/VI table for a constant-rho solve.

    ``x1_history`` / ``x2_history`` are the primal iterates including the
    initial point (length len(trace) + 1). The f1/f2 values of the iterates
    are evaluated once and stacked, and the duals are rebuilt backward from
    the final one, y^k = y^{k+1} - rho r^{k+1} with
    r^{k+1} = f1(x1^{k+1}) + f2(x2^{k+1}), undoing the engine's dual
    steps. Row k, on (x1, x2, y)^{k+1}, is one row of array expressions:

        bound    = rho eps ||f2(x2^{k+1}) - f2(x2^k)||_1 - y^{k+1} . r^{k+1}
        gap      = p^{k+1} - p*
        lyapunov = rho ||f2(x2^{k+1}) - f2(x2*)||^2 + ||y^{k+1} - y*||^2 / rho

    with eps the sup-norm of f1(x1^{k+1}) - f1(x1*), and vi_norm the
    variational-inequality value ||E(w^k - w~^k)||_D^2 of ``vi_matrices``.
    """
    trace = result.trace
    if len({row.rho for row in trace}) > 1:
        raise ValueError("diagnostics require a constant penalty parameter")
    if not len(x1_history) == len(x2_history) == len(trace) + 1:
        raise ValueError("diagnostics need len(trace) + 1 iterates of each block")
    rho = trace[0].rho
    check_reference_feasible(ref, f1, f2)
    F1 = np.array([f1.eval(x) for x in x1_history])  # row k: f1(x1^k)
    F2 = np.array([f2.eval(x) for x in x2_history])
    R = F1[1:] + F2[1:]  # row k: r^{k+1}
    # [y^K, rho r^K, ..., rho r^2] accumulates to y^K, ..., y^1; row k: y^{k+1}.
    Y = np.subtract.accumulate(np.vstack([result.state.y, rho * R[:0:-1]]))[::-1]
    # With w = (f1(x1), f2(x2), y), b = f2(x2^k) - f2(x2^{k+1}) and
    # c = -rho (f1(x1^{k+1}) + f2(x2^k)) are the f2 and y parts of
    # w^k - w~^k, and the VI value is rho ||b||^2 + ||rho b + c||^2 / rho.
    b = F2[:-1] - F2[1:]
    e = rho * b - rho * (F1[1:] + F2[:-1])  # rho b + c
    vi_norm = rho * (b * b).sum(1) + (e * e).sum(1) / rho
    eps = np.abs(F1[1:] - f1.eval(ref.x1_star)).max(1)
    bound = rho * eps * np.abs(b).sum(1) - (Y * R).sum(1)
    gap = np.array([row.objective for row in trace], dtype=float) - ref.p_star
    d2, dy = F2[1:] - f2.eval(ref.x2_star), Y - np.asarray(ref.y_star, dtype=float)
    lyapunov = rho * (d2 * d2).sum(1) + (dy * dy).sum(1) / rho
    return [DiagnosticsRow(row.k, *values) for row, values in
            zip(trace, zip(bound.tolist(), gap.tolist(), lyapunov.tolist(), vi_norm.tolist()))]

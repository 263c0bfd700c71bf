"""Generic alternating solver for problems with nonlinear equality
constraints, and the outer loop every solver in the package runs on.

Each outer iteration minimizes the augmented Lagrangian block by block,
then takes a dual ascent step on every constraint. Block minimizers and
constraint residuals are supplied by the caller; ``iterate`` owns the
penalty schedule, the dual steps, the residual norms, the non-finite
guards, the trace and the stopping test. ``solve`` is the two-block
instance for f1(x1) + f2(x2) = 0.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, NonFiniteIterate, SubproblemFailure
from .terms import ConstraintTerm


@dataclass(frozen=True)
class RhoSchedule:
    """Penalty parameter as a function of the iteration counter.

    ``delta == 0`` keeps rho constant; ``delta > 0`` grows it linearly,
    which preserves convergence as long as the growth is slow.
    """

    rho0: float
    delta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.rho0) and self.rho0 > 0):
            raise ValueError("rho0 must be finite and positive")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError("delta must be finite and nonnegative")

    @classmethod
    def constant(cls, rho0: float) -> "RhoSchedule":
        return cls(rho0, 0.0)

    @classmethod
    def increment(cls, rho0: float, delta: float) -> "RhoSchedule":
        return cls(rho0, delta)

    def at(self, k: int) -> float:
        return self.rho0 + k * self.delta


@dataclass(frozen=True)
class StopCriteria:
    tol_primal: float = 1e-6
    tol_dual: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self):
        if not all(math.isfinite(t) and t > 0 for t in (self.tol_primal, self.tol_dual)):
            raise ValueError("tolerances must be finite and positive")
        if not (isinstance(self.max_iter, Integral) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass
class IterateState:
    x1: np.ndarray
    x2: np.ndarray
    y: np.ndarray
    rho: float


@dataclass(frozen=True)
class TraceRow:
    k: int
    objective: float
    r_norm: float
    s_norm: float
    rho: float


# Block solvers receive (x1, x2, y, rho) and return the new block value.
BlockSolver = Callable[[np.ndarray, np.ndarray, np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class Problem:
    """Objective values, constraint maps, and block minimizers of one solve.

    The block solvers are expected to return (approximate) minimizers of
    the augmented Lagrangian in their own block. Existence of those
    minimizers (e.g. via strong convexity of the objectives or linearity
    of the constraint maps) is the caller's responsibility.
    """

    F1: Callable[[np.ndarray], float]
    F2: Callable[[np.ndarray], float]
    f1: ConstraintTerm
    f2: ConstraintTerm
    solve_x1: BlockSolver
    solve_x2: BlockSolver


class SolveResult(NamedTuple):
    """What every solver returns: its final state, the trace, and whether it converged."""

    state: object
    trace: List[TraceRow]
    converged: bool


def _require_finite(v, what: str, trace, exc=NonFiniteIterate):
    if not np.isfinite(v).all():
        raise exc(f"non-finite values in {what}", trace=trace)


def iterate(init, blocks: Sequence[Tuple[str, Callable]],
            constraints: Sequence[Tuple[str, Callable]], dual_norm: Callable,
            objective: Callable, schedule: RhoSchedule,
            stop: StopCriteria) -> SolveResult:
    """The outer loop of every solver, run on a copy of the state ``init``.

    Iteration k fixes rho = schedule.at(k), sets each (field, update) of
    ``blocks`` in order to update(state, rho), and steps the dual field of
    each (dual, residual) of ``constraints`` by rho * residual(state). The
    primal norm is sqrt(sum_i r_i . r_i), the dual one
    dual_norm(state, previous, rho). A non-finite rho (before any block runs),
    dual or norm raises NonFiniteIterate, a non-finite block SubproblemFailure
    naming it; both carry the trace so far.
    """
    state = copy.copy(init)
    for name, _ in list(blocks) + list(constraints):
        value = getattr(init, name)
        setattr(state, name, float(value) if np.ndim(value) == 0
                else np.array(value, dtype=float))
    trace: List[TraceRow] = []
    # A dual step or a norm that overflows at a huge rho ends in
    # NonFiniteIterate below; numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(stop.max_iter):
            rho = schedule.at(k)
            if not math.isfinite(rho):
                raise NonFiniteIterate(f"penalty rho is {rho} at iteration {k}", trace=trace)
            previous = copy.copy(state)
            for name, update in blocks:
                value = update(state, rho)
                _require_finite(value, f"{name} block update", trace, SubproblemFailure)
                setattr(state, name, value)
            rs = [(dual, residual(state)) for dual, residual in constraints]
            for dual, r in rs:
                if np.shape(r) != np.shape(getattr(state, dual)):
                    raise DimensionMismatch(f"dual {dual} and its residual differ in shape")
                y = getattr(state, dual) + rho * r
                _require_finite(y, f"dual variable {dual}", trace)
                setattr(state, dual, y)
            state.rho = rho
            r_norm = float(np.sqrt(sum(np.dot(r, r) for _, r in rs)))
            s_norm = dual_norm(state, previous, rho)
            _require_finite((r_norm, s_norm), "residual norms", trace)
            trace.append(TraceRow(k=k, objective=objective(state), r_norm=r_norm,
                                  s_norm=s_norm, rho=rho))
            if r_norm <= stop.tol_primal and s_norm <= stop.tol_dual:
                return SolveResult(state, trace, True)
    return SolveResult(state, trace, False)


def solve(problem: Problem, init: IterateState, schedule: RhoSchedule,
          stop: StopCriteria) -> SolveResult:
    """Run the two-block iteration until both residual norms pass their
    tolerances or ``stop.max_iter`` is reached."""
    f1, f2 = problem.f1, problem.f2
    # f2 is evaluated once per iteration; f2_old is f2 at the last x2.
    f2x2 = f2.eval(np.asarray(init.x2, dtype=float))
    f2_old = None

    def primal(s):
        nonlocal f2x2, f2_old
        f2_old = f2x2
        f2x2 = f2.eval(s.x2)
        return f1.eval(s.x1) + f2x2

    def dual_norm(s, previous, rho):
        return float(np.linalg.norm(rho * (f1.jacobian(s.x1).T @ (f2x2 - f2_old))))

    blocks = [
        ("x1", lambda s, rho: np.asarray(problem.solve_x1(s.x1, s.x2, s.y, rho), dtype=float)),
        ("x2", lambda s, rho: np.asarray(problem.solve_x2(s.x1, s.x2, s.y, rho), dtype=float)),
    ]
    return iterate(init, blocks, [("y", primal)], dual_norm,
                   lambda s: float(problem.F1(s.x1) + problem.F2(s.x2)), schedule, stop)

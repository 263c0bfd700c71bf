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
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, NonFiniteIterate, SolverError, SubproblemFailure
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
    """Tolerances on the primal and dual residual norms, and the iteration
    cap; a max_iter that is not an integer of at least 1 raises ValueError
    when built."""

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


class TraceRow(NamedTuple):
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
    of the constraint maps) is the caller's responsibility, and so is the
    contract of ``iterate``: a non-finite block value must make F1 + F2 or
    f1(x1) + f2(x2) non-finite.
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


# The running dual bound is replaced by an exact scan well before it could
# overflow, so that rounding in the bound cannot hide a dual that did.
_BOUND_LIMIT = 1e300


def _stacked_norm(state, duals) -> float:
    ys = (getattr(state, dual) for dual in duals)
    return math.sqrt(sum(float(np.vdot(y, y)) for y in ys))


def _first_failure(state, checks, norms, trace):
    """The error of the first failing test, in order: each (field, what,
    error type) of ``checks``, then the norms (r_norm, s_norm) if given.
    None when every value is finite."""
    for name, what, exc in checks:
        if not np.isfinite(getattr(state, name)).all():
            return exc(f"non-finite values in {what}", trace=trace)
    if norms is not None and not np.isfinite(norms).all():
        return NonFiniteIterate("non-finite values in residual norms", trace=trace)
    return None


def check_shapes(state, shapes: Sequence[Tuple[str, Tuple[int, ...]]]) -> None:
    """A builder's start check: DimensionMismatch names the first (field,
    shape) of ``shapes`` that ``state`` holds in another shape."""
    for name, shape in shapes:
        got = np.shape(getattr(state, name))
        if got != shape:
            raise DimensionMismatch(f"start state field {name} has shape {got}, "
                                    f"the data needs {shape}")


def iterate(init, blocks: Sequence[Tuple[str, Callable]],
            constraints: Sequence[Tuple[str, Callable]], dual_norm: Callable,
            objective: Callable, schedule: RhoSchedule,
            stop: StopCriteria, record: Optional[Callable] = None) -> SolveResult:
    """The outer loop of every solver, run on a copy of the state ``init``.

    Iteration k fixes rho = schedule.at(k), sets each (field, update) of
    ``blocks`` in order to update(state, rho), and steps the dual field of
    each (dual, residual) of ``constraints`` by rho * residual(state), a
    number or an array shaped like the dual. The primal norm is
    sqrt(sum_i r_i . r_i), the dual one dual_norm(state, rho), called after
    the dual steps; a caller whose dual norm reads the block values an
    iteration began with keeps them itself. ``record(k, state)``, if given,
    sees the live state of each iteration k that passes the tests, after its
    trace row and before the stopping test, so a hook that keeps a value
    copies it.

    A non-finite rho raises NonFiniteIterate before any block runs. The
    other values are tested once per iteration: r_norm + s_norm + the
    objective + B must be finite and B <= 1e300, where B += rho * r_norm
    bounds the stacked dual norm. Otherwise, and also when a block, a
    residual, a norm or the objective raises, the values set so far are
    scanned in order, blocks, duals, then norms: the first non-finite block
    raises SubproblemFailure naming it, a dual or a norm NonFiniteIterate,
    with the trace so far and chained from the error raised, if any. After
    a clean scan, a SolverError raised by a block becomes SubproblemFailure
    "<block> block update: <error>" the same way; any other error is
    re-raised, and no error goes on with B the exact norm. A residual
    shaped unlike its dual raises DimensionMismatch, with the trace so far.

    The test misses no non-finite block value if the blocks keep one
    contract: such a value makes a residual, the dual norm or the
    objective non-finite.
    """
    state = copy.copy(init)
    for name, _ in list(blocks) + list(constraints):
        value = getattr(init, name)
        setattr(state, name, float(value) if np.ndim(value) == 0
                else np.array(value, dtype=float))
    duals = [dual for dual, _ in constraints]
    shapes = [np.shape(getattr(state, dual)) for dual in duals]
    checks = ([(name, f"{name} block update", SubproblemFailure) for name, _ in blocks]
              + [(dual, f"dual variable {dual}", NonFiniteIterate) for dual in duals])
    trace: List[TraceRow] = []
    # A dual step or a norm that overflows at a huge rho ends in
    # NonFiniteIterate below; numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        bound = _stacked_norm(state, duals)
        for k in range(stop.max_iter):
            rho = schedule.at(k)
            if not math.isfinite(rho):
                raise NonFiniteIterate(f"penalty rho is {rho} at iteration {k}", trace=trace)
            done, norms = 0, None  # checks[:done] are the fields set so far
            try:
                for name, update in blocks:
                    setattr(state, name, update(state, rho))
                    done += 1
                rs = [residual(state) for _, residual in constraints]
                r_sq = 0.0
                for dual, shape, r in zip(duals, shapes, rs):
                    if getattr(r, "shape", ()) != shape:
                        raise DimensionMismatch(f"dual {dual} and its residual differ in shape",
                                                trace=trace)
                    setattr(state, dual, getattr(state, dual) + rho * r)
                    r_sq += r.dot(r) if shape else r * r
                    done += 1
                state.rho = rho
                r_norm = math.sqrt(r_sq)
                s_norm = dual_norm(state, rho)
                norms = (r_norm, s_norm)
                obj = objective(state)
            except Exception as exc:
                failure = _first_failure(state, checks[:done], norms, trace)
                if failure is None and done < len(blocks) and isinstance(exc, SolverError):
                    failure = SubproblemFailure(f"{blocks[done][0]} block update: {exc}",
                                                trace=trace)
                if failure is not None:
                    raise failure from exc
                raise
            bound += rho * r_norm
            if not (bound <= _BOUND_LIMIT and math.isfinite(r_norm + s_norm + obj + bound)):
                failure = _first_failure(state, checks, norms, trace)
                if failure is not None:
                    raise failure
                bound = _stacked_norm(state, duals)
            trace.append(TraceRow(k=k, objective=obj, r_norm=r_norm,
                                  s_norm=s_norm, rho=rho))
            if record is not None:
                record(k, state)
            if r_norm <= stop.tol_primal and s_norm <= stop.tol_dual:
                return SolveResult(state, trace, True)
    return SolveResult(state, trace, False)


def solve(problem: Problem, init: IterateState, schedule: RhoSchedule,
          stop: StopCriteria, record: Optional[Callable] = None) -> SolveResult:
    """Run the two-block iteration until both residual norms pass their
    tolerances or ``stop.max_iter`` is reached; ``record`` is ``iterate``'s.

    Before any block runs, f1(x1), f2(x2) and y of ``init`` must share one
    shape; otherwise DimensionMismatch names the start field that differs
    from the other two (x1 when all three differ), or whose map raised
    ValueError on it while it is shaped unlike y; a map's ValueError on a
    start shaped like y is its own and passes through."""
    f1, f2 = problem.f1, problem.f2

    def start_value(term, name):
        x = np.asarray(getattr(init, name), dtype=float)
        try:
            return term.eval(x)
        except ValueError as exc:
            if x.shape == np.shape(init.y):
                raise
            raise DimensionMismatch(f"start state field {name} does not fit: {exc}") from exc

    # f2 is evaluated once per iteration; f2_old is f2 at the last x2.
    f2x2 = start_value(f2, "x2")
    f2_old = None
    s1, s2, sy = np.shape(start_value(f1, "x1")), np.shape(f2x2), np.shape(init.y)
    if not s1 == s2 == sy:
        name = "y" if s1 == s2 else "x2" if s1 == sy else "x1"
        raise DimensionMismatch(f"start state field {name} does not fit: f1(x1), f2(x2) and y "
                                f"have shapes {s1}, {s2} and {sy}")

    def primal(s):
        nonlocal f2x2, f2_old
        f2_old = f2x2
        f2x2 = f2.eval(s.x2)
        return f1.eval(s.x1) + f2x2

    def dual_norm(s, rho):
        g = rho * (f1.jacobian(s.x1).T @ (f2x2 - f2_old))
        return math.sqrt(g.dot(g))

    blocks = [
        ("x1", lambda s, rho: np.asarray(problem.solve_x1(s.x1, s.x2, s.y, rho), dtype=float)),
        ("x2", lambda s, rho: np.asarray(problem.solve_x2(s.x1, s.x2, s.y, rho), dtype=float)),
    ]
    return iterate(init, blocks, [("y", primal)], dual_norm,
                   lambda s: float(problem.F1(s.x1) + problem.F2(s.x2)), schedule, stop,
                   record)

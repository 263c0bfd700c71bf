"""Two scalar benchmark problems with closed-form block updates:

    square-root constraint:  min x + z  s.t.  sqrt(x) + sqrt(z) = 1
    circle constraint:       min x + z  s.t.  x^2 + z^2 = 1

Both have known optima (objective 0.5 at (0.25, 0.25), and -sqrt(2) at
(-sqrt(2)/2, -sqrt(2)/2)) and are the primary convergence benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from . import engine
from .diagnostics import OptimumReference
from .engine import IterateState, Problem, RhoSchedule, StopCriteria
from .inner import cubic_real_roots
from .terms import ConstraintTerm

EXAMPLE_SQRT = "example1"
EXAMPLE_CIRCLE = "example2"

_SQRT_EPS = 1e-12  # designated finite Jacobian element at the sqrt boundary


def example1_block_update(c: float, rho: float) -> float:
    """Exact argmin over x >= 0 of x + (rho/2)(sqrt(x) + c)^2.

    In s = sqrt(x) the objective is an upward parabola with vertex at
    s = -rho c / (2 + rho), clamped to the domain s >= 0.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    s = max(-rho * c / (2.0 + rho), 0.0)  # max keeps a NaN first argument
    return s * s


def example2_block_update(c: float, rho: float) -> float:
    """Global argmin over R of f(x) = x + (rho/2)(x^2 + c)^2: the smallest
    real root of x^3 + c x + q, q = 1/(2 rho). The roots' product -q < 0
    makes exactly one root negative, the smallest, and f'(0) = 1 > 0 leaves
    it the only stationary point on (-inf, 0]. The quartic term is even, so
    f(-a) = f(a) - 2a < f(a): it beats every positive stationary point a.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    return cubic_real_roots(c, 0.5 / rho)[0]


def _sqrt_constraint(offset: float) -> ConstraintTerm:
    # sqrt(x) + offset; the subgradient at 0 is taken one-sided.
    return ConstraintTerm(
        eval=lambda x: np.sqrt(np.maximum(x, 0.0)) + offset,
        jacobian=lambda x: np.array([[0.5 / math.sqrt(max(float(x[0]), _SQRT_EPS))]]),
    )


def _square_constraint(offset: float) -> ConstraintTerm:
    return ConstraintTerm(
        eval=lambda x: x * x + offset,
        jacobian=lambda x: np.array([[2.0 * float(x[0])]]),
    )


def _example(which: str):
    """(constraint term, block update, g, (x*, y*, p*)) of one example, built
    per call so that a wrapper set on a block update's module name is seen."""
    examples = {
        EXAMPLE_SQRT: (_sqrt_constraint, example1_block_update,
                       lambda v: math.sqrt(max(v, 0.0)), (0.25, -1.0, 0.5)),
        # The saddle dual maximizes -y - 1/(2y) over y > 0, i.e. y* = +sqrt(2)/2.
        EXAMPLE_CIRCLE: (_square_constraint, example2_block_update, lambda v: v ** 2,
                         (-math.sqrt(2.0) / 2.0, math.sqrt(2.0) / 2.0, -math.sqrt(2.0))),
    }
    if which not in examples:
        raise ValueError(f"unknown example {which!r}")
    return examples[which]


def build_example(which: str) -> Problem:
    """Assemble the generic-problem description with exact block solvers.

    Both examples have f1 = g and f2 = g - 1 for one scalar map g, so each
    block minimizes x + (rho/2)(g(x) + c)^2 with c = g(other) - 1 + y/rho.
    """
    term, update, g, _ = _example(which)

    def solve_x1(x1, x2, y, rho):
        return np.array([update(g(float(x2[0])) - 1.0 + float(y[0]) / rho, rho)])

    def solve_x2(x1, x2, y, rho):
        return np.array([update(g(float(x1[0])) - 1.0 + float(y[0]) / rho, rho)])

    lin = lambda v: float(v[0])
    return Problem(F1=lin, F2=lin, f1=term(0.0), f2=term(-1.0),
                   solve_x1=solve_x1, solve_x2=solve_x2)


def example_reference(which: str) -> OptimumReference:
    x, y, p = _example(which)[3]
    return OptimumReference(x1_star=np.array([x]), x2_star=np.array([x]),
                            y_star=np.array([y]), p_star=p)


@dataclass
class ExampleRun:
    result: engine.SolveResult
    x1_history: List[np.ndarray]
    x2_history: List[np.ndarray]


def run_example(which: str, schedule: RhoSchedule, max_iter: int = 30,
                x0: float = 1.0, z0: float = 1.0, y0: float = 0.0,
                tol_primal: float = 1e-12, tol_dual: float = 1e-12) -> ExampleRun:
    """Run one scalar benchmark, recording the primal iterates so the
    diagnostics can be evaluated afterwards."""
    init = IterateState(x1=np.array([float(x0)]), x2=np.array([float(z0)]),
                        y=np.array([float(y0)]), rho=schedule.at(0))
    x1_hist, x2_hist = [init.x1], [init.x2]  # the solve runs on a copy of init

    def record(k, state):
        x1_hist.append(state.x1.copy())
        x2_hist.append(state.x2.copy())

    stop = StopCriteria(tol_primal=tol_primal, tol_dual=tol_dual, max_iter=max_iter)
    result = engine.solve(build_example(which), init, schedule, stop, record)
    return ExampleRun(result=result, x1_history=x1_hist, x2_history=x2_hist)

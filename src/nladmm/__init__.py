"""Alternating-direction solvers for problems with nonlinear equality
constraints f1(x1) + f2(x2) = 0, with application solvers for spherical
constraints (1-bit compressive sensing) and max-rule multi-instance
learning, plus convergence diagnostics."""

from .engine import (
    IterateState,
    Problem,
    RhoSchedule,
    SolveResult,
    StopCriteria,
    TraceRow,
    solve,
)
from .inner import FistaConfig, cubic_real_roots, fista
from .terms import (
    CompositeObjective,
    ConstraintTerm,
    ProxTerm,
    SmoothTerm,
    soft_threshold,
)

__all__ = [
    "IterateState",
    "Problem",
    "RhoSchedule",
    "SolveResult",
    "StopCriteria",
    "TraceRow",
    "solve",
    "FistaConfig",
    "cubic_real_roots",
    "fista",
    "CompositeObjective",
    "ConstraintTerm",
    "ProxTerm",
    "SmoothTerm",
    "soft_threshold",
]

__version__ = "0.1.0"

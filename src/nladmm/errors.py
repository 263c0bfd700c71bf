"""Exception types shared across the solver modules."""


class SolverError(Exception):
    """Base class for all solver failures; ``trace`` holds the rows a solve
    recorded before it failed, if any."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class DimensionMismatch(SolverError):
    """Operands of an operation have inconsistent dimensions."""


class SubproblemFailure(SolverError):
    """An inner subproblem solver returned a non-finite point."""


class NonFiniteIterate(SolverError):
    """NaN or Inf detected in an iterate; the solve is aborted."""


class NoCandidate(SolverError):
    """A closed-form update broke down numerically: its cubic's discriminant
    overflowed or is NaN."""

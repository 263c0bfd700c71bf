"""Exception types shared across the solver modules."""


class SolverError(Exception):
    """Base class for all solver failures."""


class DimensionMismatch(SolverError):
    """Operands of an operation have inconsistent dimensions."""


class SubproblemFailure(SolverError):
    """An inner subproblem solver returned a non-finite point."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class NonFiniteIterate(SolverError):
    """NaN or Inf detected in an iterate; the solve is aborted."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class NoCandidate(SolverError):
    """A closed-form update broke down numerically: its cubic's discriminant
    overflowed or is NaN."""


class MissingReference(SolverError):
    """A diagnostic needs a known optimum that was not supplied."""

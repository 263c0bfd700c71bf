"""Exception types shared across the solver modules."""


class SolverError(Exception):
    """Base class for all solver failures. ``trace`` holds the rows a solve
    recorded before it failed: every error that ``engine.iterate`` raises
    or renames carries them, and one raised outside a solve has none."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class DimensionMismatch(SolverError):
    """Operands of an operation have inconsistent dimensions."""


class SubproblemFailure(SolverError):
    """A block could not produce its update: it returned a non-finite value
    or its solver failed."""


class NonFiniteIterate(SolverError):
    """NaN or Inf detected in an iterate; the solve is aborted."""

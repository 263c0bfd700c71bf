"""Alternating-direction solvers for problems with nonlinear equality
constraints f1(x1) + f2(x2) = 0, with application solvers for spherical
constraints (1-bit compressive sensing) and max-rule multi-instance
learning, plus convergence diagnostics; import each name from its module."""

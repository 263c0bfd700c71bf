"""Independent correctness checks for every solve the benchmark makes.

Each check recomputes what it needs from the raw arrays with its own code
(or compares against a closed-form optimum) and returns ``None`` when the
output is correct, otherwise a one-line reason. Nothing here imports the
solver package, so a fault in the package cannot hide itself.
"""

from __future__ import annotations

import csv
import math

import numpy as np

SPHERE_TOL = 1e-3
MIL_TOL = 1e-2
SCALAR_TOL = 1e-3
SCALAR_MAX_ITER = 30
BOUND_SLACK = 1e-8
LYAPUNOV_SLACK = 1e-12

SCALAR_OPTIMUM = {"example1": 0.5, "example2": -math.sqrt(2.0)}


def onebit_objective(w: np.ndarray, z: np.ndarray, lam: float) -> float:
    """||w||_1 + (lam/2) sum min(z, 0)^2."""
    neg = np.minimum(z, 0.0)
    return float(np.sum(np.abs(w)) + 0.5 * lam * float(neg @ neg))


def check_onebit(Phi: np.ndarray, y_sign: np.ndarray, lam: float,
                 x_true: np.ndarray, x0: np.ndarray, x: np.ndarray,
                 w: np.ndarray, z: np.ndarray, baseline_seed: int):
    """The final x lies on the sphere, the objective fell below its value at
    the matched-filter start, and x correlates with the true signal better
    than a seeded random unit vector does."""
    sphere = abs(float(x @ x) - 1.0)
    if not sphere <= SPHERE_TOL:
        return f"off the sphere: |‖x‖²-1| = {sphere:.3e}"
    start = onebit_objective(x0, (y_sign[:, None] * Phi) @ x0, lam)
    final = onebit_objective(w, z, lam)
    if not final < start:
        return f"objective did not decrease: {final:.6g} >= {start:.6g}"
    corr = abs(float(x @ x_true)) / float(np.linalg.norm(x))
    b = np.random.default_rng(baseline_seed).standard_normal(x_true.size)
    baseline = abs(float(b @ x_true)) / float(np.linalg.norm(b))
    if not corr > baseline:
        return f"correlation {corr:.4f} not above random baseline {baseline:.4f}"
    return None


def _bag_rows(offsets: np.ndarray):
    for i in range(len(offsets) - 1):
        yield i, int(offsets[i]), int(offsets[i + 1])


def check_mil(X: np.ndarray, offsets: np.ndarray, labels: np.ndarray,
              q: np.ndarray, beta: np.ndarray, t: np.ndarray):
    """Primal residual and max-rule gap recomputed bag by bag, and every
    bag classified by the max rule with the learned weights."""
    scores = X @ beta
    r1_sq, gap = 0.0, 0.0
    for i, a, b in _bag_rows(offsets):
        d = float(q[i]) - max(float(v) for v in t[a:b])
        r1_sq += d * d
        gap = max(gap, abs(d))
        predicted = 1.0 if max(float(v) for v in scores[a:b]) > 0.0 else 0.0
        if predicted != labels[i]:
            return f"bag {i} labelled {labels[i]:g} but its max score gives {predicted:g}"
    r2 = t - scores
    residual = math.sqrt(r1_sq + float(r2 @ r2))
    if not residual <= MIL_TOL:
        return f"primal residual {residual:.3e} > {MIL_TOL}"
    if not gap <= MIL_TOL:
        return f"max-rule gap max|q - max t| = {gap:.3e} > {MIL_TOL}"
    return None


def check_same_bags(generated, reloaded):
    """The CSV round trip returned exactly the dataset that was written."""
    for field in ("labels", "X", "offsets"):
        a, b = getattr(generated, field), getattr(reloaded, field)
        if a.shape != b.shape or not np.array_equal(a, b):
            return f"reloaded {field} differ from the generated dataset"
    return None


def read_trace_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_scalar(which: str, rows, x1: float, x2: float, diagnosed: bool):
    """The last objective in the trace is at the closed-form optimum, the
    final iterate satisfies the constraint within 30 iterations and, on a
    diagnosed run, the gap stays under its bound and the Lyapunov value
    never goes up."""
    if not 1 <= len(rows) <= SCALAR_MAX_ITER:
        return f"{len(rows)} trace rows, expected 1..{SCALAR_MAX_ITER}"
    p_err = abs(float(rows[-1]["objective"]) - SCALAR_OPTIMUM[which])
    if not p_err <= SCALAR_TOL:
        return f"last objective off the optimum by {p_err:.3e}"
    if which == "example1":
        residual = math.sqrt(max(x1, 0.0)) + math.sqrt(max(x2, 0.0)) - 1.0
    else:
        residual = x1 * x1 + x2 * x2 - 1.0
    if not abs(residual) <= SCALAR_TOL:
        return f"primal residual {abs(residual):.3e} > {SCALAR_TOL}"
    if diagnosed:
        previous = math.inf
        for row in rows:
            bound, gap, lyap = (float(row["bound"]), float(row["gap"]),
                                float(row["lyapunov"]))
            if not gap <= bound + BOUND_SLACK:
                return f"iteration {row['iter']}: gap {gap:.3e} above bound {bound:.3e}"
            if not lyap <= previous + LYAPUNOV_SLACK:
                return f"iteration {row['iter']}: Lyapunov value rose to {lyap:.3e}"
            previous = lyap
    return None

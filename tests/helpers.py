"""Independent oracles used by the tests.

These deliberately avoid the library's own closed-form solvers: the bag
subproblem oracle enumerates averaging-block sizes and polishes with
coordinate descent, the sphere-penalty oracle reduces to one scalar
variable and combines a dense grid with a derivative-free polish, and
``golden_section_min`` is a bracketed scalar minimizer for the scalar block
updates, and ``lasso_brute_force`` solves the l1-regularized quadratic
subproblems of the block updates by trying every sign pattern;
``lasso_kkt_violation`` measures how far a point is from optimal for such a
subproblem. ``record_duals`` records the dual each scalar-example solve
hands its x1 block, and ``read_trace`` reads a trace CSV back.
``onebit_reference`` and ``maxop_reference`` run the 1-bit CS and the
multi-instance iterations as plain loops with no engine; ``solve_mil``
runs ``maxop_solve`` with the logistic loss, ||beta||_1 and the zero start.
``quadratic_term`` is a FISTA test objective, ``linear_constraint`` the
constraint map x -> A x, and ``diagnostics_oracle`` evaluates the
diagnostics rows from the engine's own duals, map by map;
``diagnose_loop`` is ``diagnose_result`` as a loop over the trace, row by
row.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
from typing import Callable, List

import numpy as np
from scipy.optimize import minimize_scalar

from nladmm.diagnostics import DiagnosticsRow
from nladmm.engine import TraceRow
from nladmm.errors import SolverError
from nladmm.inner import cubic_real_roots, lasso_active_set
from nladmm.maxop import MaxOpState, maxop_solve, t_update_bag
from nladmm.terms import (ConstraintTerm, CompositeObjective, SmoothTerm, l1_term,
                          logistic_loss, zero_prox)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_GOLDEN_STEPS = 200


class InvalidBracket(SolverError):
    """Bracketed scalar minimization called with lo >= hi."""


def golden_section_min(f: Callable[[float], float], lo: float, hi: float,
                       tol: float = 1e-8) -> float:
    """Minimizer of f on [lo, hi] localized to an interval of width <= tol.

    Guaranteed optimal for unimodal f; otherwise returns a local minimizer
    within the bracket. Each step keeps the fraction _GOLDEN of the
    bracket, so the loop runs at most one step more than width and tol
    imply, and never more than _MAX_GOLDEN_STEPS: rounding can keep the
    width above a tol below the float spacing forever.
    """
    if not (lo < hi and math.isfinite(hi - lo)):
        raise InvalidBracket(f"invalid bracket [{lo}, {hi}]")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    steps = math.ceil((math.log(tol) - math.log(hi - lo)) / math.log(_GOLDEN)) + 1
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(min(steps, _MAX_GOLDEN_STEPS)):
        if b - a <= tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def read_trace(path) -> List[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return [{k: (int(v) if k == "iter" else float(v)) for k, v in row.items()}
                for row in reader]


def bag_subproblem_value(psi: float, phi: np.ndarray, t: np.ndarray) -> float:
    d = t - phi
    return (psi - float(np.max(t))) ** 2 + float(d @ d)


def _coordinate_descent(psi: float, phi: np.ndarray, t0: np.ndarray,
                        sweeps: int = 200) -> np.ndarray:
    """Exact coordinate minimization of (psi - max t)^2 + ||t - phi||^2.

    For each coordinate the others are fixed; the best value is either phi_j
    (when it stays below the max of the rest), the average (phi_j + psi)/2
    (when it becomes the max), or the max of the rest itself.
    """
    t = t0.astype(float).copy()
    n = t.size
    for _ in range(sweeps):
        changed = False
        for j in range(n):
            rest = np.delete(t, j)
            m_rest = float(np.max(rest)) if rest.size else -np.inf
            candidates = []
            if phi[j] <= m_rest:
                candidates.append(phi[j])  # j not the max
            avg = 0.5 * (phi[j] + psi)
            if avg >= m_rest:
                candidates.append(avg)  # j is the max
            candidates.append(m_rest)  # tie with the rest
            best = min(candidates,
                       key=lambda v: bag_subproblem_value(
                           psi, phi, np.concatenate([t[:j], [v], t[j + 1:]])))
            if best != t[j]:
                t[j] = best
                changed = True
        if not changed:
            break
    return t


def bag_subproblem_oracle(psi: float, phi: np.ndarray) -> float:
    """Best objective value found by enumeration plus coordinate descent."""
    phi = np.asarray(phi, dtype=float)
    n = phi.size
    order = np.argsort(-phi)
    sorted_phi = phi[order]
    best = np.inf
    for c in range(1, n + 1):
        a = (float(np.sum(sorted_phi[:c])) + psi) / (c + 1.0)
        t_sorted = sorted_phi.copy()
        t_sorted[:c] = a
        t = np.empty_like(t_sorted)
        t[order] = t_sorted
        for start in (t, phi.copy()):
            refined = _coordinate_descent(psi, phi, start)
            best = min(best, bag_subproblem_value(psi, phi, refined))
        best = min(best, bag_subproblem_value(psi, phi, t))
    return best


def sphere_penalty_value(w: np.ndarray, v: np.ndarray, alpha: float) -> float:
    d = w - v
    s = float(w @ w) - 1.0 + alpha
    return float(d @ d) + s * s


def sphere_penalty_oracle(v: np.ndarray, alpha: float,
                          grid_points: int = 400) -> float:
    """Best objective of ||w - v||^2 + (||w||^2 - 1 + alpha)^2.

    The minimizer is collinear with v (for fixed norm, the distance term
    prefers the direction of v), so the search is over the signed scalar
    coordinate along v. A dense grid localizes candidates and a bounded
    scalar minimizer polishes each local basin.
    """
    v = np.asarray(v, dtype=float)
    m = float(np.linalg.norm(v))
    direction = v / m if m > 0 else np.zeros_like(v)
    if m == 0:
        direction = np.zeros_like(v)
        if v.size:
            direction[0] = 1.0

    def scalar_obj(s: float) -> float:
        return sphere_penalty_value(s * direction, v, alpha)

    hw = m + abs(alpha) + 3.0
    grid = np.linspace(-hw, hw, grid_points)
    vals = np.array([scalar_obj(s) for s in grid])
    best = float(np.min(vals))
    # Polish every local basin of the grid.
    for i in range(1, grid_points - 1):
        if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]:
            res = minimize_scalar(scalar_obj, bounds=(grid[i - 1], grid[i + 1]),
                                  method="bounded",
                                  options={"xatol": 1e-12})
            best = min(best, float(res.fun))
    return best


def lasso_value(G: np.ndarray, c: np.ndarray, mu: float, x: np.ndarray) -> float:
    """(1/2) x'Gx - c'x + mu ||x||_1."""
    return 0.5 * float(x @ G @ x) - float(c @ x) + mu * float(np.abs(x).sum())


def lasso_brute_force(G: np.ndarray, c: np.ndarray, mu: float) -> np.ndarray:
    """argmin_x (1/2) x'Gx - c'x + mu ||x||_1 for symmetric positive definite
    G and p <= 5, by enumeration: for each of the 3^p sign patterns theta,
    the stationary point of the quadratic with those signs fixed (zero off
    the support), kept if its signs are theta; the lowest objective wins.
    The minimizer is one of these points, so no iteration is involved."""
    G = np.asarray(G, dtype=float)
    c = np.asarray(c, dtype=float)
    if c.size > 5:
        raise ValueError("brute force is for p <= 5")
    best, best_value = None, math.inf
    for theta in itertools.product((-1.0, 0.0, 1.0), repeat=c.size):
        theta = np.array(theta)
        support = np.flatnonzero(theta)
        x = np.zeros(c.size)
        x[support] = np.linalg.solve(G[np.ix_(support, support)],
                                     c[support] - mu * theta[support])
        if np.array_equal(np.sign(x), theta):
            value = lasso_value(G, c, mu, x)
            if value < best_value:
                best, best_value = x, value
    return best


def lasso_kkt_violation(G: np.ndarray, c: np.ndarray, mu: float, x: np.ndarray) -> float:
    """Largest violation of the optimality conditions of (1/2) x'Gx - c'x
    + mu ||x||_1, with g = Gx - c: |g_j + mu sign(x_j)| where x_j != 0 and
    |g_j| - mu where x_j = 0, relative to ||c||_inf + mu + max|G| ||x||_1,
    the size of the terms that g + mu sign(x) sums. The scale is at least
    the smallest normal float: below it, x = c/G can underflow to zero."""
    g = G @ x - c
    nz = x != 0.0
    worst = max(float(np.max(np.abs(g[nz] + mu * np.sign(x[nz])), initial=0.0)),
                float(np.max(np.abs(g[~nz]) - mu, initial=0.0)))
    scale = float(np.max(np.abs(c), initial=0.0)) + mu + float(np.max(np.abs(G))) * float(
        np.abs(x).sum())
    return worst / max(scale, float(np.finfo(float).tiny))


def record_duals(monkeypatch, module) -> list:
    """Wrap ``module.build_example`` (the scalar examples) so that every
    solve of a built problem appends to the returned list a copy of the
    dual its x1 block receives: y^0, ..., y^{K-1} of a K-iteration run,
    straight from the engine. Append ``result.state.y`` for y^K."""
    build = module.build_example
    ys = []

    def recording_build(which):
        problem = build(which)

        def solve_x1(x1, x2, y, rho):
            ys.append(np.array(y, dtype=float))
            return problem.solve_x1(x1, x2, y, rho)

        return dataclasses.replace(problem, solve_x1=solve_x1)

    monkeypatch.setattr(module, "build_example", recording_build)
    return ys


def vi_sequences(f1, f2, x1_history, x2_history, ys, rho: float):
    """The stacked w^k = (f1(x1^k), f2(x2^k), y^k), k = 0..K, and the
    predicted w~^k = (f1(x1^{k+1}), f2(x2^{k+1}), y^k + rho (f1(x1^{k+1})
    + f2(x2^k))), k = 0..K-1, of the variational-inequality analysis."""
    f1s = [f1.eval(x) for x in x1_history]
    f2s = [f2.eval(x) for x in x2_history]
    w = [np.concatenate([a, b, y]) for a, b, y in zip(f1s, f2s, ys)]
    w_tilde = [np.concatenate([f1s[k + 1], f2s[k + 1], ys[k] + rho * (f1s[k + 1] + f2s[k])])
               for k in range(len(ys) - 1)]
    return w, w_tilde


def quadratic_term(weight: float, center: np.ndarray) -> SmoothTerm:
    """(weight/2) ||x - center||^2, whose gradient has Lipschitz constant
    ``weight``."""
    c = np.asarray(center, dtype=float)
    return SmoothTerm(value=lambda x: 0.5 * weight * float(np.dot(x - c, x - c)),
                      gradient=lambda x: weight * (x - c))


def linear_constraint(A: np.ndarray) -> ConstraintTerm:
    A = np.asarray(A, dtype=float)
    return ConstraintTerm(eval=lambda x: A @ x, jacobian=lambda x: A)


def diagnostics_oracle(trace, ref, f1, f2, x1_history, x2_history, ys) -> list:
    """(bound, gap, lyapunov, vi_norm) of each trace row k, on
    (x1, x2, y)^{k+1} with y^0, ..., y^K the duals the engine used
    (``record_duals`` plus ``result.state.y``), each map evaluated afresh:

        bound    = rho eps ||f2(x2^{k+1}) - f2(x2^k)||_1 - y^{k+1} . r^{k+1}
        gap      = p^{k+1} - p*
        lyapunov = rho ||f2(x2^{k+1}) - f2(x2*)||^2 + ||y^{k+1} - y*||^2 / rho
        vi_norm  = rho ||b||^2 + ||rho b + c||^2 / rho

    with eps = ||f1(x1^{k+1}) - f1(x1*)||_inf, r = f1(x1) + f2(x2),
    b = f2(x2^k) - f2(x2^{k+1}) and c = -rho (f1(x1^{k+1}) + f2(x2^k))."""
    rows = []
    for k, tr in enumerate(trace):
        x1, x2, y, rho = x1_history[k + 1], x2_history[k + 1], ys[k + 1], tr.rho
        eps = float(np.max(np.abs(f1.eval(x1) - f1.eval(ref.x1_star))))
        delta_f2 = f2.eval(x2) - f2.eval(x2_history[k])
        r = f1.eval(x1) + f2.eval(x2)
        bound = rho * eps * float(np.sum(np.abs(delta_f2))) - float(y @ r)
        d2 = f2.eval(x2) - f2.eval(ref.x2_star)
        dy = y - np.asarray(ref.y_star, dtype=float)
        b = f2.eval(x2_history[k]) - f2.eval(x2)
        c = -rho * (f1.eval(x1) + f2.eval(x2_history[k]))
        e = rho * b + c
        rows.append((bound, float(tr.objective) - ref.p_star,
                     float(rho * (d2 @ d2) + (dy @ dy) / rho),
                     rho * float(b @ b) + float(e @ e) / rho))
    return rows


def diagnose_loop(result, ref, f1, f2, x1_history, x2_history) -> list:
    """``diagnostics.diagnose_result`` as a loop over the trace, one
    ``DiagnosticsRow`` at a time from the last row back, stepping the dual
    back from the final one as it goes, with each row's values formed on
    1-D arrays in the order of operations ``diagnose_result`` uses."""
    rho = result.trace[0].rho
    F1 = [f1.eval(x) for x in x1_history]
    F2 = [f2.eval(x) for x in x2_history]
    f1_star, f2_star = f1.eval(ref.x1_star), f2.eval(ref.x2_star)
    y_star = np.asarray(ref.y_star, dtype=float)
    rows = []
    y = np.asarray(result.state.y, dtype=float)
    for i in range(len(result.trace) - 1, -1, -1):
        tr = result.trace[i]
        r = F1[i + 1] + F2[i + 1]
        b = F2[i] - F2[i + 1]
        c = -rho * (F1[i + 1] + F2[i])
        e = rho * b + c
        vi_norm = rho * float(b @ b) + float(e @ e) / rho
        eps = float(np.max(np.abs(F1[i + 1] - f1_star)))
        bound = rho * eps * float(np.sum(np.abs(b))) - float(y @ r)
        d2 = F2[i + 1] - f2_star
        dy = y - y_star
        rows.append(DiagnosticsRow(k=tr.k, bound=bound, gap=float(tr.objective) - ref.p_star,
                                   lyapunov=float(rho * (d2 @ d2) + (dy @ dy) / rho),
                                   vi_norm=vi_norm))
        y = y - rho * r
    return rows[::-1]


def onebit_reference(problem, init, schedule, stop):
    """``sphere.onebit_solve`` as one plain loop with no engine: each block
    formula, dual step, norm and stopping test written out, every M v and
    y/rho formed where it is used. Returns the final x, w, z, v and
    y1-y4 as a dict, and the trace rows."""
    M = problem.signed_matrix
    K = np.linalg.inv(M.T @ M + 2.0 * np.eye(M.shape[1]))
    x, w, z, v, y2, y3, y4 = (np.array(a, dtype=float) for a in (
        init.x, init.w, init.z, init.v, init.y2, init.y3, init.y4))
    y1 = float(init.y1)
    trace = []
    for k in range(stop.max_iter):
        rho = schedule.at(k)
        z_old, v_old, w_old = z, v, w
        # x: the largest root t of t^3 + (y1/rho - 1/2) t - |a|/2 along a.
        a = v + y3 / rho
        norm_a = float(np.linalg.norm(a))
        x = cubic_real_roots(y1 / rho - 0.5, -0.5 * norm_a)[-1] * (a / norm_a)
        z = M @ v + y2 / rho
        neg = z < 0.0
        z[neg] = rho * z[neg] / (problem.lam + rho)
        v = K @ (M.T @ (z - y2 / rho) + (x - y3 / rho) + (w + y4 / rho))
        u = v - y4 / rho
        w = np.sign(u) * np.maximum(np.abs(u) - 1.0 / rho, 0.0)
        r1, r2, r3, r4 = float(x @ x) - 1.0, M @ v - z, v - x, w - v
        y1, y2, y3, y4 = y1 + rho * r1, y2 + rho * r2, y3 + rho * r3, y4 + rho * r4
        r_norm = math.sqrt(r1 * r1 + r2 @ r2 + r3 @ r3 + r4 @ r4)
        dz, dv, dw = z - z_old, v - v_old, w - w_old
        s_norm = rho * float(np.sqrt(dz @ dz + dv @ dv + dw @ dw))
        objective = float(np.sum(np.abs(w))
                          + 0.5 * problem.lam * np.sum(np.minimum(z, 0.0) ** 2))
        trace.append(TraceRow(k=k, objective=objective, r_norm=r_norm,
                              s_norm=s_norm, rho=rho))
        if r_norm <= stop.tol_primal and s_norm <= stop.tol_dual:
            break
    state = dict(x=x, w=w, z=z, v=v, y1=y1, y2=y2, y3=y3, y4=y4)
    return state, trace


def maxop_reference(data, lam, init, schedule, stop):
    """``maxop.maxop_solve`` with the logistic loss and lam ||beta||_1 as one
    plain loop with no engine: q by the loss's prox, started after the
    first iteration one Newton step from the last root with the slope that
    prox reports, beta by ``lasso_active_set`` on ``data.gram`` with one
    dict of active-set inverses for the loop, t by ``t_update_bag`` bag by
    bag, and every bag maximum, residual, dual step, norm and stopping test
    written out, with s = ||(rho (tmax^k - tmax^{k+1}), t^{k+1} - t^k)||.
    Returns the final q, beta, t, y1 and y2 as a dict, and the trace rows."""
    loss = logistic_loss(data.labels)
    G, delta = data.gram
    q, beta, t, y1, y2 = (np.array(a, dtype=float) for a in (
        init.q, init.beta, init.t, init.y1, init.y2))
    slope, factors = np.full(q.size, np.nan), {}
    trace = []
    for k in range(stop.max_iter):
        rho = schedule.at(k)
        t_old, tmax_old = t, data.bag_max(t)
        scaled = rho * tmax_old - y1  # rho times the center
        q0 = q
        if k > 0:
            guess = q + (scaled - scaled_prev - (rho - rho_prev) * q) / (
                slope + (rho - rho_prev))
            q0 = np.where(np.isfinite(guess), guess, q)
        q = loss.prox(tmax_old - y1 / rho, rho, q0, slope)
        scaled_prev, rho_prev = scaled, rho
        c = data.X.T @ (t + y2 / rho)
        if delta > 0.0:
            c = c + delta * beta
        beta = lasso_active_set(G, c, lam / rho, beta, factors)
        xbeta = data.X @ beta
        psi, phi = q + y1 / rho, xbeta - y2 / rho
        t = np.concatenate([t_update_bag(psi[i], phi[sl])
                            for i, sl in enumerate(data.bag_slices())])
        tmax = data.bag_max(t)
        r1, r2 = q - tmax, t - xbeta
        y1, y2 = y1 + rho * r1, y2 + rho * r2
        r_norm = math.sqrt(r1 @ r1 + r2 @ r2)
        s1, s2 = rho * (tmax_old - tmax), t - t_old
        s_norm = math.sqrt(s1 @ s1 + s2 @ s2)
        objective = loss.value(q) + lam * float(np.abs(beta).sum())
        trace.append(TraceRow(k=k, objective=objective, r_norm=r_norm,
                              s_norm=s_norm, rho=rho))
        if r_norm <= stop.tol_primal and s_norm <= stop.tol_dual:
            break
    return dict(q=q, beta=beta, t=t, y1=y1, y2=y2), trace


def solve_mil(data, schedule, stop):
    """``maxop.maxop_solve`` with the logistic loss, ||beta||_1 (lam = 1) and
    the zero start ``MaxOpState.zeros(data, schedule.rho0)``."""
    loss = CompositeObjective(logistic_loss(data.labels), zero_prox())
    return maxop_solve(data, loss, l1_term(1.0), MaxOpState.zeros(data, schedule.rho0),
                       schedule, stop)

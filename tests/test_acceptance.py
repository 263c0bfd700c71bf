"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line with the measured margin."""

import time

import numpy as np

from helpers import (
    bag_subproblem_oracle,
    bag_subproblem_value,
    linear_constraint,
    record_duals,
    solve_mil,
    sphere_penalty_oracle,
    sphere_penalty_value,
    vi_sequences,
)
from nladmm import datagen, maxop, scalar_examples as se, sphere
from nladmm.diagnostics import diagnose_result, vi_matrices
from nladmm.engine import IterateState, Problem, RhoSchedule, StopCriteria, solve
from nladmm.terms import ConstraintTerm

SCHEDULES = {"constant": RhoSchedule.constant(1.0),
             "increment": RhoSchedule.increment(1.0, 0.1)}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_example_convergence():
    worst_p, worst_r = 0.0, 0.0
    ok = True
    for which in (se.EXAMPLE_SQRT, se.EXAMPLE_CIRCLE):
        ref = se.example_reference(which)
        for name, schedule in SCHEDULES.items():
            run = se.run_example(which, schedule, max_iter=30)
            last = run.result.trace[-1]
            p_err = abs(last.objective - ref.p_star)
            ok &= len(run.result.trace) <= 30 and p_err <= 1e-3 and last.r_norm <= 1e-3
            worst_p = max(worst_p, p_err)
            worst_r = max(worst_r, last.r_norm)
    _report(1, ok, f"both examples, both schedules, <=30 iterations: "
                   f"max |p-p*|={worst_p:.2e}, max ||r||={worst_r:.2e}")


def test_criterion_2_t_update_exactness():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst_gap = 0.0
    mono_ok = True
    for _ in range(500):
        n = int(rng.integers(1, 7))
        phi = rng.standard_normal(n) * rng.uniform(0.3, 4.0)
        psi = float(rng.standard_normal() * rng.uniform(0.3, 4.0))
        t = maxop.t_update_bag(psi, phi)
        h = bag_subproblem_value(psi, phi, t)
        worst_gap = max(worst_gap, h - bag_subproblem_oracle(psi, phi))
        # h restricted to averaging the top-c sorted block (with the block
        # value taken as the bag max) is nondecreasing in c.
        sp = np.sort(phi)[::-1]
        hs = []
        for c in range(1, n + 1):
            a = (float(np.sum(sp[:c])) + psi) / (c + 1.0)
            hs.append((psi - a) ** 2 + float(np.sum((a - sp[:c]) ** 2)))
        mono_ok &= all(b >= a - 1e-12 for a, b in zip(hs, hs[1:]))
    ok = worst_gap <= 1e-9 and mono_ok
    _report(2, ok, f"500 random bags: max h-gap to oracle={worst_gap:.2e}, "
                   f"block-average monotone={mono_ok} "
                   f"({time.time() - start:.1f}s)")


def test_criterion_3_w_update_optimality():
    rng = np.random.default_rng(31)
    start = time.time()
    worst_gap, worst_stat = -np.inf, 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        v = rng.standard_normal(n) * rng.uniform(0.05, 3.0)
        alpha = float(rng.uniform(-2.0, 2.0))
        w = sphere.sphere_penalty_min(v, alpha)
        obj = sphere_penalty_value(w, v, alpha)
        worst_gap = max(worst_gap, obj - sphere_penalty_oracle(v, alpha))
        g = 2.0 * (w - v) + 4.0 * (float(w @ w) - 1.0 + alpha) * w
        worst_stat = max(worst_stat,
                         float(np.linalg.norm(g)) / (1.0 + float(np.linalg.norm(v))))
    ok = worst_gap <= 1e-6 and worst_stat <= 1e-6
    _report(3, ok, f"1000 random inputs: max objective gap={worst_gap:.2e}, "
                   f"max scaled stationarity residual={worst_stat:.2e} "
                   f"({time.time() - start:.1f}s)")


def _example_diagnostics(which):
    run = se.run_example(which, RhoSchedule.constant(1.0))
    ref = se.example_reference(which)
    problem = se.build_example(which)
    return diagnose_result(run.result, ref, problem.f1, problem.f2,
                           run.x1_history, run.x2_history), run


def test_criterion_4_error_bound():
    worst = -np.inf
    ok = True
    for which in (se.EXAMPLE_SQRT, se.EXAMPLE_CIRCLE):
        rows, _ = _example_diagnostics(which)
        for r in rows:
            worst = max(worst, r.gap - r.bound)
            ok &= r.gap <= r.bound + 1e-8
    _report(4, ok, f"objective gap <= bound at every iteration on both examples; "
                   f"max (gap - bound)={worst:.2e}")


def test_criterion_5_lyapunov_descent():
    worst = -np.inf
    ok = True
    for which in (se.EXAMPLE_SQRT, se.EXAMPLE_CIRCLE):
        rows, _ = _example_diagnostics(which)
        V = [r.lyapunov for r in rows]
        for a, b in zip(V, V[1:]):
            worst = max(worst, b - a)
            ok &= b <= a + 1e-8
    _report(5, ok, f"Lyapunov value nonincreasing on both examples; "
                   f"max increase={worst:.2e}")


def test_criterion_6_vi_properties(monkeypatch):
    min_eig = np.inf
    for d in (1, 2, 5, 10):
        for rho in (0.1, 1.0, 10.0):
            mats = vi_matrices(d, rho)
            assert np.array_equal(mats.C, mats.D @ mats.E)
            min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(mats.G))))
    worst_increase, worst_identity = -np.inf, 0.0
    ys = record_duals(monkeypatch, se)
    for which in (se.EXAMPLE_SQRT, se.EXAMPLE_CIRCLE):
        ys.clear()
        rows, run = _example_diagnostics(which)
        vals = [r.vi_norm for r in rows]
        for a, b in zip(vals, vals[1:]):
            worst_increase = max(worst_increase, b - a)
        # The engine's own duals: those its x1 block received, then the final one.
        problem = se.build_example(which)
        w, w_tilde = vi_sequences(problem.f1, problem.f2, run.x1_history,
                                  run.x2_history, ys + [run.result.state.y], 1.0)
        mats = vi_matrices(1, 1.0)
        for k, wt in enumerate(w_tilde):
            step = mats.E @ (w[k] - wt)
            worst_identity = max(worst_identity,
                                 float(np.linalg.norm(w[k + 1] - w[k] + step)))
    ok = (min_eig >= -1e-10 and worst_increase <= 1e-10
          and worst_identity <= 1e-8)
    _report(6, ok, f"G PSD (min eig={min_eig:.1e}), C=DE exact, contraction "
                   f"max increase={worst_increase:.1e}, update-identity "
                   f"residual={worst_identity:.1e}")


def test_criterion_7_onebit_cs_desk_scale():
    start = time.time()
    ok = True
    min_margin = np.inf
    max_sphere = 0.0
    for m in (32, 64, 128):
        for seed in range(10):
            problem, x_true = datagen.generate_onebit(128, m, 16, seed, lam=10.0)
            init = sphere.OneBitCsState.matched_filter(problem, 1000.0)
            state, trace, _ = sphere.onebit_solve(
                problem, init, RhoSchedule.constant(1000.0),
                StopCriteria(max_iter=100))
            sph = abs(float(state.x @ state.x) - 1.0)
            init_obj = problem.objective(init.w, init.z)
            xn = state.x / np.linalg.norm(state.x)
            corr = abs(float(xn @ x_true))
            rng = np.random.default_rng(seed + 1)
            b = rng.standard_normal(128)
            b /= np.linalg.norm(b)
            baseline = abs(float(b @ x_true))
            ok &= sph <= 1e-3 and trace[-1].objective < init_obj and corr > baseline
            min_margin = min(min_margin, corr - baseline)
            max_sphere = max(max_sphere, sph)
    _report(7, ok, f"30 runs (M in 32/64/128 x 10 seeds): max sphere "
                   f"residual={max_sphere:.1e}, min correlation margin over "
                   f"random baseline={min_margin:.3f} "
                   f"({time.time() - start:.0f}s)")


def test_criterion_8_multi_instance_desk_run():
    start = time.time()
    data, _ = datagen.generate_bags(20, 5, 4, seed=0)
    state, trace, _ = solve_mil(data, RhoSchedule.constant(0.1), StopCriteria(max_iter=1000))
    gap = float(np.max(np.abs(state.q - data.bag_max(state.t))))
    ok = trace[-1].r_norm <= 1e-2 and gap <= 1e-2 and len(trace) <= 1000
    _report(8, ok, f"20 bags, lambda=1, rho=0.1, {len(trace)} iterations: "
                   f"final ||r||={trace[-1].r_norm:.2e}, max-rule "
                   f"gap={gap:.2e} ({time.time() - start:.0f}s)")


def test_criterion_9_classic_admm_reduction():
    """With linear constraint maps the engine reproduces a directly coded
    two-block ADMM for quadratic objectives, iterate for iterate."""
    rng = np.random.default_rng(99)
    n = 5
    L1 = rng.standard_normal((n, n))
    P1 = L1 @ L1.T + n * np.eye(n)
    L2 = rng.standard_normal((n, n))
    P2 = L2 @ L2.T + n * np.eye(n)
    q1 = rng.standard_normal(n)
    q2 = rng.standard_normal(n)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    c = rng.standard_normal(n)
    rho = 1.7

    # Reference: textbook two-block ADMM on min F1 + F2 s.t. Ax + Bz = c.
    x_ref = np.zeros(n)
    z_ref = np.zeros(n)
    y_ref = np.zeros(n)
    ref_iterates = []
    for _ in range(30):
        rhs = -(q1 + A.T @ y_ref + rho * A.T @ (B @ z_ref - c))
        x_ref = np.linalg.solve(P1 + rho * A.T @ A, rhs)
        rhs = -(q2 + B.T @ y_ref + rho * B.T @ (A @ x_ref - c))
        z_ref = np.linalg.solve(P2 + rho * B.T @ B, rhs)
        y_ref = y_ref + rho * (A @ x_ref + B @ z_ref - c)
        ref_iterates.append((x_ref.copy(), z_ref.copy(), y_ref.copy()))

    # Engine formulation: f1 = Ax, f2 = Bz - c.
    f1 = linear_constraint(A)
    f2 = ConstraintTerm(eval=lambda z: B @ z - c, jacobian=lambda z: B)

    def solve_x1(x1, x2, y, rho_k):
        r = B @ x2 - c
        return np.linalg.solve(P1 + rho_k * A.T @ A,
                               -(q1 + A.T @ y + rho_k * A.T @ r))

    def solve_x2(x1, x2, y, rho_k):
        r = A @ x1 - c
        return np.linalg.solve(P2 + rho_k * B.T @ B,
                               -(q2 + B.T @ y + rho_k * B.T @ r))

    histories = []
    wrapped = Problem(
        F1=lambda x: 0.5 * float(x @ P1 @ x) + float(q1 @ x),
        F2=lambda z: 0.5 * float(z @ P2 @ z) + float(q2 @ z),
        f1=f1, f2=f2,
        solve_x1=lambda *a: histories.append(("x", solve_x1(*a)))
        or histories[-1][1],
        solve_x2=lambda *a: histories.append(("z", solve_x2(*a)))
        or histories[-1][1])
    init = IterateState(x1=np.zeros(n), x2=np.zeros(n), y=np.zeros(n), rho=rho)
    result = solve(wrapped, init, RhoSchedule.constant(rho),
                   StopCriteria(max_iter=30, tol_primal=1e-15, tol_dual=1e-15))

    xs = [v for tag, v in histories if tag == "x"]
    zs = [v for tag, v in histories if tag == "z"]
    worst = 0.0
    for k, (xr, zr, yr) in enumerate(ref_iterates[:len(xs)]):
        worst = max(worst, float(np.max(np.abs(xs[k] - xr))),
                    float(np.max(np.abs(zs[k] - zr))))
    ys = result.state.y
    worst = max(worst, float(np.max(np.abs(ys - ref_iterates[len(xs) - 1][2]))))
    ok = worst <= 1e-10 and len(xs) == 30
    _report(9, ok, f"engine vs independent two-block ADMM over 30 iterations: "
                   f"max iterate deviation={worst:.1e}")

import dataclasses

import numpy as np
import pytest

from helpers import vi_sequences
from nladmm import datagen, engine, maxop, sphere
from nladmm.engine import (
    IterateState,
    Problem,
    RhoSchedule,
    SolveResult,
    StopCriteria,
    solve,
)
from nladmm.errors import DimensionMismatch, NonFiniteIterate, SubproblemFailure
from nladmm.terms import (
    CompositeObjective,
    ConstraintTerm,
    l1_term,
    linear_constraint,
    logistic_loss,
    zero_prox,
)


def affine_constraint(A, c):
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    return ConstraintTerm(eval=lambda x: A @ x + c, jacobian=lambda x: A)


class TestRhoSchedule:
    def test_constant(self):
        s = RhoSchedule.constant(2.5)
        assert s.at(0) == 2.5
        assert s.at(100) == 2.5

    def test_increment(self):
        s = RhoSchedule.increment(1.0, 0.5)
        assert s.at(0) == 1.0
        assert s.at(4) == 3.0

    def test_monotone(self):
        s = RhoSchedule.increment(0.3, 0.01)
        vals = [s.at(k) for k in range(50)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("rho0,delta", [(0.0, 0.0), (-1.0, 0.0), (1.0, -0.1),
                                            (np.nan, 0.0), (np.inf, 0.0),
                                            (1.0, np.nan), (1.0, np.inf)])
    def test_invalid(self, rho0, delta):
        with pytest.raises(ValueError):
            RhoSchedule(rho0, delta)


class TestStopCriteria:
    def test_defaults(self):
        s = StopCriteria()
        assert s.tol_primal == 1e-6 and s.tol_dual == 1e-6 and s.max_iter == 1000

    @pytest.mark.parametrize("kw", [dict(tol_primal=0.0), dict(tol_dual=-1.0),
                                    dict(max_iter=0), dict(tol_primal=np.nan),
                                    dict(tol_dual=np.nan), dict(tol_primal=np.inf),
                                    dict(max_iter=2.5), dict(max_iter=np.nan)])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            StopCriteria(**kw)


def _one_iteration(f1, f2, x1, x2_old, x2_new, y0, rho):
    """One solve iteration from x2_old whose blocks return x1 and x2_new."""
    problem = Problem(F1=lambda x: 0.0, F2=lambda z: 0.0, f1=f1, f2=f2,
                      solve_x1=lambda *a: np.array(x1), solve_x2=lambda *a: np.array(x2_new))
    init = IterateState(x1=np.array(x1), x2=np.array(x2_old), y=np.array(y0), rho=rho)
    return solve(problem, init, RhoSchedule.constant(rho), StopCriteria(max_iter=1))


class TestDualUpdate:
    """The dual ascent step y + rho (f1(x1) + f2(x2)) of the engine's loop,
    on f1 = identity and f2 = z - 1."""

    F1, F2 = linear_constraint(np.eye(2)), affine_constraint(np.eye(2), [-1.0, -1.0])

    def test_hand_value(self):
        # y = (1, -1) + 2 * ((0.5, 0) + (1, 1.25) - 1) = (2, -0.5)
        x2 = [1.0, 1.25]
        result = _one_iteration(self.F1, self.F2, [0.5, 0.0], x2, x2, [1.0, -1.0], 2.0)
        assert np.allclose(result.state.y, [2.0, -0.5])

    def test_zero_residual_is_fixed_point(self):
        x2 = [0.75, -1.0]
        result = _one_iteration(self.F1, self.F2, [0.25, 2.0], x2, x2, [3.0, -2.0], 10.0)
        assert np.array_equal(result.state.y, [3.0, -2.0])
        assert result.converged and result.trace[0].r_norm == 0.0

    def test_dimension_mismatch(self):
        """A residual whose shape differs from its dual's stops the loop."""
        init = IterateState(x1=np.zeros(3), x2=np.zeros(3), y=np.zeros(2), rho=1.0)
        with pytest.raises(DimensionMismatch):
            engine.iterate(init, [], [("y", lambda s: s.x1)], lambda *a: 0.0,
                           lambda s: 0.0, RhoSchedule.constant(1.0), StopCriteria(max_iter=1))


class TestResiduals:
    """The residual norms of the trace, r = f1(x1) + f2(x2) and
    s = rho J1(x1)' (f2(x2) - f2(x2_old)), and r recomputed from the final
    state, which the dual step y + rho r also recovers."""

    def test_hand_values(self):
        # f1 = 2x, f2 = z - 1; x=1, z_new=0.5, z_old=2.
        f1 = linear_constraint([[2.0]])
        f2 = affine_constraint(np.eye(1), [-1.0])
        result = _one_iteration(f1, f2, [1.0], [2.0], [0.5], [0.0], 3.0)
        s = result.state
        r = f1.eval(s.x1) + f2.eval(s.x2)
        assert np.allclose(r, [1.5])  # 2*1 + (0.5 - 1)
        assert np.allclose(s.y / 3.0, r)
        assert result.trace[0].r_norm == pytest.approx(1.5)
        assert result.trace[0].s_norm == pytest.approx(9.0)  # |3 * 2 * (-0.5 - 1.0)|

    def test_zero_when_stationary(self):
        f1 = linear_constraint(np.eye(2))
        f2 = affine_constraint(-np.eye(2), [0.0, 0.0])
        x = [0.3, -0.4]
        result = _one_iteration(f1, f2, x, x, x, [0.0, 0.0], 5.0)
        s = result.state
        assert np.allclose(f1.eval(s.x1) + f2.eval(s.x2), 0.0)
        assert np.array_equal(s.y, [0.0, 0.0])
        assert result.trace[0].r_norm == 0.0 and result.trace[0].s_norm == 0.0


class TestJacobians:
    """Finite-difference consistency for every shipped constraint map."""

    def _check(self, term, points, tol=1e-5):
        h = 1e-7
        for x in points:
            x = np.asarray(x, dtype=float)
            J = term.jacobian(x)
            assert J.shape == (term.eval(x).size, x.size)
            for j in range(x.size):
                e = np.zeros_like(x)
                e[j] = h
                fd = (term.eval(x + e) - term.eval(x - e)) / (2 * h)
                assert np.allclose(J[:, j], fd, atol=tol), (x, j)

    def test_linear(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 2))
        self._check(linear_constraint(A), rng.standard_normal((5, 2)))

    def test_scalar_square(self):
        from nladmm.scalar_examples import _square_constraint
        self._check(_square_constraint(-1.0), [[0.5], [-2.0], [3.0]])

    def test_scalar_sqrt(self):
        from nladmm.scalar_examples import _sqrt_constraint
        self._check(_sqrt_constraint(0.0), [[0.25], [1.0], [4.0]])


class TestSolve:
    def _linear_problem(self):
        """min x^2 + z^2 s.t. x + z = 1; optimum (0.5, 0.5), y* = -1."""
        f1 = linear_constraint(np.eye(1))
        f2 = affine_constraint(np.eye(1), [-1.0])

        def solve_x1(x1, x2, y, rho):
            # argmin x^2 + y(x + z - 1) + rho/2 (x + z - 1)^2
            c = float(x2[0]) - 1.0
            return np.array([-(float(y[0]) + rho * c) / (2.0 + rho)])

        def solve_x2(x1, x2, y, rho):
            c = float(x1[0]) - 1.0
            return np.array([-(float(y[0]) + rho * c) / (2.0 + rho)])

        return Problem(F1=lambda x: float(x[0]) ** 2, F2=lambda z: float(z[0]) ** 2,
                       f1=f1, f2=f2, solve_x1=solve_x1, solve_x2=solve_x2)

    def test_converges_to_known_optimum(self):
        problem = self._linear_problem()
        init = IterateState(x1=np.zeros(1), x2=np.zeros(1), y=np.zeros(1), rho=1.0)
        result = solve(problem, init, RhoSchedule.constant(1.0),
                       StopCriteria(tol_primal=1e-10, tol_dual=1e-10, max_iter=500))
        assert result.converged
        assert result.state.x1[0] == pytest.approx(0.5, abs=1e-6)
        assert result.state.x2[0] == pytest.approx(0.5, abs=1e-6)
        assert result.state.y[0] == pytest.approx(-1.0, abs=1e-6)

    def test_feasible_start_stays(self):
        """From the optimum with the optimal dual, the first iteration has
        zero residuals and the solver stops immediately."""
        problem = self._linear_problem()
        init = IterateState(x1=np.array([0.5]), x2=np.array([0.5]),
                            y=np.array([-1.0]), rho=1.0)
        result = solve(problem, init, RhoSchedule.constant(1.0),
                       StopCriteria(tol_primal=1e-12, tol_dual=1e-12, max_iter=50))
        assert result.converged
        assert len(result.trace) == 1
        assert result.trace[0].r_norm <= 1e-12

    def test_trace_and_histories_shapes(self):
        problem = self._linear_problem()
        init = IterateState(x1=np.zeros(1), x2=np.zeros(1), y=np.zeros(1), rho=1.0)
        result = solve(problem, init, RhoSchedule.constant(1.0),
                       StopCriteria(max_iter=7, tol_primal=1e-14, tol_dual=1e-14))
        assert len(result.trace) == 7
        assert [row.k for row in result.trace] == list(range(7))
        # No iterate histories are kept: the diagnostics rebuild them.
        assert SolveResult._fields == ("state", "trace", "converged")

    def test_increment_schedule_recorded(self):
        problem = self._linear_problem()
        init = IterateState(x1=np.zeros(1), x2=np.zeros(1), y=np.zeros(1), rho=1.0)
        result = solve(problem, init, RhoSchedule.increment(1.0, 0.5),
                       StopCriteria(max_iter=4, tol_primal=1e-14, tol_dual=1e-14))
        assert [row.rho for row in result.trace] == [1.0, 1.5, 2.0, 2.5]

    def test_nonfinite_block_raises(self):
        problem = self._linear_problem()
        bad = Problem(F1=problem.F1, F2=problem.F2, f1=problem.f1, f2=problem.f2,
                      solve_x1=lambda *a: np.array([np.nan]),
                      solve_x2=problem.solve_x2)
        init = IterateState(x1=np.zeros(1), x2=np.zeros(1), y=np.zeros(1), rho=1.0)
        with pytest.raises(SubproblemFailure):
            solve(bad, init, RhoSchedule.constant(1.0), StopCriteria(max_iter=5))

    def test_dual_dimension_mismatch_raises(self):
        problem = self._linear_problem()
        init = IterateState(x1=np.zeros(1), x2=np.zeros(1), y=np.zeros(2), rho=1.0)
        with pytest.raises(DimensionMismatch):
            solve(problem, init, RhoSchedule.constant(1.0), StopCriteria(max_iter=5))

    def test_overflowing_rho_raises_before_blocks(self):
        """rho = 1 + k 1e308 is finite for k = 0 and 1 and overflows at
        k = 2, where the loop stops before any block runs."""
        seen = []

        def block(s, rho):
            seen.append(rho)
            return np.zeros(1)

        init = IterateState(x1=np.zeros(1), x2=np.zeros(1), y=np.zeros(1), rho=1.0)
        with pytest.raises(NonFiniteIterate, match="rho is inf at iteration 2") as e:
            engine.iterate(init, [("x1", block), ("x2", block)], [("y", lambda s: s.x1)],
                           lambda s, old, rho: 1.0, lambda s: 0.0,
                           RhoSchedule(1.0, 1e308), StopCriteria(max_iter=5))
        assert seen == [1.0, 1.0, 1e308, 1e308]
        assert len(e.value.trace) == 2

    def test_overflowing_dual_step_raises_without_warning(self):
        """At rho = 1e308 a residual of 10 overflows the dual step y + rho r.
        The loop raises NonFiniteIterate with no numpy RuntimeWarning first
        (pytest turns one into an error), and leaves numpy's error state as
        it found it."""
        before = np.geterr()
        init = IterateState(x1=np.zeros(1), x2=np.zeros(1), y=np.zeros(1), rho=1.0)
        with pytest.raises(NonFiniteIterate, match="dual variable y"):
            engine.iterate(init, [("x1", lambda s, rho: np.zeros(1))],
                           [("y", lambda s: np.full(1, 10.0))],
                           lambda s, old, rho: 1.0, lambda s: 0.0,
                           RhoSchedule.constant(1e308), StopCriteria(max_iter=5))
        assert np.geterr() == before

    def test_update_identity_along_run(self):
        """w^{k+1} = w^k - E (w^k - w~^k) with the diagnostics matrices, on
        the iterates and duals the engine hands its block solvers."""
        from nladmm.diagnostics import vi_matrices
        problem = self._linear_problem()
        x1s, x2s, ys = [np.zeros(1)], [np.zeros(1)], []

        def solve_x1(x1, x2, y, rho):
            ys.append(y.copy())
            x1s.append(problem.solve_x1(x1, x2, y, rho))
            return x1s[-1]

        def solve_x2(x1, x2, y, rho):
            x2s.append(problem.solve_x2(x1, x2, y, rho))
            return x2s[-1]

        recorded = dataclasses.replace(problem, solve_x1=solve_x1, solve_x2=solve_x2)
        init = IterateState(x1=np.zeros(1), x2=np.zeros(1), y=np.zeros(1), rho=2.0)
        result = solve(recorded, init, RhoSchedule.constant(2.0),
                       StopCriteria(max_iter=20, tol_primal=1e-14, tol_dual=1e-14))
        w, w_tilde = vi_sequences(problem.f1, problem.f2, x1s, x2s,
                                  ys + [result.state.y], 2.0)
        assert len(w_tilde) == len(result.trace) == 20
        mats = vi_matrices(d=1, rho=2.0)
        for k, wt in enumerate(w_tilde):
            step = mats.E @ (w[k] - wt)
            assert np.allclose(w[k + 1], w[k] - step, atol=1e-10)


def _run_onebit(stop):
    problem, _ = datagen.generate_onebit(16, 12, 4, seed=0, lam=10.0)
    M = problem.signed_matrix
    x0 = M.T @ np.ones(12)
    x0 /= np.linalg.norm(x0)
    init = sphere.OneBitCsState(x=x0.copy(), w=x0.copy(), z=M @ x0, y1=0.0,
                                y2=np.zeros(12), y3=np.zeros(16), rho=50.0)
    return sphere.onebit_solve(problem, init, RhoSchedule.constant(50.0), stop)


def _run_maxop(stop):
    data, _ = datagen.generate_bags(4, 2, 2, seed=5)
    loss = CompositeObjective(logistic_loss(data.labels), zero_prox())
    return maxop.maxop_solve(data, loss, l1_term(1.0), maxop.MaxOpState.zeros(data, 0.1),
                             RhoSchedule.constant(0.1), stop)


class TestApplicationSolvers:
    @pytest.mark.parametrize("run, module, attr, block", [
        (_run_onebit, sphere, "sphere_penalty_min", "x"),
        (_run_onebit, sphere, "onebit_update_w", "w"),
        (_run_maxop, maxop, "t_update_bags", "t"),
    ], ids=["onebit_solve_first_block", "onebit_solve", "maxop_solve"])
    def test_nonfinite_block_raises(self, monkeypatch, run, module, attr, block):
        """A NaN from the first or the last block update of an iteration
        stops the solve and names the block."""
        original = getattr(module, attr)
        monkeypatch.setattr(module, attr,
                            lambda *a, **kw: np.full_like(original(*a, **kw), np.nan))
        with pytest.raises(SubproblemFailure, match=f"in {block} block update"):
            run(StopCriteria(max_iter=1))

    @pytest.mark.parametrize("run", [_run_onebit, _run_maxop],
                             ids=["onebit_solve", "maxop_solve"])
    def test_returns_solve_result(self, run):
        """Every application solver returns the engine's SolveResult, which
        unpacks as (state, trace, converged)."""
        result = run(StopCriteria(max_iter=3))
        assert isinstance(result, SolveResult)
        state, trace, converged = result
        assert state is result.state and trace is result.trace
        assert converged is result.converged is False
        assert [row.k for row in trace] == [0, 1, 2]

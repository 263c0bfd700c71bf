import dataclasses
import math

import numpy as np
import pytest

from helpers import linear_constraint, record_duals, vi_sequences
from nladmm import datagen, engine, maxop, sphere
from nladmm import scalar_examples as se
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

    @pytest.mark.parametrize("field", ["x1", "x2", "y"])
    def test_misshapen_start_raises_before_blocks(self, field):
        """On example1 from x1 = x2 = y = zeros(1), a 3-long start field
        raises DimensionMismatch naming it before any block runs: a 3-long
        x1 would otherwise run to the iteration cap, as its block overwrites
        it, and a 3-long x2 end in numpy's matmul error."""
        calls = []
        example = se.build_example("example1")
        problem = dataclasses.replace(
            example, solve_x1=lambda *a: calls.append(1) or example.solve_x1(*a),
            solve_x2=lambda *a: calls.append(2) or example.solve_x2(*a))
        init = IterateState(x1=np.zeros(1), x2=np.zeros(1), y=np.zeros(1), rho=1.0)
        setattr(init, field, np.zeros(3))
        with pytest.raises(DimensionMismatch, match=f"^start state field {field} does not fit"):
            solve(problem, init, RhoSchedule.constant(1.0), StopCriteria(max_iter=5))
        assert calls == []

    @pytest.mark.parametrize("field", ["x1", "x2"])
    def test_start_that_its_map_refuses_raises(self, field):
        """A 3-long start field under a 1 x 1 linear map, whose product
        raises numpy's ValueError, raises DimensionMismatch naming it."""
        init = IterateState(x1=np.zeros(1), x2=np.zeros(1), y=np.zeros(1), rho=1.0)
        setattr(init, field, np.zeros(3))
        with pytest.raises(DimensionMismatch, match=f"^start state field {field} does not fit"):
            solve(self._linear_problem(), init, RhoSchedule.constant(1.0),
                  StopCriteria(max_iter=5))

    @pytest.mark.parametrize("field", ["x1", "x2"])
    def test_start_map_value_error_passes_through(self, field):
        """A map's own ValueError on a start shaped like y, here a math
        domain error, is not taken for a shape mismatch."""
        problem = self._linear_problem()

        def refuse(x):
            return np.array([math.sqrt(x[0] - 1.0)])

        term = ConstraintTerm(eval=refuse, jacobian=lambda x: np.eye(1))
        problem = dataclasses.replace(problem, **{"f" + field[1]: term})
        init = IterateState(x1=np.zeros(1), x2=np.zeros(1), y=np.zeros(1), rho=1.0)
        with pytest.raises(ValueError, match="^math domain error$"):
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
                           lambda s, rho: 1.0, lambda s: 0.0,
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
                           lambda s, rho: 1.0, lambda s: 0.0,
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


def _state_bytes(state):
    return [np.asarray(getattr(state, f), dtype=float).tobytes() for f in ("x1", "x2", "y", "rho")]


def _trace_bytes(trace):
    return [np.array(row, dtype=float).tobytes() for row in trace]


class TestRecord:
    """``record(k, state)``: once per finished iteration, after its trace
    row and dual step, before the stopping test."""

    @pytest.mark.parametrize("schedule", [RhoSchedule.constant(1.0),
                                          RhoSchedule.increment(0.7, 0.05)],
                             ids=["constant", "increment"])
    @pytest.mark.parametrize("which", ["example1", "example2"])
    def test_sees_each_iteration_after_its_dual_step(self, which, schedule, monkeypatch):
        """k runs 0..K-1 once each, the last one too although the stopping
        test passes there, and the state at k holds rho_k and y^{k+1}: the
        dual handed to the x1 block of iteration k + 1, or the final one."""
        ys = record_duals(monkeypatch, se)
        seen = []
        init = IterateState(x1=np.array([1.2]), x2=np.array([0.7]), y=np.array([0.3]),
                            rho=schedule.at(0))
        result = solve(se.build_example(which), init, schedule,
                       StopCriteria(tol_primal=1e-9, tol_dual=1e-9, max_iter=40),
                       record=lambda k, state: seen.append((k, state.y.copy(), state.rho)))
        K = len(result.trace)
        assert result.converged and 1 < K < 40 and len(ys) == K
        assert [k for k, _, _ in seen] == list(range(K))
        for (k, y, rho), y_next in zip(seen, ys[1:] + [result.state.y]):
            assert y.tobytes() == y_next.tobytes()
            assert rho == result.trace[k].rho == schedule.at(k)

    @pytest.mark.parametrize("failure", ["raises", "nan"])
    def test_not_called_for_a_raising_iteration(self, failure):
        """The x2 block of iteration 2 raises a SolverError or returns NaN;
        the solve ends in SubproblemFailure, and only iterations 0 and 1
        were recorded."""
        problem = TestSolve()._linear_problem()
        calls = []

        def solve_x2(x1, x2, y, rho):
            calls.append(rho)
            if len(calls) == 3:
                if failure == "raises":
                    raise SubproblemFailure("no minimizer")
                return np.array([np.nan])
            return problem.solve_x2(x1, x2, y, rho)

        seen = []
        init = IterateState(x1=np.zeros(1), x2=np.zeros(1), y=np.zeros(1), rho=1.0)
        with pytest.raises(SubproblemFailure, match="x2 block update") as e:
            solve(dataclasses.replace(problem, solve_x2=solve_x2), init,
                  RhoSchedule.constant(1.0), StopCriteria(max_iter=10),
                  record=lambda k, state: seen.append(k))
        assert seen == [0, 1]
        assert len(e.value.trace) == 2

    @pytest.mark.parametrize("which", ["example1", "example2"])
    def test_none_leaves_iterates_bit_identical(self, which):
        """A recording hook changes nothing: the solve with it has the trace
        and final state of the solve with ``record=None``, and the state it
        sees at k is that of a solve cut after k + 1 iterations."""
        problem, schedule = se.build_example(which), RhoSchedule.constant(0.8)
        init = IterateState(x1=np.array([0.9]), x2=np.array([1.1]), y=np.array([-0.2]),
                            rho=0.8)

        def run(max_iter, record=None):
            return solve(problem, init, schedule,
                         StopCriteria(tol_primal=1e-12, tol_dual=1e-12, max_iter=max_iter),
                         record=record)

        states = []
        recorded = run(30, lambda k, state: states.append(_state_bytes(state)))
        plain = run(30)
        assert _trace_bytes(recorded.trace) == _trace_bytes(plain.trace)
        assert _state_bytes(recorded.state) == _state_bytes(plain.state)
        assert recorded.converged == plain.converged
        for k, state in enumerate(states):
            cut = run(k + 1)
            assert _state_bytes(cut.state) == state
            assert _trace_bytes(cut.trace) == _trace_bytes(plain.trace[:k + 1])


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

        def nan_like(*a, **kw):
            # t_update_bags returns t and its bag maxima: both go NaN.
            out = original(*a, **kw)
            if isinstance(out, tuple):
                return tuple(np.full_like(v, np.nan) for v in out)
            return np.full_like(out, np.nan)

        monkeypatch.setattr(module, attr, nan_like)
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

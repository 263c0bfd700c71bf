import numpy as np
import pytest

from helpers import (diagnose_loop, diagnostics_oracle, linear_constraint, record_duals,
                     vi_sequences)
from nladmm import scalar_examples as se
from nladmm.diagnostics import (
    OptimumReference,
    check_reference_feasible,
    diagnose_result,
    vi_matrices,
)
from nladmm.engine import IterateState, RhoSchedule, SolveResult, TraceRow
from nladmm.terms import ConstraintTerm


def _identity(dim=1):
    return linear_constraint(np.eye(dim))


def _affine(shift, dim=1):
    return ConstraintTerm(eval=lambda x: x + shift, jacobian=lambda x: np.eye(dim))


def _one_row(ref, f1, f2, x1s, x2s, y, rho, objective=0.0):
    """The diagnostics row of a hand-built one-iteration solve from
    (x1^0, x2^0) to (x1^1, x2^1) with final dual y^1 = y."""
    trace = [TraceRow(k=0, objective=objective, r_norm=1.0, s_norm=1.0, rho=rho)]
    state = IterateState(x1=np.array([x1s[1]]), x2=np.array([x2s[1]]),
                         y=np.array([y]), rho=rho)
    (row,) = diagnose_result(SolveResult(state, trace, False), ref, f1, f2,
                             [np.array([v]) for v in x1s], [np.array([v]) for v in x2s])
    return row


def _bits(row):
    """A row's k and the bytes of its four values, so that -0.0 != 0.0."""
    return row.k, np.array([row.bound, row.gap, row.lyapunov, row.vi_norm]).tobytes()


class TestErrorBound:
    def test_hand_value(self):
        """rho=1, eps = |-2 - 0| = 2, ||delta f2||_1 = |1 - (-2)| = 3,
        r = -2 + 1 = -1 and y.r = -1 -> bound 7."""
        ref = OptimumReference(x1_star=np.zeros(1), x2_star=np.zeros(1),
                               y_star=np.zeros(1), p_star=0.0)
        row = _one_row(ref, _identity(), _identity(), x1s=(0.0, -2.0), x2s=(-2.0, 1.0),
                       y=1.0, rho=1.0, objective=4.0)
        assert row.bound == pytest.approx(7.0)  # 1*2*3 - (1 * -1)
        assert row.gap == pytest.approx(4.0)

    def test_default_epsilon_from_reference(self):
        """f2 = x - 1 makes the reference feasible: f1(1) + f2(0) = 0."""
        ref = OptimumReference(x1_star=np.array([1.0]), x2_star=np.zeros(1),
                               y_star=np.zeros(1), p_star=0.0)
        row = _one_row(ref, _identity(), _affine(np.array([-1.0])), x1s=(0.0, 3.0),
                       x2s=(0.0, 1.0), y=0.0, rho=2.0)
        # eps = |3 - 1| = 2; delta f2 = 0 - (-1) = 1; bound = 2*2*1 - 0 = 4
        assert row.bound == pytest.approx(4.0)


class TestLyapunov:
    def test_hand_value(self):
        """rho=2, f2 gap = 1, dual gap = 2 -> V = 2*1 + 4/2 = 4."""
        ref = OptimumReference(x1_star=np.zeros(1), x2_star=np.zeros(1),
                               y_star=np.array([1.0]), p_star=0.0)
        row = _one_row(ref, _identity(), _identity(), x1s=(0.0, 0.0), x2s=(0.0, 1.0),
                       y=3.0, rho=2.0)
        assert row.lyapunov == pytest.approx(4.0)

    def test_zero_at_optimum(self):
        """f1 = x - 0.5 makes the reference feasible: f1(0) + f2(0.5) = 0."""
        ref = OptimumReference(x1_star=np.zeros(1), x2_star=np.array([0.5]),
                               y_star=np.array([-1.0]), p_star=0.0)
        row = _one_row(ref, _affine(np.array([-0.5])), _identity(), x1s=(0.0, 0.0),
                       x2s=(0.5, 0.5), y=-1.0, rho=3.0)
        assert row.lyapunov == 0.0


class TestCheckReferenceFeasible:
    def test_feasible_passes(self):
        ref = OptimumReference(x1_star=np.array([0.5]), x2_star=np.array([0.5]),
                               y_star=np.zeros(1), p_star=0.0)
        check_reference_feasible(ref, _identity(), _affine(np.array([-1.0])))

    def test_infeasible_raises(self):
        ref = OptimumReference(x1_star=np.array([1.0]), x2_star=np.array([1.0]),
                               y_star=np.zeros(1), p_star=0.0)
        with pytest.raises(ValueError):
            check_reference_feasible(ref, _identity(), _identity())


class TestViMatrices:
    def test_shapes_and_identities_d1(self):
        mats = vi_matrices(d=1, rho=1.0)
        assert mats.C.shape == (3, 3)
        assert np.array_equal(mats.C, mats.D @ mats.E)
        eig = np.sort(np.linalg.eigvalsh(mats.G))
        assert np.allclose(eig, [0.0, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    @pytest.mark.parametrize("rho", [0.1, 1.0, 10.0])
    def test_g_symmetric_psd_grid(self, d, rho):
        mats = vi_matrices(d=d, rho=rho)
        assert np.allclose(mats.G, mats.G.T)
        assert float(np.min(np.linalg.eigvalsh(mats.G))) >= -1e-10
        assert np.array_equal(mats.C, mats.D @ mats.E)

    @pytest.mark.parametrize("d", [1, 3])
    def test_rho_inexact_reciprocal(self, d):
        """At rho = 49, (1/rho) * rho != 1 in floating point, so C = DE
        holds only to rounding; G is still diag(0, 0, I/rho)."""
        mats = vi_matrices(d=d, rho=49.0)
        assert np.allclose(mats.C, mats.D @ mats.E, rtol=0.0, atol=1e-15)
        eig = np.sort(np.linalg.eigvalsh(mats.G))
        expected = np.r_[np.zeros(2 * d), np.full(d, 1.0 / 49.0)]
        assert np.allclose(eig, expected, rtol=0.0, atol=1e-15)

    def test_invalid(self):
        with pytest.raises(ValueError):
            vi_matrices(0, 1.0)
        with pytest.raises(ValueError):
            vi_matrices(1, 0.0)

    def test_d_norm(self):
        mats = vi_matrices(d=1, rho=2.0)
        v = np.array([1.0, 1.0, 2.0])
        # D = diag(0, 2, 1/2) -> 0 + 2 + 2 = 4
        assert np.array_equal(mats.D, np.diag([0.0, 2.0, 0.5]))
        assert float(v @ mats.D @ v) == pytest.approx(4.0)


class TestDiagnoseResult:
    @pytest.mark.parametrize("which", [se.EXAMPLE_SQRT, se.EXAMPLE_CIRCLE])
    def test_vi_norm_matches_dense_matrices(self, which, monkeypatch):
        """The closed-form VI value equals ||E(w - w~)||_D^2 with the dense
        matrices, on w and w~ rebuilt from the recorded iterates and the
        engine's own duals."""
        ys = record_duals(monkeypatch, se)
        run = se.run_example(which, RhoSchedule.constant(1.0))
        problem = se.build_example(which)
        rows = diagnose_result(run.result, se.example_reference(which), problem.f1,
                               problem.f2, run.x1_history, run.x2_history)
        w, w_tilde = vi_sequences(problem.f1, problem.f2, run.x1_history,
                                  run.x2_history, ys + [run.result.state.y], 1.0)
        mats = vi_matrices(d=1, rho=1.0)
        dense = []
        for wk, wt in zip(w, w_tilde):
            step = mats.E @ (wk - wt)
            dense.append(float(step @ mats.D @ step))
        assert len(dense) == len(rows)
        for row, value in zip(rows, dense):
            assert abs(row.vi_norm - value) <= 1e-12

    @pytest.mark.parametrize("rho", [0.5, 1.0, 49.0], ids=["rho0.5", "rho1", "rho49"])
    @pytest.mark.parametrize("which", [se.EXAMPLE_SQRT, se.EXAMPLE_CIRCLE])
    def test_recovered_duals_match_engine(self, which, rho, monkeypatch):
        """The rows, built on duals recovered backward from the final one,
        equal the oracle's on the duals the engine handed its x1 block, from
        three starts. Backward recovery rounds differently from the engine's
        forward dual step, so the dual-dependent bound and Lyapunov value
        agree to 1e-12; gap and vi_norm, which read no dual, are equal."""
        ys = record_duals(monkeypatch, se)
        problem = se.build_example(which)
        ref = se.example_reference(which)
        for x0, z0, y0 in [(1.0, 1.0, 0.0), (0.3, 0.8, 0.3), (2.0, 0.5, -1.0)]:
            ys.clear()
            run = se.run_example(which, RhoSchedule.constant(rho), x0=x0, z0=z0, y0=y0)
            assert ys[0][0] == y0
            rows = diagnose_result(run.result, ref, problem.f1, problem.f2,
                                   run.x1_history, run.x2_history)
            oracle = diagnostics_oracle(run.result.trace, ref, problem.f1, problem.f2,
                                        run.x1_history, run.x2_history,
                                        ys + [run.result.state.y])
            assert len(rows) == len(oracle) == len(ys) == len(run.result.trace)
            for row, (bound, gap, lyapunov, vi_norm) in zip(rows, oracle):
                assert (row.gap, row.vi_norm) == (gap, vi_norm)
                assert abs(row.bound - bound) <= 1e-12
                assert abs(row.lyapunov - lyapunov) <= 1e-12

    @pytest.mark.parametrize("rho", [0.5, 1.0, 49.0], ids=["rho0.5", "rho1", "rho49"])
    @pytest.mark.parametrize("which", [se.EXAMPLE_SQRT, se.EXAMPLE_CIRCLE])
    def test_matches_row_loop_bit_for_bit(self, which, rho):
        """The one vectorized pass gives the rows of the loop over the trace
        (``helpers.diagnose_loop``) to the bit, from three starts."""
        problem = se.build_example(which)
        ref = se.example_reference(which)
        for x0, z0, y0 in [(1.0, 1.0, 0.0), (0.3, 0.8, 0.3), (2.0, 0.5, -1.0)]:
            run = se.run_example(which, RhoSchedule.constant(rho), x0=x0, z0=z0, y0=y0)
            args = (run.result, ref, problem.f1, problem.f2, run.x1_history, run.x2_history)
            rows, loop = diagnose_result(*args), diagnose_loop(*args)
            assert len(rows) == len(run.result.trace)
            assert [_bits(row) for row in rows] == [_bits(row) for row in loop]

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_row_loop_in_several_dimensions(self, d):
        """For d > 1 the row sums may add in another order than the loop's
        dot products, so the rows agree to 1e-12, not to the bit."""
        rng = np.random.default_rng(d)
        A = rng.standard_normal((d, d))
        f1 = linear_constraint(A)
        f2 = ConstraintTerm(eval=lambda x: A @ x - A @ np.ones(d), jacobian=lambda x: A)
        ref = OptimumReference(x1_star=np.ones(d), x2_star=np.zeros(d),
                               y_star=rng.standard_normal(d), p_star=0.5)
        K, rho = 12, 1.7
        trace = [TraceRow(k=k, objective=float(rng.standard_normal()), r_norm=1.0,
                          s_norm=1.0, rho=rho) for k in range(K)]
        x1s, x2s = list(rng.standard_normal((K + 1, d))), list(rng.standard_normal((K + 1, d)))
        state = IterateState(x1=x1s[-1], x2=x2s[-1], y=rng.standard_normal(d), rho=rho)
        args = (SolveResult(state, trace, False), ref, f1, f2, x1s, x2s)
        for row, expected in zip(diagnose_result(*args), diagnose_loop(*args), strict=True):
            assert row.k == expected.k and row.gap == expected.gap
            for field in ("bound", "lyapunov", "vi_norm"):
                assert getattr(row, field) == pytest.approx(getattr(expected, field),
                                                            rel=1e-12, abs=1e-12)

    def test_rejects_histories_unlike_the_trace(self):
        run = se.run_example(se.EXAMPLE_SQRT, RhoSchedule.constant(1.0))
        problem = se.build_example(se.EXAMPLE_SQRT)
        ref = se.example_reference(se.EXAMPLE_SQRT)
        for x1s, x2s in [(run.x1_history[:-1], run.x2_history),
                         (run.x1_history, run.x2_history + [run.x2_history[-1]])]:
            with pytest.raises(ValueError, match=r"len\(trace\) \+ 1 iterates"):
                diagnose_result(run.result, ref, problem.f1, problem.f2, x1s, x2s)

    def test_flags_increase(self):
        """A VI value that grows is reported as it is. With f1 = x,
        f2 = z - 1 and rho = 1 the values are 2 (z^i - z^{i+1})^2 when
        x^{i+1} + z^i = 1: 0.02, then 0.5."""
        f2 = _affine(np.array([-1.0]))
        ref = OptimumReference(x1_star=np.array([0.5]), x2_star=np.array([0.5]),
                               y_star=np.zeros(1), p_star=0.0)
        trace = [TraceRow(k=k, objective=0.0, r_norm=1.0, s_norm=1.0, rho=1.0)
                 for k in range(2)]
        state = IterateState(x1=np.array([0.9]), x2=np.array([0.6]), y=np.zeros(1), rho=1.0)
        x1s = [np.array([v]) for v in (0.0, 1.0, 0.9)]
        x2s = [np.array([v]) for v in (0.0, 0.1, 0.6)]
        rows = diagnose_result(SolveResult(state, trace, False), ref, _identity(), f2,
                               x1s, x2s)
        assert [r.vi_norm for r in rows] == pytest.approx([0.02, 0.5])

    def test_rejects_varying_rho(self):
        run = se.run_example(se.EXAMPLE_SQRT, RhoSchedule.increment(1.0, 0.1))
        ref = se.example_reference(se.EXAMPLE_SQRT)
        problem = se.build_example(se.EXAMPLE_SQRT)
        with pytest.raises(ValueError):
            diagnose_result(run.result, ref, problem.f1, problem.f2,
                            run.x1_history, run.x2_history)

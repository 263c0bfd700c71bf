import math

import numpy as np
import pytest

from helpers import golden_section_min
from nladmm import scalar_examples as se
from nladmm.diagnostics import check_reference_feasible
from nladmm.engine import RhoSchedule


class TestKnownOptima:
    def test_example1(self):
        p = se.example_reference(se.EXAMPLE_SQRT)
        assert p.x1_star[0] == pytest.approx(0.25)
        assert p.p_star == pytest.approx(0.5)
        assert p.y_star[0] == pytest.approx(-1.0)

    def test_example2(self):
        p = se.example_reference(se.EXAMPLE_CIRCLE)
        assert p.x1_star[0] == pytest.approx(-math.sqrt(2.0) / 2.0)
        assert p.p_star == pytest.approx(-math.sqrt(2.0))
        # The dual maximizes -y - 1/(2y) over y > 0.
        assert p.y_star[0] == pytest.approx(math.sqrt(2.0) / 2.0)

    def test_unknown_name(self):
        for lookup in (se.example_reference, se.build_example):
            with pytest.raises(ValueError, match="unknown example 'example3'"):
                lookup("example3")

    @pytest.mark.parametrize("which", [se.EXAMPLE_SQRT, se.EXAMPLE_CIRCLE])
    def test_references_feasible(self, which):
        ref = se.example_reference(which)
        problem = se.build_example(which)
        check_reference_feasible(ref, problem.f1, problem.f2)

    def test_example2_dual_is_stationary(self):
        """At the optimum, d/dx [x + y * x^2] = 1 + 2 y* x* = 0."""
        p = se.example_reference(se.EXAMPLE_CIRCLE)
        assert 1.0 + 2.0 * p.y_star[0] * p.x1_star[0] == pytest.approx(0.0, abs=1e-12)


class TestBlockUpdates:
    def test_example1_clamps_to_zero(self):
        # c >= 0 pushes the vertex negative; the constrained optimum is 0.
        assert se.example1_block_update(0.5, 1.0) == 0.0

    def test_example1_interior_hand_value(self):
        # c=-1, rho=2: s = 2/(2+2) = 0.5 -> x = 0.25
        assert se.example1_block_update(-1.0, 2.0) == pytest.approx(0.25)

    def test_example1_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = float(rng.uniform(-3, 3))
            rho = float(rng.uniform(0.1, 100.0))
            assert se.example1_block_update(c, rho) >= 0.0

    def test_example1_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            c = float(rng.uniform(-3, 3))
            rho = float(rng.uniform(0.1, 100.0))
            x = se.example1_block_update(c, rho)

            def f(x_):
                return x_ + 0.5 * rho * (math.sqrt(max(x_, 0.0)) + c) ** 2

            oracle = golden_section_min(f, 0.0, max(4.0 * c * c, 1.0), tol=1e-12)
            assert f(x) <= f(oracle) + 1e-9 * (1.0 + abs(f(oracle)))

    def test_example2_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            c = float(rng.uniform(-3, 3))
            rho = float(rng.uniform(0.1, 100.0))
            x = se.example2_block_update(c, rho)

            def f(x_):
                return x_ + 0.5 * rho * (x_ * x_ + c) ** 2

            hw = math.sqrt(abs(c)) + 2.0
            # The global minimum may sit in either of two basins; bracket both.
            oracle = min((golden_section_min(f, lo, hi, tol=1e-12)
                          for lo, hi in ((-hw, 0.0), (0.0, hw), (-hw, hw))),
                         key=f)
            assert f(x) <= f(oracle) + 1e-9 * (1.0 + abs(f(oracle)))

    def test_example2_stationarity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = float(rng.uniform(-3, 3))
            rho = float(rng.uniform(0.1, 100.0))
            x = se.example2_block_update(c, rho)
            grad = 1.0 + 2.0 * rho * x * (x * x + c)
            assert abs(grad) <= 1e-6 * (1.0 + rho)

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            se.example1_block_update(0.0, 0.0)
        with pytest.raises(ValueError):
            se.example2_block_update(0.0, -1.0)
        for update in (se.example1_block_update, se.example2_block_update):
            with pytest.raises(ValueError):
                update(1.0, math.nan)

    def test_example1_nan_c_is_nan(self):
        """The clamp at s = 0 keeps a NaN vertex NaN, so the engine names the
        block instead of taking 0."""
        assert math.isnan(se.example1_block_update(math.nan, 1.0))


class TestRunExample:
    def test_histories_align_with_trace(self):
        """K + 1 iterates of each block: the start point, then a copy of the
        block's value after each iteration, the last one the final state."""
        for which in (se.EXAMPLE_SQRT, se.EXAMPLE_CIRCLE):
            for x0, z0, y0 in [(1.0, 1.0, 0.0), (0.3, 0.8, 0.3)]:
                run = se.run_example(which, RhoSchedule.constant(1.0), x0=x0, z0=z0, y0=y0)
                n = len(run.result.trace)
                assert len(run.x1_history) == len(run.x2_history) == n + 1
                assert (run.x1_history[0].tolist(), run.x2_history[0].tolist()) == ([x0], [z0])
                assert np.array_equal(run.x1_history[-1], run.result.state.x1)
                assert np.array_equal(run.x2_history[-1], run.result.state.x2)
                assert run.x1_history[-1] is not run.result.state.x1

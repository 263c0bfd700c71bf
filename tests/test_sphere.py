import numpy as np
import pytest

from helpers import (
    lasso_cd_oracle,
    record_lipschitz,
    sphere_penalty_oracle,
    sphere_penalty_value,
)
from nladmm import datagen, sphere
from nladmm.engine import RhoSchedule, StopCriteria
from nladmm.inner import FistaConfig, gram_lmax


def stationarity_residual(w, v, alpha):
    """Gradient of ||w - v||^2 + (||w||^2 - 1 + alpha)^2 at w."""
    g = 2.0 * (w - v) + 4.0 * (float(w @ w) - 1.0 + alpha) * w
    return float(np.linalg.norm(g))


class TestSpherePenaltyMin:
    def test_degenerate_origin(self):
        # v = 0, alpha = 0: the norm solves 2u^2 = 1, direction fixed to e1.
        w = sphere.sphere_penalty_min(np.zeros(3), 0.0)
        expected = np.zeros(3)
        expected[0] = 1.0 / np.sqrt(2.0)
        assert np.allclose(w, expected, atol=1e-12)

    def test_tiny_input_keeps_best_candidate(self):
        v = np.array([1e-12])
        w = sphere.sphere_penalty_min(v, 0.0)
        best = sphere_penalty_oracle(v, 0.0)
        assert sphere_penalty_value(w, v, 0.0) <= best + 1e-9

    def test_degenerate_origin_large_alpha(self):
        # alpha >= 1/2 makes the quadratic term prefer w = 0.
        w = sphere.sphere_penalty_min(np.zeros(2), 2.0)
        assert np.allclose(w, 0.0)

    def test_collinear_with_input(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(3)
            alpha = float(rng.uniform(-1.5, 1.5))
            w = sphere.sphere_penalty_min(v, alpha)
            cross = w - (float(w @ v) / float(v @ v)) * v
            assert np.linalg.norm(cross) <= 1e-8 * (1.0 + np.linalg.norm(w))

    def test_large_v_tracks_sphere(self):
        # For v far outside, w lands between the sphere and v.
        v = np.array([10.0, 0.0])
        w = sphere.sphere_penalty_min(v, 0.0)
        assert 1.0 < np.linalg.norm(w) < 10.0
        assert stationarity_residual(w, v, 0.0) <= 1e-8 * (1.0 + np.linalg.norm(v))

    def test_against_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            v = rng.standard_normal(n) * rng.uniform(0.1, 3.0)
            alpha = float(rng.uniform(-2.0, 2.0))
            w = sphere.sphere_penalty_min(v, alpha)
            obj = sphere_penalty_value(w, v, alpha)
            oracle = sphere_penalty_oracle(v, alpha)
            assert obj <= oracle + 1e-6
            assert stationarity_residual(w, v, alpha) <= 1e-6 * (1.0 + np.linalg.norm(v))


class TestOneBitPieces:
    def test_problem_validation(self):
        with pytest.raises(ValueError):
            sphere.OneBitCsProblem(Phi=np.eye(2), y_sign=np.array([1.0, 0.5]), lam=1.0)
        with pytest.raises(ValueError):
            sphere.OneBitCsProblem(Phi=np.eye(2), y_sign=np.array([1.0, -1.0]), lam=0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda(self, lam):
        with pytest.raises(ValueError, match="lambda must be finite and positive"):
            sphere.OneBitCsProblem(Phi=np.eye(2), y_sign=np.array([1.0, -1.0]), lam=lam)

    def test_objective_hand_value(self):
        p = sphere.OneBitCsProblem(Phi=np.eye(2), y_sign=np.array([1.0, 1.0]), lam=4.0)
        # ||w||_1 = 3, penalty = 2 * min(-1, 0)^2 = 2
        assert p.objective(np.array([1.0, -2.0]),
                           np.array([-1.0, 5.0])) == pytest.approx(5.0)

    @pytest.mark.filterwarnings("error")
    def test_update_z_closed_form(self):
        # a >= 0 passes through; a < 0 shrinks by rho/(lam+rho), formed only
        # for the entries below zero, so a huge rho overflows on no entry.
        for a, rho in [(-1.0, 1000.0), (-1e-3, 1e308)]:
            z = sphere.onebit_update_z(np.array([2.0, a]), y2=np.zeros(2), rho=rho,
                                       lam=10.0, M=np.eye(2))
            assert z[0] == pytest.approx(2.0)
            assert z[1] == pytest.approx(rho * a / (10.0 + rho))

    def test_update_z_matches_scalar_oracle(self):
        from helpers import golden_section_min
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = float(rng.uniform(-3, 3))
            lam = float(rng.uniform(0.5, 20.0))
            rho = float(rng.uniform(0.5, 50.0))
            z = sphere.onebit_update_z(np.array([a]), np.zeros(1), rho, lam, np.eye(1))
            oracle = golden_section_min(
                lambda s: 0.5 * lam * min(s, 0.0) ** 2 + 0.5 * rho * (s - a) ** 2,
                -6.0, 6.0, tol=1e-10)
            assert float(z[0]) == pytest.approx(oracle, abs=1e-6)

    def test_update_w_stationarity(self):
        """The returned w is a fixed point of its own proximal-gradient map."""
        rng = np.random.default_rng(11)
        m, n = 6, 4
        Phi = rng.standard_normal((m, n))
        y_sign = np.where(rng.standard_normal(m) >= 0, 1.0, -1.0)
        z = rng.standard_normal(m)
        x = rng.standard_normal(n)
        y2 = rng.standard_normal(m)
        y3 = rng.standard_normal(n)
        rho = 2.0
        M = y_sign[:, None] * Phi
        w = sphere.onebit_update_w(z, x, y2, y3, rho, M, gram_lmax(M), x - y3 / rho,
                                   cfg=FistaConfig(tol=1e-14, max_iter=5000))
        grad = rho * (M.T @ (M @ w - (z - y2 / rho)) + (w - (x - y3 / rho)))
        from nladmm.terms import soft_threshold
        step = 1e-3
        fixed = soft_threshold(w - step * grad, step)
        assert np.linalg.norm(fixed - w) <= 1e-6

    @staticmethod
    def _w_subproblem(seed, m=8, n=6):
        rng = np.random.default_rng(seed)
        Phi = rng.standard_normal((m, n))
        y_sign = np.where(rng.standard_normal(m) >= 0, 1.0, -1.0)
        return (Phi, y_sign, rng.standard_normal(m), rng.standard_normal(n),
                rng.standard_normal(m), rng.standard_normal(n))

    @pytest.mark.parametrize("rho", [0.5, 2.0, 1000.0])
    def test_update_w_matches_coordinate_descent_oracle(self, rho):
        """The fixed-step w-update reaches the minimizer that coordinate
        descent on the same lasso finds."""
        Phi, y_sign, z, x, y2, y3 = self._w_subproblem(12)
        M = y_sign[:, None] * Phi
        w = sphere.onebit_update_w(z, x, y2, y3, rho, M, gram_lmax(M), x - y3 / rho,
                                   cfg=FistaConfig(tol=1e-14, max_iter=5000))
        b, c = z - y2 / rho, x - y3 / rho
        oracle = lasso_cd_oracle(rho * (M.T @ M + np.eye(M.shape[1])),
                                 rho * (M.T @ b + c), 1.0)
        assert np.allclose(w, oracle, atol=1e-6)

    def test_update_w_lipschitz_bound(self, monkeypatch):
        """Every w-update, direct or inside a solve, steps with
        L = rho (||M||_2^2 + 1), the exact constant of its gradient."""
        used = record_lipschitz(monkeypatch, sphere)
        Phi, y_sign, z, x, y2, y3 = self._w_subproblem(13)
        M = y_sign[:, None] * Phi
        sphere.onebit_update_w(z, x, y2, y3, 3.0, M, gram_lmax(M), x)
        bound = 3.0 * (np.linalg.norm(M, 2) ** 2 + 1.0)
        assert used[0] >= bound * (1.0 - 1e-12)
        assert used[0] == pytest.approx(bound, rel=1e-9)

        problem, _ = datagen.generate_onebit(16, 12, 4, seed=0, lam=10.0)
        M = problem.signed_matrix
        x0 = M.T @ np.ones(12)
        x0 /= np.linalg.norm(x0)
        init = sphere.OneBitCsState(x=x0.copy(), w=x0.copy(), z=M @ x0, y1=0.0,
                                    y2=np.zeros(12), y3=np.zeros(16), rho=50.0)
        used.clear()
        sphere.onebit_solve(problem, init, RhoSchedule.constant(50.0),
                            StopCriteria(max_iter=3))
        bound = 50.0 * (np.linalg.norm(M, 2) ** 2 + 1.0)
        assert len(used) == 3
        assert all(lip >= bound * (1.0 - 1e-12) for lip in used)

    def test_onebit_solve_small(self):
        problem, x_true = datagen.generate_onebit(16, 12, 4, seed=0, lam=10.0)
        x0 = problem.signed_matrix.T @ np.ones(12)
        x0 /= np.linalg.norm(x0)
        init = sphere.OneBitCsState(x=x0.copy(), w=x0.copy(),
                                    z=problem.signed_matrix @ x0, y1=0.0,
                                    y2=np.zeros(12), y3=np.zeros(16), rho=1000.0)
        state, trace, _ = sphere.onebit_solve(problem, init,
                                              RhoSchedule.constant(1000.0),
                                              StopCriteria(max_iter=60))
        assert abs(float(state.x @ state.x) - 1.0) <= 1e-3
        assert trace[-1].objective < problem.objective(x0, problem.signed_matrix @ x0)


class TestGenerateOnebit:
    def test_shapes_and_norm(self):
        problem, x_true = datagen.generate_onebit(8, 4, 8, seed=1)
        assert problem.Phi.shape == (4, 8)
        assert np.count_nonzero(x_true) == 8
        assert np.linalg.norm(x_true) == pytest.approx(1.0, abs=1e-12)

    def test_k_equals_one(self):
        _, x_true = datagen.generate_onebit(10, 5, 1, seed=2)
        nz = x_true[x_true != 0]
        assert nz.size == 1 and abs(nz[0]) == pytest.approx(1.0)

    def test_deterministic(self):
        a = datagen.generate_onebit(12, 6, 3, seed=9)
        b = datagen.generate_onebit(12, 6, 3, seed=9)
        assert np.array_equal(a[0].Phi, b[0].Phi)
        assert np.array_equal(a[0].y_sign, b[0].y_sign)
        assert np.array_equal(a[1], b[1])

    def test_signs_match_measurements(self):
        problem, x_true = datagen.generate_onebit(20, 10, 5, seed=3)
        s = np.sign(problem.Phi @ x_true)
        s[s == 0] = 1.0
        assert np.array_equal(problem.y_sign, s)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            datagen.generate_onebit(4, 2, 5, seed=0)
        with pytest.raises(ValueError):
            datagen.generate_onebit(4, 0, 2, seed=0)

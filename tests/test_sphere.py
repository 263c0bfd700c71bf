import numpy as np
import pytest

from helpers import (golden_section_min, onebit_reference, sphere_penalty_oracle,
                     sphere_penalty_value)
from nladmm import datagen, sphere
from nladmm.engine import RhoSchedule, StopCriteria
from nladmm.errors import DimensionMismatch


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

    @pytest.mark.parametrize("v", [[3.21544847e-161], [3e-160, -4e-160], [-1e-200, 0.0],
                                   [0.0, 3e-170], [-5e-324, 0.0], [5e-324, 5e-324, -1e-323]])
    def test_subnormal_square_norm(self, v):
        """||v||^2 is subnormal or underflows to 0, where numpy's norm loses
        digits or reads 0, and ||v|| itself may be subnormal; the direction
        v/||v|| must still have unit length and point along v. w @ v
        underflows, so the signs are compared."""
        v = np.array(v)
        w = sphere.sphere_penalty_min(v, 0.0)
        assert np.linalg.norm(w) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)
        assert np.array_equal(np.sign(w), np.sign(v))
        assert sphere_penalty_value(w, v, 0.0) <= sphere_penalty_oracle(v, 0.0) + 1e-15

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

    def test_one_cubic_per_call(self, monkeypatch):
        calls = []
        roots = sphere.cubic_real_roots

        def counting_roots(p, q):
            calls.append((p, q))
            return roots(p, q)

        monkeypatch.setattr(sphere, "cubic_real_roots", counting_roots)
        sphere.sphere_penalty_min(np.array([3.0, -4.0]), -2.0)
        assert calls == [(-2.5, -2.5)]

    def test_three_real_roots(self):
        """At alpha = -2 and ||v|| = 0.1 the cubic t^3 - 2.5t - 0.05 has
        three real roots; the best one lies along v. So it does at
        ||v|| = 2.6e-17, where the roots along and against v differ in
        objective by only about 4 * 0.36 * ||v||."""
        for v, alpha in [([0.1, 0.0, 0.0], -2.0), ([2.582085330323768e-17], 0.37063323661345393)]:
            v = np.array(v)
            m = float(np.linalg.norm(v))
            assert len(sphere.cubic_real_roots(alpha - 0.5, -0.5 * m)) == 3
            w = sphere.sphere_penalty_min(v, alpha)
            assert float(w @ v) > 0.0
            assert sphere_penalty_value(w, v, alpha) <= sphere_penalty_oracle(v, alpha) + 1e-9
            assert stationarity_residual(w, v, alpha) <= 1e-12

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
        with pytest.raises(ValueError, match="one row per sign"):
            sphere.OneBitCsProblem(Phi=np.eye(3), y_sign=np.array([1.0, -1.0]), lam=1.0)
        with pytest.raises(ValueError, match="one row per sign"):
            sphere.OneBitCsProblem(Phi=np.ones(2), y_sign=np.array([1.0, -1.0]), lam=1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_phi(self, value):
        """Refused when built; a single Inf used to end the solve in a
        SubproblemFailure that blamed the z-block for the data."""
        problem, _ = datagen.generate_onebit(16, 8, 2, 0)
        Phi = problem.Phi.copy()
        Phi[3, 5] = value
        with pytest.raises(ValueError, match="Phi holds a non-finite value"):
            sphere.OneBitCsProblem(Phi=Phi, y_sign=problem.y_sign, lam=problem.lam)

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
            z = sphere.onebit_update_z(np.array([2.0, a]), y2_rho=np.zeros(2), rho=rho,
                                       lam=10.0)
            assert z[0] == pytest.approx(2.0)
            assert z[1] == pytest.approx(rho * a / (10.0 + rho))

    def test_update_z_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = float(rng.uniform(-3, 3))
            lam = float(rng.uniform(0.5, 20.0))
            rho = float(rng.uniform(0.5, 50.0))
            z = sphere.onebit_update_z(np.array([a]), np.zeros(1), rho, lam)
            oracle = golden_section_min(
                lambda s: 0.5 * lam * min(s, 0.0) ** 2 + 0.5 * rho * (s - a) ** 2,
                -6.0, 6.0, tol=1e-10)
            assert float(z[0]) == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("rho", [0.5, 2.0, 1000.0])
    def test_update_w_matches_golden_section(self, rho):
        """Each coordinate of the soft threshold minimizes
        |s| + (rho/2)(s - v_i + y4_i/rho)^2."""
        rng = np.random.default_rng(14)
        v = 2.0 * rng.standard_normal(40) / rho
        y4 = rng.standard_normal(40)
        w = sphere.onebit_update_w(v, y4 / rho, rho)
        assert 0 < np.count_nonzero(w) < w.size  # both branches of the threshold
        for wi, vi, yi in zip(w, v, y4):
            a = vi - yi / rho
            oracle = golden_section_min(lambda s: abs(s) + 0.5 * rho * (s - a) ** 2,
                                        -abs(a) - 1.0, abs(a) + 1.0, tol=1e-12)
            assert float(wi) == pytest.approx(oracle, abs=1e-7)

    @pytest.mark.parametrize("rho", [0.5, 2.0, 1000.0])
    def test_update_v_zeroes_lagrangian_gradient(self, rho):
        """The v-block is a stationary point of the augmented Lagrangian in v:
        M'y2 + rho M'(Mv - z) + y3 + rho (v - x) - y4 - rho (w - v) = 0."""
        rng = np.random.default_rng(12)
        M = np.where(rng.standard_normal(8) >= 0, 1.0, -1.0)[:, None] * rng.standard_normal((8, 6))
        z, y2 = rng.standard_normal(8), rng.standard_normal(8)
        x, w, y3, y4 = rng.standard_normal((4, 6))
        K = np.linalg.inv(M.T @ M + 2.0 * np.eye(M.shape[1]))
        v = sphere.onebit_update_v(z, x, w, y2 / rho, y3 / rho, y4 / rho, M, K)
        grad = (M.T @ y2 + rho * (M.T @ (M @ v - z)) + y3 + rho * (v - x)
                - y4 - rho * (w - v))
        scale = rho * (np.linalg.norm(M, 2) ** 2 + 2.0) * (1.0 + np.linalg.norm(v))
        assert np.linalg.norm(grad) <= 1e-12 * scale

    def test_solve_inverts_once_under_increment(self, monkeypatch):
        """rho does not enter the v-block's matrix, so a solve whose rho
        grows every iteration still inverts M'M + 2I exactly once."""
        inv = np.linalg.inv
        calls = []

        def counting_inv(a):
            calls.append(np.shape(a))
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        problem, _ = datagen.generate_onebit(16, 12, 4, seed=0, lam=10.0)
        M = problem.signed_matrix
        x0 = M.T @ np.ones(12)
        x0 /= np.linalg.norm(x0)
        init = sphere.OneBitCsState(x=x0.copy(), w=x0.copy(), z=M @ x0, y1=0.0,
                                    y2=np.zeros(12), y3=np.zeros(16), rho=50.0)
        _, trace, _ = sphere.onebit_solve(problem, init, RhoSchedule.increment(50.0, 5.0),
                                          StopCriteria(max_iter=5))
        assert [row.rho for row in trace] == [50.0, 55.0, 60.0, 65.0, 70.0]
        assert calls == [(16, 16)]

    def test_state_starts_split_copy_at_w(self):
        """v and y4 are not constructor arguments: v starts as a copy of w,
        y4 at zero."""
        w = np.array([1.0, -2.0])
        s = sphere.OneBitCsState(x=w.copy(), w=w, z=np.zeros(1), y1=0.0,
                                 y2=np.zeros(1), y3=np.zeros(2), rho=1.0)
        assert np.array_equal(s.v, w) and s.v is not w
        assert np.array_equal(s.y4, np.zeros(2))

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


@pytest.mark.parametrize("field, value", [
    ("x", np.zeros(15)), ("w", np.zeros(15)), ("z", np.zeros(9)), ("v", np.zeros(17)),
    ("y1", np.zeros(1)), ("y2", np.zeros(7)), ("y3", np.zeros(15)), ("y4", np.zeros((16, 1)))],
    ids=["x", "w", "z", "v", "y1", "y2", "y3", "y4"])
def test_onebit_solve_rejects_a_misshapen_start(field, value, monkeypatch):
    """A start field shaped unlike the data needs (n = 16, m = 8) raises
    DimensionMismatch naming it before any block runs, not a numpy error
    from inside a block. Each field is set after the state is built."""
    problem, _ = datagen.generate_onebit(16, 8, 2, 0)
    init = sphere.OneBitCsState(x=np.ones(16) / 4.0, w=np.ones(16) / 4.0, z=np.zeros(8),
                                y1=0.0, y2=np.zeros(8), y3=np.zeros(16), rho=10.0)
    setattr(init, field, value)
    calls = []
    monkeypatch.setattr(sphere, "sphere_penalty_min", lambda *a: calls.append(a))
    with pytest.raises(DimensionMismatch, match=f"start state field {field} has shape"):
        sphere.onebit_solve(problem, init, RhoSchedule.constant(10.0), StopCriteria(max_iter=3))
    assert calls == []


@pytest.mark.parametrize("m", [32, 64, 128])
@pytest.mark.parametrize("schedule, iters", [(RhoSchedule.constant(1000.0), 100),
                                             (RhoSchedule(50.0, 5.0), 300)],
                         ids=["rho1000", "rho50+5k"])
def test_onebit_solve_matches_plain_loop(m, schedule, iters):
    """onebit_solve gives the iterates, duals and trace rows of the plain
    loop in ``helpers.onebit_reference`` bit for bit, at criterion 7's
    sizes, at a constant and at a growing rho: M v and each
    y/rho are formed once per iteration in the solve and afresh at every
    use in the loop."""
    problem, _ = datagen.generate_onebit(128, m, 16, seed=0, lam=10.0)
    M = problem.signed_matrix
    x0 = M.T @ np.ones(m)
    x0 /= np.linalg.norm(x0)
    init = sphere.OneBitCsState(x=x0.copy(), w=x0.copy(), z=M @ x0, y1=0.0,
                                y2=np.zeros(m), y3=np.zeros(128), rho=schedule.rho0)
    stop = StopCriteria(max_iter=iters)
    state, trace, _ = sphere.onebit_solve(problem, init, schedule, stop)
    ref_state, ref_trace = onebit_reference(problem, init, schedule, stop)
    assert len(trace) == iters
    assert trace == ref_trace
    assert state.y1 == ref_state["y1"]
    for name in ("x", "w", "z", "v", "y2", "y3", "y4"):
        assert np.array_equal(getattr(state, name), ref_state[name]), name


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

import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    InvalidBracket,
    golden_section_min,
    lasso_brute_force,
    lasso_kkt_violation,
    quadratic_term,
)
from nladmm import inner
from nladmm.errors import NonFiniteIterate, SubproblemFailure
from nladmm.inner import (
    FistaConfig,
    cubic_real_roots,
    fista,
    lasso_active_set,
)
from nladmm.terms import (
    CompositeObjective,
    ProxTerm,
    SmoothTerm,
    l1_term,
    logistic_loss,
    soft_threshold,
    zero_prox,
)


@contextmanager
def _time_limit(seconds: int):
    """Raise TimeoutError in the block after ``seconds`` (SIGALRM, Unix)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestCubicRealRoots:
    def test_three_distinct(self):
        # (t + 3)(t - 1)(t - 2) = t^3 - 7t + 6
        r = cubic_real_roots(-7.0, 6.0)
        assert np.allclose(r, [-3.0, 1.0, 2.0], atol=1e-10)

    def test_triple_root(self):
        assert cubic_real_roots(0.0, 0.0) == [0.0]

    def test_single_real(self):
        r = cubic_real_roots(0.0, -1.0)
        assert np.allclose(r, [1.0], atol=1e-12)

    def test_repeated_pair(self):
        # (t - 1)^2 (t + 2) = t^3 - 3t + 2
        r = cubic_real_roots(-3.0, 2.0)
        assert np.allclose(r, [-2.0, 1.0], atol=1e-7)

    @pytest.mark.parametrize("p, q, expected", [
        # (t - 2e-15)(t + 1e-15)^2: a double root and a simple one below 1 in size.
        (-3e-30, -2e-45, [-1e-15, 2e-15]),
        # Three distinct roots within 2e-13 of zero.
        (-3e-26, 1e-40, [-1.748e-13, 3.335e-15, 1.715e-13]),
        # Below, (q/2)^2 + |p/3|^3 underflows. One real root:
        (0.0, -1e-170, [2.1544346900318837e-57]),
        # t (t - 1e-60)(t + 1e-60):
        (-1e-120, 0.0, [-1e-60, 0.0, 1e-60]),
        # p > 0, so the cubic is increasing and has one root:
        (1e-110, 1e-170, [-9.999999999e-61]),
    ])
    def test_tiny_distinct_roots_all_returned(self, p, q, expected):
        """Roots far below 1 in size are told apart relative to their own
        size, so none is merged into a neighbour, and none is lost or
        doubled where the discriminant's scale underflows."""
        r = cubic_real_roots(p, q)
        assert len(r) == len(expected)
        assert np.allclose(r, expected, rtol=1e-3, atol=0.0)
        size = abs(q) + abs(p) * max(map(abs, r)) + max(map(abs, r)) ** 3
        for t in r:
            assert abs((t * t + p) * t + q) <= 1e-15 * size

    def test_overflowing_depressed_cubic_raises(self):
        """q^2 is past the float range; the solver refuses the cubic with a
        SolverError naming it."""
        with pytest.raises(SubproblemFailure, match=r"\(p, q\) = \(2\.0, 5e\+159\)"):
            cubic_real_roots(2.0, 5e159)

    @pytest.mark.parametrize("p, q", [(-1e110, 0.0), (1e110, 1.0), (0.0, -1e160),
                                      (1.0, math.inf), (-math.inf, 1.0),
                                      (math.nan, 1.0), (0.0, math.nan)])
    def test_non_finite_discriminant_raises(self, p, q):
        with pytest.raises(SubproblemFailure, match="discriminant overflows or is NaN"):
            cubic_real_roots(p, q)

    def test_random_cubics_complete(self):
        """Roots recovered from randomly constructed factorizations, with
        the roots shifted to sum to zero so the cubic is depressed."""
        rng = np.random.default_rng(42)
        for _ in range(1000):
            if rng.random() < 0.5:
                roots = np.sort(rng.uniform(-5, 5, size=3))
                roots -= roots.mean()
                p = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
                q = -roots.prod()
                expected = roots
            else:
                r0 = rng.uniform(-5, 5)
                # (t - r0)(t^2 + r0 t + b) with no real quadratic roots
                b = r0 * r0 / 4.0 + rng.uniform(0.1, 4.0)
                p = b - r0 * r0
                q = -r0 * b
                expected = np.array([r0])
            got = cubic_real_roots(p, q)
            for r in expected:
                assert min(abs(g - r) for g in got) <= 1e-6 * max(1.0, abs(r))
            # every reported root really is a root
            for g in got:
                val = (g * g + p) * g + q
                assert abs(val) <= 1e-7 * max(1.0, abs(g) ** 3)


class TestGoldenSection:
    def test_parabola(self):
        x = golden_section_min(lambda s: (s - 2.0) ** 2, 0.0, 5.0)
        assert x == pytest.approx(2.0, abs=1e-7)

    def test_cosine(self):
        x = golden_section_min(math.cos, 0.0, 2.0 * math.pi)
        assert x == pytest.approx(math.pi, abs=1e-6)

    def test_boundary_minimum(self):
        x = golden_section_min(lambda s: s, 1.0, 3.0)
        assert x == pytest.approx(1.0, abs=1e-6)

    def test_invalid_bracket(self):
        with pytest.raises(InvalidBracket):
            golden_section_min(lambda s: s, 1.0, 1.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0),
                                        (math.nan, 1.0), (0.0, math.nan),
                                        (-1e308, 1e308)])
    def test_non_finite_bracket(self, lo, hi):
        with pytest.raises(InvalidBracket):
            golden_section_min(lambda s: s * s, lo, hi)

    # A tol of 0 or below once made the loop run forever, so these calls
    # run under a time limit.
    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_invalid_tol(self, tol):
        with _time_limit(10), pytest.raises(ValueError, match="tol must be finite and positive"):
            golden_section_min(lambda s: s * s, 0.0, 1.0, tol=tol)

    def test_tol_below_float_spacing_ends(self):
        """Near 0.5 the bracket cannot shrink below the float spacing, so a
        tol of 1e-300 is never met; the step count still ends the loop."""
        calls = []

        def f(s):
            calls.append(s)
            return (s - 0.5) ** 2

        with _time_limit(10):
            x = golden_section_min(f, 0.0, 1.0, tol=1e-300)
        assert x == pytest.approx(0.5, abs=1e-12)
        assert len(calls) <= 202


class TestSoftThreshold:
    def test_values(self):
        v = np.array([3.0, -0.5, 0.0, -2.0])
        assert np.allclose(soft_threshold(v, 1.0), [2.0, 0.0, 0.0, -1.0])

    def test_matches_scalar_prox_oracle(self):
        """prox of lam|.| equals argmin lam|u| + (1/(2 step))(u - v)^2."""
        rng = np.random.default_rng(3)
        lam_term = l1_term(0.7)
        for _ in range(50):
            v = float(rng.uniform(-4, 4))
            step = float(rng.uniform(0.1, 3.0))
            u = golden_section_min(
                lambda s: 0.7 * abs(s) + (s - v) ** 2 / (2 * step),
                -6.0, 6.0, tol=1e-10)
            got = float(lam_term.prox(np.array([v]), step)[0])
            assert got == pytest.approx(u, abs=1e-6)


class TestFista:
    def test_quadratic_exact_center(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(5)
        obj = CompositeObjective(quadratic_term(2.0, c), zero_prox())
        x = fista(obj, np.zeros(5), FistaConfig(tol=1e-12), lipschitz=2.0)
        assert np.allclose(x, c, atol=1e-8)

    def test_scalar_lasso(self):
        # min 0.5 (x - 3)^2 + |x|  ->  x = 2
        obj = CompositeObjective(quadratic_term(1.0, np.array([3.0])), l1_term(1.0))
        x = fista(obj, np.zeros(1), FistaConfig(tol=1e-12), lipschitz=1.0)
        assert x[0] == pytest.approx(2.0, abs=1e-8)

    def test_lasso_vector_vs_soft_threshold(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal(8) * 2.0
        obj = CompositeObjective(quadratic_term(1.0, c), l1_term(0.5))
        x = fista(obj, np.zeros(8), FistaConfig(tol=1e-12), lipschitz=1.0)
        assert np.allclose(x, soft_threshold(c, 0.5), atol=1e-8)

    @staticmethod
    def _least_squares_l1():
        rng = np.random.default_rng(2)
        A = rng.standard_normal((20, 10))
        b = rng.standard_normal(20)

        def value(x):
            r = A @ x - b
            return 0.5 * float(r @ r)

        obj = CompositeObjective(
            SmoothTerm(value=value, gradient=lambda x: A.T @ (A @ x - b)),
            l1_term(0.3))
        return obj, np.linalg.norm(A, 2) ** 2, rng.standard_normal(10)

    def test_monotone_objective(self):
        """Restart and the final check: the result is never worse than the start."""
        obj, lip, x0 = self._least_squares_l1()
        x = fista(obj, x0, FistaConfig(max_iter=300), lipschitz=lip)
        assert obj.value(x) <= obj.value(x0) + 1e-12

    def test_known_lipschitz_falls_back_to_start(self):
        """A step far above 1/L makes the iterates grow; x0 is returned."""
        obj, lip, x0 = self._least_squares_l1()
        x = fista(obj, x0, FistaConfig(max_iter=3), lipschitz=1e-3 * lip)
        assert np.array_equal(x, x0)

    def test_known_lipschitz_evaluates_objective_twice(self):
        calls = []
        c = np.array([1.0, -2.0, 0.5])
        quad = quadratic_term(3.0, c)

        def value(x):
            calls.append(1)
            return quad.value(x)

        obj = CompositeObjective(SmoothTerm(value=value, gradient=quad.gradient),
                                 l1_term(0.1))
        fista(obj, np.zeros(3), FistaConfig(max_iter=200, tol=1e-14), lipschitz=3.0)
        assert len(calls) == 2

    @pytest.mark.parametrize("lipschitz, error", [
        pytest.param(0.0, ValueError, id="0.0"),
        pytest.param(-1.0, ValueError, id="-1.0"),
        pytest.param(math.nan, NonFiniteIterate, id="nan"),
        pytest.param(math.inf, NonFiniteIterate, id="inf"),
        pytest.param(None, ValueError, id="None"),
    ])
    def test_invalid_lipschitz(self, lipschitz, error):
        """There is no step rule without a finite, positive L; None is the
        default, so an omitted constant raises too. A NaN or Inf L (a
        declared constant that overflowed) is a solver failure."""
        obj = CompositeObjective(quadratic_term(1.0, np.ones(2)), zero_prox())
        with pytest.raises(error, match="lipschitz"):
            fista(obj, np.zeros(2), lipschitz=lipschitz)

    def test_logistic_plus_quadratic(self):
        """Scalar: log(1 + e^q) - q + 0.5 (q - 1)^2; solution where
        sigmoid(q) - 1 + q - 1 = 0, i.e. q + sigmoid(q) = 2."""
        loss, quad = logistic_loss(np.array([1.0])), quadratic_term(1.0, np.array([1.0]))
        obj = CompositeObjective(
            SmoothTerm(value=lambda q: loss.value(q) + quad.value(q),
                       gradient=lambda q: loss.gradient(q) + quad.gradient(q)),
            zero_prox())
        q = fista(obj, np.zeros(1), FistaConfig(tol=1e-12, max_iter=2000), lipschitz=1.25)
        root = float(q[0])
        assert root + 1.0 / (1.0 + math.exp(-root)) == pytest.approx(2.0, abs=1e-6)

    def test_nan_iterate_raises(self):
        obj = CompositeObjective(
            SmoothTerm(value=lambda x: 0.0, gradient=lambda x: np.full_like(x, math.nan)),
            zero_prox())
        with pytest.raises(NonFiniteIterate):
            fista(obj, np.ones(3), lipschitz=1.0)

    def test_overflowing_step_is_not_non_finite(self):
        """From 1e200 the first step has a finite length whose square
        overflows; only a NaN or Inf in the iterate itself may raise."""
        obj = CompositeObjective(quadratic_term(1.0, np.zeros(2)), zero_prox())
        with pytest.warns(RuntimeWarning, match="overflow"):
            x = fista(obj, np.full(2, 1e200), lipschitz=1.0)
        assert np.array_equal(x, np.zeros(2))

    @pytest.mark.parametrize("kw", [dict(max_iter=0), dict(tol=0.0),
                                    dict(max_iter=-1), dict(tol=-1e-3),
                                    dict(tol=math.nan), dict(tol=math.inf),
                                    dict(max_iter=math.nan),
                                    dict(max_iter=math.inf), dict(max_iter=2.5)])
    def test_invalid_config(self, kw):
        with pytest.raises(ValueError):
            FistaConfig(**kw)


class TestLassoActiveSet:
    @staticmethod
    def _problem(rng, p):
        A = rng.standard_normal((p + 3, p))
        return A.T @ A, rng.standard_normal(p) * 3.0

    def test_matches_brute_force(self):
        """Against every sign pattern, from zero and from random warm
        starts, at weights from 0 (least squares) to above ||c||_inf."""
        rng = np.random.default_rng(5)
        for _ in range(150):
            p = int(rng.integers(1, 6))
            G, c = self._problem(rng, p)
            mu = float(rng.choice([0.0, 0.3, 1.0, 3.0])) * float(np.max(np.abs(c)))
            x0 = rng.standard_normal(p) * (rng.random(p) < 0.5)
            x = lasso_active_set(G, c, mu, x0, {})
            assert np.allclose(x, lasso_brute_force(G, c, mu), rtol=0.0, atol=1e-10)
            assert lasso_kkt_violation(G, c, mu, x) <= 1e-14

    def test_diagonal_is_soft_threshold(self):
        c = np.array([3.0, -0.5, 0.0, -2.0])
        x = lasso_active_set(np.eye(4), c, 1.0, np.array([-1.0, 0.0, 2.0, 0.0]), {})
        assert np.array_equal(x, soft_threshold(c, 1.0))

    def test_does_not_modify_start(self):
        x0 = np.array([1.0, -1.0])
        lasso_active_set(np.eye(2), np.array([-5.0, 5.0]), 1.0, x0, {})
        assert np.array_equal(x0, [1.0, -1.0])

    def test_step_bound_raises(self, monkeypatch):
        """From zero the diagonal problem takes three steps: two that each
        activate a coordinate and solve, and one that finds no coordinate
        left to activate. It is solved within three, and with a bound of
        two it raises."""
        G, c = np.diag([1.0, 2.0]), np.array([3.0, -4.0])
        monkeypatch.setattr(inner, "_max_lasso_steps", lambda p: 3)
        assert np.array_equal(lasso_active_set(G, c, 1.0, np.zeros(2), {}), [2.0, -1.5])
        monkeypatch.setattr(inner, "_max_lasso_steps", lambda p: 2)
        with pytest.raises(SubproblemFailure, match="^lasso: no solution within 2 "):
            lasso_active_set(G, c, 1.0, np.zeros(2), {})

    @pytest.mark.parametrize("c, mu, x0", [([1.0, math.nan], 1.0, [0.0, 0.0]),
                                           ([math.inf, 0.0], 1.0, [0.0, 0.0]),
                                           ([1.0, 2.0], math.inf, [0.0, 0.0]),
                                           ([1.0, 2.0], math.nan, [0.0, 0.0]),
                                           ([1.0, 2.0], 1.0, [math.nan, 1.0])],
                             ids=["nan-c", "inf-c", "inf-mu", "nan-mu", "nan-x0"])
    def test_non_finite_input_raises(self, c, mu, x0):
        with pytest.raises(SubproblemFailure) as e:
            lasso_active_set(np.eye(2), np.array(c), mu, np.array(x0), {})
        assert str(e.value) == "lasso: non-finite linear term, l1 weight or start"


class TestDeclaredLipschitz:
    def test_logistic_bound_holds(self):
        """||g(a) - g(b)|| <= (1/4) ||a - b|| on random pairs."""
        rng = np.random.default_rng(4)
        term = logistic_loss(rng.integers(0, 2, 6).astype(float))
        for _ in range(200):
            a, b = rng.standard_normal(6) * 3.0, rng.standard_normal(6) * 3.0
            diff = np.linalg.norm(term.gradient(a) - term.gradient(b))
            assert diff <= 0.25 * np.linalg.norm(a - b) * (1.0 + 1e-12)


class TestL1Term:
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0, -math.inf, None])
    def test_l1_weight_validated(self, lam):
        """``ProxTerm`` checks its weight, the whole term, as ``l1_term``
        does; a non-number raises too."""
        error, match = ((TypeError, None) if lam is None
                        else (ValueError, "l1 weight must be finite and nonnegative"))
        for make in (l1_term, ProxTerm):
            with pytest.raises(error, match=match):
                make(lam)

    def test_l1_weight_zero_allowed(self):
        """At weight 0 the value is exactly 0.0 and reads nothing of x, so it
        takes no array work; the prox is the identity."""
        assert l1_term(0.0).value(np.array([1.0, -2.0])) == 0.0
        assert zero_prox() == ProxTerm(0.0)
        value = zero_prox().value(np.array([1.0, -2.0]))
        assert value == 0.0 and type(value) is float
        assert zero_prox().value(None) == 0.0
        v = np.array([-0.0, 1.5, -2.0])
        assert zero_prox().prox(v, 3.0) is v

    def test_declared_l1_weight(self):
        assert l1_term(0.7).l1_weight == 0.7
        assert zero_prox().l1_weight == 0.0
        with pytest.raises(TypeError, match="l1_weight"):
            ProxTerm()

    @pytest.mark.parametrize("lam", [0.3, 1.0, 7.5])
    def test_l1_term_is_soft_threshold(self, lam):
        """Value and prox of the l1 term, bit for bit, at weights above 0."""
        rng = np.random.default_rng(12)
        for step in (1e-3, 0.5, 2.0):
            v = rng.standard_normal(9) * 3.0
            assert l1_term(lam).prox(v, step).tobytes() == soft_threshold(v, lam * step).tobytes()
            assert l1_term(lam).value(v) == lam * float(np.abs(v).sum())

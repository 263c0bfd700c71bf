import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import expit

from helpers import (
    bag_subproblem_oracle,
    bag_subproblem_value,
    lasso_brute_force,
    lasso_cd_oracle,
)
from nladmm import datagen, inner, maxop, sphere, terms
from nladmm.engine import RhoSchedule, StopCriteria
from nladmm.errors import SubproblemFailure
from nladmm.terms import (
    CompositeObjective,
    ProxTerm,
    SmoothTerm,
    l1_term,
    logistic_loss,
    zero_prox,
)


RANK_DEFICIENT = ["duplicate", "scaled", "zero", "sum", "all-zero"]


def _rank_deficient(kind: str, seed: int = 6) -> maxop.BagDataset:
    """Bags of generate_bags(8, 3, 3) with the last feature column made
    dependent: a copy of the first, twice the first, zero, or the sum of
    the first two; or with every feature zero."""
    data, _ = datagen.generate_bags(8, 3, 3, seed=seed)
    X = data.X.copy()
    if kind == "all-zero":
        X[:] = 0.0
    else:
        X[:, 2] = {"duplicate": X[:, 0], "scaled": 2.0 * X[:, 0], "zero": 0.0,
                   "sum": X[:, 0] + X[:, 1]}[kind]
    return maxop.BagDataset(labels=data.labels, X=X, offsets=data.offsets)


def _no_fista(*args, **kwargs):
    raise AssertionError("no solve may call fista")


def _no_iteration(*args):
    raise AssertionError("the solve must not start iterating")


class TestTUpdateBag:
    def test_hand_example_partial_average(self):
        # psi=0, phi=(3,1): only the top entry is averaged with psi.
        t = maxop.t_update_bag(0.0, np.array([3.0, 1.0]))
        assert np.allclose(t, [1.5, 1.0])
        assert bag_subproblem_value(0.0, np.array([3.0, 1.0]), t) == pytest.approx(4.5)

    def test_hand_example_large_psi(self):
        # psi=10, phi=(1,1): stable sort averages the first tied entry.
        t = maxop.t_update_bag(10.0, np.array([1.0, 1.0]))
        assert np.allclose(t, [5.5, 1.0])
        assert bag_subproblem_value(10.0, np.array([1.0, 1.0]), t) == pytest.approx(40.5)

    def test_single_instance(self):
        t = maxop.t_update_bag(4.0, np.array([2.0]))
        assert np.allclose(t, [3.0])

    def test_psi_below_all(self):
        # psi far below every target: the whole bag is averaged with psi,
        # (1 + 0 - 1 - 10) / 4 = -2.5, which beats lowering the max alone.
        t = maxop.t_update_bag(-10.0, np.array([1.0, 0.0, -1.0]))
        assert np.allclose(t, [-2.5, -2.5, -2.5])
        h = bag_subproblem_value(-10.0, np.array([1.0, 0.0, -1.0]), t)
        assert h == pytest.approx(77.0)

    def test_already_consistent(self):
        # psi equal to the max leaves phi unchanged.
        t = maxop.t_update_bag(2.0, np.array([2.0, 1.0]))
        assert np.allclose(t, [2.0, 1.0])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            phi = rng.standard_normal(n) * 3.0
            psi = float(rng.standard_normal()) * 3.0
            t = maxop.t_update_bag(psi, phi)
            perm = rng.permutation(n)
            t_perm = maxop.t_update_bag(psi, phi[perm])
            assert bag_subproblem_value(psi, phi[perm], t_perm) == pytest.approx(
                bag_subproblem_value(psi, phi, t), abs=1e-12)

    def test_matches_oracle_on_random_bags(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            phi = rng.standard_normal(n) * rng.uniform(0.5, 4.0)
            psi = float(rng.standard_normal() * rng.uniform(0.5, 4.0))
            t = maxop.t_update_bag(psi, phi)
            h = bag_subproblem_value(psi, phi, t)
            assert h <= bag_subproblem_oracle(psi, phi) + 1e-9

    def test_block_average_objective_nondecreasing(self):
        """The objective restricted to averaging the top-c block (with the
        averaged value treated as the bag max) is nondecreasing in c, which
        justifies stopping at the first valid c; the increment is exactly
        (c+1)(a_{c+1} - a_c)^2 + (a_{c+1} - phi_{c+1})^2."""
        rng = np.random.default_rng(321)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            phi = np.sort(rng.standard_normal(n) * 2.0)[::-1]
            psi = float(rng.standard_normal() * 2.0)
            hs, avgs = [], []
            for c in range(1, n + 1):
                a = (float(np.sum(phi[:c])) + psi) / (c + 1.0)
                hs.append((psi - a) ** 2 + float(np.sum((a - phi[:c]) ** 2)))
                avgs.append(a)
            for c in range(1, n):
                inc = ((c + 1) * (avgs[c] - avgs[c - 1]) ** 2
                       + (avgs[c] - phi[c]) ** 2)
                assert hs[c] - hs[c - 1] == pytest.approx(inc, abs=1e-10)
            assert all(b >= a - 1e-12 for a, b in zip(hs, hs[1:]))


class TestBagDataset:
    def test_from_bags_and_max(self):
        data = maxop.BagDataset.from_bags(
            [1.0, 0.0], [np.array([[1.0, 0.0], [0.0, 2.0]]),
                         np.array([[3.0, 1.0]])])
        assert data.n_bags == 2
        assert data.n_features == 2
        assert np.array_equal(data.offsets, [0, 2, 3])
        t = np.array([5.0, -1.0, 2.0])
        assert np.array_equal(data.bag_max(t), [5.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            maxop.BagDataset(labels=np.array([1.0]), X=np.zeros((2, 2)),
                             offsets=np.array([0, 0]))
        with pytest.raises(ValueError):
            maxop.BagDataset(labels=np.array([1.0]), X=np.zeros((2, 2)),
                             offsets=np.array([0, 1]))

    def test_offsets_must_start_at_zero(self):
        with pytest.raises(ValueError, match="offsets inconsistent"):
            maxop.BagDataset(labels=np.array([1.0]), X=np.zeros((2, 2)),
                             offsets=np.array([1, 2]))

    def test_csv_roundtrip_exact(self, tmp_path):
        data, _ = datagen.generate_bags(5, 3, 4, seed=2)
        path = tmp_path / "bags.csv"
        maxop.save_bags_csv(path, data)
        loaded = maxop.load_bags_csv(path)
        assert np.array_equal(loaded.labels, data.labels)
        assert np.array_equal(loaded.X, data.X)
        assert np.array_equal(loaded.offsets, data.offsets)

    @pytest.mark.parametrize("column, text, message", [
        (2, "nan", "non-finite"), (3, "-inf", "non-finite"),
        (1, "2", "not 0 or 1"), (1, "-1.0", "not 0 or 1"), (1, "nan", "not 0 or 1"),
        pytest.param(slice(None), [], "0 fields, the header has 4", id="blank-line"),
        pytest.param(slice(2, None), [], "2 fields, the header has 4", id="no-features"),
        pytest.param(3, "0.5,0.25", "5 fields, the header has 4", id="extra-feature"),
        pytest.param(0, "one", "invalid literal", id="bad-bag-id"),
        pytest.param(1, "0", "bag 1 has label 1, not '0'", id="label-disagrees"),
        pytest.param(0, "0", "bag 0 resumes after bag 1", id="non-adjacent"),
        pytest.param(0, "5", "bag id 5, expected 2", id="gapped-bag-id")])
    def test_csv_rejects_bad_values(self, tmp_path, column, text, message):
        data, _ = datagen.generate_bags(3, 2, 2, seed=2)
        path = tmp_path / "bags.csv"
        maxop.save_bags_csv(path, data)
        lines = path.read_text().splitlines()
        fields = lines[4].split(",")
        fields[column] = text
        lines[4] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line 5: .*{message}"):
            maxop.load_bags_csv(path)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            maxop.load_bags_csv(path)

    @pytest.mark.parametrize("text", ["", "bag_id,label,f1\n"], ids=["empty", "header-only"])
    def test_csv_rejects_files_without_rows(self, tmp_path, text):
        path = tmp_path / "bags.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"bags\.csv, line 1: "):
            maxop.load_bags_csv(path)


class TestBlockUpdates:
    def test_update_q_zero_loss_returns_center(self):
        data = maxop.BagDataset.from_bags([1.0], [np.eye(2)])
        zero = CompositeObjective(SmoothTerm(value=lambda q: 0.0, gradient=np.zeros_like,
                                             prox=lambda center, rho, q0: center), zero_prox())
        t = np.array([2.0, 5.0])
        y1 = np.array([1.0])
        q = maxop.update_q(zero, data, t, y1, rho=2.0, q0=np.zeros(1))
        assert q[0] == pytest.approx(5.0 - 0.5, abs=1e-8)

    @staticmethod
    def _q_subproblem():
        data, _ = datagen.generate_bags(8, 3, 3, seed=6)
        rng = np.random.default_rng(10)
        t = rng.standard_normal(data.X.shape[0]) * 3.0
        y1 = rng.standard_normal(data.n_bags)
        return data, t, y1, 0.1

    @staticmethod
    def _q_oracle(data, t, y1, rho):
        """Per-bag root of sigmoid(q) - label + rho (q - center) = 0, which
        lies within 1/rho of the center."""
        center = data.bag_max(t) - y1 / rho
        return np.array([brentq(lambda q: expit(q) - y + rho * (q - c),
                                c - 1.0 / rho - 1.0, c + 1.0 / rho + 1.0, xtol=1e-14)
                         for y, c in zip(data.labels, center)])

    def test_update_q_declared_step(self):
        """The logistic loss declares its prox, so the q-update is that
        prox, and reaches the per-bag root."""
        data, t, y1, rho = self._q_subproblem()
        loss = CompositeObjective(logistic_loss(data.labels), zero_prox())
        q = maxop.update_q(loss, data, t, y1, rho, np.zeros(data.n_bags))
        oracle = self._q_oracle(data, t, y1, rho)
        assert np.all(np.abs(q - oracle) <= 1e-12 * np.maximum(np.abs(oracle), 1.0))

    @pytest.mark.parametrize("rho", [1e-3, 0.1, 1.0, 1e3])
    @pytest.mark.parametrize("start", ["zero", "center", "near", "far"])
    def test_update_q_matches_oracle(self, rho, start):
        """The exact q-update against brentq per bag, from a zero start,
        the center, a start near the root and one outside the bracket."""
        data, t, y1, _ = self._q_subproblem()
        oracle = self._q_oracle(data, t, y1, rho)
        rng = np.random.default_rng(11)
        q0 = {"zero": np.zeros(data.n_bags),
              "center": data.bag_max(t) - y1 / rho,
              "near": oracle + 1e-3 * rng.standard_normal(data.n_bags),
              "far": np.full(data.n_bags, 1e6)}[start]
        loss = CompositeObjective(logistic_loss(data.labels), zero_prox())
        q = maxop.update_q(loss, data, t, y1, rho, q0)
        assert np.all(np.abs(q - oracle) <= 1e-12 * np.maximum(np.abs(oracle), 1.0))

    def test_logistic_prox_step_bound_raises(self, monkeypatch):
        """Past its Newton step bound the prox raises instead of returning
        an unconverged point."""
        monkeypatch.setattr(terms, "_MAX_NEWTON_STEPS", 2)
        data, t, y1, rho = self._q_subproblem()
        prox = logistic_loss(data.labels).prox
        with pytest.raises(SubproblemFailure, match="no root within 2 Newton steps"):
            prox(data.bag_max(t) - y1 / rho, rho, np.zeros(data.n_bags))

    @pytest.mark.parametrize("center, rho", [
        pytest.param(-4.554559740748719, 0.08101137465304825, id="newton-cycle"),
        pytest.param(-73.41956642486056, 0.037481893111277795, id="root-on-bracket-end")])
    def test_logistic_prox_hard_starts(self, center, rho, monkeypatch):
        """Label 1, started at the center. In the first case Newton cycles
        across the sigmoid's inflection, past 100 steps without bisecting a
        step that turns back without halving the last; in the second the
        root rounds onto c + 1/rho, 28 steps without the widened bracket.
        Both take at most 10."""
        monkeypatch.setattr(terms, "_MAX_NEWTON_STEPS", 10)
        c = np.array([center])
        q = logistic_loss(np.array([1.0])).prox(c, rho, c)[0]
        assert abs(rho * (q - center) - expit(-q)) <= 1e-15

    @pytest.mark.parametrize("label", [0.0, 1.0])
    @pytest.mark.parametrize("d, u0", [(-1000.0, -1010.0), (1e6 + 1000.0, 2000.0)],
                             ids=["below-0", "above-0"])
    def test_logistic_prox_restart_nearest_zero(self, label, d, u0, monkeypatch):
        """In the mirrored frame u = s q, d = s c, s = 1 - 2 label, at
        rho = 1e-6, a start beyond the root restarts at the end of the
        root's interval [d - 1/rho, d] nearest 0: d below 0, d - 1/rho
        above it. The sigmoid is flat there, so one step ends it; Newton
        from 0 would climb its tail about one unit per step."""
        monkeypatch.setattr(terms, "_MAX_NEWTON_STEPS", 3)
        s = 1.0 - 2.0 * label
        q = logistic_loss(np.array([label])).prox(np.array([s * d]), 1e-6, np.array([s * u0]))
        assert s * q[0] == pytest.approx(min(max(0.0, d - 1e6), d), rel=1e-12)

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_logistic_prox_stops_at_rounding_level(self, label):
        """At rho = 1e-18 and c = 1/rho (mirrored for label 1) the root lies
        where sigmoid(q) rounds to 1, so its residual is rounding noise and
        the Newton steps on it are several units long. The prox stops on
        the size of the residual instead of running to its step bound."""
        c = np.array([(1.0 - 2.0 * label) / 1e-18])
        q = logistic_loss(np.array([label])).prox(c, 1e-18, np.zeros(1))
        loss_term = -expit(-q) if label else expit(q)
        penalty = 1e-18 * (q - c)
        eps = np.finfo(float).eps
        assert abs(loss_term + penalty) <= 8.0 * eps * (abs(loss_term) + abs(penalty))

    @pytest.mark.parametrize("bad", ["center", "start"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_logistic_prox_nonfinite_raises(self, bad, value):
        """A NaN or Inf center or start raises, with no numpy warning
        (pytest turns a RuntimeWarning into an error)."""
        y = np.array([0.0, 1.0, 1.0])
        center, q0 = np.array([0.5, -1.0, 2.0]), np.zeros(3)
        {"center": center, "start": q0}[bad][1] = value
        with pytest.raises(SubproblemFailure, match="non-finite"):
            logistic_loss(y).prox(center, 0.1, q0)

    def test_logistic_prox_declared_for_binary_labels_only(self):
        """The prox reflects label 1 onto label 0, so only labels 0 and 1
        are accepted; any other label raises."""
        assert logistic_loss(np.array([0.0, 1.0, 1.0])).prox is not None
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            logistic_loss(np.array([0.0, 0.5]))

    def test_logistic_gradient_extreme_scores(self):
        """The sigmoid takes exp(-|q|), so scores far past the float range
        of exp give 0 and 1 with no overflow warning."""
        g = logistic_loss(np.zeros(4)).gradient(np.array([-1e4, -700.0, 700.0, 1e4]))
        assert g[0] == 0.0 and g[1] == pytest.approx(expit(-700.0), rel=1e-15)
        assert g[2] == g[3] == 1.0

    def test_update_q_undeclared_loss_raises(self, monkeypatch):
        """A loss that declares no prox has no q-update: the solve raises
        before its first iteration."""
        monkeypatch.setattr(maxop, "iterate", _no_iteration)
        data, _ = datagen.generate_bags(8, 3, 3, seed=6)
        logistic = logistic_loss(data.labels)
        loss = CompositeObjective(SmoothTerm(value=logistic.value, gradient=logistic.gradient),
                                  zero_prox())
        with pytest.raises(ValueError, match="declares its prox"):
            maxop.maxop_solve(data, loss, l1_term(1.0), maxop.MaxOpState.zeros(data, 0.1),
                              RhoSchedule.constant(0.1), StopCriteria(max_iter=5))

    def test_update_beta_least_squares(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((6, 3))
        data = maxop.BagDataset.from_bags([1.0], [X])
        t = rng.standard_normal(6)
        beta = maxop.update_beta(zero_prox(), data, t, np.zeros(6), rho=1.0,
                                 beta0=np.zeros(3))
        expected, *_ = np.linalg.lstsq(X, t, rcond=None)
        assert np.allclose(beta, expected, atol=1e-6)

    def test_update_beta_l1_shrinks(self):
        X = np.eye(4)
        data = maxop.BagDataset.from_bags([1.0], [X])
        t = np.array([3.0, -0.2, 0.0, 1.0])
        beta = maxop.update_beta(l1_term(1.0), data, t, np.zeros(4), rho=1.0,
                                 beta0=np.zeros(4))
        assert np.allclose(beta, [2.0, 0.0, 0.0, 0.0], atol=1e-6)

    @pytest.mark.parametrize("reg, lam", [(zero_prox(), 0.0), (l1_term(0.5), 0.5)],
                             ids=["none", "l1"])
    def test_update_beta_matches_coordinate_descent_oracle(self, reg, lam):
        """On full-rank X the beta-update solves its lasso exactly and
        lands on the minimizer that coordinate descent on the same lasso
        finds."""
        data, _ = datagen.generate_bags(6, 3, 3, seed=5)
        rng = np.random.default_rng(9)
        t = rng.standard_normal(data.X.shape[0])
        y2 = rng.standard_normal(data.X.shape[0])
        rho = 0.1
        beta = maxop.update_beta(reg, data, t, y2, rho, np.zeros(3))
        X, b = data.X, t + y2 / rho
        oracle = lasso_cd_oracle(rho * X.T @ X, rho * X.T @ b, lam)
        assert np.allclose(beta, oracle, rtol=0.0, atol=1e-10)

    def test_update_beta_matches_brute_force(self):
        """The exact beta-update against every sign pattern of the lasso,
        from zero and from random warm starts, at l1 weights that leave
        all, some or none of the features active."""
        rng = np.random.default_rng(17)
        for trial in range(60):
            p = int(rng.integers(1, 6))
            data, _ = datagen.generate_bags(6, 3, p, seed=trial)
            t = rng.standard_normal(data.X.shape[0]) * 3.0
            y2 = rng.standard_normal(data.X.shape[0])
            rho = float(rng.choice([0.1, 1.0, 10.0]))
            lam = float(rng.choice([0.0, 0.5, 5.0, 50.0]))
            beta0 = rng.standard_normal(p) * (rng.random(p) < 0.5)
            beta = maxop.update_beta(l1_term(lam), data, t, y2, rho, beta0)
            X, b = data.X, t + y2 / rho
            oracle = lasso_brute_force(X.T @ X, X.T @ b, lam / rho)
            assert np.allclose(beta, oracle, rtol=0.0, atol=1e-10)
            assert np.array_equal(beta == 0.0, oracle == 0.0)


class TestMaxopSolve:
    def test_residual_drops_on_synthetic_data(self):
        data, _ = datagen.generate_bags(6, 3, 3, seed=4)
        loss = CompositeObjective(logistic_loss(data.labels), zero_prox())
        state, trace, _ = maxop.maxop_solve(
            data, loss, l1_term(1.0), maxop.MaxOpState.zeros(data, 0.1),
            RhoSchedule.constant(0.1), StopCriteria(max_iter=400))
        assert trace[-1].r_norm < 1e-2
        gap = float(np.max(np.abs(state.q - data.bag_max(state.t))))
        assert gap < 1e-2

    def test_trace_objective_matches_state(self):
        data, _ = datagen.generate_bags(4, 2, 2, seed=5)
        loss = CompositeObjective(logistic_loss(data.labels), zero_prox())
        reg = l1_term(1.0)
        state, trace, _ = maxop.maxop_solve(
            data, loss, reg, maxop.MaxOpState.zeros(data, 0.1),
            RhoSchedule.constant(0.1), StopCriteria(max_iter=50))
        assert trace[-1].objective == pytest.approx(
            loss.value(state.q) + reg.value(state.beta))

    @pytest.mark.parametrize("case", ["nonsmooth-loss", "undeclared-l1-weight"])
    def test_rejects_undeclared_terms(self, case, monkeypatch):
        """A loss with a non-zero nonsmooth part, or a regularizer that does
        not declare its l1 weight, has no exact block: the solve raises
        before its first iteration."""
        monkeypatch.setattr(maxop, "iterate", _no_iteration)
        data, _ = datagen.generate_bags(8, 3, 3, seed=6)
        nonsmooth, reg, message = {
            "nonsmooth-loss": (l1_term(0.05), l1_term(1.0), "zero nonsmooth part"),
            "undeclared-l1-weight": (zero_prox(), ProxTerm(value=l1_term(1.0).value,
                                                           prox=l1_term(1.0).prox,
                                                           l1_weight=None),
                                     "declares its l1 weight")}[case]
        loss = CompositeObjective(logistic_loss(data.labels), nonsmooth)
        with pytest.raises(ValueError, match=message):
            maxop.maxop_solve(data, loss, reg, maxop.MaxOpState.zeros(data, 0.1),
                              RhoSchedule.constant(0.1), StopCriteria(max_iter=5))

    def test_bag_max_once_per_iteration(self, monkeypatch):
        """The bag maxima of t are taken once per outer iteration, plus
        once for the initial t: the q-block's center and the dual norm
        reuse those of the y1 residual."""
        calls = []
        bag_max = maxop.BagDataset.bag_max

        def counted(self, t):
            calls.append(1)
            return bag_max(self, t)

        monkeypatch.setattr(maxop.BagDataset, "bag_max", counted)
        data, _ = datagen.generate_bags(8, 3, 3, seed=6)
        loss = CompositeObjective(logistic_loss(data.labels), zero_prox())
        _, trace, _ = maxop.maxop_solve(
            data, loss, l1_term(1.0), maxop.MaxOpState.zeros(data, 0.1),
            RhoSchedule.constant(0.1), StopCriteria(max_iter=40))
        assert len(trace) == 40
        assert len(calls) <= 40 + 1


class TestRankDeficientBeta:
    """On rank-deficient X the beta-block carries the proximal term
    (rho delta/2)||beta - beta0||^2, so it is still an exact lasso solve;
    no solve calls FISTA on any X."""

    @pytest.mark.parametrize("kind", RANK_DEFICIENT)
    def test_update_beta_matches_brute_force(self, kind):
        """The beta-update against every sign pattern of the lasso with
        G = X'X + delta I and c = X'b + delta beta0, from zero and from
        random warm starts; delta = 1e-10 lambda_max(X'X), or 1e-10 when
        every feature is zero."""
        rng = np.random.default_rng(23)
        for trial in range(20):
            data = _rank_deficient(kind, seed=trial)
            X = data.X
            G, delta = data.gram
            lmax = np.linalg.norm(X, 2) ** 2
            assert delta == (pytest.approx(1e-10 * lmax, rel=1e-9) if lmax > 0.0 else 1e-10)
            assert data.gram[0] is G
            t = rng.standard_normal(X.shape[0]) * 3.0
            y2 = rng.standard_normal(X.shape[0])
            rho = float(rng.choice([0.1, 1.0, 10.0]))
            lam = float(rng.choice([0.0, 0.5, 5.0, 50.0]))
            beta0 = rng.standard_normal(3) * (rng.random(3) < 0.5)
            if kind == "all-zero":
                beta0 = rng.standard_normal(3) * 1e9
            beta = maxop.update_beta(l1_term(lam), data, t, y2, rho, beta0)
            oracle = lasso_brute_force(X.T @ X + delta * np.eye(3),
                                       X.T @ (t + y2 / rho) + delta * beta0, lam / rho)
            assert np.allclose(beta, oracle, rtol=1e-9, atol=1e-10)
            assert np.array_equal(beta == 0.0, oracle == 0.0)

    def test_full_rank_gram_has_no_proximal_term(self):
        data, _ = datagen.generate_bags(8, 3, 3, seed=6)
        G, delta = data.gram
        assert delta == 0.0 and np.array_equal(G, data.X.T @ data.X)

    def test_no_solve_calls_fista(self, monkeypatch):
        """Every multi-instance solve, on full-rank X and on each kind of
        rank-deficient X, and a 1-bit CS solve run with every name of
        fista patched to raise."""
        for module in (inner, sphere, maxop):
            monkeypatch.setattr(module, "fista", _no_fista)
        for data in [datagen.generate_bags(8, 3, 3, seed=6)[0]] + [
                _rank_deficient(kind) for kind in RANK_DEFICIENT]:
            loss = CompositeObjective(logistic_loss(data.labels), zero_prox())
            _, trace, _ = maxop.maxop_solve(data, loss, l1_term(1.0),
                                            maxop.MaxOpState.zeros(data, 0.1),
                                            RhoSchedule.constant(0.1), StopCriteria(max_iter=60))
            assert len(trace) == 60
        problem, _ = datagen.generate_onebit(16, 12, 4, seed=0, lam=10.0)
        M = problem.signed_matrix
        x0 = M.T @ np.ones(12)
        x0 /= np.linalg.norm(x0)
        init = sphere.OneBitCsState(x=x0.copy(), w=x0.copy(), z=M @ x0, y1=0.0,
                                    y2=np.zeros(12), y3=np.zeros(16), rho=1000.0)
        _, trace, _ = sphere.onebit_solve(problem, init, RhoSchedule.constant(1000.0),
                                          StopCriteria(max_iter=20))
        assert len(trace) == 20


class TestGenerateBags:
    def test_balanced_and_consistent(self):
        data, beta_star = datagen.generate_bags(20, 5, 4, seed=1)
        assert int(data.labels.sum()) == 10
        for i, sl in enumerate(data.bag_slices()):
            positive = float(np.max(data.X[sl] @ beta_star)) > 0.0
            assert positive == (data.labels[i] == 1.0)

    def test_deterministic(self):
        a, _ = datagen.generate_bags(8, 3, 2, seed=7)
        b, _ = datagen.generate_bags(8, 3, 2, seed=7)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.labels, b.labels)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            datagen.generate_bags(0, 1, 1, seed=0)

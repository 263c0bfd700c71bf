import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import expit

from helpers import (
    bag_subproblem_value,
    lasso_brute_force,
    lasso_value,
    maxop_reference,
    solve_mil,
)
from nladmm import datagen, inner, maxop, sphere, terms
from nladmm.engine import RhoSchedule, StopCriteria
from nladmm.errors import DimensionMismatch, SubproblemFailure
from nladmm.terms import (
    CompositeObjective,
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


def _beta_cold_and_warm(lam, data, t, y2, rho, beta0):
    """``update_beta`` twice through one active-set cache: cold, with a
    fresh dict, and warm, with the dict the cold call filled. The two agree
    bit for bit; returns the cold result."""
    factors = {}
    cold = maxop.update_beta(lam, data, t, y2 / rho, rho, beta0, factors)
    warm = maxop.update_beta(lam, data, t, y2 / rho, rho, beta0, factors)
    assert cold.tobytes() == warm.tobytes()
    return cold


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
        with pytest.raises(ValueError, match="label count 3 differs from bag count 2"):
            maxop.BagDataset(labels=np.array([0.0, 1.0, 0.0]), X=np.ones((4, 2)),
                             offsets=np.array([0, 2, 4]))
        with pytest.raises(ValueError, match="label count 2 differs from bag count 1"):
            maxop.BagDataset(labels=np.array([0.0, 1.0]), X=np.ones((4, 2)),
                             offsets=np.array([0, 4]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, value):
        """Refused when built, as a bad offset or label count is; a NaN used
        to reach ``gram``, whose eigensolver raised numpy's LinAlgError."""
        data, _ = datagen.generate_bags(6, 3, 3, 0)
        X = data.X.copy()
        X[4, 1] = value
        with pytest.raises(ValueError, match="X holds a non-finite value"):
            maxop.BagDataset(data.labels, X, data.offsets)

    def test_rejects_a_set_with_no_bags(self):
        """Refused when built: ``maxop_solve`` on it would run the logistic
        prox's 800 steps on an empty array, which no pass can finish, and
        end in a SubproblemFailure that names no cause."""
        with pytest.raises(ValueError, match="^a bag dataset needs at least one bag$"):
            maxop.BagDataset(labels=np.array([]), X=np.zeros((0, 2)), offsets=np.array([0]))

    @pytest.mark.parametrize("X", [np.zeros(3), np.zeros((3, 1, 1)), np.zeros((3, 0))],
                             ids=["1-D", "3-D", "no-columns"])
    def test_rejects_x_that_is_not_a_matrix(self, X):
        """Refused when built: on a 1-D X ``n_features``, and so
        ``MaxOpState.zeros`` and ``maxop_solve``, would raise a bare
        IndexError; on an X with no column ``gram`` would, as a 0 x 0 X'X
        has no eigenvalue."""
        with pytest.raises(ValueError, match="^X must be a matrix with one row per instance"):
            maxop.BagDataset(labels=np.array([0.0]), X=X, offsets=np.array([0, 3]))

    @pytest.mark.parametrize("offsets", [
        np.array([0.0, 3.0]), np.array([0, 3], dtype=np.uint64), [0, 3],
        np.array([0, 4, 3], dtype=np.uint8)], ids=["float", "uint64", "list", "uint8-wrap"])
    def test_rejects_offsets_that_are_not_signed_integers(self, offsets):
        """Refused when built, and not cast. On float or uint64 offsets
        ``bag_max`` raised a bare TypeError from np.maximum.reduceat, and on
        a list ``size_blocks`` did; the differences of [0, 4, 3] as uint8
        wrap, so its empty second bag passed the nonempty check."""
        with pytest.raises(ValueError, match="^offsets must be an array of signed integers$"):
            maxop.BagDataset(labels=np.zeros(len(offsets) - 1), X=np.zeros((3, 2)),
                             offsets=offsets)

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

    def test_csv_with_byte_order_mark(self, tmp_path):
        """A saved set with a UTF-8 byte-order mark put in front, as
        spreadsheet and PowerShell exports write, loads equal to the set;
        the writer itself puts none."""
        data, _ = datagen.generate_bags(5, 3, 4, seed=2)
        path = tmp_path / "bags.csv"
        maxop.save_bags_csv(path, data)
        text = path.read_bytes()
        assert not text.startswith(b"\xef\xbb\xbf")
        path.write_bytes(b"\xef\xbb\xbf" + text)
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
        t = np.array([2.0, 5.0])
        y1 = np.array([1.0])
        # The prox of the zero loss returns its center.
        q = maxop.update_q(lambda center, rho, q0, slope: center, data.bag_max(t), y1 / 2.0,
                           rho=2.0, q0=np.zeros(1), slope=np.empty(1))
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
        prox = logistic_loss(data.labels).prox
        q = maxop.update_q(prox, data.bag_max(t), y1 / rho, rho, q0, np.empty(data.n_bags))
        assert np.all(np.abs(q - oracle) <= 1e-12 * np.maximum(np.abs(oracle), 1.0))

    def test_logistic_prox_step_bound_raises(self, monkeypatch):
        """Past its Newton step bound the prox raises instead of returning
        an unconverged point."""
        monkeypatch.setattr(terms, "_MAX_NEWTON_STEPS", 2)
        data, t, y1, rho = self._q_subproblem()
        prox = logistic_loss(data.labels).prox
        with pytest.raises(SubproblemFailure, match="no root within 2 Newton steps"):
            prox(data.bag_max(t) - y1 / rho, rho, np.zeros(data.n_bags), np.empty(data.n_bags))

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
        q = logistic_loss(np.array([1.0])).prox(c, rho, c, np.empty(1))[0]
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
        q = logistic_loss(np.array([label])).prox(np.array([s * d]), 1e-6, np.array([s * u0]),
                                                  np.empty(1))
        assert s * q[0] == pytest.approx(min(max(0.0, d - 1e6), d), rel=1e-12)

    @pytest.mark.parametrize("label", [0.0, 1.0])
    @pytest.mark.parametrize("rho", [1e-20, 1e-39])
    def test_logistic_prox_keeps_a_start_at_its_root(self, label, rho, monkeypatch):
        """A root the prox returned, given back as the start, is kept and
        done in two steps, the untested first and the tested second,
        although rounding leaves its residual on the far side of 0 here.
        Restarting at the clipped point instead climbs the sigmoid's tail
        again: 47 Newton passes at rho = 1e-20 and 90 at 1e-39, in every
        q-update of a solve on the generate-bags default bags, where a
        bag's center does not move. The bound counts the first step, so
        one step is too few."""
        prox = logistic_loss(np.array([label])).prox
        c = np.zeros(1)
        slope = np.empty(1)
        root = prox(c, rho, np.zeros(1), slope)
        monkeypatch.setattr(terms, "_MAX_NEWTON_STEPS", 2)
        assert prox(c, rho, root, slope)[0] == pytest.approx(root[0], rel=1e-15)
        monkeypatch.setattr(terms, "_MAX_NEWTON_STEPS", 1)
        with pytest.raises(SubproblemFailure, match="no root within 1 Newton steps"):
            prox(c, rho, root, slope)

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_logistic_prox_stops_at_rounding_level(self, label):
        """At rho = 1e-18 and c = 1/rho (mirrored for label 1) the root lies
        where sigmoid(q) rounds to 1, so its residual is rounding noise and
        the Newton steps on it are several units long. The prox stops on
        the size of the residual instead of running to its step bound."""
        c = np.array([(1.0 - 2.0 * label) / 1e-18])
        q = logistic_loss(np.array([label])).prox(c, 1e-18, np.zeros(1), np.empty(1))
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
        with pytest.raises(SubproblemFailure) as e:
            logistic_loss(y).prox(center, 0.1, q0, np.empty(3))
        assert str(e.value) == ("logistic prox: non-finite center, start or bracket end "
                                "c -+ 1/rho at rho = 0.1")

    def test_logistic_prox_overflowing_penalty_start_is_no_root(self):
        """A start so far from its center that rho (q - c) overflows to
        -inf has |h| = |rho (q - c)| = inf: it is not taken for a root,
        and Newton restarts inside the bracket [c - 1/rho, c]."""
        center = np.array([1e308, 1e308])
        slope = np.full(2, np.nan)
        q = logistic_loss(np.zeros(2)).prox(center, 1.0, np.array([-1e308, -1e308]), slope)
        assert np.all((center - 1.0 <= q) & (q <= center)) and np.all(slope >= 1.0)

    def test_logistic_prox_declared_for_binary_labels_only(self):
        """The prox reflects label 1 onto label 0, so only labels 0 and 1
        are accepted; any other label raises."""
        assert logistic_loss(np.array([0.0, 1.0, 1.0])).prox is not None
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            logistic_loss(np.array([0.0, 0.5]))

    def test_update_beta_least_squares(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((6, 3))
        data = maxop.BagDataset.from_bags([1.0], [X])
        t = rng.standard_normal(6)
        beta = maxop.update_beta(0.0, data, t, np.zeros(6), rho=1.0,
                                 beta0=np.zeros(3), factors={})
        expected, *_ = np.linalg.lstsq(X, t, rcond=None)
        assert np.allclose(beta, expected, atol=1e-6)

    def test_update_beta_l1_shrinks(self):
        X = np.eye(4)
        data = maxop.BagDataset.from_bags([1.0], [X])
        t = np.array([3.0, -0.2, 0.0, 1.0])
        beta = maxop.update_beta(1.0, data, t, np.zeros(4), rho=1.0,
                                 beta0=np.zeros(4), factors={})
        assert np.allclose(beta, [2.0, 0.0, 0.0, 0.0], atol=1e-6)

    def test_update_beta_matches_brute_force(self):
        """The exact beta-update against every sign pattern of the lasso,
        from zero and from random warm starts, at l1 weights that leave
        all, some or none of the features active, through its active-set
        cache, cold and warm."""
        rng = np.random.default_rng(17)
        for trial in range(60):
            p = int(rng.integers(1, 6))
            data, _ = datagen.generate_bags(6, 3, p, seed=trial)
            t = rng.standard_normal(data.X.shape[0]) * 3.0
            y2 = rng.standard_normal(data.X.shape[0])
            rho = float(rng.choice([0.1, 1.0, 10.0]))
            lam = float(rng.choice([0.0, 0.5, 5.0, 50.0]))
            beta0 = rng.standard_normal(p) * (rng.random(p) < 0.5)
            beta = _beta_cold_and_warm(lam, data, t, y2, rho, beta0)
            X, b = data.X, t + y2 / rho
            oracle = lasso_brute_force(X.T @ X, X.T @ b, lam / rho)
            assert np.allclose(beta, oracle, rtol=0.0, atol=1e-10)
            assert np.array_equal(beta == 0.0, oracle == 0.0)


class TestMaxopSolve:
    @pytest.mark.parametrize("field", ["q", "beta", "t", "y1", "y2"])
    def test_rejects_a_misshapen_start(self, field, monkeypatch):
        """A start field one entry short of what the data needs (6 bags, 18
        instances, 3 features) raises DimensionMismatch naming it before
        any block runs, not a numpy broadcast or matmul error."""
        data, _ = datagen.generate_bags(6, 3, 3, seed=0)
        init = maxop.MaxOpState.zeros(data, 0.1)
        setattr(init, field, getattr(init, field)[:-1])
        calls = []
        monkeypatch.setattr(maxop, "update_q", lambda *a: calls.append(a))
        loss = CompositeObjective(logistic_loss(data.labels), zero_prox())
        with pytest.raises(DimensionMismatch, match=f"start state field {field} has shape"):
            maxop.maxop_solve(data, loss, l1_term(1.0), init, RhoSchedule.constant(0.1),
                              StopCriteria(max_iter=3))
        assert calls == []

    @pytest.mark.parametrize("case", ["nonsmooth-loss"])
    def test_rejects_undeclared_terms(self, case, monkeypatch):
        """A loss with a non-zero nonsmooth part has no exact q-block: the
        solve raises before its first iteration. (Every regularizer declares
        its l1 weight, as ``ProxTerm`` is nothing else.)"""
        monkeypatch.setattr(maxop, "iterate", _no_iteration)
        data, _ = datagen.generate_bags(8, 3, 3, seed=6)
        loss = CompositeObjective(logistic_loss(data.labels), l1_term(0.05))
        with pytest.raises(ValueError, match="zero nonsmooth part"):
            maxop.maxop_solve(data, loss, l1_term(1.0), maxop.MaxOpState.zeros(data, 0.1),
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
        _, trace, _ = solve_mil(data, RhoSchedule.constant(0.1), StopCriteria(max_iter=40))
        assert len(trace) == 40
        assert len(calls) <= 40 + 1

    def test_q_block_calls_update_q(self, monkeypatch):
        """The q-block is the module attribute ``update_q``, once per
        iteration, so a wrapper put there (the benchmark tracer's) sees it."""
        calls = []
        update_q = maxop.update_q
        monkeypatch.setattr(maxop, "update_q", lambda *a: calls.append(1) or update_q(*a))
        data, _ = datagen.generate_bags(8, 3, 3, seed=6)
        solve_mil(data, RhoSchedule.constant(0.1), StopCriteria(max_iter=7))
        assert len(calls) == 7

    def test_factor_cache_lives_in_the_solve(self, monkeypatch):
        """The beta-block's active-set inverses are kept for one solve: a
        second solve on the same bags forms them again, and the BagDataset
        holds nothing but its fields and its cached Gram matrix and size
        blocks afterwards."""
        formed = []
        active_factor = inner._active_factor
        monkeypatch.setattr(inner, "_active_factor",
                            lambda block: formed.append(1) or active_factor(block))
        data, _ = datagen.generate_bags(8, 3, 3, seed=6)
        runs, counts = [], []
        for _ in range(2):
            before = len(formed)
            runs.append(solve_mil(data, RhoSchedule.constant(0.1), StopCriteria(max_iter=40)))
            counts.append(len(formed) - before)
        assert counts[0] > 0 and counts[1] == counts[0]
        assert runs[0].trace == runs[1].trace
        assert set(vars(data)) == {"labels", "X", "offsets", "gram", "size_blocks"}

    def test_x_beta_once_per_iteration(self):
        """X beta is formed once per outer iteration, in the t-block; the
        y2 residual reuses it. Products with X' (the Gram matrix and the
        beta-block's right-hand side) are not counted."""
        calls = []

        class CountedX(np.ndarray):
            def __matmul__(self, other):
                if self.shape == data.X.shape:
                    calls.append(None)
                return np.asarray(self) @ other

        generated, _ = datagen.generate_bags(8, 3, 3, seed=6)
        data = maxop.BagDataset(labels=generated.labels, X=generated.X.view(CountedX),
                                offsets=generated.offsets)
        stop = StopCriteria(max_iter=40)
        state, trace, _ = solve_mil(data, RhoSchedule.constant(0.1), stop)
        assert len(trace) == 40 and len(calls) == 40
        reference = solve_mil(generated, RhoSchedule.constant(0.1), stop)
        assert trace == reference.trace
        assert np.array_equal(state.y2, reference.state.y2)


def _newton_passes(monkeypatch, datasets, schedule, max_iter):
    """Mean Newton passes per q-update over a maxop_solve on each dataset:
    calls of ``terms._sigmoid_halves``, one per residual of the logistic
    prox, per call of ``maxop.update_q``."""
    passes, updates = [], []
    halves, update_q = terms._sigmoid_halves, maxop.update_q
    monkeypatch.setattr(terms, "_sigmoid_halves", lambda a: passes.append(1) or halves(a))
    monkeypatch.setattr(maxop, "update_q", lambda *a: updates.append(1) or update_q(*a))
    for data in datasets:
        _, trace, _ = solve_mil(data, schedule, StopCriteria(max_iter=max_iter))
        assert len(trace) == max_iter
    return len(passes) / len(updates)


@pytest.mark.parametrize("schedule, bound", [
    (RhoSchedule.constant(0.1), 2.3), (RhoSchedule(0.1, 0.01), 2.45)],
    ids=["rho0.1", "rho0.1+0.01k"])
def test_q_prox_starts_at_predicted_root(monkeypatch, schedule, bound):
    """Each q-prox starts one Newton step from the last root on the new
    equation, so on the benchmark's 200 x 5 x 4 bags (seeds 0-2, 300
    iterations) it takes about two passes: 2.07 at rho = 0.1 and 1.48 at
    rho = 0.1 + 0.01k, against 3.10 and 2.50 from the last root."""
    datasets = [datagen.generate_bags(200, 5, 4, seed=seed)[0] for seed in range(3)]
    assert _newton_passes(monkeypatch, datasets, schedule, 300) <= bound


def test_q_prox_predicted_start_far_down_the_tail(monkeypatch):
    """At rho = 1e-40 the last root lies about 90 unit steps up the
    sigmoid's tail from the next one, as y1/rho moves the center. The
    predicted start lies within a few steps of it: 4.3 passes per q-update
    on generate_bags(6, 3, 3, 0) over 50 iterations, against 89.7 from the
    last root."""
    data, _ = datagen.generate_bags(6, 3, 3, seed=0)
    assert _newton_passes(monkeypatch, [data], RhoSchedule.constant(1e-40), 50) <= 10.0


def test_multi_instance_at_every_power_of_ten_of_rho():
    """No power of ten of rho from 1e-1 to 1e-308 makes a solve on the
    generate-bags default bags (20 x 5 x 4, seed 0) fail over 10
    iterations, nine of them from a predicted start: a SolverError or a
    numpy warning fails the test."""
    data, _ = datagen.generate_bags(20, 5, 4, seed=0)
    for e in range(1, 309):
        rho = float(f"1e-{e}")
        _, trace, _ = solve_mil(data, RhoSchedule.constant(rho), StopCriteria(max_iter=10))
        assert np.isfinite(trace[-1].objective), rho


def _ragged_bags() -> maxop.BagDataset:
    """Twelve bags of 1 to 6 instances, four of them single-instance."""
    full, _ = datagen.generate_bags(12, 6, 3, seed=3)
    sizes = [1, 4, 1, 6, 2, 1, 3, 5, 1, 6, 2, 4]
    return maxop.BagDataset.from_bags(
        full.labels, [full.X[full.offsets[i]:full.offsets[i] + n] for i, n in enumerate(sizes)])


@pytest.mark.parametrize("bags, schedule, max_iter", [
    (0, RhoSchedule.constant(0.1), 300),
    (1, RhoSchedule.constant(0.1), 300),
    (2, RhoSchedule.constant(0.1), 300),
    (0, RhoSchedule(0.1, 0.01), 300),
    ("rank-deficient", RhoSchedule.constant(0.1), 300),
    ("ragged", RhoSchedule.constant(0.1), 150),
], ids=["seed0", "seed1", "seed2", "seed0-rho0.1+0.01k", "rank-deficient", "ragged"])
def test_maxop_solve_matches_plain_loop(bags, schedule, max_iter):
    """maxop_solve gives the iterates, duals and trace rows of the plain
    loop in ``helpers.maxop_reference`` bit for bit, the sign of a zero
    included, up to its iteration cap: on the benchmark's 200 x 5 x 4 bags,
    at a growing rho, on rank-deficient X, and on ragged bags. The solve
    keeps the previous t and its bag maxima from the t-block; the loop takes
    both afresh at the start of each iteration, and its t-block runs
    ``t_update_bag`` bag by bag."""
    if bags == "rank-deficient":
        data = _rank_deficient("sum")
    elif bags == "ragged":
        data = _ragged_bags()
    else:
        data, _ = datagen.generate_bags(200, 5, 4, seed=bags)
    stop = StopCriteria(max_iter=max_iter)
    state, trace, _ = solve_mil(data, schedule, stop)
    ref_state, ref_trace = maxop_reference(data, 1.0, maxop.MaxOpState.zeros(data, schedule.rho0),
                                           schedule, stop)
    assert len(trace) == max_iter
    assert trace == ref_trace
    for name in ("q", "beta", "t", "y1", "y2"):
        a, b = getattr(state, name), ref_state[name]
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestRankDeficientBeta:
    """On rank-deficient X the beta-block carries the proximal term
    (rho delta/2)||beta - beta0||^2, so it is still an exact lasso solve;
    no solve calls FISTA on any X."""

    @pytest.mark.parametrize("kind", RANK_DEFICIENT)
    def test_update_beta_matches_brute_force(self, kind):
        """The beta-update against every sign pattern of the lasso with
        G = X'X + delta I and c = X'b + delta beta0, from zero and from
        random warm starts; delta = 1e-10 lambda_max(X'X), or 1e-10 when
        every feature is zero. Through the active-set cache, cold and
        warm. An active block as ill-conditioned as X'X is solved, not
        inverted: a product with its inverse lies up to 8e-7 (relative)
        off the enumeration's solve on these bags.

        The points agree to 1e-9 because both run the same solve on the
        same block; G's condition number, about 1e10, fixes beta only to
        about 1e-6. So the objective values are compared too, at a
        tolerance from that conditioning: a backward-stable solve of an
        active block is off by at most about p eps cond(G) ||beta|| (p = 3
        features), which raises the objective by at most lambda_max(G)/2
        times its square, and evaluating the objective rounds each of its
        terms by about p eps."""
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
            beta = _beta_cold_and_warm(lam, data, t, y2, rho, beta0)
            G_full = X.T @ X + delta * np.eye(3)
            c = X.T @ (t + y2 / rho) + delta * beta0
            oracle = lasso_brute_force(G_full, c, lam / rho)
            assert np.allclose(beta, oracle, rtol=1e-9, atol=1e-10)
            assert np.array_equal(beta == 0.0, oracle == 0.0)
            eig = np.linalg.eigvalsh(G_full)
            eps = 3 * np.finfo(float).eps
            error = eps * eig[-1] / eig[0] * np.linalg.norm(oracle)
            sizes = (eig[-1] * float(oracle @ oracle) + float(np.abs(c) @ np.abs(oracle))
                     + lam / rho * float(np.abs(oracle).sum()))
            gap = lasso_value(G_full, c, lam / rho, beta) - lasso_value(G_full, c, lam / rho, oracle)
            assert abs(gap) <= 0.5 * eig[-1] * error ** 2 + eps * sizes

    def test_full_rank_gram_has_no_proximal_term(self):
        data, _ = datagen.generate_bags(8, 3, 3, seed=6)
        G, delta = data.gram
        assert delta == 0.0 and np.array_equal(G, data.X.T @ data.X)

    def test_no_solve_calls_fista(self):
        """Every multi-instance solve, on full-rank X and on each kind of
        rank-deficient X, and a 1-bit CS solve run to their caps; ``fista``
        raises on any call, so none of them reaches it."""
        for data in [datagen.generate_bags(8, 3, 3, seed=6)[0]] + [
                _rank_deficient(kind) for kind in RANK_DEFICIENT]:
            _, trace, _ = solve_mil(data, RhoSchedule.constant(0.1), StopCriteria(max_iter=60))
            assert len(trace) == 60
        problem, _ = datagen.generate_onebit(16, 12, 4, seed=0, lam=10.0)
        init = sphere.OneBitCsState.matched_filter(problem, 1000.0)
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

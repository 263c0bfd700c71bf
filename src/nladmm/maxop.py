"""Multi-instance learning with the max rule: a bag's score is the maximum
of its instance scores q_i = max_j t_{i,j}, with t_{i,j} = X_{i,j}' beta.

The t block is nonconvex but separable per bag, and each bag subproblem
has an exact sort-based solution computed in O(n_i log n_i).
``t_update_bags`` solves every bag in one vectorized pass;
``t_update_bag`` is the per-bag reference.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import inner
from .engine import RhoSchedule, SolveResult, StopCriteria, iterate
from .inner import lasso_active_set
from .terms import CompositeObjective, ProxTerm

fista = inner.fista  # no block calls it; kept only for the benchmark tracer to wrap


@dataclass(frozen=True)
class BagDataset:
    """Labeled bags of feature vectors, stored stacked for vector math.

    ``X`` is the (sum n_i) x p stack of all instances; ``offsets`` holds
    the start index of each bag so bag i occupies rows
    offsets[i]:offsets[i+1].
    """

    labels: np.ndarray
    X: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.offsets) < 1):
            raise ValueError("every bag must be nonempty")
        if self.offsets[0] != 0 or self.offsets[-1] != self.X.shape[0]:
            raise ValueError("offsets inconsistent with the instance stack")

    @cached_property
    def gram(self) -> tuple[np.ndarray, float]:
        """(X'X + delta I, delta), computed on first use. delta = 0 when X'X
        is numerically positive definite (lambda_min > 1e-10 lambda_max);
        otherwise delta = 1e-10 lambda_max, or 1e-10 when every feature is
        zero, so that the matrix is positive definite for any X."""
        G = self.X.T @ self.X
        eigs = np.linalg.eigvalsh(G)
        if eigs[0] > 1e-10 * eigs[-1]:
            return G, 0.0
        delta = 1e-10 * float(eigs[-1]) if eigs[-1] > 0.0 else 1e-10
        return G + delta * np.eye(len(G)), delta

    @cached_property
    def size_blocks(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """For each bag size n, in increasing order: the bags of that size,
        their (bags x n) instance rows, the column of row indices 0..bags-1
        and the t-update denominators 2..n+1, computed on first use."""
        starts, sizes = self.offsets[:-1], np.diff(self.offsets)
        blocks = []
        # Not np.unique: it imports numpy.ma, about 1.2 MB more peak memory.
        for n in sorted(set(sizes.tolist())):
            bags = np.flatnonzero(sizes == n)
            blocks.append((bags, starts[bags, None] + np.arange(n),
                           np.arange(len(bags))[:, None], np.arange(1, n + 1) + 1.0))
        return blocks

    @property
    def n_bags(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def bag_slices(self):
        return [slice(int(a), int(b)) for a, b in zip(self.offsets[:-1], self.offsets[1:])]

    def bag_max(self, t: np.ndarray) -> np.ndarray:
        """Per-bag maximum of a stacked instance vector."""
        return np.maximum.reduceat(t, self.offsets[:-1])

    @classmethod
    def from_bags(cls, labels, instances) -> "BagDataset":
        """Build from a list of per-bag instance matrices (n_i x p)."""
        mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in instances]
        sizes = [m.shape[0] for m in mats]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        return cls(labels=np.asarray(labels, dtype=float),
                   X=np.vstack(mats), offsets=offsets)


def save_bags_csv(path, data: BagDataset) -> None:
    """Write the bag_id,label,f1..fp instance-per-row format."""
    p = data.n_features
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bag_id", "label"] + [f"f{j + 1}" for j in range(p)])
        for i, sl in enumerate(data.bag_slices()):
            for row in data.X[sl]:
                writer.writerow([i, _fmt(data.labels[i])] + [_fmt(v) for v in row])


def load_bags_csv(path) -> BagDataset:
    """Read the bag_id,label,f1..fp format. Malformed input raises
    ValueError naming the path and line: no header or no rows, a field
    count unlike the header's, a value that does not parse, a non-finite
    feature, a label not 0 or 1, a label unlike that of the bag's first row,
    rows of one bag that are not adjacent, or bag ids that do not run
    0, 1, 2, ... in order of first appearance."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:2] != ["bag_id", "label"] or len(header) < 3:
            raise ValueError(f"{path}, line 1: expected a header bag_id,label,f1,...")
        labels, instances = [], []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: {len(row)} fields, the header has {len(header)}")
            try:
                bag = int(row[0])
                label = float(row[1])
                features = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if label not in (0.0, 1.0):
                raise ValueError(f"{where}: label {row[1]!r} is not 0 or 1")
            if not all(map(math.isfinite, features)):
                raise ValueError(f"{where}: non-finite feature value")
            if bag == len(labels):
                labels.append(label)
                instances.append([])
            elif not 0 <= bag < len(labels):
                raise ValueError(f"{where}: bag id {bag}, expected {len(labels)}; "
                                 "bag ids must run 0, 1, 2, ...")
            elif bag != len(labels) - 1:
                raise ValueError(f"{where}: bag {bag} resumes after bag {len(labels) - 1}; "
                                 "the rows of a bag must be adjacent")
            if label != labels[bag]:
                raise ValueError(f"{where}: bag {bag} has label {labels[bag]:g}, not {row[1]!r}")
            instances[bag].append(features)
        if not labels:
            raise ValueError(f"{path}, line {reader.line_num}: no rows after the header")
    return BagDataset.from_bags(labels, [np.asarray(rows) for rows in instances])


def _fmt(v: float) -> str:
    return repr(float(v))


@dataclass
class MaxOpState:
    q: np.ndarray
    beta: np.ndarray
    t: np.ndarray  # stacked, one entry per instance
    y1: np.ndarray
    y2: np.ndarray  # stacked, matches t
    rho: float

    @classmethod
    def zeros(cls, data: BagDataset, rho: float) -> "MaxOpState":
        n_inst = data.X.shape[0]
        return cls(q=np.zeros(data.n_bags), beta=np.zeros(data.n_features),
                   t=np.zeros(n_inst), y1=np.zeros(data.n_bags),
                   y2=np.zeros(n_inst), rho=rho)


def update_q(loss: CompositeObjective, data: BagDataset, t: np.ndarray,
             y1: np.ndarray, rho: float, q0: np.ndarray) -> np.ndarray:
    """argmin_q loss(q) + (rho/2)||q - max t + y1/rho||^2: the declared
    prox of the loss's smooth part, warm-started at q0. For the logistic
    loss that is one monotone Newton root per bag. ``maxop_solve`` takes
    the same step on the bag maxima it already holds."""
    return loss.smooth.prox(data.bag_max(t) - y1 / rho, rho, q0)


def update_beta(reg: ProxTerm, data: BagDataset, t: np.ndarray,
                y2: np.ndarray, rho: float, beta0: np.ndarray) -> np.ndarray:
    """argmin_beta reg(beta) + (rho/2)||t - X beta + y2/rho||^2
    + (rho delta/2)||beta - beta0||^2 for reg = lam ||.||_1, where
    (X'X + delta I, delta) = ``data.gram``: a strongly convex lasso for any
    X, solved exactly by ``lasso_active_set`` from beta0. delta = 0 on
    full-rank X; on rank-deficient X the proximal term is that of nonconvex
    proximal ADMM (Li & Pong 2015)."""
    G, delta = data.gram
    c = data.X.T @ (t + y2 / rho)
    if delta > 0.0:
        c = c + delta * beta0
    return lasso_active_set(G, c, reg.l1_weight / rho, beta0, "beta block")


def t_update_bag(psi: float, phi: np.ndarray) -> np.ndarray:
    """Exact global minimizer of (psi - max_j t_j)^2 + ||t - phi||^2.

    The top block of the sorted targets is averaged with psi; the block
    size is the smallest c whose average a_c exceeds the next sorted
    target, which yields the global minimum (the averaged objective is
    nondecreasing in c). Stable sort keeps ties deterministic.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    n = phi.size
    order = np.argsort(-phi, kind="stable")
    sorted_phi = phi[order]
    prefix = np.cumsum(sorted_phi)
    a = (prefix + psi) / (np.arange(1, n + 1) + 1.0)

    c_star = n
    for c in range(1, n):
        if a[c - 1] > sorted_phi[c]:
            c_star = c
            break

    t_sorted = sorted_phi.copy()
    t_sorted[:c_star] = a[c_star - 1]
    out = np.empty_like(t_sorted)
    out[order] = t_sorted
    return out


def t_update_bags(data: BagDataset, psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``t_update_bag`` for every bag at once, on the stacked targets phi.

    Bags of n instances form one (bags x n) block of ``data.size_blocks``,
    so extra memory is O(N). Each row is sorted, summed and averaged with
    the per-bag reference's float operations in the same order, so the
    result is bit-identical.
    """
    t = np.empty_like(phi)
    for bags, rows, row, den in data.size_blocks:
        n = den.size
        order = np.argsort(-phi[rows], axis=1, kind="stable")
        sorted_rows = rows[row, order]
        sorted_phi = phi[sorted_rows]
        a = (np.cumsum(sorted_phi, axis=1) + psi[bags, None]) / den
        # last = c* - 1, the first j with a[j] > sorted_phi[j + 1]; the
        # always-True last column gives c* = n when there is none.
        above = np.ones((len(bags), n), dtype=bool)
        above[:, :-1] = a[:, :-1] > sorted_phi[:, 1:]
        last = np.argmax(above, axis=1)[:, None]
        t[sorted_rows] = np.where(np.arange(n) <= last, a[row, last], sorted_phi)
    return t


def maxop_solve(data: BagDataset, loss: CompositeObjective, reg: ProxTerm,
                init: MaxOpState, schedule: RhoSchedule,
                stop: StopCriteria) -> SolveResult:
    """Cycle q (the loss's declared prox, exact per bag), beta (an exact
    lasso solve, with a proximal term on rank-deficient X), t (exact per
    bag, all bags in one pass), then the two dual ascent steps, with
    combined residual norms.

    The loss must declare its prox and have a zero nonsmooth part, and
    reg must declare its l1 weight; otherwise ValueError is raised before
    any iteration."""
    if loss.smooth.prox is None or loss.nonsmooth.l1_weight != 0.0:
        raise ValueError("the q-block needs a loss that declares its prox, "
                         "with a zero nonsmooth part")
    if reg.l1_weight is None:
        raise ValueError("the beta-block needs a regularizer that declares its l1 weight")
    # The bag maxima of t are taken once per iteration, in the y1 residual:
    # tmax at the current t, tmax_old at the previous one.
    tmax = data.bag_max(np.asarray(init.t, dtype=float))
    tmax_old = None

    def r1(s):
        nonlocal tmax, tmax_old
        tmax_old, tmax = tmax, data.bag_max(s.t)
        return s.q - tmax

    blocks = [
        ("q", lambda s, rho: loss.smooth.prox(tmax - s.y1 / rho, rho, s.q)),
        ("beta", lambda s, rho: update_beta(reg, data, s.t, s.y2, rho, s.beta)),
        ("t", lambda s, rho: t_update_bags(data, s.q + s.y1 / rho,
                                           data.X @ s.beta - s.y2 / rho)),
    ]
    constraints = [("y1", r1), ("y2", lambda s: s.t - data.X @ s.beta)]

    def dual_norm(s, old, rho):
        s1 = rho * (tmax_old - tmax)
        s2 = s.t - old.t  # deliberately unscaled, mirroring the r2 dual line
        return float(np.sqrt(s1 @ s1 + s2 @ s2))

    return iterate(init, blocks, constraints, dual_norm,
                   lambda s: float(loss.value(s.q) + reg.value(s.beta)), schedule, stop)

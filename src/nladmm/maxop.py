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

from .engine import RhoSchedule, SolveResult, StopCriteria, iterate
from .inner import FistaConfig, fista
from .terms import CompositeObjective, ProxTerm, SmoothTerm


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
        """X'X and its largest eigenvalue, the Lipschitz constant of the
        gradient of (1/2)||X beta - b||^2, computed on first use."""
        G = self.X.T @ self.X
        return G, float(np.linalg.eigvalsh(G)[-1])

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
             y1: np.ndarray, rho: float,
             cfg: FistaConfig = FistaConfig()) -> np.ndarray:
    """Approximate argmin_q loss(q) + (rho/2)||q - max t + y1/rho||^2, with
    the fixed step 1/(L + rho) for the constant L the loss declares (1/4
    for the logistic loss); a loss that declares none raises ValueError."""
    center = data.bag_max(t) - y1 / rho
    f = loss.smooth
    smooth = SmoothTerm(
        value=lambda q: f.value(q) + 0.5 * rho * float(np.dot(q - center, q - center)),
        gradient=lambda q: f.gradient(q) + rho * (q - center),
        lipschitz=None if f.lipschitz is None else f.lipschitz + rho,
    )
    return fista(CompositeObjective(smooth, loss.nonsmooth), center, cfg,
                 lipschitz=smooth.lipschitz)


def update_beta(reg: ProxTerm, data: BagDataset, t: np.ndarray,
                y2: np.ndarray, rho: float, beta0: np.ndarray,
                cfg: FistaConfig = FistaConfig()) -> np.ndarray:
    """Approximate argmin_beta reg(beta) + (rho/2)||t - X beta + y2/rho||^2
    from beta0, by FISTA with the fixed step 1/(rho lambda_max(X'X))."""
    X = data.X
    b = t + y2 / rho
    XtX, lmax = data.gram
    Xtb = X.T @ b

    def value(beta):
        r = X @ beta - b
        return 0.5 * rho * float(r @ r)

    def gradient(beta):
        return rho * (XtX @ beta - Xtb)

    # The floor keeps the step finite when every feature is zero.
    smooth = SmoothTerm(value=value, gradient=gradient, lipschitz=rho * max(lmax, 1e-12))
    obj = CompositeObjective(smooth, reg)
    return fista(obj, beta0, cfg, lipschitz=obj.smooth.lipschitz)


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

    Bags of n instances form one (bags x n) block, so extra memory is O(N).
    Each row is sorted, summed and averaged with the per-bag reference's
    float operations in the same order, so the result is bit-identical.
    """
    t = np.empty_like(phi)
    starts, sizes = data.offsets[:-1], np.diff(data.offsets)
    # Not np.unique: it imports numpy.ma, about 1.2 MB more peak memory.
    for n in sorted(set(sizes.tolist())):
        bags = np.flatnonzero(sizes == n)
        rows = starts[bags, None] + np.arange(n)
        block = phi[rows]
        order = np.argsort(-block, axis=1, kind="stable")
        sorted_phi = np.take_along_axis(block, order, axis=1)
        a = (np.cumsum(sorted_phi, axis=1) + psi[bags, None]) / (np.arange(1, n + 1) + 1.0)
        # last = c* - 1, the first j with a[j] > sorted_phi[j + 1]; the
        # always-True last column gives c* = n when there is none.
        above = np.ones((len(bags), n), dtype=bool)
        above[:, :-1] = a[:, :-1] > sorted_phi[:, 1:]
        last = np.argmax(above, axis=1)[:, None]
        top = np.take_along_axis(a, last, axis=1)
        t_sorted = np.where(np.arange(n) <= last, top, sorted_phi)
        np.put_along_axis(block, order, t_sorted, axis=1)
        t[rows] = block
    return t


def maxop_solve(data: BagDataset, loss: CompositeObjective, reg: ProxTerm,
                init: MaxOpState, schedule: RhoSchedule,
                stop: StopCriteria) -> SolveResult:
    """Cycle q (proximal gradient), beta (proximal gradient), t (exact per
    bag, all bags in one pass), then the two dual ascent steps, with
    combined residual norms."""
    blocks = [
        ("q", lambda s, rho: update_q(loss, data, s.t, s.y1, rho)),
        ("beta", lambda s, rho: update_beta(reg, data, s.t, s.y2, rho, s.beta)),
        ("t", lambda s, rho: t_update_bags(data, s.q + s.y1 / rho,
                                           data.X @ s.beta - s.y2 / rho)),
    ]
    constraints = [("y1", lambda s: s.q - data.bag_max(s.t)),
                   ("y2", lambda s: s.t - data.X @ s.beta)]

    def dual_norm(s, old, rho):
        s1 = rho * (data.bag_max(old.t) - data.bag_max(s.t))
        s2 = s.t - old.t  # deliberately unscaled, mirroring the r2 dual line
        return float(np.sqrt(s1 @ s1 + s2 @ s2))

    return iterate(init, blocks, constraints, dual_norm,
                   lambda s: float(loss.value(s.q) + reg.value(s.beta)), schedule, stop)

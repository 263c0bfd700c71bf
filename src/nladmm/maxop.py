"""Multi-instance learning with the max rule: a bag's score is the maximum
of its instance scores q_i = max_j t_{i,j}, with t_{i,j} = X_{i,j}' beta.

The t block is nonconvex but separable per bag, and each bag subproblem
has an exact sort-based solution computed in O(n_i log n_i).
``t_update_bags`` solves every bag in one vectorized pass over each block
of equal-size bags, laid out instance-major, and returns the bag maxima
of its result with it; ``t_update_bag`` is the per-bag reference.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import inner, textfile
from .engine import RhoSchedule, SolveResult, StopCriteria, check_shapes, iterate
from .inner import lasso_active_set
from .terms import CompositeObjective, ProxTerm

fista = inner.fista  # a retired name that raises; kept only for the benchmark tracer to wrap


@dataclass(frozen=True)
class BagDataset:
    """Labeled bags of feature vectors, stored stacked for vector math.

    ``X`` is the (sum n_i) x p stack of all instances; ``offsets`` holds
    the start index of each bag so bag i occupies rows
    offsets[i]:offsets[i+1]. A set with no bags, an X that is not 2-D or
    has no feature column, offsets that are not an array of signed
    integers, an empty bag, offsets that do not span X, a label count
    unlike the bag count, or a NaN or Inf in X raises ValueError when the
    set is built, so no solve and no eigensolver of ``gram`` sees one.
    """

    labels: np.ndarray
    X: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        if np.ndim(self.X) != 2 or np.shape(self.X)[1] == 0:
            raise ValueError(f"X must be a matrix with one row per instance and a column per "
                             f"feature, got shape {np.shape(self.X)}")
        # Not cast: a float offset fails in reduceat, an unsigned diff wraps.
        if not (isinstance(self.offsets, np.ndarray) and self.offsets.dtype.kind == "i"):
            raise ValueError("offsets must be an array of signed integers")
        if len(self.offsets) < 2:
            raise ValueError("a bag dataset needs at least one bag")
        if np.any(np.diff(self.offsets) < 1):
            raise ValueError("every bag must be nonempty")
        if self.offsets[0] != 0 or self.offsets[-1] != self.X.shape[0]:
            raise ValueError("offsets inconsistent with the instance stack")
        if len(self.labels) != len(self.offsets) - 1:
            raise ValueError(f"label count {len(self.labels)} differs from bag count "
                             f"{len(self.offsets) - 1}")
        if not np.isfinite(self.X).all():
            raise ValueError("X holds a non-finite value")

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
        """For each bag size n, in increasing order: the m bags of that size,
        their instance rows laid out instance-major (n x m, row j holds the
        j-th instance of every bag), the column indices 0..m-1 and the
        t-update denominators 2..n+1 as an n x 1 column, computed on first
        use."""
        starts, sizes = self.offsets[:-1], np.diff(self.offsets)
        blocks = []
        # Not np.unique: it imports numpy.ma, about 1.2 MB more peak memory.
        for n in sorted(set(sizes.tolist())):
            bags = np.flatnonzero(sizes == n)
            blocks.append((bags, starts[bags] + np.arange(n)[:, None],
                           np.arange(len(bags)), np.arange(2.0, n + 2.0)[:, None]))
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
    """Write the bag_id,label,f1..fp instance-per-row format, one ``repr``
    per value and LF line ends, through ``textfile.write_lines`` as
    ``cli.write_trace`` writes a trace: an existing file is overwritten in
    place and cut to length, keeping its inode and mode. No field needs CSV
    quoting."""
    lines = [",".join(["bag_id", "label"] + [f"f{j + 1}" for j in range(data.n_features)])]
    for i, sl in enumerate(data.bag_slices()):
        bag = f"{i},{float(data.labels[i])!r}"
        lines.extend(",".join([bag, *map(repr, row)]) for row in data.X[sl].tolist())
    textfile.write_lines(path, lines)


def load_bags_csv(path) -> BagDataset:
    """Read the bag_id,label,f1..fp format. Malformed input raises
    ValueError naming the path and line: no header or no rows, a field
    count unlike the header's, a value that does not parse, a non-finite
    feature, a label not 0 or 1, a label unlike that of the bag's first row,
    rows of one bag that are not adjacent, or bag ids that do not run
    0, 1, 2, ... in order of first appearance. A leading UTF-8 byte-order
    mark, as spreadsheet exports write, is skipped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
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


def update_q(prox: Callable[..., np.ndarray], tmax: np.ndarray, y1_rho: np.ndarray,
             rho: float, q0: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """argmin_q loss(q) + (rho/2)||q - tmax + y1/rho||^2, with tmax the bag
    maxima of t (``data.bag_max(t)``) and y1_rho = y1/rho: the loss's exact
    ``prox``, warm-started at q0 and handed ``slope`` as it is; for the
    logistic loss one monotone Newton root per bag."""
    return prox(tmax - y1_rho, rho, q0, slope)


def update_beta(lam: float, data: BagDataset, t: np.ndarray,
                y2_rho: np.ndarray, rho: float, beta0: np.ndarray,
                factors: dict) -> np.ndarray:
    """argmin_beta lam ||beta||_1 + (rho/2)||t - X beta + y2/rho||^2
    + (rho delta/2)||beta - beta0||^2 for the l1 weight lam >= 0, with y2_rho
    = y2/rho and (X'X + delta I, delta) = ``data.gram``: a strongly convex
    lasso for any X, solved exactly by ``lasso_active_set`` from beta0.
    delta = 0 on full-rank X; on rank-deficient X the proximal term is that
    of nonconvex proximal ADMM (Li & Pong 2015; Wang, Yin & Zeng 2019).
    ``factors`` is the active-set cache of ``lasso_active_set`` for
    ``data.gram``."""
    G, delta = data.gram
    c = data.X.T @ (t + y2_rho)
    if delta > 0.0:
        c = c + delta * beta0
    return lasso_active_set(G, c, lam / rho, beta0, factors)


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


def t_update_bags(data: BagDataset, psi: np.ndarray,
                  phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``t_update_bag`` for every bag at once, on the stacked targets phi,
    and the bag maxima of the result, ``data.bag_max(t)``.

    Bags of n instances form one instance-major n x m block of
    ``data.size_blocks``, so each step is one call over all m bags and
    extra memory is O(N). The targets of each bag are sorted descending as
    values, the prefix sums are n - 1 row adds in the reference's order, and
    c* is the first c with a_c > S_c (S_n = -inf), so for finite input the
    result is bit-identical with the per-bag reference. Equal values need
    no stable sort: only +0.0 and -0.0 differ in their bits, and their
    order changes no average a_c* in any bit. The top block is every target
    above S_c*, and where S_c* ties S_c*-1, also the first of the tied
    targets in bag order, as the reference's stable sort takes them. The
    rest of the bag stays below a_c*, so a_c* is the bag maximum.
    """
    t = np.empty_like(phi)
    tmax = np.empty_like(psi)
    for bags, rows, cols, den in data.size_blocks:
        n, m = rows.shape
        targets = phi[rows]
        # S: the sorted targets of each column, then a row of -inf.
        S = np.empty((n + 1, m))
        S[-1] = np.inf
        np.negative(targets, out=S[:-1])
        S[:-1].sort(axis=0)
        np.negative(S, out=S)
        a = S[:-1].copy()
        for j in range(1, n):
            a[j] += a[j - 1]
        a += psi[bags]
        a /= den
        last = (a > S[1:]).argmax(axis=0)  # c* - 1
        flat = last * m + cols
        tau = a.take(flat)
        left = S[1:].take(flat)  # S_c*, the largest target left out
        top = targets > left
        if (left == S.take(flat)).any():
            tied = targets == left
            top |= tied & (np.cumsum(tied, axis=0) <= last + 1 - top.sum(axis=0))
        np.copyto(targets, tau, where=top)
        t[rows] = targets
        tmax[bags] = tau
    return t, tmax


def maxop_solve(data: BagDataset, loss: CompositeObjective, reg: ProxTerm,
                init: MaxOpState, schedule: RhoSchedule,
                stop: StopCriteria) -> SolveResult:
    """Cycle q (the loss's prox, exact per bag), beta (an exact
    lasso solve in reg's l1 weight, with a proximal term on rank-deficient
    X), t (exact per bag, all bags in one pass), then the two dual ascent
    steps, with combined residual norms. Only this function reads the term
    objects: the loss's prox and reg's l1 weight once, before any
    iteration, and both terms in the objective. The q-block forms y1/rho
    and y2/rho once per iteration for all three blocks.

    Each q-prox after the first starts one Newton step on its equation
    from the last root q, whose residual there needs no exp:
    q - [rho (q - c) - rho_old (q - c_old)] / (s + rho - rho_old), with c
    and c_old the new and the last center (rho c = rho tmax - y1) and s the
    slope the last prox ended on; at q itself where that is not finite.
    The beta-block keeps its active-set inverses in a dict for this solve.
    A loss with a nonzero nonsmooth part raises ValueError, and a start
    field shaped unlike the data needs DimensionMismatch, before any
    iteration."""
    if loss.nonsmooth.l1_weight != 0.0:
        raise ValueError("the q-block needs a loss with a zero nonsmooth part")
    bags, inst = (data.n_bags,), (data.X.shape[0],)
    check_shapes(init, [("q", bags), ("beta", (data.n_features,)), ("t", inst), ("y1", bags),
                        ("y2", inst)])
    prox, lam = loss.smooth.prox, reg.l1_weight
    # The t-block keeps the t it replaces, t_old, and hands back the bag
    # maxima of its t: tmax now, tmax_old before; bag_max runs only on the
    # initial t. It forms X beta once, and the y2 residual reuses it.
    tmax = data.bag_max(np.asarray(init.t, dtype=float))
    tmax_old = t_old = xbeta = y1_rho = y2_rho = None
    # slope = sigma' + rho_old at the last Newton point, so the q-block's
    # denominator is sigma' + rho > 0 however rho moves; iterate's errstate
    # keeps an overflow quiet. A slope the prox does not write gives no guess.
    slope = np.full(len(tmax), np.nan)
    scaled = rho_old = None
    factors = {}

    def q_block(s, rho):
        nonlocal scaled, rho_old, y1_rho, y2_rho
        y1_rho, y2_rho = s.y1 / rho, s.y2 / rho
        q0, scaled_old, scaled = s.q, scaled, rho * tmax - s.y1
        if scaled_old is not None:
            grow = rho - rho_old
            guess = q0 + (scaled - scaled_old - grow * q0) / (slope + grow)
            q0 = np.where(np.isfinite(guess), guess, q0)
        rho_old = rho
        return update_q(prox, tmax, y1_rho, rho, q0, slope)

    def update_t(s, rho):
        nonlocal xbeta, tmax, tmax_old, t_old
        t_old, xbeta = s.t, data.X @ s.beta
        t, new_max = t_update_bags(data, s.q + y1_rho, xbeta - y2_rho)
        tmax_old, tmax = tmax, new_max
        return t

    blocks = [
        ("q", q_block),
        ("beta", lambda s, rho: update_beta(lam, data, s.t, y2_rho, rho, s.beta, factors)),
        ("t", update_t),
    ]
    constraints = [("y1", lambda s: s.q - tmax), ("y2", lambda s: s.t - xbeta)]

    def dual_norm(s, rho):
        s1 = rho * (tmax_old - tmax)
        s2 = s.t - t_old  # deliberately unscaled, mirroring the r2 dual line
        return math.sqrt(s1 @ s1 + s2 @ s2)

    return iterate(init, blocks, constraints, dual_norm,
                   lambda s: float(loss.value(s.q) + reg.value(s.beta)), schedule, stop)

"""Seeded synthetic problem generators for the two applications."""

from __future__ import annotations

import numpy as np

from .maxop import BagDataset
from .sphere import OneBitCsProblem


def generate_onebit(n: int, m: int, k: int, seed: int,
                    lam: float = 10.0):
    """K-sparse unit-norm signal, Gaussian measurement matrix, and the sign
    pattern of its measurements (zeros broken to +1). Deterministic per seed."""
    if not 1 <= k <= n or m < 1:
        raise ValueError("need 1 <= k <= n and m >= 1")
    rng = np.random.default_rng(seed)
    x_true = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    x_true[support] = rng.standard_normal(k)
    x_true /= np.linalg.norm(x_true)
    Phi = rng.standard_normal((m, n))
    signs = np.sign(Phi @ x_true)
    signs[signs == 0] = 1.0
    return OneBitCsProblem(Phi=Phi, y_sign=signs, lam=lam), x_true


def generate_bags(n_bags: int, n_instances: int, n_features: int, seed: int):
    """Balanced bags separable with a margin of 20 under the max rule.

    A unit Gaussian weight vector beta* scores each instance; half the bags
    are positive. Negative bags have every instance score pushed below
    -20, positive bags get one instance pushed above +20, so the
    label always equals [max instance score > 0]. The wide margin keeps the
    bag scores on a scale where an l1 penalty of order one is a mild
    regularizer rather than a hard zeroing of the weights.

    Returns (dataset, true weights)."""
    if n_bags < 1 or n_instances < 1 or n_features < 1:
        raise ValueError("sizes must be positive")
    rng = np.random.default_rng(seed)
    beta_star = rng.standard_normal(n_features)
    beta_star /= np.linalg.norm(beta_star)
    labels = (rng.permutation(n_bags) < (n_bags + 1) // 2).astype(float)
    instances = []
    for i in range(n_bags):
        X = rng.standard_normal((n_instances, n_features))
        scores = X @ beta_star
        if labels[i] == 0.0:
            slack = 20.0 + rng.exponential(1.0, n_instances)
            X = X - np.outer(scores + slack, beta_star)
        else:
            j = int(rng.integers(n_instances))
            X[j] = X[j] + (20.0 + rng.exponential(1.0) - scores[j]) * beta_star
        instances.append(X)
    return BagDataset.from_bags(labels, instances), beta_star

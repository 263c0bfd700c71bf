"""Property tests: the all-bags t-update against the per-bag reference,
the cubic root solver against ``numpy.roots``, the sphere-penalty
minimizer against the grid-plus-polish oracle, and the exact lasso solver
against its optimality conditions, and the logistic loss's exact prox
against its first-order condition.

Targets and psi come mostly from a coarse grid, so ties inside a bag and
between psi and the targets are frequent; bag sizes run 1 to 8, so
single-instance bags occur in most examples. Depressed cubics are drawn
both from free coefficients and from products of (t - r_i) with roots
summing to zero, two of them on a half-integer grid, so repeated roots
occur often. Sphere inputs include norms from 1e-14 to 1e-6. Lassos have
up to 16 features and condition numbers up to 1e6, with exact ties: zero
entries of c, weights of 0 and of exactly ||c||_inf, and zero warm starts.
Logistic prox inputs have labels 0 and 1, centers up to 1e3 in size, rho
from 1e-6 to 1e3 and starts at zero, at the center or anywhere in 1e3;
restarted proxes also take rho down to 6e-309 and start at a returned
root, within one unit step of it or up to 1e306 away.
"""

from unittest import mock

import numpy as np
import pytest
from scipy.special import expit
from hypothesis import given, settings, strategies as st

from helpers import lasso_kkt_violation, sphere_penalty_oracle, sphere_penalty_value
from nladmm import maxop, terms
from nladmm.inner import cubic_real_roots, lasso_active_set
from nladmm.sphere import sphere_penalty_min
from nladmm.terms import logistic_loss

VALUES = st.one_of(st.sampled_from([-1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5]),
                   st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def bag_sets(draw):
    """(dataset, psi, stacked phi) for a ragged set of bags."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=12))
    data = maxop.BagDataset.from_bags(np.zeros(len(sizes)),
                                      [np.zeros((n, 1)) for n in sizes])
    psi = np.array(draw(st.lists(VALUES, min_size=len(sizes), max_size=len(sizes))))
    n_inst = sum(sizes)
    phi = np.array(draw(st.lists(VALUES, min_size=n_inst, max_size=n_inst)))
    return data, psi, phi


def per_bag(data, psi, phi):
    """The t-block bag by bag: ``t_update_bag`` on each bag, and the bag
    maxima of the result."""
    t = np.concatenate([maxop.t_update_bag(psi[i], phi[sl])
                        for i, sl in enumerate(data.bag_slices())])
    return t, data.bag_max(t)


@settings(max_examples=300, deadline=None)
@given(bag_sets())
def test_t_update_bags_equals_per_bag_reference(case):
    """On ragged bags with ties, single-instance bags and both signed
    zeros, t equals the per-bag reference and the maxima handed back equal
    ``bag_max(t)``, both bit for bit, the sign of a zero included."""
    data, psi, phi = case
    t, tmax = maxop.t_update_bags(data, psi, phi)
    assert t.dtype == phi.dtype and tmax.dtype == psi.dtype
    assert t.tobytes() == per_bag(data, psi, phi)[0].tobytes()
    assert tmax.tobytes() == data.bag_max(t).tobytes()


@pytest.mark.parametrize("value, n, top", [(0.1, 3, 2), (0.1, 5, 2), (0.7, 5, 5)])
def test_t_update_bags_rounding_ties(value, n, top):
    """psi and all n targets equal one value. In exact arithmetic every
    average a_c is that value, but a_c rounds up or down by an ulp, so the
    first c with a_c above the next target picks a top block of c* = top
    targets whose average lies one ulp above each target it replaces. So
    the result cannot be read off as min(targets, a_c*) with a_c* at the
    first maximum; the pass takes the first c* tied targets in bag order,
    as the reference's stable sort does."""
    data = maxop.BagDataset.from_bags(np.zeros(1), [np.zeros((n, 1))])
    phi, psi = np.full(n, value), np.array([value])
    t, tmax = maxop.t_update_bags(data, psi, phi)
    assert t.tobytes() == per_bag(data, psi, phi)[0].tobytes()
    assert tmax[0] > value and np.count_nonzero(t == tmax[0]) == top


SIZES = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
COEFFS = st.one_of(st.just(0.0), SIZES, SIZES.map(lambda x: -x))
GRID_ROOTS = st.sampled_from([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])


@st.composite
def cubics(draw):
    """((p, q), known real roots or None) of t^3 + p t + q: free
    coefficients, each 0 or between 1e-3 and 1e3 in size, or the expansion
    of (t - r1)(t - r2)(t - r3) with r1, r2 on a half-integer grid and
    r3 = -r1 - r2, which is exact in floating point, so repeated roots
    stay exact."""
    if draw(st.booleans()):
        return (draw(COEFFS), draw(COEFFS)), None
    r1, r2 = draw(GRID_ROOTS), draw(GRID_ROOTS)
    r3 = -r1 - r2
    return (r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3), [r1, r2, r3]


def _near(u, v):
    # 1e-5 relative: the spread of a triple root under rounding.
    return abs(u - v) <= 1e-5 * max(1.0, abs(u))


@settings(max_examples=500, deadline=None)
@given(cubics())
def test_cubic_real_roots_against_numpy(case):
    """Every returned root leaves a residual at rounding level (normwise:
    against the coefficients' size times max(1, |r|)^3) and is a root of
    ``numpy.roots``. Every real root of ``numpy.roots`` that is at least
    1e-3 away from the others is returned, and so is every known root.
    Clustered roots of ``numpy.roots`` are not required: there it can
    report a complex pair with a tiny imaginary part as two real roots."""
    (p, q), known = case
    roots = cubic_real_roots(p, q)
    assert roots == sorted(roots)
    size = 1.0 + abs(p) + abs(q)
    for r in roots:
        residual = abs((r * r + p) * r + q)
        assert residual <= 1e-12 * size * max(1.0, abs(r)) ** 3
    reference = np.roots([1.0, 0.0, p, q])
    for r in roots:
        assert any(_near(r, z) for z in reference), (roots, reference)
    for i, z in enumerate(reference):
        isolated = all(abs(z - o) > 1e-3 * max(1.0, abs(z))
                       for j, o in enumerate(reference) if j != i)
        if z.imag == 0.0 and isolated:
            assert any(_near(z.real, r) for r in roots), (roots, reference)
    for z in known or []:
        assert any(_near(z, r) for r in roots), (roots, known)


@st.composite
def sphere_inputs(draw):
    """v with entries in [-3, 3], or that v scaled to a norm between 1e-14
    and 1e-6."""
    v = np.array(draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False),
                               min_size=1, max_size=4)))
    m = np.linalg.norm(v)
    if m > 0.0 and draw(st.booleans()):
        v = v * (10.0 ** draw(st.floats(-14.0, -6.0)) / m)
    return v


@settings(max_examples=150, deadline=None)
@given(sphere_inputs(), st.floats(-2.0, 2.0, allow_nan=False))
def test_sphere_penalty_min_no_worse_than_oracle(v, alpha):
    w = sphere_penalty_min(v, alpha)
    best = sphere_penalty_oracle(v, alpha)
    assert sphere_penalty_value(w, v, alpha) <= best + 1e-9 * (1.0 + abs(best))


@st.composite
def lassos(draw):
    """(G, c, mu, x0): G = Q diag(e) Q' for a random orthogonal Q, with
    eigenvalues from 1 to kappa <= 1e6 and the whole matrix scaled by
    1e-3 to 1e3; c and x0 with entries from VALUES, either possibly all
    zero; mu 0, ||c||_inf or anything up to 2 ||c||_inf + 1."""
    p = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    kappa = 10.0 ** draw(st.floats(0.0, 6.0))
    e = np.concatenate([[1.0, kappa], kappa ** rng.random(max(p - 2, 0))])[:p]
    G = (q * e) @ q.T * 10.0 ** draw(st.floats(-3.0, 3.0))
    G = 0.5 * (G + G.T)
    c = np.array(draw(st.lists(VALUES, min_size=p, max_size=p)))
    top = float(np.max(np.abs(c)))
    mu = draw(st.one_of(st.just(0.0), st.just(top), st.floats(0.0, 2.0 * top + 1.0)))
    x0 = np.array(draw(st.lists(VALUES, min_size=p, max_size=p)))
    return G, c, mu, x0 * draw(st.sampled_from([0.0, 1.0]))


@settings(max_examples=200, deadline=None)
@given(lassos())
def test_lasso_active_set_meets_kkt(case):
    """The result satisfies the lasso's optimality conditions to 1e-10
    relative; a run past the step bound would raise instead."""
    G, c, mu, x0 = case
    x = lasso_active_set(G, c, mu, x0)
    assert lasso_kkt_violation(G, c, mu, x) <= 1e-10


@st.composite
def logistic_proxes(draw):
    """(labels, center, rho, start) for up to 12 bags."""
    n = draw(st.integers(1, 12))
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    center = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    rho = 10.0 ** draw(st.floats(-6.0, 3.0))
    start = draw(st.one_of(
        st.just(np.zeros(n)), st.just(center),
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n).map(np.array)))
    return y, center, rho, start


@settings(max_examples=300, deadline=None)
@given(logistic_proxes())
def test_logistic_prox_meets_first_order_condition(case):
    """The residual l + p of sigmoid(q) - y = l and rho (q - c) = p, with
    l taken as expit(q) or -expit(-q), is at rounding level: within 8 eps
    of |l| + |p| + the slope times max(|q|, 1). The result lies in the
    bracket [c - 1/rho, c + 1/rho] widened by its rounding error,
    4 eps (|c| + 1/rho), and takes at most 30 Newton steps, about twice
    the most seen on such inputs; a run past them raises. Every coordinate
    gets a slope of at least rho."""
    y, center, rho, start = case
    written = np.full(y.size, np.nan)
    with mock.patch.object(terms, "_MAX_NEWTON_STEPS", 30):
        q = logistic_loss(y).prox(center, rho, start, written)
    assert np.all(written >= rho)
    loss_term = np.where(y == 1.0, -expit(-q), expit(q))
    penalty = rho * (q - center)
    slope = expit(q) * expit(-q) + rho
    eps = np.finfo(float).eps
    scale = np.abs(loss_term) + np.abs(penalty) + slope * np.maximum(np.abs(q), 1.0)
    assert np.all(np.abs(loss_term + penalty) <= 8.0 * eps * scale)
    half = 1.0 / rho + 4.0 * eps * (np.abs(center) + 1.0 / rho)
    assert np.all((center - half <= q) & (q <= center + half))


@st.composite
def tail_proxes(draw):
    """(labels, centers, rho) as for ``logistic_proxes``, at a rho whose
    roots from the zero start lie far down the sigmoid's tail."""
    n = draw(st.integers(1, 12))
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    center = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    return y, center, draw(st.sampled_from([1e-45, 1e-160, 1e-300, 6e-309]))


def first_order_violation(y, center, rho, q):
    """How far the prox result q misses the first-order bound of
    ``test_logistic_prox_meets_first_order_condition``, positive where it
    does. The sigmoid is taken as exp(-log(1 + exp(-q))), which keeps its
    subnormal values below q = -709, where expit rounds to 0."""
    def sigmoid(x):
        return np.exp(-np.logaddexp(0.0, -x))

    loss_term = np.where(y == 1.0, -sigmoid(-q), sigmoid(q))
    penalty = rho * (q - center)
    slope = sigmoid(q) * sigmoid(-q) + rho
    eps = np.finfo(float).eps
    scale = np.abs(loss_term) + np.abs(penalty) + slope * np.maximum(np.abs(q), 1.0)
    return np.abs(loss_term + penalty) - 8.0 * eps * scale


@settings(max_examples=200, deadline=None)
@given(tail_proxes())
def test_logistic_prox_climbs_the_tail(case):
    """From q0 = 0 at rho = 1e-45, 1e-160, 1e-300 and 6e-309, where Newton
    climbs the tail about ln(1/rho) unit steps, up to about 710 at the
    last, the prox meets the first-order bound of
    ``test_logistic_prox_meets_first_order_condition`` within its step bound."""
    y, center, rho = case
    q = logistic_loss(y).prox(center, rho, np.zeros(y.size), np.empty(y.size))
    assert np.all(first_order_violation(y, center, rho, q) <= 0.0)


@st.composite
def restarted_proxes(draw):
    """(labels, centers, rho, kind, offsets) for up to 12 bags: rho from
    1e-6 to 1e3 or far down the tail, down to 6e-309, and the start kind:
    at the root, one unit step or less from it on either side, or far."""
    n = draw(st.integers(1, 12))
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    center = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    rho = draw(st.one_of(st.floats(-6.0, 3.0).map(lambda e: 10.0 ** e),
                         st.sampled_from([1e-45, 1e-160, 1e-300, 6e-309])))
    kind = draw(st.sampled_from(["root", "near", "far"]))
    near = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-16.0, 0.0)).map(
        lambda p: p[0] * 10.0 ** p[1])
    far = st.one_of(st.floats(-1e306, 1e306), st.sampled_from([-1e306, 1e306]))
    offsets = np.array(draw(st.lists(near if kind == "near" else far, min_size=n, max_size=n)))
    return y, center, rho, kind, offsets


@settings(max_examples=200, deadline=None)
@given(restarted_proxes())
def test_logistic_prox_from_any_start(case):
    """From a root the prox returned, from within one unit step of it on
    either side (down the sigmoid's tail Newton steps are about one unit
    long) and from far away, up to 1e306, where rho (q - c) can overflow,
    the prox meets the first-order bound of
    ``test_logistic_prox_meets_first_order_condition`` within its step
    bound and writes every entry of ``slope``, each at least rho."""
    y, center, rho, kind, offsets = case
    prox = logistic_loss(y).prox
    root = prox(center, rho, np.zeros(y.size), np.empty(y.size))
    start = {"root": root, "near": root + offsets, "far": offsets}[kind]
    written = np.full(y.size, np.nan)
    q = prox(center, rho, start, written)
    assert np.all(written >= rho)
    assert np.all(first_order_violation(y, center, rho, q) <= 0.0)

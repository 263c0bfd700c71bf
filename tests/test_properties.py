"""Property tests: the all-bags t-update against the per-bag reference.

Targets and psi come mostly from a coarse grid, so ties inside a bag and
between psi and the targets are frequent; bag sizes run 1 to 8, so
single-instance bags occur in most examples.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from nladmm import datagen, maxop
from nladmm.engine import RhoSchedule, StopCriteria
from nladmm.terms import CompositeObjective, l1_term, logistic_loss, zero_prox

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
    return np.concatenate([maxop.t_update_bag(psi[i], phi[sl])
                           for i, sl in enumerate(data.bag_slices())])


@settings(max_examples=300, deadline=None)
@given(bag_sets())
def test_t_update_bags_equals_per_bag_reference(case):
    data, psi, phi = case
    t = maxop.t_update_bags(data, psi, phi)
    assert t.dtype == phi.dtype
    assert np.array_equal(t, per_bag(data, psi, phi))


def test_maxop_solve_matches_per_bag_loop(monkeypatch):
    """A solve on ragged bags, single-instance bags included, is
    bit-identical with the t-block done bag by bag."""
    full, _ = datagen.generate_bags(12, 6, 3, seed=3)
    sizes = [1, 4, 1, 6, 2, 1, 3, 5, 1, 6, 2, 4]
    data = maxop.BagDataset.from_bags(
        full.labels, [full.X[full.offsets[i]:full.offsets[i] + n] for i, n in enumerate(sizes)])

    def run():
        loss = CompositeObjective(logistic_loss(data.labels), zero_prox())
        return maxop.maxop_solve(data, loss, l1_term(1.0), maxop.MaxOpState.zeros(data, 0.1),
                                 RhoSchedule.constant(0.1), StopCriteria(max_iter=150))

    state, trace, converged = run()
    monkeypatch.setattr(maxop, "t_update_bags", per_bag)
    ref_state, ref_trace, ref_converged = run()
    assert trace == ref_trace and converged == ref_converged
    for name in ("q", "beta", "t", "y1", "y2"):
        a, b = getattr(state, name), getattr(ref_state, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert state.rho == ref_state.rho

"""The engine tests the values of an outer iteration once, through one
aggregate, and runs the exact per-value checks only when that aggregate is
not finite or when a block, residual, norm or objective raises. These tests
pin that every failure is still the one the per-value checks give, with the
same type, message and trace length, and that finite values whose squares
or whose running bound overflow do not stop a solve."""

import dataclasses
import math

import numpy as np
import pytest

from nladmm import datagen, engine, maxop, scalar_examples, sphere
from nladmm.engine import IterateState, RhoSchedule, StopCriteria
from nladmm.errors import DimensionMismatch, NonFiniteIterate, SubproblemFailure
from nladmm.terms import CompositeObjective, l1_term, logistic_loss, zero_prox

BAD_CALL = 3  # a poisoned block goes wrong on its third call, in iteration 2
STOP = StopCriteria(tol_primal=1e-14, tol_dual=1e-14, max_iter=10)


def _poisoned(fn, bad):
    """fn, except that its third call returns ``bad`` in the shape of its
    result (of each array, for ``t_update_bags``' t and bag maxima), or
    raises ``bad`` if it is an exception."""
    calls = []

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(None)
        if len(calls) != BAD_CALL:
            return out
        if isinstance(bad, Exception):
            raise bad
        if isinstance(out, tuple):
            return tuple(np.full_like(v, bad) for v in out)
        return np.full_like(out, bad)

    return wrapped


ONEBIT_BLOCKS = {"x": "sphere_penalty_min", "z": "onebit_update_z",
                 "v": "onebit_update_v", "w": "onebit_update_w"}


def _onebit(monkeypatch, block, bad):
    attr = ONEBIT_BLOCKS[block]
    monkeypatch.setattr(sphere, attr, _poisoned(getattr(sphere, attr), bad))
    problem, _ = datagen.generate_onebit(16, 12, 4, seed=0, lam=10.0)
    M = problem.signed_matrix
    x0 = M.T @ np.ones(12)
    x0 /= np.linalg.norm(x0)
    init = sphere.OneBitCsState(x=x0.copy(), w=x0.copy(), z=M @ x0, y1=0.0,
                                y2=np.zeros(12), y3=np.zeros(16), rho=50.0)
    return sphere.onebit_solve(problem, init, RhoSchedule.constant(50.0), STOP)


def _mil(monkeypatch, block, bad):
    """q through a loss whose declared prox goes wrong, beta and t through
    the module functions the solve calls."""
    data, _ = datagen.generate_bags(4, 2, 2, seed=5)
    smooth = logistic_loss(data.labels)
    if block == "q":
        smooth = dataclasses.replace(smooth, prox=_poisoned(smooth.prox, bad))
    else:
        attr = {"beta": "update_beta", "t": "t_update_bags"}[block]
        monkeypatch.setattr(maxop, attr, _poisoned(getattr(maxop, attr), bad))
    return maxop.maxop_solve(data, CompositeObjective(smooth, zero_prox()), l1_term(1.0),
                             maxop.MaxOpState.zeros(data, 0.1), RhoSchedule.constant(0.1),
                             STOP)


def _scalar(which, block, bad):
    problem = scalar_examples.build_example(which)
    field = f"solve_{block}"
    problem = dataclasses.replace(problem, **{field: _poisoned(getattr(problem, field), bad)})
    init = IterateState(x1=np.ones(1), x2=np.ones(1), y=np.zeros(1), rho=1.0)
    return engine.solve(problem, init, RhoSchedule.constant(1.0), STOP)


def _run(monkeypatch, solver, block, bad):
    if solver == "onebit":
        return _onebit(monkeypatch, block, bad)
    if solver == "mil":
        return _mil(monkeypatch, block, bad)
    return _scalar(solver, block, bad)


BLOCKS = ([("onebit", b) for b in ONEBIT_BLOCKS] + [("mil", b) for b in ("q", "beta", "t")]
          + [(which, b) for which in ("example1", "example2") for b in ("x1", "x2")])
BLOCK_IDS = [f"{s}-{b}" for s, b in BLOCKS]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("solver, block", BLOCKS, ids=BLOCK_IDS)
def test_nonfinite_block_value_names_the_block(monkeypatch, solver, block, bad):
    """Every block of the three builders, returning NaN or +Inf in
    iteration 2, stops the solve there with SubproblemFailure naming it
    and the two rows recorded before."""
    with pytest.raises(SubproblemFailure) as e:
        _run(monkeypatch, solver, block, bad)
    assert str(e.value) == f"non-finite values in {block} block update"
    assert len(e.value.trace) == BAD_CALL - 1


@pytest.mark.parametrize("solver, block", BLOCKS, ids=BLOCK_IDS)
def test_block_solver_error_names_the_block(monkeypatch, solver, block):
    """Every block of the three builders whose solver raises a SolverError
    in iteration 2 stops the solve with SubproblemFailure naming the block,
    the two rows recorded before, and that error as its cause."""
    boom = SubproblemFailure("boom")
    with pytest.raises(SubproblemFailure) as e:
        _run(monkeypatch, solver, block, boom)
    assert str(e.value) == f"{block} block update: boom"
    assert len(e.value.trace) == BAD_CALL - 1
    assert e.value.__cause__ is boom


def test_block_that_raises_after_a_nonfinite_block():
    """example2's x2-block solves a cubic whose coefficient is x1^2 - 1 + y/rho.
    When the x1-block returns +Inf, that cubic raises SubproblemFailure; the
    failure reported is still the x1-block's, chained from it."""
    with pytest.raises(SubproblemFailure, match="^non-finite values in x1 block update$") as e:
        _scalar("example2", "x1", np.inf)
    assert isinstance(e.value.__cause__, SubproblemFailure)
    assert "discriminant" in str(e.value.__cause__)
    assert len(e.value.trace) == BAD_CALL - 1


@pytest.mark.parametrize("block", ["x1", "x2"])
def test_objective_catches_what_the_residuals_miss(block):
    """example1's residual takes sqrt(max(x, 0)), which is finite at x = -Inf;
    the objective x1 + x2 is not, so the block is still named."""
    with pytest.raises(SubproblemFailure) as e:
        _scalar("example1", block, -np.inf)
    assert str(e.value) == f"non-finite values in {block} block update"
    assert len(e.value.trace) == BAD_CALL - 1


def _iterate(blocks, constraints, dual_norm=lambda s, rho: 1.0,
             objective=lambda s: 0.0, y0=0.0, rho=1.0, max_iter=10, n=2):
    init = IterateState(x1=np.zeros(n), x2=np.zeros(n), y=np.full(n, y0), rho=rho)
    return engine.iterate(init, blocks, constraints, dual_norm, objective,
                          RhoSchedule.constant(rho), StopCriteria(1e-14, 1e-14, max_iter))


def _from_call(n, then, before):
    """A function that returns ``before`` before its n-th call and ``then``
    from that call on, or raises ``then`` if it is an exception type."""
    calls = []

    def fn(*args):
        calls.append(None)
        if len(calls) < n:
            return before
        if isinstance(then, type):
            raise then(f"call {len(calls)}")
        return then

    return fn


def test_block_error_reraised_when_nothing_before_it_failed():
    def fails(s, rho):
        raise ValueError("x2 failed")

    with pytest.raises(ValueError, match="x2 failed") as e:
        _iterate([("x1", lambda s, rho: np.ones(2)), ("x2", fails)], [("y", lambda s: s.x1)])
    assert e.value.__cause__ is None


@pytest.mark.parametrize("where", ["residual", "dual_norm", "objective"])
def test_solver_error_outside_a_block_reraised(where):
    """Only a block's SolverError is renamed: one from a residual, the dual
    norm or the objective reaches the caller as raised."""
    boom = NonFiniteIterate("boom")

    def fails(*args):
        raise boom

    kw = {} if where == "residual" else {where: fails}
    residual = fails if where == "residual" else (lambda s: s.x1)
    with pytest.raises(NonFiniteIterate) as e:
        _iterate([("x1", lambda s, rho: np.ones(2))], [("y", residual)], **kw)
    assert e.value is boom


ROWS = 2  # iterations that end before the one that goes wrong


@pytest.mark.parametrize("where, error, message", [
    ("residual", SubproblemFailure, "non-finite values in x1 block update"),
    ("dual_norm", NonFiniteIterate, "non-finite values in dual variable y"),
    ("objective", NonFiniteIterate, "non-finite values in residual norms"),
])
def test_error_after_a_nonfinite_value_reports_that_value(where, error, message):
    """A residual, dual norm or objective that raises after a non-finite
    value gives way to the check that runs before it: a NaN block's before
    the residual, a NaN dual's before the dual norm, and an Inf dual
    norm's before the objective."""
    goes_wrong = ROWS + 1
    blocks, constraints, kw = [], [("y", lambda s: np.ones(2))], {}
    if where == "residual":
        blocks = [("x1", _from_call(goes_wrong, np.full(2, np.nan), np.zeros(2)))]
        constraints = [("y", _from_call(goes_wrong, ValueError, np.ones(2)))]
    elif where == "dual_norm":
        constraints = [("y", _from_call(goes_wrong, np.full(2, np.nan), np.ones(2)))]
        kw["dual_norm"] = _from_call(goes_wrong, ValueError, 1.0)
    else:
        kw["dual_norm"] = _from_call(goes_wrong, math.inf, 1.0)
        kw["objective"] = _from_call(goes_wrong, ValueError, 0.0)
    with pytest.raises(error) as e:
        _iterate(blocks, constraints, **kw)
    assert str(e.value) == message
    assert isinstance(e.value.__cause__, ValueError)
    assert len(e.value.trace) == ROWS


def test_nonfinite_dual_before_a_later_shape_mismatch():
    """Duals are checked in order, each for its shape and then for finite
    values: a NaN in the first dual is reported before the second dual's
    residual is found to have the wrong shape."""
    with pytest.raises(NonFiniteIterate, match="^non-finite values in dual variable x1$"):
        _iterate([], [("x1", lambda s: np.full(2, np.nan)), ("y", lambda s: np.zeros(3))])


def test_residual_shape_change_raises_dimension_mismatch():
    """A residual whose shape changes at iteration 3 stops the loop there,
    after three iterations that ended; DimensionMismatch carries their
    three trace rows, as SubproblemFailure and NonFiniteIterate do."""
    shapes = iter([(2,)] * 3 + [(3,)])
    objectives = []
    with pytest.raises(DimensionMismatch) as e:
        _iterate([], [("y", lambda s: np.zeros(next(shapes)))],
                 objective=lambda s: objectives.append(None) or 0.0)
    assert str(e.value) == "dual y and its residual differ in shape"
    assert len(objectives) == 3
    assert [row.k for row in e.value.trace] == [0, 1, 2]


def test_huge_finite_duals_run_on():
    """Duals of 1e200, whose squared norm overflows, with a zero residual:
    every iteration runs the exact checks, finds nothing and goes on, with
    the trace and duals of a loop that tests every value."""
    result = _iterate([], [("y", lambda s: np.zeros(2))], y0=1e200, max_iter=6)
    assert [(r.k, r.objective, r.r_norm, r.s_norm, r.rho) for r in result.trace] == [
        (k, 0.0, 0.0, 1.0, 1.0) for k in range(6)]
    assert np.array_equal(result.state.y, [1e200, 1e200])


def test_dual_bound_over_limit_runs_on():
    """At rho = 1e299 a unit residual grows the duals by 1e299 an
    iteration, so the running bound passes 1e300 at iteration 7 and its
    exact value overflows from then on; the duals stay finite."""
    result = _iterate([], [("y", lambda s: np.ones(2))], rho=1e299, max_iter=15)
    y = 0.0
    for _ in range(15):
        y = y + 1e299 * 1.0
    assert len(result.trace) == 15
    assert all(r.r_norm == math.sqrt(2.0) for r in result.trace)
    assert np.array_equal(result.state.y, [y, y])


def test_dual_overflow_with_finite_norms_raises():
    """A dual that overflows while r_norm, s_norm and the objective stay
    finite is caught by the running bound on the dual norm: from 1e150 at
    rho = 1e307 and a unit residual, y overflows at the iteration a plain
    float loop does."""
    y, k = 1e150, 0
    while math.isfinite(y + 1e307 * 1.0):
        y, k = y + 1e307 * 1.0, k + 1
    with pytest.raises(NonFiniteIterate, match="^non-finite values in dual variable y$") as e:
        _iterate([], [("y", lambda s: np.ones(1))], y0=1e150, rho=1e307, max_iter=50, n=1)
    assert len(e.value.trace) == k


def test_nonfinite_objective_alone_runs_on():
    """An Inf objective with every iterate and norm finite is recorded, as
    a loop that tests only iterates and norms records it."""
    result = _iterate([("x1", lambda s, rho: np.ones(2))], [("y", lambda s: s.x1 - 1.0)],
                      objective=lambda s: math.inf, max_iter=4)
    assert [r.objective for r in result.trace] == [math.inf] * 4
    assert np.array_equal(result.state.y, [0.0, 0.0])


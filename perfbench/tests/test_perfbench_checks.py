"""Each benchmark check accepts a correct output and rejects a corrupted one.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import reference
import run
import tracing
import workloads
from nladmm import cli, datagen
from nladmm.engine import TraceRow

BENCH = Path(__file__).resolve().parent.parent


def _onebit_case():
    problem, x_true = datagen.generate_onebit(128, 64, 16, seed=5, lam=10.0)
    M = problem.signed_matrix
    x0 = M.T @ np.ones(64)
    x0 /= np.linalg.norm(x0)
    return problem, x_true, x0


def test_onebit_accepts_the_true_signal():
    problem, x_true, x0 = _onebit_case()
    z = problem.signed_matrix @ x_true
    assert checks.check_onebit(problem.Phi, problem.y_sign, problem.lam, x_true, x0,
                               x_true, x_true, z, baseline_seed=6) is None


def test_onebit_rejects_a_point_off_the_sphere():
    problem, x_true, x0 = _onebit_case()
    x = 1.01 * x_true
    z = problem.signed_matrix @ x
    reason = checks.check_onebit(problem.Phi, problem.y_sign, problem.lam, x_true, x0,
                                 x, x, z, baseline_seed=6)
    assert reason is not None and "sphere" in reason


def test_onebit_rejects_an_objective_above_the_start():
    problem, x_true, x0 = _onebit_case()
    w = 10.0 * x0  # much larger l1 norm than the start
    reason = checks.check_onebit(problem.Phi, problem.y_sign, problem.lam, x_true, x0,
                                 x_true, w, problem.signed_matrix @ w, baseline_seed=6)
    assert reason is not None and "objective" in reason


def test_onebit_rejects_an_uncorrelated_point():
    problem, x_true, x0 = _onebit_case()
    x = np.zeros_like(x_true)
    x[np.argmin(np.abs(x_true))] = 1.0  # a unit vector off the support
    reason = checks.check_onebit(problem.Phi, problem.y_sign, problem.lam, x_true, x0,
                                 x, x_true, problem.signed_matrix @ x_true, baseline_seed=6)
    assert reason is not None and "correlation" in reason


def _mil_exact():
    data, beta = datagen.generate_bags(20, 5, 4, seed=3)
    t = data.X @ beta
    q = np.maximum.reduceat(t, data.offsets[:-1])
    return data, beta, t, q


def test_mil_accepts_the_generating_weights():
    data, beta, t, q = _mil_exact()
    assert checks.check_mil(data.X, data.offsets, data.labels, q, beta, t) is None


def test_mil_rejects_a_bag_that_breaks_the_max_rule():
    data, beta, t, q = _mil_exact()
    q = q.copy()
    q[4] += 0.5
    reason = checks.check_mil(data.X, data.offsets, data.labels, q, beta, t)
    assert reason is not None


def test_mil_rejects_weights_that_misclassify_a_bag():
    data, beta, t, q = _mil_exact()
    beta = -beta
    t = data.X @ beta
    q = np.maximum.reduceat(t, data.offsets[:-1])
    reason = checks.check_mil(data.X, data.offsets, data.labels, q, beta, t)
    assert reason is not None and "labelled" in reason


def test_mil_rejects_a_changed_reload():
    data, _, _, _ = _mil_exact()
    assert checks.check_same_bags(data, data) is None
    X = data.X.copy()
    X[7, 2] = np.nextafter(X[7, 2], np.inf)
    changed = type(data)(labels=data.labels, X=X, offsets=data.offsets)
    assert checks.check_same_bags(data, changed) is not None


def _rows(tmp_path, objectives, extra=None):
    trace = [TraceRow(k=i, objective=v, r_norm=1e-7, s_norm=1e-7, rho=1.0)
             for i, v in enumerate(objectives)]
    path = tmp_path / "trace.csv"
    if extra is None:
        cli.write_trace(path, trace)
    else:
        cli.write_trace(path, trace, ["bound", "gap", "lyapunov", "vi_norm"], extra)
    return checks.read_trace_rows(path)


def test_scalar_accepts_the_optimum(tmp_path):
    rows = _rows(tmp_path, [1.0, 0.5])
    assert checks.check_scalar("example1", rows, 0.25, 0.25, diagnosed=False) is None


def test_scalar_rejects_a_trace_off_the_optimum(tmp_path):
    rows = _rows(tmp_path, [1.0, 0.51])
    reason = checks.check_scalar("example1", rows, 0.25, 0.25, diagnosed=False)
    assert reason is not None and "optimum" in reason


def test_scalar_rejects_an_infeasible_final_point(tmp_path):
    s = math.sqrt(2.0) / 2.0
    rows = _rows(tmp_path, [-math.sqrt(2.0)])
    reason = checks.check_scalar("example2", rows, -s, -s - 0.01, diagnosed=False)
    assert reason is not None and "residual" in reason


def test_scalar_diagnosed_rows(tmp_path):
    s = -math.sqrt(2.0) / 2.0
    good = [(0.3, 0.2, 2.0, 0.0), (0.1, 0.05, 1.0, 0.0)]
    rows = _rows(tmp_path, [-1.0, -math.sqrt(2.0)], good)
    assert checks.check_scalar("example2", rows, s, s, diagnosed=True) is None
    gap_above = [(0.3, 0.2, 2.0, 0.0), (0.1, 0.2, 1.0, 0.0)]
    rows = _rows(tmp_path, [-1.0, -math.sqrt(2.0)], gap_above)
    assert "bound" in checks.check_scalar("example2", rows, s, s, diagnosed=True)
    rising = [(0.3, 0.2, 1.0, 0.0), (0.1, 0.05, 2.0, 0.0)]
    rows = _rows(tmp_path, [-1.0, -math.sqrt(2.0)], rising)
    assert "Lyapunov" in checks.check_scalar("example2", rows, s, s, diagnosed=True)


def test_scalar_round_passes_its_checks_on_another_seed(tmp_path):
    wl = workloads.Scalar(seed=12345, outdir=tmp_path)
    for inst in wl.round[:5]:
        assert wl.check(inst, wl.solve(inst)) is None


class _BusyWorkload:
    """Each solve spins for a fixed stretch of wall time."""

    def __init__(self, seconds):
        self.round = [seconds]

    def solve(self, seconds):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            pass

    def check(self, inst, out):
        return None


def test_solve_times_leave_out_the_reference_samples():
    sampler = reference.Sampler()
    loop = run.Loop(_BusyWorkload(0.35), sampler=sampler)
    sampler.start()
    try:
        loop._solve(0.35)
    finally:
        sampler.stop()
    assert sampler.samples >= 2
    assert loop.durations[0] == pytest.approx(0.35 - sampler.busy, abs=2e-3)


def test_run_fails_without_solver_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "scalar",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def _run(workload, trace, seconds="1"):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    untraced = _run("scalar", 0)
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert untraced["correct"] and untraced["failed"] == 0


def test_traced_counts_repeat_exactly():
    first, second = _run("scalar", 1), _run("scalar", 1, seconds="2")
    assert set(first["metrics"]) == set(tracing.PER_LAYER)
    for name in ("engine.solve.outer_iters", "inner.cubic_real_roots.calls"):
        assert first["metrics"][name]["value"] > 0
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]

"""Command-line harness: run the benchmark examples and the two
applications, writing per-iteration traces as CSV.

Every solve runs at rho_k = rho0 + k * delta, set by ``--rho0`` and
``--rho-delta`` (0 keeps rho constant). ``multi-instance`` reads its bags
from ``--input``, a CSV as ``generate-bags`` writes it.

Exit codes: 0 when the solve converged, 2 when it hit the iteration cap,
1 on any error (quietly on a closed stdout); bad flags exit with 64.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import datagen, maxop, scalar_examples, sphere, textfile
from .diagnostics import diagnose_result
from .engine import RhoSchedule, StopCriteria, TraceRow
from .errors import SolverError
from .terms import CompositeObjective, l1_term, logistic_loss, zero_prox

TRACE_HEADER = ["iter", "objective", "primal_residual", "dual_residual", "rho"]
DIAG_HEADER = TRACE_HEADER + ["bound", "gap", "lyapunov", "vi_norm"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAX_ITER = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # stdout closed at start: exit 1 quietly as main does, not argparse's help on stderr.
        if file is None and sys.stdout is None:
            raise SystemExit(EXIT_ERROR)
        super().print_help(file)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def trace_lines(rows: Sequence[TraceRow], extra_header: Optional[List[str]] = None,
                extra_cols: Optional[Sequence[Sequence[float]]] = None) -> List[str]:
    """The lines of a trace CSV, with shortest round-trip float formatting
    (``repr``). No field needs CSV quoting."""
    lines = [",".join(TRACE_HEADER + (extra_header or []))]
    for i, row in enumerate(rows):
        line = f"{row.k},{row.objective!r},{row.r_norm!r},{row.s_norm!r},{row.rho!r}"
        if extra_cols is not None:
            line += "".join(f",{float(v)!r}" for v in extra_cols[i])
        lines.append(line)
    return lines


def write_trace(path, rows: Sequence[TraceRow],
                extra_header: Optional[List[str]] = None,
                extra_cols: Optional[Sequence[Sequence[float]]] = None) -> None:
    """The ``trace_lines`` with LF line ends, written by
    ``textfile.write_lines``: an existing file is overwritten in place and
    cut to length, keeping its inode and mode, and a pipe or device works
    as a target."""
    textfile.write_lines(path, trace_lines(rows, extra_header, extra_cols))


def _int_at_least(minimum: int):
    """argparse type for an integer of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


_positive_int, _nonnegative_int = _int_at_least(1), _int_at_least(0)


def _finite_float(positive: bool):
    """argparse type for a finite float that is positive, or nonnegative."""
    sign = "positive" if positive else "nonnegative"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        if not math.isfinite(value) or value < 0 or (positive and value == 0):
            raise argparse.ArgumentTypeError(f"must be finite and {sign}, got {text!r}")
        return value

    return parse


_positive_float = _finite_float(positive=True)
_nonnegative_float = _finite_float(positive=False)


def _add_common(p, rho0: float, max_iter: int):
    p.add_argument("--rho0", type=_positive_float, default=rho0)
    p.add_argument("--rho-delta", type=_nonnegative_float, default=0.0, dest="rho_delta",
                   help="rho grows by this much per iteration (0 keeps it constant)")
    p.add_argument("--max-iter", type=_positive_int, default=max_iter, dest="max_iter")
    p.add_argument("--tol-primal", type=_positive_float, default=1e-6, dest="tol_primal")
    p.add_argument("--tol-dual", type=_positive_float, default=1e-6, dest="tol_dual")
    p.add_argument("--output", default=None, help="trace CSV path")


def build_parser() -> _Parser:
    parser = _Parser(prog="nladmm",
                     description="Solvers for nonlinearly constrained problems "
                                 "via alternating block minimization.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name in (scalar_examples.EXAMPLE_SQRT, scalar_examples.EXAMPLE_CIRCLE):
        p = sub.add_parser(name, help=f"run the scalar benchmark {name}")
        _add_common(p, rho0=1.0, max_iter=30)
        p.add_argument("--diagnose", action="store_true",
                       help="append bound/gap/Lyapunov/VI columns (needs --rho-delta 0)")

    p = sub.add_parser("onebit-cs", help="1-bit compressive sensing on synthetic data")
    _add_common(p, rho0=1000.0, max_iter=100)
    p.add_argument("--n", type=_positive_int, default=128, help="signal length")
    p.add_argument("--m", type=_positive_int, default=64, help="number of measurements")
    p.add_argument("--k", type=_positive_int, default=16, help="signal sparsity")
    p.add_argument("--lambda", type=_positive_float, default=10.0, dest="lam")
    p.add_argument("--seed", type=_nonnegative_int, default=0)

    p = sub.add_parser("multi-instance", help="max-rule multi-instance learning")
    _add_common(p, rho0=0.1, max_iter=1000)
    p.add_argument("--input", required=True,
                   help="bag dataset CSV, as generate-bags writes it")
    p.add_argument("--lambda", type=_positive_float, default=1.0, dest="lam")

    p = sub.add_parser("generate-bags", help="write a synthetic bag dataset CSV")
    p.add_argument("--bags", type=_positive_int, default=20)
    p.add_argument("--instances", type=_positive_int, default=5)
    p.add_argument("--features", type=_positive_int, default=4)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--output", required=True)
    return parser


def _stop(args) -> StopCriteria:
    return StopCriteria(tol_primal=args.tol_primal, tol_dual=args.tol_dual,
                        max_iter=args.max_iter)


def _finish(args, trace, converged, summary,
            extra_header=None, extra_cols=None) -> int:
    """Write the trace if ``--output`` is given, print the summary line and
    map convergence to the exit code."""
    if args.output is not None:
        # A file description of its own on stdout's file (--output /dev/stdout,
        # or the file of > or >>) would write from offset 0, not append.
        try:
            to_stdout = os.path.samestat(os.fstat(sys.stdout.fileno()), os.stat(args.output))
        except (AttributeError, OSError):  # stdout closed at start or in-process, or no file
            to_stdout = False
        if to_stdout:
            print(*trace_lines(trace, extra_header, extra_cols), sep="\n")
        else:
            write_trace(args.output, trace, extra_header, extra_cols)
    print(f"{args.subcommand}: iterations={len(trace)} {summary}")
    return EXIT_OK if converged else EXIT_MAX_ITER


def _run_example(args) -> int:
    run = scalar_examples.run_example(args.subcommand,
                                      RhoSchedule(args.rho0, args.rho_delta),
                                      max_iter=args.max_iter,
                                      tol_primal=args.tol_primal,
                                      tol_dual=args.tol_dual)
    trace = run.result.trace
    extra_header = extra_cols = None
    if args.diagnose:
        ref = scalar_examples.example_reference(args.subcommand)
        problem = scalar_examples.build_example(args.subcommand)
        rows = diagnose_result(run.result, ref, problem.f1, problem.f2,
                               run.x1_history, run.x2_history)
        extra_header = DIAG_HEADER[len(TRACE_HEADER):]
        extra_cols = [(r.bound, r.gap, r.lyapunov, r.vi_norm) for r in rows]
    last = trace[-1]
    return _finish(args, trace, run.result.converged,
                   f"objective={last.objective:.6f} r={last.r_norm:.3e} s={last.s_norm:.3e}",
                   extra_header, extra_cols)


def _run_onebit(args) -> int:
    problem, x_true = datagen.generate_onebit(args.n, args.m, args.k,
                                              args.seed, lam=args.lam)
    # Matched-filter start: the normalized back-projection of the signs is
    # already correlated with the signal and sits in a good basin.
    x0 = problem.signed_matrix.T @ np.ones(args.m)
    x0 /= np.linalg.norm(x0)
    init = sphere.OneBitCsState(x=x0.copy(), w=x0.copy(),
                                z=problem.signed_matrix @ x0,
                                y1=0.0, y2=np.zeros(args.m), y3=np.zeros(args.n),
                                rho=args.rho0)
    state, trace, converged = sphere.onebit_solve(
        problem, init, RhoSchedule(args.rho0, args.rho_delta), _stop(args))
    corr = abs(float(state.x @ x_true)) / max(np.linalg.norm(state.x), 1e-30)
    return _finish(args, trace, converged,
                   f"objective={trace[-1].objective:.4f} "
                   f"sphere_residual={abs(float(state.x @ state.x) - 1.0):.3e} "
                   f"correlation={corr:.4f}")


def _run_multi_instance(args) -> int:
    data = maxop.load_bags_csv(args.input)
    loss = CompositeObjective(logistic_loss(data.labels), zero_prox())
    init = maxop.MaxOpState.zeros(data, args.rho0)
    state, trace, converged = maxop.maxop_solve(
        data, loss, l1_term(args.lam), init, RhoSchedule(args.rho0, args.rho_delta),
        _stop(args))
    gap = float(np.max(np.abs(state.q - data.bag_max(state.t))))
    return _finish(args, trace, converged,
                   f"objective={trace[-1].objective:.4f} r={trace[-1].r_norm:.3e} "
                   f"max_rule_gap={gap:.3e}")


def _run_generate_bags(args) -> int:
    data, _ = datagen.generate_bags(args.bags, args.instances,
                                    args.features, args.seed)
    maxop.save_bags_csv(args.output, data)
    positives = int(np.sum(data.labels == 1.0))
    print(f"generate-bags: wrote {data.X.shape[0]} instances in {data.n_bags} bags "
          f"({positives} positive) to {args.output}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The diagnostics need a constant rho; refuse before any solve runs.
    if getattr(args, "diagnose", False) and args.rho_delta > 0:
        parser.error(f"--diagnose needs a constant rho, but --rho-delta "
                     f"{args.rho_delta:g} grows it")
    handlers = {
        scalar_examples.EXAMPLE_SQRT: _run_example,
        scalar_examples.EXAMPLE_CIRCLE: _run_example,
        "onebit-cs": _run_onebit,
        "multi-instance": _run_multi_instance,
        "generate-bags": _run_generate_bags,
    }
    try:
        code = handlers[args.subcommand](args)
        if sys.stdout is None:  # closed at start: print wrote nothing
            return EXIT_ERROR
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: end quietly, with fd 1 on devnull so that
        # the interpreter's flush at exit has nothing left to fail on.
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except SolverError as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the nladmm solvers on three closed-loop workloads.

    python3 perfbench/run.py --workload {onebit,mil,scalar} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree that holds ``src/nladmm``. With
``--trace 0`` it times whole rounds of solves for about ``--seconds``
seconds and prints the end-to-end metrics; with ``--trace 1`` it does the
same with every layer wrapped and prints the per-layer metrics. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# One BLAS thread, set before numpy loads: OpenBLAS otherwise keeps a second
# thread spinning, which doubles CPU time and makes wall time depend on what
# else the host runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7  # set-ups per run whose median is setup_s


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["onebit", "mil", "scalar"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time one set-up and print its seconds")
    return p.parse_args(argv)


def import_solver():
    """Import nladmm from this tree's src/, never from an installed copy."""
    if not (SRC / "nladmm" / "__init__.py").is_file():
        sys.exit(f"error: no solver sources at {SRC / 'nladmm'}")
    sys.path.insert(0, str(SRC))
    import nladmm

    if Path(nladmm.__file__).resolve().parent != (SRC / "nladmm").resolve():
        sys.exit(f"error: imported nladmm from {nladmm.__file__}, not {SRC}")


def set_up(workload: str, seed: int, tracer=None):
    """Import the solver, then build the workload's inputs. Returns the
    workload and the seconds this took."""
    t0 = time.perf_counter()
    import_solver()
    import workloads

    if tracer is not None:
        tracer.install()
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[workload](seed, OUT)
    return wl, time.perf_counter() - t0


def setup_probe_seconds(args) -> float:
    """One set-up in a fresh interpreter, so imports are paid again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Loop:
    """Repeats the workload's round, solving and checking every instance
    and counting attempts and failures.

    With a ``sampler`` running, the wall time its samples took inside a
    solve is taken out of that solve's time. ``after_solve`` is called with
    the seconds since the loop began after every solve and its check,
    outside all timing."""

    def __init__(self, wl, tracer=None, sampler=None, after_solve=None):
        self.wl = wl
        self.tracer = tracer
        self.sampler = sampler
        self.after_solve = after_solve
        self.durations = []  # wall seconds of each timed solve
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run_rounds(self, seconds: float) -> None:
        """Whole rounds for about ``seconds`` of wall time: another round
        starts only if it would end less than half a round past the mark."""
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for inst in self.wl.round:
                self._solve(inst)
                if self.after_solve is not None:
                    self.after_solve(time.perf_counter() - start)
            now = time.perf_counter()
            if now - start + 0.5 * (now - t0) >= seconds:
                return

    def _sampled(self) -> float:
        return self.sampler.busy if self.sampler is not None else 0.0

    def _solve(self, inst):
        if self.tracer is not None:
            self.tracer.solve = self.attempted
        self.attempted += 1
        sampled = self._sampled()
        error = None
        t0 = time.perf_counter()
        try:
            out = self.wl.solve(inst)
        except Exception as exc:  # a solver error fails this solve, not the run
            error = exc
        self.durations.append(time.perf_counter() - t0 - (self._sampled() - sampled))
        if error is not None:
            self.failed += 1
            traceback.print_exception(error, file=sys.stderr)
            return
        reason = self.wl.check(inst, out)
        if reason is not None:
            self.failed += 1
            self.correct = False
            print(f"check failed: {type(self.wl).__name__}: {reason}", file=sys.stderr)


def warm_up(wl):
    """One untimed solve so lazy imports and caches are settled."""
    wl.solve(wl.round[0])


def run_untraced(args):
    wl, setup_main = set_up(args.workload, args.seed)
    import reference

    warm_up(wl)
    sampler = reference.Sampler(OUT / "reference.csv" if wl.REFERENCE_FILE_IO else None)
    reference.seconds(sampler.file_path)
    setups = [setup_main]

    def spread_setup_probes(elapsed):
        """One fresh-interpreter set-up each time another share of the run
        has passed, so that the set-ups meet different phases of the host.
        The sampler pauses meanwhile: the child runs on the other core."""
        if len(setups) < SETUP_SAMPLES and elapsed >= (len(setups) * args.seconds
                                                       / SETUP_SAMPLES):
            sampler.stop()
            setups.append(setup_probe_seconds(args))
            sampler.start()

    loop = Loop(wl, sampler=sampler, after_solve=spread_setup_probes)
    sampler.start()
    try:
        loop.run_rounds(args.seconds)
    finally:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [setup_probe_seconds(args) for _ in range(SETUP_SAMPLES - len(setups))]
    print(f"wall time: {len(loop.durations) / sum(loop.durations):.6g} solves/s; "
          f"reference: {1e3 * sampler.mean_seconds():.4g} ms over {sampler.samples} samples",
          file=sys.stderr)
    metrics = {
        "solve_ref.mean": statistics.fmean(loop.durations) / sampler.mean_seconds(),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    units = {"solve_ref.mean": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
    return loop, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def run_traced(args):
    from tracing import WARMUP_SOLVE, Tracer

    tracer = Tracer()
    wl, _ = set_up(args.workload, args.seed, tracer)
    tracer.solve = WARMUP_SOLVE
    warm_up(wl)
    loop = Loop(wl, tracer)
    loop.run_rounds(args.seconds)
    tracer.uninstall()
    metrics = tracer.per_layer_metrics(loop.attempted, sum(loop.durations))
    tracer.write_spans(OUT / f"spans_{args.workload}.csv.gz")
    return loop, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        _, seconds = set_up(args.workload, args.seed)
        print(repr(seconds))
        return 0
    loop, metrics = run_traced(args) if args.trace else run_untraced(args)
    print(json.dumps({"correct": loop.correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

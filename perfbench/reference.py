"""A fixed computation timed all through the measured solves: the unit of
the end-to-end solve cost.

On a shared virtual machine the same solve can take up to twice as long
for seconds to minutes at a time, and everything in the process slows
with it. Dividing the mean solve time by the mean time of this
computation, sampled every ``INTERVAL_S`` seconds during the same stretch
of wall time, cancels most of that drift and keeps what a change to the
solver does.

The computation mixes the kinds of work the solvers spend their time on:
building, formatting and sorting small Python records, as the engine loop
and the trace writer do, and numpy operations on 5-element arrays, whose
cost is dispatch rather than arithmetic, as in the per-bag t-update and
the FISTA steps. Of the candidates tried this pair followed the drift best
on all three workloads. A workload whose solves spend a large share in
writing their trace file (``scalar``, about a fifth) also writes and reads
back a small CSV file: file-system calls slow down more than computation
in some of the host's slow phases. The computation does not touch the
solver package, so a change to the package cannot change the unit.
"""

import csv
import io
import math
import signal
import time

import numpy as np

INTERVAL_S = 0.1
_RECORDS = 200
_ARRAY_OPS = 300
_FILE_ROWS = 25
_V = np.arange(5.0)


def seconds(file_path=None) -> float:
    """Wall time of one run of the reference computation (about 3 ms), with
    a ``file_path`` also writing a 25-row CSV file there and reading it
    back."""
    t0 = time.perf_counter()
    rows = [{"k": i, "objective": math.sqrt(i + 1.0), "r": 0.5 * i, "s": 1.0 / (i + 1)}
            for i in range(_RECORDS)]
    writer = csv.writer(io.StringIO())
    for row in rows:
        writer.writerow([row["k"], repr(row["objective"]), f"{row['r']:.6g}", row["s"]])
    rows.sort(key=lambda row: -row["objective"])
    x = _V
    for _ in range(_ARRAY_OPS):
        x = np.maximum(0.5 * x, 0.1) + _V
        float(x @ _V)
    if file_path is not None:
        with open(file_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            for i in range(_FILE_ROWS):
                writer.writerow([i, repr(math.sqrt(i + 1.0)), 1e-7, 1e-7, 1.0])
        with open(file_path, newline="", encoding="utf-8") as fh:
            list(csv.reader(fh))
    return time.perf_counter() - t0


class Sampler:
    """Runs the reference computation every ``INTERVAL_S`` seconds of wall
    time between ``start`` and ``stop``, from a SIGALRM handler, so that it
    also samples the host while a long solve runs. ``busy`` is the wall time
    the samples took, which the caller takes out of the solve times."""

    def __init__(self, file_path=None):
        self.file_path = file_path
        self.samples = 0
        self.busy = 0.0

    def _tick(self, signum, frame):
        self.busy += seconds(self.file_path)
        self.samples += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_seconds(self) -> float:
        return self.busy / self.samples

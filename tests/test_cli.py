"""The CLI's CSV writers, and its commands' exit codes and messages.

Most command checks are rows ``Run(cmd, codes, text)`` that ``_runs``
makes into tests and ``_check`` runs: the exit code must be in ``codes``
and no ``RuntimeWarning`` raised; after exit 0 or 2 stdout holds ``text``
and stderr is empty; after exit 1 or 64 stderr holds ``text``, and after
exit 1 starts with ``error: ``. A field ``{name}`` of ``cmd`` is the path
of an ``inputs`` file, ``{tmp}`` their directory.
"""

import io
import os
import shlex
import signal
import stat
import subprocess
import sys
import threading
import warnings
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from helpers import read_trace
from nladmm import cli, datagen, maxop
from nladmm.engine import RhoSchedule, StopCriteria, TraceRow
from nladmm.terms import CompositeObjective, l1_term, logistic_loss, zero_prox

TIME_BOUND = 120  # seconds
DONE, ERROR, USAGE = (cli.EXIT_OK, cli.EXIT_MAX_ITER), (cli.EXIT_ERROR,), (cli.EXIT_USAGE,)
FAILED = "error: solver failed: "  # a solver failure's text starts with this
HUGE = "--rho-delta 1e308 --max-iter 3"
NON_FINITE = FAILED + "non-finite values in residual norms"
Run = namedtuple("Run", "cmd codes text")
CLOSED = object()  # _child's stdout for a closed fd 1


class Hung(BaseException):
    """A run past ``TIME_BOUND``: not an ``Exception`` (``iterate`` makes one a
    ``SubproblemFailure``) nor an ``OSError`` (``main`` exits 1 on it)."""


def _hang(signum, frame):
    raise Hung(f"no exit within {TIME_BOUND} s")


def _check(row, inputs):
    """Runs ``nladmm row.cmd`` in-process under a ``TIME_BOUND`` alarm, with
    warnings recorded instead of raised, and holds it to the rules above."""
    argv = [arg.format(**inputs) for arg in shlex.split(row.cmd)]
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(TIME_BOUND)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out, err = out.getvalue(), err.getvalue()
    seen = f"nladmm {' '.join(argv)} exited {code}\nstdout:\n{out}\nstderr:\n{err}"
    assert code in row.codes, seen
    warned = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not warned, f"{seen}\nwarnings: {warned}"
    if code in DONE:
        assert err == "" and row.text in out, seen
    else:
        assert row.text in err, seen
        assert code != cli.EXIT_ERROR or err.startswith("error: "), seen


def _runs(*rows, ids=lambda row: row.cmd):
    """A test method that checks ``rows``, parametrized if there are several."""
    if len(rows) == 1:
        def test(self, inputs):
            _check(rows[0], inputs)
        return test

    @pytest.mark.parametrize("row", rows, ids=ids)
    def test(self, row, inputs):
        _check(row, inputs)
    return test


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The 6 x 3 x 3 bags of data seed 0, the generate-bags defaults (20 x
    5 x 4, seed 0), those with a fifth feature column that copies the first,
    is zero or sums the first two (X'X singular), or with a NaN on line 8,
    and a file whose line 3 is empty."""
    tmp = tmp_path_factory.mktemp("cli")
    data, _ = datagen.generate_bags(20, 5, 4, 0)
    X = data.X
    sets = {"bags": datagen.generate_bags(6, 3, 3, 0)[0], "default_bags": data}
    for name, column in [("dup", X[:, 0]), ("zero", 0.0 * X[:, 0]), ("sum", X[:, 0] + X[:, 1])]:
        sets[name] = maxop.BagDataset(data.labels, np.column_stack([X, column]), data.offsets)
    paths = {"tmp": str(tmp)}
    for name, bags in sets.items():
        paths[name] = str(tmp / f"{name}.csv")
        maxop.save_bags_csv(paths[name], bags)
    # A BagDataset refuses a NaN, so the NaN goes into the text: f1 of line 8.
    lines = Path(paths["default_bags"]).read_text().split("\n")
    fields = lines[7].split(",")
    fields[2] = "nan"
    lines[7] = ",".join(fields)
    paths["nan"] = str(tmp / "nan.csv")
    Path(paths["nan"]).write_text("\n".join(lines))
    paths["malformed"] = str(tmp / "malformed.csv")
    Path(paths["malformed"]).write_text("bag_id,label,f1\n0,1,0.5\n\n1,0,0.2\n")
    return paths


def _child(args, stdout):
    """``nladmm args`` in a child process, with this checkout's package first
    on PYTHONPATH, writing to ``stdout``, or with fd 1 closed as ``>&-``
    leaves it when ``stdout`` is ``CLOSED``; stderr is captured."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else [])))
    cmd = [sys.executable, "-m", "nladmm.cli", *args]
    if stdout is CLOSED:
        cmd, stdout = ["sh", "-c", 'exec "$@" >&-', "sh", *cmd], None
    return subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE, timeout=60, env=env)


def _diagnosed(tmp_path, *args):
    """The trace of ``nladmm args --diagnose``, after checking its exit and
    gap <= bound on every row."""
    out = tmp_path / "d.csv"
    assert cli.main([*args, "--diagnose", "--output", str(out)]) in DONE
    assert all(r["gap"] <= r["bound"] + 1e-8 for r in read_trace(out))
    return out


def _rows(n):
    """``n`` trace rows whose fields have reprs of varied lengths."""
    return [TraceRow(k=k, objective=1.0 / (k + 3), r_norm=10.0 ** -k,
                     s_norm=2.0 ** -k, rho=1.0 + 0.01 * k) for k in range(n)]


class TestTraceCsv:
    def test_roundtrip_exact_floats(self, tmp_path):
        rows = [TraceRow(k=0, objective=0.1, r_norm=1.0 / 3.0,
                         s_norm=1e-300, rho=1.0),
                TraceRow(k=1, objective=-2.5000000000000004,
                         r_norm=0.30000000000000004, s_norm=7.0, rho=1.01)]
        path = tmp_path / "trace.csv"
        cli.write_trace(path, rows)
        back = read_trace(path)
        assert back[0]["objective"] == 0.1
        assert back[0]["primal_residual"] == 1.0 / 3.0
        assert back[0]["dual_residual"] == 1e-300
        assert back[1]["objective"] == -2.5000000000000004
        assert back[1]["primal_residual"] == 0.30000000000000004
        assert back[1]["iter"] == 1

    def test_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        cli.write_trace(path, [TraceRow(0, 1.0, 1.0, 1.0, 1.0)])
        first = path.read_text().splitlines()[0]
        assert first == "iter,objective,primal_residual,dual_residual,rho"

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "trace.csv"
        cli.write_trace(path, [TraceRow(0, 1.0, 1.0, 1.0, 1.0)])
        raw = path.read_bytes()
        assert b"\r" not in raw

    @pytest.mark.parametrize("first, second", [(40, 3), (3, 40)],
                             ids=["long-then-short", "short-then-long"])
    def test_overwrite_matches_fresh_write(self, tmp_path, first, second):
        """A trace written over an existing one has the bytes of a fresh
        write, whether the old file was longer or shorter."""
        path, fresh = tmp_path / "trace.csv", tmp_path / "fresh.csv"
        cli.write_trace(path, _rows(first))
        cli.write_trace(path, _rows(second))
        cli.write_trace(fresh, _rows(second))
        assert path.read_bytes() == fresh.read_bytes()


_WRITERS = {
    "trace": lambda path: cli.write_trace(path, _rows(40)),
    "bags": lambda path: maxop.save_bags_csv(path, datagen.generate_bags(6, 3, 3, 0)[0]),
}


class TestOutputInPlace:
    """Both CSV writers overwrite an existing file in place, create a new
    one as ``open(path, "w")`` would, and write to a pipe or a device."""

    def test_pipe_gets_the_whole_trace(self, tmp_path):
        """Through /dev/fd/N of a pipe's read end, which opens a new write
        end of that pipe. The trace is larger than a pipe's buffer, so it
        goes through in several partial writes while a thread drains it."""
        rows = _rows(2000)
        fresh = tmp_path / "fresh.csv"
        cli.write_trace(fresh, rows)
        assert fresh.stat().st_size > 2 ** 16  # a pipe buffer holds 64 KiB
        r, w = os.pipe()
        chunks = []

        def drain():
            while chunk := os.read(r, 1 << 16):
                chunks.append(chunk)

        reader = threading.Thread(target=drain)
        reader.start()
        try:
            cli.write_trace(f"/dev/fd/{r}", rows)
        finally:
            os.close(w)
            reader.join(timeout=60)
        assert not reader.is_alive()
        os.close(r)
        assert b"".join(chunks) == fresh.read_bytes()

    def test_device_target(self):
        """/dev/null can seek but not be truncated: nothing raises."""
        cli.write_trace("/dev/null", _rows(3))

    @pytest.mark.parametrize("writer", sorted(_WRITERS))
    def test_new_file_mode_follows_umask(self, tmp_path, writer):
        path = tmp_path / "out.csv"
        old = os.umask(0o027)
        try:
            _WRITERS[writer](path)
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    @pytest.mark.parametrize("writer", sorted(_WRITERS))
    def test_existing_file_keeps_inode_and_mode(self, tmp_path, writer):
        path, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
        path.write_bytes(b"x" * 100_000)
        path.chmod(0o600)
        before = path.stat()
        _WRITERS[writer](path)
        _WRITERS[writer](fresh)
        after = path.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o600)
        assert path.read_bytes() == fresh.read_bytes()

    def test_read_only_output_exit_1(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        path.write_text("old\n")
        path.chmod(0o444)
        if os.access(path, os.W_OK):
            pytest.skip("this user may write to a file of mode 0o444")
        assert cli.main(["example1", "--max-iter", "3", "--output", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert path.read_text() == "old\n"

    test_directory_output_exit_1 = _runs(Run("example1 --output {tmp}", ERROR, "Is a directory"))
    test_empty_output_exit_1 = _runs(Run("example1 --output ''", ERROR, "directory: ''"))

    def test_redirected_stdout_gets_trace_then_summary(self, tmp_path, capsys):
        """``--output /dev/stdout > run.txt`` writes the trace at offset 0 through
        a file description of its own; the summary follows, not over it."""
        path, fresh = tmp_path / "run.txt", tmp_path / "fresh.csv"
        with path.open("wb") as stdout:
            proc = _child(["example1", "--max-iter", "3", "--output", "/dev/stdout"], stdout)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_MAX_ITER, b"")
        cli.main(["example1", "--max-iter", "3", "--output", str(fresh)])
        assert len(fresh.read_text().splitlines()) == 4  # the header and 3 rows
        assert path.read_text() == fresh.read_text() + capsys.readouterr().out

    def test_appended_stdout_keeps_the_file(self, tmp_path, capsys):
        """``--output /dev/stdout >> log.txt`` appends the trace and then the
        summary to the 7 lines already there, and overwrites none of them."""
        path, fresh = tmp_path / "log.txt", tmp_path / "fresh.csv"
        log = "".join(f"line {i}\n" for i in range(7))
        path.write_text(log)
        with path.open("ab") as stdout:
            proc = _child(["example1", "--max-iter", "3", "--output", "/dev/stdout"], stdout)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_MAX_ITER, b"")
        cli.main(["example1", "--max-iter", "3", "--output", str(fresh)])
        assert path.read_text() == log + fresh.read_text() + capsys.readouterr().out


class TestUsageErrors:
    """A bad command line exits 64 with argparse's message."""

    test_no_subcommand = _runs(Run("", USAGE, "required: subcommand"))
    test_unknown_flag = _runs(
        Run("example1 --no-such-flag", USAGE, "unrecognized arguments: --no-such-flag"))
    test_bad_value = _runs(
        Run("example1 --max-iter abc", USAGE, "--max-iter: invalid int value: 'abc'"))
    test_max_iter_not_positive = _runs(
        *(Run(f"example1 --max-iter {value}", USAGE, "argument --max-iter: must be at least 1")
          for value in ("0", "-3")), ids=lambda row: row.cmd.split()[-1])
    test_bad_float_flag = _runs(*(
        Run(cmd, USAGE, f"argument {cmd.split()[1]}: must be finite and "
            + ("nonnegative" if "--rho-delta" in cmd else "positive"))
        for cmd in ["onebit-cs --rho0 nan", "example1 --rho0 inf", "example1 --rho0 -1",
                    "example1 --rho0 0", "onebit-cs --rho-delta nan",
                    "example1 --rho-delta -0.5", "example1 --tol-primal nan",
                    "example1 --tol-primal -1", "multi-instance --tol-dual inf",
                    "onebit-cs --lambda nan", "onebit-cs --lambda 0",
                    "multi-instance --lambda -1", "multi-instance --lambda inf"]),
        ids=lambda row: row.cmd.replace(" ", "-"))
    test_unparsable_float_flag = _runs(
        Run("example1 --rho0 abc", USAGE, "argument --rho0: invalid float value: 'abc'"))

    def test_diagnose_with_growing_rho(self, tmp_path, capsys):
        """The diagnostics need a constant rho, so the combination is
        refused before any solve runs and no trace is written."""
        out = tmp_path / "d.csv"
        with pytest.raises(SystemExit) as e:
            cli.main(["example1", "--diagnose", "--rho-delta", "0.1", "--output", str(out)])
        assert e.value.code == 64
        err = capsys.readouterr().err
        assert "--diagnose" in err and "--rho-delta 0.1" in err
        assert not out.exists()

    # --rho-delta alone sets the schedule.
    test_rho_schedule_flag_is_gone = _runs(
        *(Run(f"example1 --rho-schedule {schedule}", USAGE,
              "unrecognized arguments: --rho-schedule") for schedule in ("constant", "increment")),
        ids=lambda row: row.cmd.split()[-1])
    test_multi_instance_needs_input = _runs(Run("multi-instance", USAGE, "required: --input"))
    # The bags come from --input only; generate-bags takes these flags.
    test_multi_instance_has_no_generator_flags = _runs(
        *(Run(f"multi-instance --input {{default_bags}} {flag} 3", USAGE,
              f"unrecognized arguments: {flag}")
          for flag in ("--bags", "--instances", "--features", "--seed")),
        ids=lambda row: row.cmd.split()[3])
    # Sizes must be at least 1 and seeds at least 0.
    test_size_not_positive = _runs(
        *(Run(f"{cmd} {-1 if 'seed' in cmd else 0} --output {{tmp}}/out.csv", USAGE,
              f"argument {cmd.split()[1]}: must be at least {0 if 'seed' in cmd else 1}")
          for cmd in ["onebit-cs --n", "onebit-cs --m", "onebit-cs --k", "generate-bags --bags",
                      "generate-bags --instances", "generate-bags --features",
                      "onebit-cs --seed", "generate-bags --seed"]),
        ids=lambda row: "-".join(row.cmd.split()[:2]))


class TestExampleSubcommands:
    def test_example1_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = cli.main(["example1", "--rho0", "1", "--max-iter", "30", "--output", str(out)])
        assert code in (0, 2)
        rows = read_trace(out)
        assert 0 < len(rows) <= 30
        assert all(r["rho"] == 1.0 for r in rows)  # --rho-delta defaults to 0
        assert rows[-1]["objective"] == pytest.approx(0.5, abs=1e-3)
        assert "example1" in capsys.readouterr().out

    test_example2_converges = _runs(Run("example2", DONE, "example2: "))

    def test_example_diagnose_columns(self, tmp_path):
        header = _diagnosed(tmp_path, "example1").read_text().splitlines()[0]
        assert header == ("iter,objective,primal_residual,dual_residual,rho"
                          ",bound,gap,lyapunov,vi_norm")

    def test_example2_diagnose_rho0_49(self, tmp_path):
        """At rho = 49, (1/rho) * rho != 1 in floating point; the diagnostics
        must not depend on that product being exact."""
        out = _diagnosed(tmp_path, "example2", "--rho0", "49")
        assert list(read_trace(out)[0]) == cli.DIAG_HEADER

    def test_increment_schedule_runs(self, tmp_path):
        """--rho-delta alone sets the schedule: row k runs at rho0 + k * delta."""
        out = tmp_path / "t.csv"
        assert cli.main(["example1", "--rho0", "2", "--rho-delta", "0.1",
                         "--output", str(out)]) in (0, 2)
        rows = read_trace(out)
        assert len(rows) > 1
        assert [r["rho"] for r in rows] == [2.0 + r["iter"] * 0.1 for r in rows]

    def test_diagnose_increment_with_zero_delta(self, tmp_path):
        """--rho-delta 0 keeps rho constant, so the diagnostics still run."""
        out = _diagnosed(tmp_path, "example1", "--rho-delta", "0")
        assert list(read_trace(out)[0]) == cli.DIAG_HEADER

    # At rho0 = 1e-160 the stationarity cubic's constant term 1/(2 rho)
    # squares past the float range.
    test_example2_tiny_rho0_exit_1 = _runs(Run(
        "example2 --rho0 1e-160", ERROR, FAILED + "x1 block update: cubic t^3 + p*t + q"
        " with (p, q) = (0.0, 5e+159): the discriminant overflows"))
    # At rho0 = 1e-160 example1's iterates and objective are subnormal; the
    # engine's once-per-iteration finiteness test lets the solve run on.
    test_example_runs = _runs(
        Run("example2 --diagnose --output {tmp}/example2.csv", DONE, "example2: "),
        Run("example2 --rho-delta 0.01 --output {tmp}/example2_increment.csv", DONE, "example2: "),
        Run("example1 --rho0 1e-160", DONE, "example1: "))

    @pytest.mark.parametrize("args", [["example1"], ["example1", "--output", "/dev/stdout"]],
                             ids=["summary", "trace"])
    def test_closed_stdout_ends_quietly(self, args):
        """stdout is a pipe whose read end is closed before the CLI starts:
        the first write breaks the pipe, and the CLI exits 1 with nothing on
        stderr, neither an error line nor the interpreter's own report of a
        failed flush at exit."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _child(args, write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_stdout_closed_at_start(self, tmp_path):
        """With fd 1 closed before the interpreter starts, ``sys.stdout`` is
        None: the trace is written, and the CLI exits 1 with nothing on
        stderr, as on a broken pipe."""
        out, fresh = tmp_path / "t.csv", tmp_path / "fresh.csv"
        proc = _child(["example1", "--output", str(out)], CLOSED)
        assert (proc.returncode, proc.stderr) == (1, b"")
        cli.main(["example1", "--output", str(fresh)])
        assert out.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("args", [["--help"], ["example1", "--help"]],
                             ids=["nladmm", "example1"])
    def test_help_with_stdout_closed_at_start(self, args):
        """With fd 1 closed, argparse would print the help to stderr and
        exit 0; the CLI exits 1 with nothing on stderr, as after a solve."""
        proc = _child(args, CLOSED)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_ERROR, b"")


class TestOnebitSubcommand:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "cs.csv"
        code = cli.main(["onebit-cs", "--n", "32", "--m", "16", "--k", "4",
                         "--max-iter", "30", "--seed", "1", "--output", str(out)])
        assert code in (0, 2)
        assert len(read_trace(out)) <= 30
        assert "sphere_residual" in capsys.readouterr().out

    test_invalid_sizes_exit_1 = _runs(Run(
        "onebit-cs --n 4 --m 2 --k 10 --max-iter 5", ERROR, "error: need 1 <= k <= n and m >= 1"))
    # One rho-free v-block inverse per solve, under a growing rho.
    test_growing_rho = _runs(Run(
        "onebit-cs --rho-delta 0.01 --n 32 --m 16 --k 4 --max-iter 30", DONE, "sphere_residual="))


class TestHugeRho:
    """rho = rho0 + 1e308 is finite at iteration 1. There the multi-instance
    dual norm overflows, on full-rank and on rank-deficient features alike.
    The 1-bit CS blocks take no step constant, so that solve fails when rho
    itself overflows at iteration 2."""

    test_overflowing_step_constant_exit_1 = _runs(
        Run(f"onebit-cs --n 32 --m 16 --k 4 {HUGE}", ERROR,
            FAILED + "penalty rho is inf at iteration 2"),
        Run(f"multi-instance --input {{default_bags}} {HUGE}", ERROR, NON_FINITE),
        ids=lambda row: row.cmd.split()[0])
    test_rank_deficient_multi_instance_exit_1 = _runs(
        Run(f"multi-instance --input {{dup}} {HUGE}", ERROR, NON_FINITE))
    # The monic stationarity cubic takes 1/(2 rho), never 2 rho.
    test_example2_runs_to_stopping_test = _runs(Run(f"example2 {HUGE}", DONE, "example2: "))


def _tiny_rho0(bags, rho0):
    return Run(f"multi-instance --input {bags} --rho0 {rho0} --max-iter 50", DONE, "max_rule_gap=")


class TestTinyRho:
    """At a tiny rho the logistic prox starts far out on the sigmoid's tails,
    past -709 where exp(-q) overflows. It climbs with Newton steps, about
    ln(1/rho) of its 800 in the first q-update (91 at 1e-40, about 690 at
    1e-300), and each later one starts at the predicted root."""

    test_multi_instance_rho0_1e_12 = _runs(_tiny_rho0("{default_bags}", "1e-12"))
    test_multi_instance_rho0_1e_40 = _runs(_tiny_rho0("{default_bags}", "1e-40"))
    test_multi_instance_rho0_1e_160 = _runs(_tiny_rho0("{default_bags}", "1e-160"))
    test_multi_instance_tiny_rho0 = _runs(
        *(_tiny_rho0("{bags}", rho0) for rho0 in ("1e-12", "1e-40", "1e-45", "1e-160", "1e-300")),
        *(_tiny_rho0("{default_bags}", rho0) for rho0 in ("1e-45", "1e-300")))


class TestBagSubcommands:
    def test_generate_bags_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["generate-bags", "--seed", "1", "--output", str(a)]) == 0
        assert cli.main(["generate-bags", "--seed", "1", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generate_bags_row_count(self, tmp_path, capsys):
        out = tmp_path / "bags.csv"
        code = cli.main(["generate-bags", "--bags", "20", "--instances", "5",
                         "--features", "4", "--seed", "1", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 101  # header + 100 instances
        assert lines[0] == "bag_id,label,f1,f2,f3,f4"
        assert "10 positive" in capsys.readouterr().out

    def test_multi_instance_from_file(self, tmp_path, capsys):
        data = tmp_path / "bags.csv"
        assert cli.main(["generate-bags", "--bags", "6", "--instances", "3",
                         "--features", "3", "--seed", "2", "--output", str(data)]) == 0
        out = tmp_path / "mi.csv"
        code = cli.main(["multi-instance", "--input", str(data),
                         "--max-iter", "200", "--output", str(out)])
        assert code in (0, 2)
        assert len(read_trace(out)) <= 200
        assert "max_rule_gap" in capsys.readouterr().out

    def test_generated_bags_match_a_direct_solve(self, tmp_path):
        """generate-bags with its defaults, then multi-instance --input,
        writes the trace of maxop_solve run on the generated bags: the CSV
        round trip loses no bit."""
        bags, out, ref = tmp_path / "bags.csv", tmp_path / "mi.csv", tmp_path / "ref.csv"
        assert cli.main(["generate-bags", "--output", str(bags)]) == 0
        code = cli.main(["multi-instance", "--input", str(bags), "--output", str(out)])
        data, _ = datagen.generate_bags(20, 5, 4, 0)
        _, trace, converged = maxop.maxop_solve(
            data, CompositeObjective(logistic_loss(data.labels), zero_prox()), l1_term(1.0),
            maxop.MaxOpState.zeros(data, 0.1), RhoSchedule(0.1), StopCriteria(max_iter=1000))
        cli.write_trace(ref, trace)
        assert code == (0 if converged else 2)
        assert out.read_bytes() == ref.read_bytes()

    # A singular X'X: the beta-update adds its small proximal term and is
    # still an exact lasso solve.
    test_multi_instance_duplicated_column = _runs(
        Run("multi-instance --input {dup} --max-iter 100", DONE, "max_rule_gap="))
    test_multi_instance_dependent_column = _runs(
        *(Run(f"multi-instance --input {bags} --max-iter 100", DONE, "max_rule_gap=")
          for bags in ("{zero}", "{sum}")))
    # Each q-prox after the first starts at the root predicted for the new
    # rho, here under a growing rho for all 100 iterations.
    test_multi_instance_growing_rho = _runs(Run(
        "multi-instance --input {bags} --rho-delta 0.01 --max-iter 100", DONE, "max_rule_gap="))
    test_multi_instance_nan_input_exit_1 = _runs(Run(
        "multi-instance --input {nan} --max-iter 5", ERROR, "line 8: non-finite feature value"))
    test_multi_instance_malformed_input_exit_1 = _runs(Run(
        "multi-instance --input {malformed} --max-iter 5", ERROR, "line 3: 0 fields"))
    test_multi_instance_missing_file_exit_1 = _runs(Run(
        "multi-instance --input /nonexistent/bags.csv", ERROR, "No such file or directory"))

import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from helpers import read_trace
from nladmm import cli, datagen, maxop
from nladmm.engine import RhoSchedule, StopCriteria, TraceRow
from nladmm.terms import CompositeObjective, l1_term, logistic_loss, zero_prox


@pytest.fixture(scope="module")
def default_bags(tmp_path_factory):
    """The 20 x 5 x 4 bags of data seed 0, the defaults of generate-bags."""
    path = tmp_path_factory.mktemp("bags") / "default_bags.csv"
    maxop.save_bags_csv(path, datagen.generate_bags(20, 5, 4, 0)[0])
    return path


def _package_env():
    """The environment with this checkout's package first on PYTHONPATH,
    for the CLI in a child process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else [])))


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

    def test_directory_output_exit_1(self, tmp_path, capsys):
        assert cli.main(["example1", "--max-iter", "3", "--output", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestUsageErrors:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as e:
            cli.main([])
        assert e.value.code == 64

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as e:
            cli.main(["example1", "--no-such-flag"])
        assert e.value.code == 64

    def test_bad_value(self):
        with pytest.raises(SystemExit) as e:
            cli.main(["example1", "--max-iter", "abc"])
        assert e.value.code == 64

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_iter_not_positive(self, value, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["example1", "--max-iter", value])
        assert e.value.code == 64
        assert "--max-iter: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, flag, value", [
        ("onebit-cs", "--rho0", "nan"), ("example1", "--rho0", "inf"),
        ("example1", "--rho0", "-1"), ("example1", "--rho0", "0"),
        ("onebit-cs", "--rho-delta", "nan"), ("example1", "--rho-delta", "-0.5"),
        ("example1", "--tol-primal", "nan"), ("example1", "--tol-primal", "-1"),
        ("multi-instance", "--tol-dual", "inf"), ("onebit-cs", "--lambda", "nan"),
        ("onebit-cs", "--lambda", "0"), ("multi-instance", "--lambda", "-1"),
        ("multi-instance", "--lambda", "inf")])
    def test_bad_float_flag(self, subcommand, flag, value, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main([subcommand, flag, value])
        assert e.value.code == 64
        sign = "nonnegative" if flag == "--rho-delta" else "positive"
        assert f"argument {flag}: must be finite and {sign}" in capsys.readouterr().err

    def test_unparsable_float_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["example1", "--rho0", "abc"])
        assert e.value.code == 64
        assert "argument --rho0: invalid float value: 'abc'" in capsys.readouterr().err

    def test_diagnose_with_growing_rho(self, tmp_path, capsys):
        """The diagnostics need a constant rho, so the combination is
        refused before any solve runs and no trace is written."""
        out = tmp_path / "d.csv"
        with pytest.raises(SystemExit) as e:
            cli.main(["example1", "--diagnose", "--rho-delta", "0.1",
                      "--output", str(out)])
        assert e.value.code == 64
        err = capsys.readouterr().err
        assert "--diagnose" in err and "--rho-delta 0.1" in err
        assert not out.exists()

    @pytest.mark.parametrize("schedule", ["constant", "increment"])
    def test_rho_schedule_flag_is_gone(self, schedule, capsys):
        """--rho-schedule is an unknown flag: --rho-delta alone sets the schedule."""
        with pytest.raises(SystemExit) as e:
            cli.main(["example1", "--rho-schedule", schedule])
        assert e.value.code == 64
        assert "unrecognized arguments: --rho-schedule" in capsys.readouterr().err

    def test_multi_instance_needs_input(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["multi-instance", "--max-iter", "5"])
        assert e.value.code == 64
        assert "required: --input" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--bags", "--instances", "--features", "--seed"])
    def test_multi_instance_has_no_generator_flags(self, flag, default_bags, capsys):
        """The bags come from --input only; generate-bags takes these flags."""
        with pytest.raises(SystemExit) as e:
            cli.main(["multi-instance", "--input", str(default_bags), flag, "3"])
        assert e.value.code == 64
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, flag", [
        ("onebit-cs", "--n"), ("onebit-cs", "--m"), ("onebit-cs", "--k"),
        ("generate-bags", "--bags"), ("generate-bags", "--instances"),
        ("generate-bags", "--features"), ("onebit-cs", "--seed"), ("generate-bags", "--seed")])
    def test_size_not_positive(self, subcommand, flag, tmp_path, capsys):
        """Sizes must be at least 1 and seeds at least 0."""
        value, least = ("-1", 0) if flag == "--seed" else ("0", 1)
        with pytest.raises(SystemExit) as e:
            cli.main([subcommand, flag, value, "--output", str(tmp_path / "out.csv")])
        assert e.value.code == 64
        assert f"argument {flag}: must be at least {least}" in capsys.readouterr().err


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

    def test_example2_converges(self, capsys):
        code = cli.main(["example2"])
        assert code in (0, 2)
        assert "example2" in capsys.readouterr().out

    def test_example_diagnose_columns(self, tmp_path):
        out = tmp_path / "d.csv"
        code = cli.main(["example1", "--diagnose", "--output", str(out)])
        assert code in (0, 2)
        header = out.read_text().splitlines()[0]
        assert header == ("iter,objective,primal_residual,dual_residual,rho"
                          ",bound,gap,lyapunov,vi_norm")
        rows = read_trace(out)
        for r in rows:
            assert r["gap"] <= r["bound"] + 1e-8

    def test_example2_diagnose_rho0_49(self, tmp_path):
        """At rho = 49, (1/rho) * rho != 1 in floating point; the diagnostics
        must not depend on that product being exact."""
        out = tmp_path / "d.csv"
        code = cli.main(["example2", "--diagnose", "--rho0", "49", "--output", str(out)])
        assert code in (0, 2)
        rows = read_trace(out)
        assert list(rows[0]) == cli.DIAG_HEADER
        assert all(r["gap"] <= r["bound"] + 1e-8 for r in rows)

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
        out = tmp_path / "d.csv"
        code = cli.main(["example1", "--diagnose", "--rho-delta", "0", "--output", str(out)])
        assert code in (0, 2)
        rows = read_trace(out)
        assert list(rows[0]) == cli.DIAG_HEADER
        assert all(r["gap"] <= r["bound"] + 1e-8 for r in rows)

    def test_example2_tiny_rho0_exit_1(self, capsys):
        """At rho0 = 1e-160 the stationarity cubic's constant term 1/(2 rho)
        squares past the float range; the solve fails with the CLI's error
        line, not a traceback."""
        assert cli.main(["example2", "--rho0", "1e-160"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: solver failed:") and "overflows" in err
        assert "x1 block update: cubic" in err

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
            proc = subprocess.run([sys.executable, "-m", "nladmm.cli", *args],
                                  stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                                  env=_package_env())
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""


class TestOnebitSubcommand:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "cs.csv"
        code = cli.main(["onebit-cs", "--n", "32", "--m", "16", "--k", "4",
                         "--max-iter", "30", "--seed", "1",
                         "--output", str(out)])
        assert code in (0, 2)
        rows = read_trace(out)
        assert len(rows) <= 30
        text = capsys.readouterr().out
        assert "sphere_residual" in text

    def test_invalid_sizes_exit_1(self, capsys):
        code = cli.main(["onebit-cs", "--n", "4", "--m", "2", "--k", "10",
                         "--max-iter", "5"])
        assert code == 1
        assert "error" in capsys.readouterr().err


def _write_duplicated_column_bags(path):
    """generate-bags output with a fifth feature column that copies the
    first, so X'X is singular."""
    assert cli.main(["generate-bags", "--seed", "1", "--output", str(path)]) == 0
    lines = [line.split(",") for line in path.read_text().splitlines()]
    lines[0].append("f5")
    for fields in lines[1:]:
        fields.append(fields[2])
    path.write_text("\n".join(",".join(fields) for fields in lines) + "\n")


class TestHugeRho:
    """rho = rho0 + 1e308 is finite at iteration 1. There the multi-instance
    dual norm overflows, on full-rank and on rank-deficient features alike.
    The 1-bit CS blocks take no step constant, so that solve fails when rho
    itself overflows at iteration 2."""

    HUGE = ["--rho-delta", "1e308", "--max-iter", "3"]

    @pytest.mark.parametrize("subcommand, cause",
                             [("onebit-cs", "penalty rho is inf at iteration 2"),
                              ("multi-instance", "non-finite values in residual norms")],
                             ids=["onebit-cs", "multi-instance"])
    def test_overflowing_step_constant_exit_1(self, subcommand, cause, default_bags, capsys):
        args = {"onebit-cs": ["onebit-cs", "--n", "32", "--m", "16", "--k", "4"],
                "multi-instance": ["multi-instance", "--input", str(default_bags)]}[subcommand]
        assert cli.main(args + self.HUGE) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: solver failed:") and cause in err

    def test_rank_deficient_multi_instance_exit_1(self, tmp_path, capsys):
        data = tmp_path / "dup.csv"
        _write_duplicated_column_bags(data)
        assert cli.main(["multi-instance", "--input", str(data)] + self.HUGE) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: solver failed:")
        assert "non-finite values in residual norms" in err

    def test_example2_runs_to_stopping_test(self):
        """The monic stationarity cubic takes 1/(2 rho), never 2 rho."""
        assert cli.main(["example2"] + self.HUGE) in (0, 2)


class TestTinyRho:
    """At a tiny rho the logistic loss's prox starts far out on the
    sigmoid's tails. Scores below -709, where exp(-q) overflows, give no
    numpy warning (pytest turns one into an error). At rho0 = 1e-160 the
    Newton root of the first q-update lies about 360 steps up the tail
    from the zero start, so its step bound ends the solve."""

    def test_multi_instance_rho0_1e_12(self, default_bags, capsys):
        assert cli.main(["multi-instance", "--input", str(default_bags),
                         "--rho0", "1e-12", "--max-iter", "50"]) in (0, 2)
        assert "max_rule_gap" in capsys.readouterr().out

    def test_multi_instance_rho0_1e_40(self, default_bags, capsys):
        """The first root lies about 91 Newton steps up the tail, close to
        the bound of 100; a prox that needs more there fails."""
        assert cli.main(["multi-instance", "--input", str(default_bags),
                         "--rho0", "1e-40", "--max-iter", "50"]) in (0, 2)
        assert "max_rule_gap" in capsys.readouterr().out

    def test_multi_instance_rho0_1e_160(self, default_bags, capsys):
        code = cli.main(["multi-instance", "--input", str(default_bags),
                         "--rho0", "1e-160", "--max-iter", "50"])
        err = capsys.readouterr().err
        assert code in (1, 2)
        if code == 1:
            assert err.startswith("error: solver failed:") and "Newton steps" in err
            assert "q block update: logistic prox" in err


class TestBagSubcommands:
    def test_generate_bags_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(["generate-bags", "--seed", "1", "--output", str(a)]) == 0
        assert cli.main(["generate-bags", "--seed", "1", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generate_bags_row_count(self, tmp_path, capsys):
        out = tmp_path / "bags.csv"
        code = cli.main(["generate-bags", "--bags", "20", "--instances", "5",
                         "--features", "4", "--seed", "1",
                         "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 101  # header + 100 instances
        assert lines[0] == "bag_id,label,f1,f2,f3,f4"
        assert "10 positive" in capsys.readouterr().out

    def test_multi_instance_from_file(self, tmp_path, capsys):
        data = tmp_path / "bags.csv"
        assert cli.main(["generate-bags", "--bags", "6", "--instances", "3",
                         "--features", "3", "--seed", "2",
                         "--output", str(data)]) == 0
        out = tmp_path / "mi.csv"
        code = cli.main(["multi-instance", "--input", str(data),
                         "--max-iter", "200", "--output", str(out)])
        assert code in (0, 2)
        rows = read_trace(out)
        assert len(rows) <= 200
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

    def test_multi_instance_duplicated_column(self, tmp_path, capsys):
        """A copied feature column makes X'X singular; the solve takes the
        FISTA beta-update and runs to its iteration cap."""
        data = tmp_path / "dup.csv"
        _write_duplicated_column_bags(data)
        assert cli.main(["multi-instance", "--input", str(data), "--max-iter", "100"]) in (0, 2)
        assert "max_rule_gap" in capsys.readouterr().out

    def test_multi_instance_nan_input_exit_1(self, tmp_path):
        """A NaN feature is rejected at load time; the command ends at once."""
        data = tmp_path / "bags.csv"
        assert cli.main(["generate-bags", "--seed", "1", "--output", str(data)]) == 0
        lines = data.read_text().splitlines()
        fields = lines[7].split(",")
        fields[2] = "nan"
        lines[7] = ",".join(fields)
        data.write_text("\n".join(lines) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "nladmm.cli", "multi-instance",
             "--input", str(data), "--max-iter", "5"],
            capture_output=True, text=True, timeout=60, env=_package_env())
        assert proc.returncode == 1
        assert "line 8: non-finite feature value" in proc.stderr

    def test_multi_instance_malformed_input_exit_1(self, tmp_path, capsys):
        data = tmp_path / "bags.csv"
        data.write_text("bag_id,label,f1\n0,1,0.5\n\n1,0,0.2\n")
        assert cli.main(["multi-instance", "--input", str(data), "--max-iter", "5"]) == 1
        assert "line 3: 0 fields" in capsys.readouterr().err

    def test_multi_instance_missing_file_exit_1(self, capsys):
        code = cli.main(["multi-instance", "--input", "/nonexistent/bags.csv"])
        assert code == 1
        assert "error" in capsys.readouterr().err

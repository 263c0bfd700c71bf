"""The code in README.md runs as written: every ``nladmm`` line of the CLI
block, in order, and the library example."""

import contextlib
import io
import math
import re
import shlex
from pathlib import Path

import numpy as np

from nladmm import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first ``language`` code block after the line ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Each command exits 0 or 2 with an empty stderr, in the block's order
    and one working directory, so ``generate-bags`` writes the
    ``bags.csv`` that ``multi-instance`` reads."""
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True)
                for line in _block("## CLI", "sh").splitlines() if line.startswith("nladmm ")]
    assert [argv[1] for argv in commands] == ["example1", "example2", "example2", "onebit-cs",
                                             "generate-bags", "multi-instance"]
    for argv in commands:
        code = cli.main(argv[1:])
        err = capsys.readouterr().err
        assert code in (0, 2) and err == "", (argv, code, err)
    assert (tmp_path / "trace.csv").exists() and (tmp_path / "bags.csv").exists()


def test_library_example_runs():
    """The example reaches the circle example's optimum, x1 = -sqrt(2)/2
    with objective -sqrt(2), and prints it."""
    scope = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(_block("## Library example", "python"), "README.md", "exec"), scope)
    result = scope["result"]
    assert np.allclose(result.state.x1, [-math.sqrt(2.0) / 2.0], atol=1e-8)
    assert math.isclose(result.trace[-1].objective, -math.sqrt(2.0), abs_tol=1e-8)
    assert out.getvalue().startswith("[-0.7071")

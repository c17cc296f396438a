"""The README's CLI lines and library quickstart run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from weylsep import cli
from weylsep.fileio import save_state
from weylsep.states import isotropic

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str) -> str:
    """The first fenced block of the README section ``## heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"^```\w*\n(.*?)^```", section, re.S | re.M).group(1)


#: Each ``weylsep ...`` line of the CLI block, split as a shell would, comments dropped.
_CLI_LINES = [
    shlex.split(line, comments=True) for line in _block("CLI").splitlines()
    if line.startswith("weylsep ")
]


def test_the_cli_block_shows_every_subcommand():
    shown = {argv[1] for argv in _CLI_LINES}
    assert shown == {"basis", "decompose", "check-sep", "check-tele", "scan"}


@pytest.mark.parametrize("line", _CLI_LINES, ids=" ".join)
def test_readme_cli_line_exits_zero(tmp_path, line):
    save_state(tmp_path / "state.json", isotropic(3, 0.3))
    files = {"state.json": str(tmp_path / "state.json"), "scan.csv": str(tmp_path / "scan.csv")}
    argv = [files.get(arg, arg) for arg in line[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert (rc, err.getvalue()) == (0, "")
    assert out.getvalue() or (tmp_path / "scan.csv").exists()


def test_readme_library_quickstart_runs():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(_block("Library quickstart"), "README.md", "exec"), {})
    value, fidelity = map(float, out.getvalue().split())
    assert value == pytest.approx(0.8) and fidelity == pytest.approx(0.8666666666666667)

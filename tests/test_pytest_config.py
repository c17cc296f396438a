"""The project's pytest settings keep reporting tests after a property test fails."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    # On a failing @given test, hypothesis's pytest plugin imports its patch
    # writer, whose libcst import warns; with warnings as errors that warning
    # must not become an INTERNALERROR that hides the tests after it.
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
    assert run.returncode == 1

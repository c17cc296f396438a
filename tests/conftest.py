import pytest

from weylsep import states


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance check in the terminal summary."""
    rows = []
    for outcome in ("passed", "failed"):
        for rep in terminalreporter.stats.get(outcome, []):
            if getattr(rep, "when", None) != "call":
                continue
            if "test_acceptance" not in rep.nodeid:
                continue
            rows.append((rep.nodeid.split("::")[-1], outcome.upper()))
    if rows:
        terminalreporter.write_sep("-", "acceptance checks")
        for name, out in sorted(rows):
            terminalreporter.write_line(f"{out:6s} {name}")


@pytest.fixture
def forget_isotropic_terms():
    """Free the per-d isotropic terms after a test that builds states up to d = 32.

    The terms of one d take ``32 d^4`` bytes and are kept for the life of
    the process: 221 MiB for every d from 2 to 32.
    """
    yield
    states._isotropic_terms.cache_clear()

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


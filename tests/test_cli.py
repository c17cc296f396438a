import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import scan_one_row_at_a_time
import weylsep
from weylsep import bipartite, cli, states, validate_density
from weylsep.fileio import save_state
from weylsep.states import max_entangled, random_mixed
from weylsep.weyl import weyl_basis


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args):
    """Run a fresh interpreter with ``src`` on its path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(*args):
    return run_python("-m", "weylsep", *args)


def test_check_sep_isotropic_example():
    proc = run_cli("check-sep", "--state", "isotropic:d=3,p=0.3", "--no-timestamp")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    weyl = report["verdicts"][0]
    assert weyl["criterion"] == "weyl-correlation"
    assert weyl["outcome"] == "ENTANGLED"
    assert weyl["statistic"] == pytest.approx(2.4, abs=1e-9)
    assert weyl["threshold"] == pytest.approx(2.0)


def test_check_sep_ppt_state():
    proc = run_cli("check-sep", "--state", "ppt-3x3", "--no-timestamp")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    by_name = {v["criterion"]: v for v in report["verdicts"]}
    assert by_name["weyl-correlation"]["outcome"] == "ENTANGLED"
    assert by_name["weyl-correlation"]["statistic"] > 2.0
    assert by_name["ppt"]["outcome"] == "INCONCLUSIVE"
    assert by_name["ppt"]["statistic"] >= -1e-10


def test_check_sep_bell_diagonal_inconclusive():
    proc = run_cli(
        "check-sep", "--state", "bell-diagonal:t=0.2,0.2,0.2", "--no-timestamp"
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    weyl = report["verdicts"][0]
    assert weyl["outcome"] == "INCONCLUSIVE"
    assert weyl["statistic"] == pytest.approx(0.6, abs=1e-9)


def test_check_tele_useful():
    proc = run_cli(
        "check-tele", "--state", "example4:p=0.8", "--seed", "7", "--no-timestamp"
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    verdict = report["verdicts"][0]
    assert verdict["outcome"] == "USEFUL"
    # a certified lower bound on 4F = 4 * 0.8
    assert 3.2 - 1e-6 <= verdict["statistic"] <= 3.2 + 1e-9
    assert report["seed"] == 7
    assert 0.0 <= report["fef"]["value"] <= 1.0 + 1e-9


def test_check_tele_inconclusive():
    proc = run_cli(
        "check-tele", "--state", "example4:p=0.5", "--seed", "7", "--no-timestamp"
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["verdicts"][0]["outcome"] == "INCONCLUSIVE"


def test_check_tele_reports_the_cap_and_the_starts_used():
    # example4's lambda_max is p, reached by the last of the four Weyl starts
    rc, out, _ = run_main("check-tele", "--state", "example4:p=0.8", "--seed", "7")
    fef = json.loads(out)["fef"]
    assert rc == 0
    assert fef["upper_bound"] == pytest.approx(0.8, abs=1e-12)
    assert fef["starts_used"] == 4
    assert fef["value"] == pytest.approx(0.8, abs=1e-12)
    # a two-qubit state below its cap: the certificate of the first start closes the gap
    spec = "random-mixed:da=2,db=2,rank=3,seed=4"
    rc, out, _ = run_main("check-tele", "--state", spec, "--seed", "1", "--budget", "6")
    fef = json.loads(out)["fef"]
    assert rc == 0
    assert fef["starts_used"] == 1
    assert 0 <= fef["upper_bound"] - fef["value"] <= 1e-12
    # a 3x3 state whose gap no certificate closes runs every start
    spec = "random-mixed:da=3,db=3,rank=4,seed=3"
    rc, out, _ = run_main("check-tele", "--state", spec, "--seed", "3", "--budget", "6")
    fef = json.loads(out)["fef"]
    assert rc == 0
    assert fef["starts_used"] == 6
    assert fef["upper_bound"] - fef["value"] == pytest.approx(6.476418e-5, abs=1e-9)


def test_check_tele_requires_seed():
    proc = run_cli("check-tele", "--state", "example4:p=0.8")
    assert proc.returncode == 2


def test_check_tele_rejects_non_square():
    proc = run_cli(
        "check-tele",
        "--state",
        "random-mixed:da=2,db=3,rank=2,seed=1",
        "--seed",
        "1",
    )
    assert proc.returncode == 2


def test_report_determinism_with_no_timestamp():
    args = ("check-tele", "--state", "example4:p=0.8", "--seed", "3", "--no-timestamp")
    out1 = run_cli(*args).stdout
    out2 = run_cli(*args).stdout
    assert out1 == out2


def test_report_contains_timestamp_by_default():
    proc = run_cli("check-sep", "--state", "isotropic:d=2,p=0.1")
    report = json.loads(proc.stdout)
    assert "timestamp" in report


def test_basis_output():
    proc = run_cli("basis", "--d", "2")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert len(out) == 4
    assert out[0]["n"] == 0 and out[0]["m"] == 0
    assert out[0]["entries"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def test_basis_matches_library_at_d3():
    proc = run_cli("basis", "--d", "3")
    out = json.loads(proc.stdout)
    basis = weyl_basis(3)
    assert len(out) == 9
    for record in out:
        op = basis.op(record["n"], record["m"])
        flat = [[float(z.real), float(z.imag)] for z in op.reshape(-1)]
        assert np.allclose(record["entries"], flat, atol=1e-15)


def test_basis_rejects_dimension_one():
    proc = run_cli("basis", "--d", "1")
    assert proc.returncode == 2


def test_decompose_bipartite_file(tmp_path):
    path = tmp_path / "mixed.json"
    save_state(path, validate_density(np.eye(9) / 9, [3, 3]))
    proc = run_cli("decompose", str(path), "--no-timestamp")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["bipartite"]["kyfan_norm"] == pytest.approx(0.0, abs=1e-12)
    assert report["reconstruction_residual"] < 1e-12


def test_decompose_max_entangled_reports_norm(tmp_path):
    path = tmp_path / "me3.json"
    save_state(path, max_entangled(3))
    proc = run_cli("decompose", str(path), "--no-timestamp")
    report = json.loads(proc.stdout)
    assert report["bipartite"]["kyfan_norm"] == pytest.approx(8.0, abs=1e-9)


def test_decompose_single_system_file(tmp_path):
    path = tmp_path / "single.json"
    save_state(path, random_mixed(4, 2, seed=2))
    proc = run_cli("decompose", str(path), "--no-timestamp")
    report = json.loads(proc.stdout)
    assert "bloch" in report
    assert len(report["bloch"]["coefficients"]) == 15
    assert report["reconstruction_residual"] < 1e-12


def test_decompose_rejects_truncated_file(tmp_path):
    path = tmp_path / "trunc.json"
    save_state(path, random_mixed(2, 1, seed=1))
    path.write_text(path.read_text()[:25])
    proc = run_cli("decompose", str(path))
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_check_sep_rejects_single_system(tmp_path):
    path = tmp_path / "single.json"
    save_state(path, random_mixed(4, 2, seed=2))
    proc = run_cli("check-sep", str(path))
    assert proc.returncode == 2


def test_unknown_state_family():
    proc = run_cli("check-sep", "--state", "werner:d=2,p=0.5")
    assert proc.returncode == 2


def test_scan_isotropic_flip(tmp_path):
    out = tmp_path / "scan.csv"
    proc = run_cli(
        "scan", "--family", "isotropic", "--d", "3",
        "--from", "0", "--to", "1", "--step", "0.01", "--out", str(out),
    )
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "param,kyfan,threshold,verdict"
    rows = [line.split(",") for line in lines[1:]]
    first_flagged = next(float(r[0]) for r in rows if r[3] == "ENTANGLED")
    assert abs(first_flagged - 0.26) < 1e-9


def test_scan_bell_diagonal_ray(tmp_path):
    out = tmp_path / "ray.csv"
    proc = run_cli(
        "scan", "--family", "bell-diagonal", "--direction", "1,1,1",
        "--from", "0", "--to", "0.3333333333", "--step", "0.0333333333",
        "--out", str(out),
    )
    assert proc.returncode == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert all(r[3] == "INCONCLUSIVE" for r in rows)
    assert abs(float(rows[-1][1]) - 1.0) < 1e-6


def test_scan_with_ppt_column(tmp_path):
    out = tmp_path / "ppt.csv"
    proc = run_cli(
        "scan", "--family", "isotropic", "--d", "2",
        "--from", "0", "--to", "1", "--step", "0.25", "--out", str(out), "--ppt",
    )
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "param,kyfan,threshold,verdict,ppt_min_eig"
    last = lines[-1].split(",")
    assert float(last[4]) == pytest.approx(-0.5, abs=1e-9)


def test_scan_byte_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("scan", "--family", "isotropic", "--d", "3",
            "--from", "0", "--to", "0.5", "--step", "0.005")
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_empty_range(tmp_path):
    proc = run_cli(
        "scan", "--family", "isotropic", "--d", "2",
        "--from", "0.8", "--to", "0.2", "--step", "0.1",
        "--out", str(tmp_path / "x.csv"),
    )
    assert proc.returncode == 2


def test_scan_rejects_nonpositive_step(tmp_path):
    proc = run_cli(
        "scan", "--family", "isotropic", "--d", "2",
        "--from", "0", "--to", "1", "--step", "0",
        "--out", str(tmp_path / "x.csv"),
    )
    assert proc.returncode == 2


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "weylsep" in proc.stdout


def test_every_public_name_resolves():
    assert [name for name in weylsep.__all__ if not hasattr(weylsep, name)] == []


def run_main(*args):
    """Run ``cli.main`` in-process; returns the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(args))
    return rc, out.getvalue(), err.getvalue()


#: Every subcommand, help, the version and three usage errors, with their exit codes.
_MAIN_SEQUENCE = [
    (("basis", "--d", "2"), 0),
    (("decompose", "--state", "isotropic:d=2,p=0.5", "--no-timestamp"), 0),
    (("check-sep", "--state", "isotropic:d=3,p=0.3", "--no-timestamp"), 0),
    (("check-tele", "--state", "example4:p=0.8", "--seed", "1", "--budget", "4", "--no-timestamp"), 0),
    (("scan", "--family", "isotropic", "--d", "2", "--from", "0", "--to", "1", "--step", "0.5",
      "--out", "-"), 0),
    (("--help",), 0),
    (("check-sep", "--help"), 0),
    (("--version",), 0),
    (("frobnicate",), 2),
    (("check-tele", "--state", "example4:p=0.8"), 2),
    (("check-sep", "--state", "isotropic:d=3,p=x"), 2),
]


def test_shared_parser_gives_the_outputs_of_a_fresh_one(monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = {args: run_main(*args) for args, _ in _MAIN_SEQUENCE}
    assert [fresh[args][0] for args, _ in _MAIN_SEQUENCE] == [rc for _, rc in _MAIN_SEQUENCE]
    for sequence in (_MAIN_SEQUENCE, _MAIN_SEQUENCE[::-1]):
        for args, _ in sequence:
            assert run_main(*args) == fresh[args], args
    assert cli.build_parser() is cli.build_parser()


def test_parser_is_built_on_the_first_call_not_at_import():
    # counts the ArgumentParser objects (the parser and its five subparsers)
    # made by the import and by each of two main calls, in a fresh process
    code = (
        "import argparse, contextlib, io\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    made.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import weylsep.cli\n"
        "counts = [len(made)]\n"
        "for _ in range(2):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert weylsep.cli.main(['basis', '--d', '2']) == 0\n"
        "    counts.append(len(made))\n"
        "print(*counts)\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "6", "6"]


@pytest.mark.parametrize(
    "args",
    [
        ("decompose", "{non_utf8}"),
        ("check-tele", "--state", "example4:p=0.8", "--seed", "1", "--budget", "0"),
        ("check-tele", "--state", "example4:p=0.8", "--seed", "-1", "--budget", "2"),
        ("check-tele", "{one_by_one}", "--seed", "1"),
        ("scan", "--family", "isotropic", "--d", "2", "--from", "nan", "--to", "1",
         "--step", "0.5", "--out", "-"),
        ("scan", "--family", "isotropic", "--d", "2", "--from", "0", "--to", "1",
         "--step", "inf", "--out", "-"),
        ("scan", "--family", "isotropic", "--d", "1", "--from", "0", "--to", "1",
         "--step", "0.5", "--out", "-"),
        ("scan", "--family", "isotropic", "--d", "2", "--from", "-0.5", "--to", "1",
         "--step", "0.5", "--out", "-"),
        ("check-sep", "--state", "isotropic:d=0,p=0.3"),
        ("check-sep", "--state", "isotropic:d=3,p=0.3", "{state_file}"),
        ("check-sep", "--state", "bell-diagonal:t=inf,0,0"),
        ("scan", "--family", "bell-diagonal", "--direction=inf,0,0", "--from", "0",
         "--to", "1", "--step", "0.5", "--out", "-"),
        ("check-sep", "--state", "bell-diagonal:t=1e308,1e308,1e308"),
        ("scan", "--family", "bell-diagonal", "--direction=1e308,1e308,1e308", "--from", "0",
         "--to", "1", "--step", "0.5", "--out", "-"),
        ("check-sep", "--state", "isotropic:d=10000000,p=0.3"),
        ("decompose", "--state", "random-mixed:d=33,rank=1,seed=0"),
        ("check-sep", "--state", "random-mixed:da=2,db=100000,rank=1,seed=0"),
        ("check-sep", "--state", "random-product-pure:da=100000,db=2,seed=0"),
        ("basis", "--d", "100000"),
        ("scan", "--family", "isotropic", "--d", "33", "--from", "0", "--to", "1",
         "--step", "0.5", "--out", "-"),
        ("check-sep", "--state", "random-separable:da=2,db=2,k=10000000000000,seed=0"),
        ("check-sep", "--state", "random-separable:da=2,db=2,k=1025,seed=0"),
        ("scan", "--family", "isotropic", "--d", "2", "--from", "0", "--to", "1",
         "--step", "1e-6", "--out", "-"),
        ("check-sep", "--state", "random-mixed:da=-1,db=-1,rank=1,seed=0"),
        ("check-sep", "--state", "random-mixed:da=-2,db=-3,rank=1,seed=0"),
        ("check-tele", "--state", "isotropic:d=2,p=0.5", "--seed", "1", "--budget", "1025"),
        ("check-tele", "--state", "isotropic:d=2,p=0.5", "--seed", "1", "--budget",
         "1000000000000"),
        ("decompose", "{wrapped_dims}"),
        ("check-sep", "{wrapped_dims}"),
        ("decompose", "{empty_entries}"),
        ("decompose", "{huge_int_entry}"),
        ("decompose", "{bool_dims}"),
        ("decompose", "{bool_entry}"),
        ("decompose", "{deep_nesting}"),
        ("check-sep", "{deep_nesting}"),
        ("scan", "--family", "bell-diagonal", "--d", "2", "--direction=1,1,1", "--from", "0",
         "--to", "0.3", "--step", "0.1", "--out", "-"),
        ("scan", "--family", "isotropic", "--d", "2", "--direction=1,1,1", "--from", "0",
         "--to", "1", "--step", "0.5", "--out", "-"),
    ],
    ids=[
        "non-utf8-file", "budget-0", "negative-seed", "tele-1x1", "scan-nan", "scan-inf-step",
        "scan-d-1", "scan-p-below-0", "isotropic-d-0", "file-and-state", "bell-diagonal-inf",
        "scan-direction-inf", "bell-diagonal-overflow", "scan-direction-overflow",
        "isotropic-d-oversized", "random-mixed-d-33",
        "random-mixed-db-oversized", "product-pure-da-oversized", "basis-d-oversized",
        "scan-d-33", "separable-k-huge", "separable-k-1025", "scan-rows-1000001",
        "random-mixed-da-db-minus-1", "random-mixed-da-db-negative", "budget-1025",
        "budget-huge", "decompose-dims-wrap-int64", "check-sep-dims-wrap-int64",
        "dims-square-wraps-to-0", "entry-int-overflows-float", "bool-dims", "bool-entry",
        "decompose-deep-nesting", "check-sep-deep-nesting", "scan-bell-diagonal-with-d",
        "scan-isotropic-with-direction",
    ],
)
def test_input_errors_exit_two(tmp_path, args):
    files = {
        "{non_utf8}": tmp_path / "latin1.json",
        "{one_by_one}": tmp_path / "one.json",
        "{state_file}": tmp_path / "state.json",
        "{deep_nesting}": tmp_path / "deep.json",
    }
    files["{deep_nesting}"].write_text("[" * 100_000)
    files["{non_utf8}"].write_bytes(b'{"format": "weylsep-matrix-v1\xff"}')
    files["{one_by_one}"].write_text(
        '{"format": "weylsep-matrix-v1", "dims": [1, 1], "entries": [[1, 0]]}'
    )
    save_state(files["{state_file}"], max_entangled(3))
    # 3 * 6148914691236517206 and 2**32 * 2**32 wrap in int64 to 2 and 0
    for name, dims, entries in [
        ("{wrapped_dims}", "[3, 6148914691236517206]", "[[0.5, 0], [0, 0], [0, 0], [0.5, 0]]"),
        ("{empty_entries}", "[4294967296, 4294967296]", "[]"),
        ("{huge_int_entry}", "[1]", f"[[{'1' * 401}, 0]]"),
        ("{bool_dims}", "[true, true]", "[[1, 0]]"),
        ("{bool_entry}", "[1]", "[[true, false]]"),
    ]:
        files[name] = tmp_path / f"{name[1:-1]}.json"
        files[name].write_text(
            f'{{"format": "weylsep-matrix-v1", "dims": {dims}, "entries": {entries}}}'
        )
    rc, out, err = run_main(*(str(files.get(a, a)) for a in args))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "spec",
    [
        "random-mixed:d=4,rank=2,seed=-5",
        "random-product-pure:da=2,db=2,seed=-5",
        "random-separable:da=2,db=2,k=2,seed=-5",
    ],
)
def test_a_negative_seed_key_is_named(spec):
    rc, out, err = run_main("check-sep", "--state", spec)
    assert (rc, out) == (2, "")
    assert err == "error: bad value for state parameter 'seed': seed must be >= 0, got -5\n"


def test_internal_failure_exits_one(monkeypatch):
    def broken(m):
        raise ValueError("kernel failure")

    # the shared parser exists before the patch, whatever ran first
    assert run_main("check-sep", "--state", "isotropic:d=3,p=0.3")[0] == 0
    monkeypatch.setattr(cli, "decompose_bipartite", broken)
    rc, out, err = run_main("check-sep", "--state", "isotropic:d=3,p=0.3")
    assert rc == 1
    assert err == "internal error: kernel failure\n"


def test_a_closed_stdout_exits_141_with_nothing_on_stderr():
    # 10,001 rows overflow the pipe buffer, so the scan is still writing
    # when the reader closes its end after two lines
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "weylsep", "scan", "--family", "isotropic", "--d", "3",
         "--from", "0", "--to", "1", "--step", "0.0001", "--ppt", "--out", "-"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == ""
    assert lines[0] == "param,kyfan,threshold,verdict,ppt_min_eig\n"
    assert lines[1].startswith("0.0,")


def test_dimension_cap_is_inclusive():
    spec = f"random-mixed:d={cli.MAX_DIM},rank=1,seed=0"
    assert run_main("decompose", "--state", spec, "--no-timestamp")[0] == 0
    assert run_main("check-sep", "--state", "random-mixed:da=16,db=16,rank=2,seed=0")[0] == 0
    assert run_main("check-sep", "--state", "random-separable:da=2,db=2,k=1024,seed=0")[0] == 0
    budget = str(cli.MAX_BUDGET)
    assert run_main("check-tele", "--state", "isotropic:d=2,p=0.5", "--seed", "1",
                    "--budget", budget)[0] == 0


def test_scan_direction_error_names_the_input():
    rc, out, err = run_main(
        "scan", "--family", "bell-diagonal", "--direction=inf,0,0", "--from", "0", "--to", "1",
        "--step", "0.5", "--out", "-",
    )
    assert (rc, out) == (2, "")
    assert "inf" in err and "nan" not in err


def test_scan_unwritable_out_fails_before_the_sweep(monkeypatch, tmp_path):
    # the end points are checked through states.isotropic; every row of the
    # sweep starts with the stacked build that the cli imports
    calls = []
    monkeypatch.setattr(cli, "isotropic_matrix", lambda d, ps: calls.append(ps))
    rc, out, err = run_main(
        "scan", "--family", "isotropic", "--d", "3", "--from", "0", "--to", "1",
        "--step", "0.01", "--out", str(tmp_path / "missing" / "scan.csv"),
    )
    assert (rc, out, calls) == (2, "", [])
    assert err.startswith("error:")


_SCAN_CASES = [
    *((("isotropic", d), 0.0, 1.0, step) for d in (2, 3, 4, 5) for step in (0.1, 0.05, 0.013)),
    (("isotropic", 3), 0.5, 0.5, 0.1),
    (("isotropic", 2), 0.0, 1.0, 1.0),
    (("bell-diagonal", (1.0, 1.0, -1.0)), 0.0, 1.0, 0.01),
    (("bell-diagonal", (-1.0, -1.0, -1.0)), 0.0, 1.0, 0.05),
    (("bell-diagonal", (1.0, 1.0, 1.0)), 0.0, 0.3333333333, 0.0333333333),
    *((("isotropic", 6), 0.0, 1.0, step) for step in (0.1, 0.05, 0.013)),
    # both end points lie on the boundary of the state set, every row between inside it
    (("bell-diagonal", (1.0, 1.0, 1.0)), -1.0, 0.3333333333, 0.01),
]


def _scan_argv(family, start, stop, step, ppt, out="-"):
    kind, value = family
    if kind == "isotropic":
        flags = ["--d", str(value)]
    else:
        flags = ["--direction=" + ",".join(map(str, value))]
    argv = ["scan", "--family", kind, *flags, "--from", str(start), "--to", str(stop)]
    return argv + ["--step", str(step), "--out", out] + (["--ppt"] if ppt else [])


def _one_row_at_a_time(family, start, stop, step, ppt):
    kind, value = family
    key = "d" if kind == "isotropic" else "direction"
    return scan_one_row_at_a_time(start, stop, step, ppt, **{key: value})


@pytest.mark.parametrize("ppt", [False, True])
@pytest.mark.parametrize("family,start,stop,step", _SCAN_CASES)
def test_scan_csv_is_the_one_row_at_a_time_csv(family, start, stop, step, ppt):
    rc, out, err = run_main(*_scan_argv(family, start, stop, step, ppt))
    assert (rc, err) == (0, "")
    assert out == _one_row_at_a_time(family, start, stop, step, ppt)


@pytest.mark.parametrize("ppt", [False, True])
@pytest.mark.parametrize(
    "family,start,stop,step,rows",
    [
        (("isotropic", 3), 0.0, 1.0, 0.05, 4),
        (("bell-diagonal", (1.0, 1.0, -1.0)), 0.0, 1.0, 0.1, 3),
        # one row per block above D = 16, as at d = 32: the end points are blocks of their own
        (("isotropic", 5), 0.0, 1.0, 0.25, 1),
    ],
)
def test_scan_over_several_blocks_writes_the_same_file(monkeypatch, tmp_path, family, start, stop,
                                                       step, rows, ppt):
    dim = family[1] ** 2 if family[0] == "isotropic" else 4
    monkeypatch.setattr(cli, "SCAN_BLOCK_BYTES", rows * 16 * dim**2)
    built, validated = [], []
    build = cli.isotropic_matrix if family[0] == "isotropic" else cli.bell_diagonal_matrix
    validate = states.validate_density
    monkeypatch.setattr(
        cli, build.__name__, lambda *args: built.append(len(args[-1])) or build(*args)
    )
    monkeypatch.setattr(
        states, "validate_density", lambda m, dims: validated.append(m.shape) or validate(m, dims)
    )
    path = tmp_path / "scan.csv"
    assert run_main(*_scan_argv(family, start, stop, step, ppt, out=str(path))) == (0, "", "")
    # only the two end points are validated; every row is built in blocks of the capped size
    assert validated == [(dim, dim)] * 2
    expected = _one_row_at_a_time(family, start, stop, step, ppt)
    assert path.read_bytes() == expected.encode()
    assert len(built) >= 3 and set(built[:-1]) == {rows}
    assert sum(built) == expected.count("\n") - 1


@pytest.mark.parametrize("command", ["check-sep", "decompose"])
@pytest.mark.parametrize(
    "spec", ["random-mixed:da=2,db=3,rank=3,seed=1", "random-mixed:da=4,db=4,rank=5,seed=2"]
)
def test_one_decomposition_and_one_svd_per_report(monkeypatch, command, spec):
    calls = {"svd": 0, "decompose": 0}
    svd, decompose = np.linalg.svd, bipartite.decompose_bipartite

    def counted_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    def counted_decompose(rho):
        calls["decompose"] += 1
        return decompose(rho)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(bipartite, "decompose_bipartite", counted_decompose)
    monkeypatch.setattr(cli, "decompose_bipartite", counted_decompose)
    rc, out, err = run_main(command, "--state", spec, "--no-timestamp")
    assert (rc, err) == (0, "")
    assert calls == {"svd": 1, "decompose": 1}


@pytest.mark.parametrize(
    "args, solves",
    [
        (("check-tele", "--state", "isotropic:d=3,p=0.5", "--seed", "1"), 1),
        (("decompose", "--state", "random-mixed:da=4,db=4,rank=5,seed=2"), 1),
        # one to validate the state, one for the PPT test's partial transpose
        (("check-sep", "--state", "random-mixed:da=2,db=3,rank=3,seed=1"), 2),
        # above D = 16 validation solves no spectrum: a Cholesky factor
        # certifies positivity, and the FEF cap solves the spectrum on first read
        (("check-tele", "--state", "isotropic:d=5,p=0.5", "--seed", "1"), 1),
        (("decompose", "--state", "random-mixed:da=5,db=5,rank=5,seed=2"), 0),
        (("check-sep", "--state", "random-mixed:da=3,db=6,rank=3,seed=1"), 1),
    ],
    ids=["check-tele", "decompose-pair", "check-sep-ppt", "check-tele-5x5", "decompose-5x5",
         "check-sep-3x6"],
)
def test_one_spectrum_per_state(monkeypatch, args, solves):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted_eigvalsh(*a, **kw):
        calls.append(1)
        return eigvalsh(*a, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    rc, out, err = run_main(*args, "--no-timestamp")
    assert (rc, err) == (0, "")
    assert len(calls) == solves


# |v| <= 6 keeps every state at most 36 x 36; junk has no digits, so it
# cannot make a dimension larger
_INT = st.integers(-6, 6).map(str)
_FLOAT = st.one_of(st.floats(-0.5, 1.5).map(repr), st.sampled_from(["nan", "inf", "1e400"]))
_JUNK = st.text(alphabet="abx:=,.-+ ", max_size=4)
_GRAMMAR = [
    ("isotropic", {"d": _INT, "p": _FLOAT}),
    ("bell-diagonal", {"t": _FLOAT}),
    ("max-entangled", {"d": _INT}),
    ("ppt-3x3", {}),
    ("example4", {"p": _FLOAT}),
    ("random-mixed", {"d": _INT, "rank": _INT, "seed": _INT}),
    ("random-mixed", {"da": _INT, "db": _INT, "rank": _INT, "seed": _INT}),
    ("random-product-pure", {"da": _INT, "db": _INT, "seed": _INT}),
    ("random-separable", {"da": _INT, "db": _INT, "k": _INT, "seed": _INT}),
]


@st.composite
def _state_specs(draw):
    """Known families and keys, mostly well formed, with dropped keys and junk mixed in."""
    family, keys = draw(st.sampled_from(_GRAMMAR) | st.tuples(_JUNK, st.just({})))
    dropped = draw(st.sampled_from([None, None, None, *keys]))
    tokens = []
    for key, value in keys.items():
        count = 3 if key == "t" else 1
        if key != dropped:
            values = draw(st.lists(value, min_size=count, max_size=count))
            tokens.append(f"{key}=" + ",".join(values))
    extra = draw(st.sampled_from([None] * 5 + ["d=2", "p=0.5", "t=1,2", "junk"]))
    if extra == "junk":
        extra = draw(_JUNK)
    tokens = draw(st.permutations(tokens + ([extra] if extra is not None else [])))
    return family + (":" + ",".join(tokens) if tokens else "")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(spec=_state_specs())
def test_state_grammar_fuzz_exits_cleanly(spec):
    rc, out, err = run_main("check-sep", f"--state={spec}", "--no-timestamp")
    assert rc in (0, 2)
    assert "Traceback" not in err
    if rc == 0:
        assert json.loads(out)["input"]["state"] == spec
    else:
        assert err.splitlines()[-1].startswith("error:")

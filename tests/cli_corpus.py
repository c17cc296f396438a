"""A fixed corpus of ``weylsep`` argvs, for checking that a change keeps every output.

Run it from the repository root, once on each tree to compare::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/cli_corpus.py > listing.txt

It prints one line per argv: the exit code, the SHA-256 of stdout, the
SHA-256 of stderr, and the argv. Two trees give the same outputs, byte for
byte, exactly when their listings are the same; ``diff`` names the argvs
that differ. To measure how far they differ, write each tree's outputs to
a directory and compare the two::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/cli_corpus.py --write before
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/cli_corpus.py --write after
    PYTHONPATH=src python tests/cli_corpus.py --compare before after

``--write`` stores each argv's stdout as ``NNN.out``, its stderr as
``NNN.err``, and an ``index.txt`` with one line per argv: its number, exit
code and argv. ``--compare`` matches the argvs of two such directories and
prints one line per argv whose exit code, stdout or stderr differ: the
largest absolute difference between corresponding numbers of the two
reports (JSON) or CSV cells, then each difference that is not numeric (a
verdict, a key, a row count, an exit code, the stderr text) on its own
indented line. A last line counts the argvs that differ and gives the
largest difference of all. Every argv runs in-process through ``cli.main``, in a scratch
directory that holds the corpus's matrix files, so the file paths in the
reports are the same relative names on every run. Reports omit their
timestamp. Output is byte-identical per numpy and BLAS build and BLAS
thread count, so compare listings made on one machine with one setting.

The first 128 argvs cover the basis at d = 1-6; ``check-sep`` and
``decompose`` on 48 ``--state`` specs of every family, random-mixed pairs
from 2x2 to 8x8 among them; ``check-tele`` at budget 8 on six states;
``scan`` of both families with and without ``--ppt``; two matrix files;
and twelve usage and input errors. The rest exercise the four named
families that build their states in closed form: isotropic at d = 2-8
with p at 0, 1/(d+1) and 1, Bell-diagonal points at the vertices, edges
and faces of the tetrahedron and just outside it, example4 over [0, 1],
max-entangled at d = 2-8, every family rejection, and scans whose end
points are checked without building a state (isotropic at d = 1 and
d = 32, and from below 0), and a budget-12 ``check-tele`` on a 3x3
random-mixed pair whose second start ends within round-off of its first,
so that value is certified once, and ``check-sep`` on isotropic states at
d = 16 and d = 32, whose summaries build no coefficient table. The last
three are long reports, for the JSON writer: ``basis --d 8``,
``decompose`` on a full-rank 6x6 random-mixed pair and ``check-tele`` on
a full-rank d = 5 state.

Isotropic, max-entangled and certified Bell-diagonal states also
decompose in closed form, with no Weyl transform and no SVD, and these
and example4 states carry their PPT statistic in closed form, so their
``check-sep``, ``decompose`` and ``scan`` numbers are round-off away from
those of the transform and eigensolve routes; ``--compare`` measures how
far. The same holds for the reconstruction residual of the Weyl-diagonal
states, which is taken over the d^3 entries where their matrix may be
nonzero rather than from the assembled table.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile

from weylsep import cli
from weylsep.fileio import save_state
from weylsep.linalg import validate_density
from weylsep.states import random_mixed

_SPECS = [
    "ppt-3x3",
    "example4:p=0.7",
    "example4:p=0",
    "bell-diagonal:t=0.2,0.2,0.2",
    "bell-diagonal:t=-0.4,-0.4,-0.4",
    *(f"isotropic:d={d},p={p}" for d in (2, 3, 4, 5) for p in ("0.1", "0.3", "0.6", "1")),
    "isotropic:d=6,p=0.5",
    *(
        f"random-mixed:da={da},db={db},rank={rank},seed={seed}"
        for seed, (da, db, rank) in enumerate(
            [(2, 2, 4), (2, 3, 3), (2, 4, 2), (3, 3, 5), (3, 4, 6), (4, 4, 5), (3, 8, 6),
             (4, 6, 12), (5, 5, 5), (5, 7, 10), (6, 6, 8), (7, 7, 7), (8, 8, 16), (4, 5, 1)],
            start=1,
        )
    ),
    "random-mixed:da=1,db=6,rank=3,seed=1",
    *(
        f"random-separable:da={da},db={db},k={k},seed={k}"
        for da, db, k in [(2, 2, 3), (2, 3, 4), (3, 3, 5), (1, 4, 2), (4, 4, 6)]
    ),
    "random-product-pure:da=2,db=2,seed=1",
    "random-product-pure:da=2,db=3,seed=2",
    "max-entangled:d=3",
    "max-entangled:d=4",
    "random-mixed:d=4,rank=2,seed=1",
    "random-mixed:d=1,rank=1,seed=1",
]

_TELE_SPECS = [
    "example4:p=0.8",
    "isotropic:d=2,p=0.7",
    "isotropic:d=3,p=0.5",
    "bell-diagonal:t=-0.4,-0.4,-0.4",
    "random-mixed:da=4,db=4,rank=3,seed=2",
    "isotropic:d=5,p=0.4",
]

_ERRORS = [
    ["basis", "--d", "0"],
    ["basis", "--d", "33"],
    ["check-sep", "--state", "isotropic:d=3", "--no-timestamp"],
    ["check-sep", "--state", "nosuch:d=2", "--no-timestamp"],
    ["decompose", "not-hermitian.json", "--no-timestamp"],
    ["decompose", "truncated.json", "--no-timestamp"],
    ["check-sep", "state-4.json", "--no-timestamp"],
    ["check-tele", "--state", "example4:p=0.8", "--no-timestamp"],
    ["check-tele", "--state", "random-mixed:da=2,db=3,rank=2,seed=1", "--seed", "1",
     "--no-timestamp"],
    ["check-sep", "--state", "isotropic:d=3,p=2", "--no-timestamp"],
    ["frobnicate"],
    ["scan", "--family", "isotropic", "--from", "0", "--to", "1", "--step", "0.5", "--out", "-"],
]

_FACE = "-0.3333333333333333,-0.3333333333333333,0.3333333333333333"
_FAMILY_SPECS = [
    *(f"isotropic:d={d},p={p!r}" for d in range(2, 9) for p in (0.0, 1 / (d + 1), 1.0)),
    *(f"bell-diagonal:t={t}" for t in (
        "-1,-1,-1", "-1,1,1", "1,-1,1", "1,1,-1",  # vertices
        "0,0,-1", "-1,0,0", "0.5,-0.5,0",  # on edges
        _FACE, "0.5,0.25,-0.25", "0,0,0",  # on faces, and the centre
        # a face point moved out until its least Bell weight is -2e-10, -5e-11
        "0.3333333336,0.3333333336,0.3333333336", "0.3333333334,0.3333333334,0.3333333334",
        "1,1,1", "0.8,0.8,0", "1e308,1e308,1e308", "0,0,1e17", "nan,0,0", "0,inf,0",
    )),
    *(f"example4:p={p}" for p in ("0", "0.25", "0.5", "1", "-0.1", "1.2", "nan")),
    *(f"max-entangled:d={d}" for d in (1, 2, 5, 6, 7, 8)),
    "isotropic:d=3,p=-0.1", "isotropic:d=3,p=1.2", "isotropic:d=3,p=nan", "isotropic:d=1,p=0.5",
]


def _report(command: str, *args: str) -> list[str]:
    return [command, *args, "--no-timestamp"]


def argvs() -> list[list[str]]:
    """Every argv of the corpus, in listing order."""
    out = [["basis", "--d", str(d)] for d in range(1, 7)]
    out += [_report(c, "--state", s) for s in _SPECS for c in ("check-sep", "decompose")]
    out += [_report("check-tele", "--state", s, "--seed", "1", "--budget", "8") for s in _TELE_SPECS]
    for family in (["--family", "isotropic", "--d", "3"], ["--family", "bell-diagonal",
                                                            "--direction=1,1,-1"]):
        for ppt in ([], ["--ppt"]):
            out.append(["scan", *family, "--from", "0", "--to", "1", "--step", "0.1", "--out", "-",
                        *ppt])
    out += [_report(c, f) for f in ("state-2x3.json", "state-4.json") for c in ("decompose",
                                                                                "check-sep")]
    out += _ERRORS
    out += [_report(c, "--state", s) for s in _FAMILY_SPECS for c in ("check-sep", "decompose")]
    out += [
        _report("check-tele", "--state", s, "--seed", "3", "--budget", "8")
        for s in ("isotropic:d=2,p=0.5", "isotropic:d=4,p=0.2", "isotropic:d=6,p=1.0",
                  "bell-diagonal:t=-1,-1,-1", "bell-diagonal:t=" + _FACE, "example4:p=0.3",
                  "example4:p=1", "max-entangled:d=3")
    ]
    out += [
        ["scan", "--family", "bell-diagonal", "--direction=1,1,1", "--from", "-1", "--to",
         "0.3333333333", "--step", "0.01", "--out", "-", "--ppt"],
        ["scan", "--family", "isotropic", "--d", "8", "--from", "0", "--to", "1", "--step",
         "0.125", "--out", "-", "--ppt"],
        ["scan", "--family", "bell-diagonal", "--direction=1,1,1", "--from", "0", "--to", "0.34",
         "--step", "0.01", "--out", "-"],
        ["scan", "--family", "isotropic", "--d", "3", "--from", "0", "--to", "1.5", "--step",
         "0.5", "--out", "-"],
        # isotropic end points are checked without building a state: a
        # dimension below 2, a large d, and a first point below 0
        ["scan", "--family", "isotropic", "--d", "1", "--from", "0", "--to", "1", "--step", "0.5",
         "--out", "-"],
        ["scan", "--family", "isotropic", "--d", "32", "--from", "0", "--to", "1", "--step",
         "0.5", "--out", "-"],
        ["scan", "--family", "isotropic", "--d", "3", "--from", "-0.5", "--to", "1", "--step",
         "0.5", "--out", "-"],
        ["check-tele", "--state", "random-mixed:da=3,db=3,rank=4,seed=3", "--budget", "12",
         "--seed", "3", "--no-timestamp"],
        # large-d summaries of a closed-form decomposition, which builds no table
        _report("check-sep", "--state", "isotropic:d=16,p=0.3"),
        _report("check-sep", "--state", "isotropic:d=32,p=0.3"),
    ]
    out += [
        ["basis", "--d", "8"],
        _report("decompose", "--state", "random-mixed:da=6,db=6,rank=36,seed=5"),
        _report("check-tele", "--state", "random-mixed:da=5,db=5,rank=25,seed=6", "--seed", "4",
                "--budget", "8"),
    ]
    return out


def write_files(directory) -> None:
    """Write the matrix files the corpus names into ``directory``."""
    pair = random_mixed(6, 3, seed=7)
    save_state(os.path.join(directory, "state-2x3.json"), validate_density(pair.matrix, [2, 3]))
    save_state(os.path.join(directory, "state-4.json"), random_mixed(4, 2, seed=8))
    with open(os.path.join(directory, "not-hermitian.json"), "w") as fh:
        fh.write('{"format": "weylsep-matrix-v1", "dims": [2], '
                 '"entries": [[0.5, 0], [1, 0], [0, 0], [0.5, 0]]}\n')
    with open(os.path.join(directory, "truncated.json"), "w") as fh:
        fh.write('{"format": "weylsep-matrix-v1", "dims": [2], "entries": [[0.5, 0]')


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def results(directory) -> list[tuple[list[str], int, str, str]]:
    """``(argv, exit code, stdout, stderr)`` of every argv, run in ``directory``."""
    write_files(directory)
    here = os.getcwd()
    os.chdir(directory)
    try:
        return [(argv, *run(argv)) for argv in argvs()]
    finally:
        os.chdir(here)


def listing(directory) -> list[str]:
    """One line per argv: exit code, SHA-256 of stdout and of stderr, and the argv."""

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    return [f"{rc} {digest(out)} {digest(err)} {' '.join(argv)}"
            for argv, rc, out, err in results(directory)]


def write_outputs(out_dir) -> None:
    """Write every argv's stdout and stderr to ``out_dir/NNN.out`` and ``NNN.err``, and ``index.txt``."""
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        runs = results(scratch)
    index = []
    for number, (argv, rc, out, err) in enumerate(runs):
        for suffix, text in (("out", out), ("err", err)):
            with open(os.path.join(out_dir, f"{number:03d}.{suffix}"), "w", newline="") as fh:
                fh.write(text)
        index.append(f"{number:03d}\t{rc}\t{json.dumps(argv)}\n")
    with open(os.path.join(out_dir, "index.txt"), "w") as fh:
        fh.write("".join(index))


def _read_outputs(out_dir) -> dict[str, tuple[int, str, str]]:
    """``{argv as JSON: (exit code, stdout, stderr)}`` of a directory :func:`write_outputs` wrote."""

    def read(name: str) -> str:
        with open(os.path.join(out_dir, name), newline="") as fh:
            return fh.read()

    outputs = {}
    with open(os.path.join(out_dir, "index.txt")) as fh:
        for line in fh:
            number, rc, argv = line.rstrip("\n").split("\t")
            outputs[argv] = int(rc), read(f"{number}.out"), read(f"{number}.err")
    return outputs


def _parse(text: str):
    """A report as JSON, else a CSV as a list of rows, else the text itself."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    if text.startswith("param,"):
        return list(csv.reader(io.StringIO(text)))
    return text


def _number(value) -> float | None:
    """A JSON number or a numeric CSV cell as a float; None for anything else."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def differences(a, b, path: str = "") -> tuple[float, list[str]]:
    """The largest absolute difference between numbers of a and b, and their other differences.

    Numbers are compared wherever both sides hold one at the same path (a
    CSV cell that parses as a float counts as one); two NaNs, or two equal
    infinities, differ by 0. Anything else that differs is described, with
    its path, in the returned list.
    """
    x, y = _number(a), _number(b)
    if x is not None and y is not None:
        if x == y or (math.isnan(x) and math.isnan(y)):
            return 0.0, []
        if math.isfinite(x) and math.isfinite(y):
            return abs(x - y), []
        return 0.0, [f"{path}: {a!r} -> {b!r}"]
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return 0.0, [f"{path}: keys {list(a)} -> {list(b)}"]
        pairs = [(a[k], b[k], f"{path}/{k}") for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return 0.0, [f"{path}: length {len(a)} -> {len(b)}"]
        pairs = [(u, v, f"{path}/{i}") for i, (u, v) in enumerate(zip(a, b))]
    else:
        return 0.0, [] if a == b else [f"{path}: {a!r} -> {b!r}"]
    largest, other = 0.0, []
    for u, v, where in pairs:
        diff, notes = differences(u, v, where)
        largest = max(largest, diff)
        other += notes
    return largest, other


def compare(before_dir, after_dir) -> list[str]:
    """One line per argv whose exit code, stdout or stderr differ between two written directories."""
    before, after = _read_outputs(before_dir), _read_outputs(after_dir)
    lines, changed, largest = [], 0, 0.0
    for argv in [*before, *(argv for argv in after if argv not in before)]:
        if argv not in before or argv not in after:
            lines.append(f"only in {'after' if argv in after else 'before'}: {argv}")
            changed += 1
            continue
        (rc_a, out_a, err_a), (rc_b, out_b, err_b) = before[argv], after[argv]
        if (rc_a, out_a, err_a) == (rc_b, out_b, err_b):
            continue
        diff, notes = differences(_parse(out_a), _parse(out_b))
        if err_a != err_b:
            notes.insert(0, f"stderr {err_a!r} -> {err_b!r}")
        if rc_a != rc_b:
            notes.insert(0, f"exit code {rc_a} -> {rc_b}")
        changed += 1
        largest = max(largest, diff)
        lines.append(f"{diff:.3e} {argv}")
        lines += [f"    {note}" for note in notes]
    return lines + [f"{changed} of {len(before)} distinct argvs differ; largest difference {largest:.3e}"]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--write"] and len(sys.argv) == 3:
        write_outputs(sys.argv[2])
    elif sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        sys.stdout.write("".join(line + "\n" for line in compare(sys.argv[2], sys.argv[3])))
    elif len(sys.argv) == 1:
        with tempfile.TemporaryDirectory() as scratch:
            sys.stdout.write("".join(line + "\n" for line in listing(scratch)))
    else:
        sys.exit("usage: cli_corpus.py [--write DIR | --compare DIR DIR]")

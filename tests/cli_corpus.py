"""A fixed corpus of ``weylsep`` argvs, for checking that a change keeps every output.

Run it from the repository root, once on each tree to compare::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/cli_corpus.py > listing.txt

It prints one line per argv: the exit code, the SHA-256 of stdout, the
SHA-256 of stderr, and the argv. Two trees give the same outputs, byte for
byte, exactly when their listings are the same; ``diff`` names the argvs
that differ. Every argv runs in-process through ``cli.main``, in a scratch
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
max-entangled at d = 2-8, and every family rejection. The last three are
long reports, for the JSON writer: ``basis --d 8``, ``decompose`` on a
full-rank 6x6 random-mixed pair and ``check-tele`` on a full-rank d = 5
state.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        sys.stdout.write("".join(line + "\n" for line in listing(scratch)))

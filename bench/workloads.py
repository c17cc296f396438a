"""The four benchmark workloads: seeded inputs, the timed operation, warm-up inputs.

Every workload is a closed loop with one client in one process: the next
input is sent when the previous result returns. Inputs follow a fixed
pattern of kinds and dimensions, one *window*; the data of input ``i`` are
drawn from ``(seed, i)``, so a run is reproducible from its seed. A run's
pool of inputs spans several windows, so its figures average over many
states rather than a few.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import weylsep as ws
import weylsep.cli

import checks

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Op:
    """One generated input: what to build, and the matrix the library receives."""

    kind: str
    dims: tuple
    params: tuple = ()
    matrix: np.ndarray | None = None
    separable: bool = False

    def digest(self) -> bytes:
        head = repr((self.kind, self.dims, self.params, self.separable)).encode()
        if self.matrix is None:
            return head
        return head + np.ascontiguousarray(self.matrix, dtype=complex).tobytes()


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _golden(seed: int, i: int) -> float:
    """Term ``i`` of a golden-ratio sequence in [0, 1) from a seeded start.

    Any run of consecutive terms spreads evenly over the interval, so a
    parameter drawn this way covers its range alike in every pool.
    """
    start = np.random.default_rng([seed, 0, 3]).random()
    return (start + i * (5**0.5 - 1) / 2) % 1.0


def _bipartite_random(rng, seed: int, i: int, da: int, db: int) -> Op:
    """A random_separable mixture (a third of the time) or a random_mixed state."""
    dim = da * db
    if rng.random() < 1.0 / 3.0:
        rho = ws.random_separable(da, db, dim, [seed, i, 1])
        return Op("random-separable", (da, db), (dim,), rho.matrix, separable=True)
    rank = int(rng.choice([1, 2, max(1, dim // 2), dim]))
    rho = ws.random_mixed(dim, rank, [seed, i, 1])
    return Op("random-mixed", (da, db), (rank,), rho.matrix)


def _maximally_mixed(dims) -> np.ndarray:
    dim = int(np.prod(dims))
    return np.eye(dim, dtype=complex) / dim


class Workload:
    """Interface every workload shares; subclasses define the window and the operation."""

    name: str
    window: list
    #: The library the timed operations call; ``calibrate`` swaps in its frozen copy.
    lib = ws
    cli = weylsep.cli

    def op(self, seed: int, i: int) -> Op:
        raise NotImplementedError

    def run(self, op: Op) -> dict:
        raise NotImplementedError

    def check(self, op: Op, out: dict) -> list[str]:
        raise NotImplementedError

    def warm_ops(self) -> list[Op]:
        """One input per timed operation and distinct dimension."""
        raise NotImplementedError

    def corruptions(self, seed: int):
        """Yield ``(label, op, corrupted result)``; each must fail its check."""
        raise NotImplementedError

    def warm_up(self) -> None:
        for op in self.warm_ops():
            self.run(op)

    @staticmethod
    def inputs_digest(ops: list[Op]) -> str:
        h = hashlib.sha256()
        for op in ops:
            h.update(op.digest())
        return h.hexdigest()

    def entry_point(self, seed: int) -> tuple[list[float], list[str]]:
        """Latencies and failures of running each command through its real entry point.

        Only the command-line workload has one.
        """
        return [], []

    def close(self) -> None:
        """Release files the workload created."""


# ---------------------------------------------------------------------------


class SepLarge(Workload):
    """The ``check-sep`` sequence on pre-generated states from 4x4 to 8x8."""

    name = "sep-large"
    window = [
        (4, 4), (3, 8), (4, 4), (4, 6), (5, 5), (4, 4), (5, 7), (6, 6),
        (4, 4), (3, 8), (4, 6), (5, 5), (5, 7), (6, 6), (7, 7), (8, 8),
    ]

    def op(self, seed, i):
        da, db = self.window[i % len(self.window)]
        return _bipartite_random(_rng(seed, i), seed, i, da, db)

    def run(self, op):
        rho = self.lib.validate_density(op.matrix, op.dims)
        dec = self.lib.decompose_bipartite(rho)
        return {
            "rebuilt": self.lib.reconstruct_bipartite(dec),
            "kyfan": self.lib.kyfan_norm(dec.correlation),
            "weyl": self.lib.weyl_separability_criterion(rho),
            "ppt": self.lib.ppt_criterion(rho),
        }

    def check(self, op, out):
        return checks.check_bipartite(op.matrix, op.dims, op.kind, op.separable, out)

    def warm_ops(self):
        return [
            Op("maximally-mixed", dims, (), _maximally_mixed(dims), separable=True)
            for dims in dict.fromkeys(self.window)
        ]

    def corruptions(self, seed):
        op = self.op(seed, 0)
        out = self.run(op)
        weyl = out["weyl"]
        yield "kyfan off by 1e-6", op, {**out, "kyfan": out["kyfan"] + 1e-6}
        yield "criterion statistic off by 1e-6", op, {
            **out, "weyl": dataclasses.replace(weyl, statistic=weyl.statistic + 1e-6)}
        yield "reconstruction off by 1e-9", op, {**out, "rebuilt": out["rebuilt"] + 1e-9}
        sep = self.warm_ops()[0]
        sep_out = self.run(sep)
        yield "separable input flagged", sep, {
            **sep_out, "weyl": dataclasses.replace(sep_out["weyl"], outcome=checks.ENTANGLED)}


# ---------------------------------------------------------------------------

_BELL_VERTICES = [(-1.0, -1.0, -1.0), (-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0)]
_BIPARTITE_SLOTS = (
    [("isotropic", d) for d in (2, 3, 4) for _ in range(8)]
    + [("bell-diagonal", v) for v in range(4) for _ in range(3)]
    + [("example4", 2)] * 4
    + [("ppt-3x3", 3)]
    + [("random-2x3", 2)] * 4
)
_BLOCH_SLOTS = [("bloch", d) for d in range(2, 17)]


def _interleave(bipartite, bloch):
    """Three bipartite operations, then one single-system one."""
    out = []
    for k, slot in enumerate(bloch):
        out += bipartite[3 * k : 3 * k + 3] + [slot]
    return out + bipartite[3 * len(bloch) :]


def _strata(window):
    """``(k, n)`` per slot: it is the k-th of n slots of its kind in the window."""
    return [(window[:j].count(slot), window.count(slot)) for j, slot in enumerate(window)]


class SmallStates(Workload):
    """Scan-style sweeps that build each state inside the timed operation."""

    name = "small-states"
    window = _interleave(_BIPARTITE_SLOTS, _BLOCH_SLOTS)
    # stratified grid: the k-th of n slots of one kind draws its parameter from [k/n, (k+1)/n)
    strata = _strata(window)

    def op(self, seed, i):
        kind, arg = self.window[i % len(self.window)]
        rng = _rng(seed, i)
        k, n = self.strata[i % len(self.window)]
        u = (k + rng.random()) / n
        if kind == "isotropic":
            return Op(kind, (arg, arg), (u,), separable=u <= 1.0 / (arg + 1))
        if kind == "bell-diagonal":
            t = tuple(u * x for x in _BELL_VERTICES[arg])
            return Op(kind, (2, 2), t, separable=sum(abs(x) for x in t) <= 1.0)
        if kind == "example4":
            return Op(kind, (2, 2), (0.05 + 0.95 * u,))
        if kind == "ppt-3x3":
            return Op(kind, (3, 3))
        if kind == "random-2x3":
            return _bipartite_random(rng, seed, i, 2, 3)
        rank = int(rng.integers(1, arg + 1))
        return Op(kind, (arg,), (rank,), ws.random_mixed(arg, rank, [seed, i, 1]).matrix)

    def _build(self, op):
        if op.kind == "isotropic":
            return self.lib.isotropic(op.dims[0], op.params[0])
        if op.kind == "bell-diagonal":
            return self.lib.bell_diagonal(*op.params)
        if op.kind == "example4":
            return self.lib.example4(op.params[0])
        if op.kind == "ppt-3x3":
            return self.lib.ppt_3x3()
        return self.lib.validate_density(op.matrix, op.dims)

    def run(self, op):
        rho = self._build(op)
        if op.kind == "bloch":
            vec = self.lib.decompose(rho)
            return {
                "matrix": rho.matrix,
                "rebuilt": self.lib.reconstruct(vec),
                "length": self.lib.bloch_length(vec),
                "purity": self.lib.purity_from_length(vec),
            }
        return {
            "matrix": rho.matrix,
            "weyl": self.lib.weyl_separability_criterion(rho),
            "ppt": self.lib.ppt_criterion(rho),
        }

    def check(self, op, out):
        if op.kind == "bloch":
            return checks.check_bloch(out["matrix"], out)
        return checks.check_bipartite(out["matrix"], op.dims, op.kind, op.separable, out)

    def warm_ops(self):
        ops = [Op("isotropic", (d, d), (0.5,)) for d in (2, 3, 4)]
        ops += [Op("bell-diagonal", (2, 2), (0.2, 0.2, 0.2)), Op("example4", (2, 2), (0.5,))]
        ops += [Op("ppt-3x3", (3, 3)), Op("maximally-mixed", (2, 3), (), _maximally_mixed((2, 3)))]
        ops += [Op("bloch", (d,), (), _maximally_mixed((d,))) for d in range(2, 17)]
        return ops

    def corruptions(self, seed):
        ops = {}
        for i in range(len(self.window)):
            ops.setdefault(self.window[i][0], self.op(seed, i))
        op = ops["isotropic"]
        out = self.run(op)
        yield "criterion statistic off by 1e-6", op, {
            **out, "weyl": dataclasses.replace(out["weyl"], statistic=out["weyl"].statistic + 1e-6)}
        weak = Op("isotropic", (3, 3), (0.1,), separable=True)
        weak_out = self.run(weak)
        yield "separable isotropic flagged", weak, {
            **weak_out, "ppt": dataclasses.replace(weak_out["ppt"], outcome=checks.ENTANGLED)}
        op = ops["example4"]
        out = self.run(op)
        yield "2x2 Ky Fan ENTANGLED without PPT", op, {
            **out,
            "weyl": dataclasses.replace(out["weyl"], outcome=checks.ENTANGLED),
            "ppt": dataclasses.replace(out["ppt"], outcome=checks.INCONCLUSIVE),
        }
        op = ops["ppt-3x3"]
        out = self.run(op)
        yield "ppt-3x3 PPT ENTANGLED", op, {
            **out, "ppt": dataclasses.replace(out["ppt"], outcome=checks.ENTANGLED)}
        op = ops["bloch"]
        out = self.run(op)
        yield "purity off by 1e-6", op, {**out, "purity": out["purity"] + 1e-6}
        yield "bloch reconstruction off by 1e-9", op, {**out, "rebuilt": out["rebuilt"] + 1e-9}
        yield "bloch length above sqrt(d-1)", op, {**out, "length": 2.0}


# ---------------------------------------------------------------------------

TELE_BUDGET = 8


class TeleSearch(Workload):
    """fef_search at a fixed budget, then the detection operator and its mean value."""

    name = "tele-search"
    # Random rank-2 states only at d = 2: at d = 3 their search cost is
    # heavy-tailed (45 ms to 1 s), and the dozen such states a 20 s run holds
    # move its figures by more than 10% from seed to seed. Even at d = 2 it
    # varies fivefold, so they fill two of the fifteen slots: nine are
    # isotropic or example4 states at d = 2, whose cost varies less and is
    # spread evenly over p by a golden-ratio sequence, so the median falls
    # among them whatever the seed. d = 3 and 4 are isotropic; the two d = 4
    # slots are more than a tenth, so the p90 falls among them.
    window = [
        ("isotropic", 2), ("example4", 2), ("random", 2), ("isotropic", 3), ("example4", 2),
        ("isotropic", 2), ("isotropic", 4), ("example4", 2), ("isotropic", 2), ("random", 2),
        ("example4", 2), ("isotropic", 3), ("isotropic", 2), ("isotropic", 4), ("isotropic", 2),
    ]

    def op(self, seed, i):
        kind, d = self.window[i % len(self.window)]
        rng = _rng(seed, i)
        search_seed = int(rng.integers(2**31))
        if kind == "random":
            m = ws.random_mixed(d * d, 2, [seed, i, 1]).matrix
            return Op("random-mixed", (d, d), (search_seed,), m)
        p = 0.05 + 0.95 * _golden(seed, i)
        m = ws.example4(p).matrix if kind == "example4" else checks.isotropic_matrix(d, p)
        return Op(kind, (d, d), (p, search_seed), m)

    def run(self, op):
        rho = self.lib.validate_density(op.matrix, op.dims)
        est = self.lib.fef_search(rho, TELE_BUDGET, seed=op.params[-1])
        return {
            "value": est.value,
            "mean": self.lib.mean_value(rho, self.lib.detection_operator(est.best_unitary)),
        }

    def check(self, op, out):
        return checks.check_teleport(op.matrix, op.dims[0], op.kind, op.params, out)

    def warm_ops(self):
        return [Op("isotropic", (d, d), (0.5, 0), checks.isotropic_matrix(d, 0.5)) for d in (2, 3, 4)]

    def corruptions(self, seed):
        two = self.op(seed, self.window.index(("random", 2)))
        # a d = 3 state without a closed form, so only the lambda_max and
        # mean-value checks can catch the corruptions below
        three = Op("random-mixed", (3, 3), (0,), ws.random_mixed(9, 2, [seed, 0, 2]).matrix)
        out = self.run(two)
        low = out["value"] - 1e-6
        yield "two-qubit FEF off by 1e-6", two, {**out, "value": low, "mean": 4 * low}
        out = self.run(three)
        high = float(np.linalg.eigvalsh(three.matrix)[-1]) + 1e-6
        yield "FEF above lambda_max", three, {**out, "value": high, "mean": 9 * high}
        yield "mean value off by 1e-6", three, {**out, "mean": out["mean"] + 1e-6}
        iso = Op("isotropic", (3, 3), (0.5, 0), checks.isotropic_matrix(3, 0.5))
        out = self.run(iso)
        yield "isotropic FEF off by 1e-6", iso, {**out, "value": out["value"] - 1e-6, "mean": 9 * (out["value"] - 1e-6)}


# ---------------------------------------------------------------------------

CLI_ENV = {"PYTHONPATH": str(ROOT / "src")}


class CliMixed(Workload):
    """The command line: seven commands per window, each window with its own inputs.

    Timed operations call ``weylsep.cli.main(argv)`` in-process with captured
    output. A ``python -m weylsep`` process costs about 150 ms, nearly all of
    it interpreter start and imports, and a shared host's speed drifts by up
    to 1.7x over minutes, so the 150-odd invocations that fit in a run cannot be
    timed steadily. The import cost is this workload's set-up time instead (a
    fresh ``python -c "import weylsep.cli"``), and :meth:`entry_point` runs every
    command once through ``python -m weylsep`` and checks it.
    """

    name = "cli-mixed"
    window = ["check-sep-file", "check-sep", "check-tele", "scan", "decompose", "decompose-pair", "malformed"]

    def __init__(self):
        self._ops: dict[tuple[int, int], list[Op]] = {}
        self._workdir = OUT_DIR / f"cli-{os.getpid()}"
        self._first_stdout: dict[tuple, str] = {}

    def _window_ops(self, seed: int, variant: int) -> list[Op]:
        key = (seed, variant)
        if key in self._ops:
            return self._ops[key]
        rng = _rng(seed, variant)
        self._workdir.mkdir(parents=True, exist_ok=True)
        pair = ws.random_mixed(8, int(rng.integers(1, 9)), [seed, variant, 1]).matrix
        single = ws.random_mixed(4, int(rng.integers(1, 5)), [seed, variant, 2]).matrix
        pair_file, single_file = f"pair-{seed}-{variant}.json", f"single-{seed}-{variant}.json"
        for fname, dims, m in ((pair_file, [2, 4], pair), (single_file, [4], single)):
            entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
            payload = {"format": "weylsep-matrix-v1", "dims": dims, "entries": entries}
            (self._workdir / fname).write_text(json.dumps(payload))
        p = f"{rng.uniform(0.05, 1.0):.6f}"
        # the cost of the check-tele search varies threefold with q
        q = f"{0.05 + 0.95 * _golden(seed, variant):.6f}"
        tele_seed = str(int(rng.integers(2**31)))
        nots = "--no-timestamp"
        specs = [
            ("check-sep-file", (2, 4), pair, ["check-sep", f"{{dir}}/{pair_file}", nots], 0),
            ("check-sep", (3, 3), checks.isotropic_matrix(3, float(p)),
             ["check-sep", "--state", f"isotropic:d=3,p={p}", nots], 0),
            ("check-tele", (2, 2), ws.example4(float(q)).matrix,
             ["check-tele", "--state", f"example4:p={q}", "--budget", str(TELE_BUDGET),
              "--seed", tele_seed, nots], 0),
            ("scan", (3, 3), None,
             ["scan", "--family", "isotropic", "--d", "3", "--from", "0", "--to", "1",
              "--step", "0.05", "--ppt", "--out", "-"], 0),
            ("decompose", (4,), single, ["decompose", f"{{dir}}/{single_file}", nots], 0),
            ("decompose-pair", (2, 4), pair, ["decompose", f"{{dir}}/{pair_file}", nots], 0),
            ("malformed", (3, 3), None, ["check-sep", "--state", f"isotropic:d=3,p=x{p}", nots], 2),
        ]
        self._ops[key] = [Op(case, dims, (tuple(argv), rc), m) for case, dims, m, argv, rc in specs]
        return self._ops[key]

    def op(self, seed, i):
        window, slot = divmod(i, len(self.window))
        return self._window_ops(seed, window)[slot]

    def _argv(self, op: Op) -> list[str]:
        return [a.replace("{dir}", str(self._workdir)) for a in op.params[0]]

    def run(self, op):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = self.cli.main(self._argv(op))
        return {"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}

    def entry_point(self, seed):
        latency, failures = [], []
        for op in self._window_ops(seed, 0):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "weylsep", *self._argv(op)],
                cwd=ROOT, env={**os.environ, **CLI_ENV},
                capture_output=True, text=True, timeout=120,
            )
            latency.append(time.perf_counter() - t0)
            out = {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
            failures += [f"python -m weylsep {op.kind}: {p}" for p in self.check(op, out)]
        return latency, failures

    def check(self, op, out):
        template, rc = op.params
        first = self._first_stdout.setdefault(template, out["stdout"])
        return checks.check_cli(op.kind, rc, op.matrix, first, out)

    def warm_ops(self):
        return self._window_ops(0, 0)

    def corruptions(self, seed):
        real = {op.kind: (op, self.run(op)) for op in self._window_ops(seed, 0)}

        def alone(label, op, out):
            # the corrupted output is its own first run, so the repeat check stays quiet
            self._first_stdout[op.params[0]] = out["stdout"]
            return label, op, out

        op, out = real["check-sep"]
        yield alone("wrong exit code", op, {**out, "rc": 1})
        yield alone("stdout not JSON", op, {**out, "stdout": out["stdout"][:-3]})
        bad = out["stdout"].replace("ENTANGLED", "MAYBE").replace("INCONCLUSIVE", "MAYBE")
        yield alone("unknown verdict token", op, {**out, "stdout": bad})
        self._first_stdout[op.params[0]] = out["stdout"]
        yield "repeat not byte-identical", op, {**out, "stdout": out["stdout"] + " "}
        op, out = real["malformed"]
        yield alone("traceback on stderr", op, {**out, "stderr": "Traceback (most recent call last):\n"})
        yield alone("malformed input accepted", op, {**out, "rc": 0})
        op, out = real["check-tele"]
        report = json.loads(out["stdout"])
        report["fef"]["value"] -= 1e-6
        yield alone("check-tele FEF off by 1e-6", op, {**out, "stdout": json.dumps(report)})
        self._first_stdout.clear()

    def close(self):
        shutil.rmtree(self._workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SepLarge, SmallStates, TeleSearch, CliMixed)}

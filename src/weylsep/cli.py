"""Command-line front-end.

Subcommands: ``basis``, ``decompose``, ``check-sep``, ``check-tele`` and
``scan``. States come either from a matrix file or from the ``--state``
micro-grammar ``family:key=value,...`` (vector values are comma-joined,
e.g. ``bell-diagonal:t=0.2,0.2,0.2``).

Exit codes: 0 success; 2 usage or input error (:class:`UsageError`,
:class:`~weylsep.linalg.ValidationError` or :class:`OSError`); 141 (128 +
SIGPIPE), silently, when stdout's reader has closed it; 1 any other
failure, which is a fault in the program. Every dimension given on the
command line (the ``d``, ``da`` and ``db`` state keys, ``basis --d`` and
``scan --d``) must lie in ``[1, MAX_DIM]`` (:data:`MAX_DIM`), checked
before anything is allocated, as are the ``random-separable`` mixture size
(``[1, MAX_MIXTURE]``), the ``check-tele --budget`` (``[1, MAX_BUDGET]``)
and the ``scan`` row count (:data:`MAX_SCAN_ROWS`). The ``--state``
families and keys are the tables :data:`FAMILIES` and ``_KEYS``.
Reports are JSON on stdout: byte for byte ``json.dumps(report, indent=2)``
and a newline, written by :func:`weylsep.fileio.json_text` (the
:mod:`weylsep.fileio` docstring names the values it leaves to ``json``'s
own encoder). Identical invocations (including ``--seed``) are
byte-identical apart from the timestamp, which ``--no-timestamp`` removes,
on the same numpy and BLAS build with the same number of BLAS threads.
Seeds are never read from the environment.

:func:`main` may be called many times in one process. The calls share one
parser, which :func:`build_parser` builds on the first call and never at
import: argparse keeps no state from one ``parse_args`` to the next, and it
looks up ``sys.stdout``, ``sys.stderr`` and the terminal width when it
prints help, the version or a usage error, not when it is built.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bipartite import (
    correlation_outcome,
    decompose_bipartite,
    kyfan_bound,
    ppt_criterion,
    reconstruct_bipartite,
    weyl_diagonal_singular_values,
    weyl_separability_criterion,
)
from .bloch import bloch_length, decompose, purity_from_length, reconstruct
from .fileio import json_text, load_state, matrix_entries
from .linalg import DensityMatrix, ValidationError, _dimension
from .states import (
    _mixing,
    bell_diagonal,
    bell_diagonal_coefficients,
    bell_diagonal_ppt_min_eig,
    example4,
    isotropic,
    isotropic_coefficients,
    isotropic_ppt_min_eig,
    max_entangled,
    ppt_3x3,
    random_mixed,
    random_product_pure,
    random_separable,
)
from .teleport import fef_search, optimal_fidelity, verdict_from_estimate
from .weyl import weyl_basis


#: Largest local dimension the command line accepts (``D <= MAX_DIM**2`` for a pair).
MAX_DIM = 32

#: Largest ``random-separable`` mixture size ``k`` the command line accepts.
MAX_MIXTURE = MAX_DIM**2

#: Most ``check-tele`` search starts. Each start runs up to 1000 polar steps,
#: so the cap bounds one search's work; 1024 is sixteen times the default of 64.
MAX_BUDGET = MAX_DIM**2

#: Most rows one ``scan`` may write: a 1e-5 step over [0, 1].
MAX_SCAN_ROWS = 100_001

#: Bytes of one ``scan`` block's largest array, its ``(rows, d^2)`` stack of
#: Weyl-diagonal coefficients: 32,768 rows at d = 2, 14,563 at d = 3 and 128
#: at d = 32. A block's Python row lists cost about as much again at d = 2,
#: so a larger cap would raise the peak memory of a long scan there.
SCAN_BLOCK_BYTES = 2**20


class UsageError(ValueError):
    """Bad flags, state specs, or input files; maps to exit code 2."""


def _capped(limit: int, what: str):
    """Integer converter for a command-line value in ``[1, limit]``, checked before any allocation."""

    def convert(value) -> int:
        n = int(value)
        if not 1 <= n <= limit:
            raise UsageError(f"{what} {n} is outside [1, {limit}]")
        return n

    return convert


_dim = _capped(MAX_DIM, "dimension")
_mixture_size = _capped(MAX_MIXTURE, "mixture size")


def _seed(value) -> int:
    """Integer converter for a seed, which numpy's generators take only non-negative."""
    n = int(value)
    if n < 0:
        raise UsageError(f"seed must be >= 0, got {n}")
    return n


# ---------------------------------------------------------------------------
# --state micro-grammar


def _parse_params(text: str) -> dict[str, list[str]]:
    params: dict[str, list[str]] = {}
    current = None
    for token in text.split(","):
        if "=" in token:
            key, value = token.split("=", 1)
            key = key.strip()
            if key in params:
                raise UsageError(f"duplicate state parameter {key!r}")
            params[key] = [value]
            current = key
        elif current is not None:
            params[current].append(token)
        else:
            raise UsageError(f"state parameter {token!r} is missing a key")
    return params


def _random_mixed_pair(da: int, db: int, rank: int, seed: int) -> DensityMatrix:
    """A ``random_mixed`` state of dimension ``da * db``, relabelled as a ``da x db`` pair."""
    # da and db passed _dim, so relabelling the validated state is safe
    return dataclasses.replace(random_mixed(da * db, rank, seed), dims=(da, db))


#: Each ``--state`` key: its converter and how many comma-joined values it takes.
_KEYS = {
    "d": (_dim, 1),
    "da": (_dim, 1),
    "db": (_dim, 1),
    "k": (_mixture_size, 1),
    "p": (float, 1),
    "t": (float, 3),
    "rank": (int, 1),
    "seed": (_seed, 1),
}

#: Each ``--state`` family: its constructor and its keys, in argument order.
#: ``random-mixed`` without a ``d`` key builds a pair, ``_random_mixed_pair``.
FAMILIES = {
    "isotropic": (isotropic, ("d", "p")),
    "bell-diagonal": (bell_diagonal, ("t",)),
    "max-entangled": (max_entangled, ("d",)),
    "ppt-3x3": (ppt_3x3, ()),
    "example4": (example4, ("p",)),
    "random-mixed": (random_mixed, ("d", "rank", "seed")),
    "random-product-pure": (random_product_pure, ("da", "db", "seed")),
    "random-separable": (random_separable, ("da", "db", "k", "seed")),
}


def _take(params: dict, key: str) -> list:
    """Pop ``key`` and convert its values as ``_KEYS`` says."""
    kind, length = _KEYS[key]
    if key not in params:
        raise UsageError(f"missing state parameter {key!r}")
    values = params.pop(key)
    if len(values) != length:
        expects = "a single value" if length == 1 else f"{length} comma-joined values"
        raise UsageError(f"state parameter {key!r} expects {expects}")
    try:
        return [kind(v) for v in values]
    except ValueError as exc:
        raise UsageError(f"bad value for state parameter {key!r}: {exc}") from exc


def state_from_spec(spec: str) -> DensityMatrix:
    """Build a state from a ``family:key=value,...`` specification."""
    family, _, rest = spec.partition(":")
    family = family.strip()
    params = _parse_params(rest) if rest else {}
    if family not in FAMILIES:
        raise UsageError(f"unknown state family {family!r}")
    make, keys = FAMILIES[family]
    if family == "random-mixed" and "d" not in params:
        make, keys = _random_mixed_pair, ("da", "db", "rank", "seed")
    try:
        rho = make(*(value for key in keys for value in _take(params, key)))
    except ValueError as exc:
        if isinstance(exc, UsageError):
            raise
        raise UsageError(str(exc)) from exc
    if params:
        raise UsageError(f"unknown state parameters {sorted(params)} for {family!r}")
    return rho


def _load_input(args) -> tuple[DensityMatrix, dict]:
    if args.state and args.input:
        raise UsageError("give either an input file or --state, not both")
    if args.state:
        rho = state_from_spec(args.state)
        descriptor = {"state": args.state, "dims": list(rho.dims)}
    elif args.input:
        rho = load_state(args.input)
        descriptor = {"file": args.input, "dims": list(rho.dims)}
    else:
        raise UsageError("provide an input file or --state")
    return rho, descriptor


# ---------------------------------------------------------------------------
# report assembly


def _report_header(args, descriptor: dict) -> dict:
    report = {"tool": "weylsep", "version": __version__}
    if not args.no_timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    report["input"] = descriptor
    return report


def _emit(report) -> None:
    print(json_text(report))


def _residual(rebuilt: np.ndarray, rho: DensityMatrix) -> float:
    return float(np.max(np.abs(rebuilt - rho.matrix)))


def _bipartite_summary(rho: DensityMatrix) -> dict:
    """The summary of the state's decomposition that ``decompose`` and ``check-sep`` share."""
    dec = decompose_bipartite(rho)
    return {
        "alpha_length": float(np.linalg.norm(dec.alpha)),
        "beta_length": float(np.linalg.norm(dec.beta)),
        "kyfan_norm": float(dec.singular_values.sum()),
        "top_singular_values": [float(s) for s in dec.singular_values[:5]],
        "reconstruction_residual": _residual(reconstruct_bipartite(dec), rho),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_basis(args) -> int:
    basis = weyl_basis(_dim(args.d))
    _emit([{"n": n, "m": m, "entries": matrix_entries(basis.op(n, m))} for n, m in basis.pairs])
    return 0


def cmd_decompose(args) -> int:
    rho, descriptor = _load_input(args)
    report = _report_header(args, descriptor)
    if len(rho.dims) == 1:
        vec = decompose(rho)
        report["bloch"] = {
            "length": bloch_length(vec),
            "purity": purity_from_length(vec),
            "coefficients": matrix_entries(vec.coeffs),
        }
        residual = _residual(reconstruct(vec), rho)
    elif len(rho.dims) == 2:
        dec = decompose_bipartite(rho)
        report["bipartite"] = {
            **_bipartite_summary(rho),
            "alpha": matrix_entries(dec.alpha),
            "beta": matrix_entries(dec.beta),
            "correlation_shape": list(dec.correlation.shape),
            "correlation": matrix_entries(dec.correlation),
        }
        residual = report["bipartite"].pop("reconstruction_residual")
    else:
        raise UsageError(f"decompose supports 1 or 2 subsystems, got dims {rho.dims}")
    report["reconstruction_residual"] = residual
    _emit(report)
    return 0


def cmd_check_sep(args) -> int:
    rho, descriptor = _load_input(args)
    summary = _bipartite_summary(rho)
    verdicts = [weyl_separability_criterion(rho), ppt_criterion(rho)]
    report = _report_header(args, descriptor)
    report["decomposition"] = summary
    report["verdicts"] = [dict(vars(v)) for v in verdicts]
    _emit(report)
    return 0


def cmd_check_tele(args) -> int:
    _capped(MAX_BUDGET, "budget")(args.budget)
    _seed(args.seed)
    rho, descriptor = _load_input(args)
    est = fef_search(rho, args.budget, seed=args.seed)
    d = rho.dims[0]
    report = _report_header(args, descriptor)
    report["seed"] = args.seed
    report["budget"] = args.budget
    report["fef"] = {
        "value": est.value,
        "optimal_fidelity": optimal_fidelity(est.value, d),
        "evaluations": est.evaluations,
        "converged": est.converged,
        "upper_bound": est.upper_bound,
        "starts_used": est.starts_used,
        "best_unitary": matrix_entries(est.best_unitary),
    }
    report["verdicts"] = [dict(vars(verdict_from_estimate(est)))]
    _emit(report)
    return 0


def _scan_grid(start: float, stop: float, step: float) -> list[float]:
    if not np.isfinite([start, stop, step]).all():
        raise UsageError(f"scan bounds and step must be finite, got {start}, {stop}, {step}")
    if step <= 0:
        raise UsageError(f"step must be positive, got {step}")
    if stop < start:
        raise UsageError(f"empty scan range [{start}, {stop}] with step {step}")
    # small forward slack so an exactly-dividing range keeps its endpoint,
    # while accumulated roundoff never pushes a grid point past it; the
    # count is a float, inf when the quotient overflows, until it is capped
    count = np.floor((stop - start) / step + 1e-6) + 1
    if count > MAX_SCAN_ROWS:
        raise UsageError(f"scan grid has {count:.0f} rows, more than the maximum {MAX_SCAN_ROWS}")
    return [min(start + i * step, stop) for i in range(int(count))]


def cmd_scan(args) -> int:
    grid = _scan_grid(args.start, args.stop, args.step)
    if args.family == "isotropic":
        if args.direction is not None:
            raise UsageError("--direction applies only to the bell-diagonal family")
        if args.d is None:
            raise UsageError("isotropic scan requires --d")
        da = db = d = _dimension(_dim(args.d))
        check = _mixing
        coefficients = lambda ps: isotropic_coefficients(d, ps)  # noqa: E731
        ppt_min_eig = lambda ps: isotropic_ppt_min_eig(d, ps)  # noqa: E731
    else:
        if args.d is not None:
            raise UsageError("--d applies only to the isotropic family")
        if args.direction is None:
            raise UsageError("bell-diagonal scan requires --direction t1,t2,t3")
        try:
            direction = [float(x) for x in args.direction.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad --direction: {exc}") from exc
        if len(direction) != 3:
            raise UsageError("--direction expects three comma-joined values")
        if not np.isfinite(direction).all():
            raise UsageError(f"--direction must be finite, got {args.direction}")
        da = db = 2
        check = lambda s: bell_diagonal(*(s * t for t in direction))  # noqa: E731
        coefficients = lambda ss: bell_diagonal_coefficients(*(ss * t for t in direction))  # noqa: E731
        ppt_min_eig = lambda ss: bell_diagonal_ppt_min_eig(*(ss * t for t in direction))  # noqa: E731

    # Both families are affine in the parameter, so along the grid the trace
    # is affine and lambda_min is concave: valid end points make every row
    # valid. They are checked once, before --out is opened, by the family's
    # own rules: an isotropic one by the dimension (above) and mixing
    # rules, with no state built; a Bell-diagonal one by bell_diagonal,
    # which builds the 4x4 state so that a rejection keeps validation's
    # message. Every row is then a state that the constructor would
    # certify, so its Ky Fan statistic is read, as the constructor's state
    # reads it, from the closed-form singular values of its Weyl-diagonal
    # coefficients: no matrix, transform or SVD. With --ppt, the least
    # eigenvalue of each row's partial transpose is the constructor's closed
    # form, run on the block's parameters as one array: no matrix and no
    # eigensolve. Each block is written when done.
    check(grid[0])
    check(grid[-1])
    threshold = kyfan_bound(da, db)
    block = max(1, SCAN_BLOCK_BYTES // (8 * da * db))
    header = ["param", "kyfan", "threshold", "verdict"] + (["ppt_min_eig"] if args.ppt else [])
    with (
        contextlib.nullcontext(sys.stdout) if args.out == "-" else open(args.out, "w", newline="")
    ) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, len(grid), block):
            params = grid[start : start + block]
            ps = np.array(params)
            kyfan = weyl_diagonal_singular_values(coefficients(ps)).sum(axis=-1).tolist()
            verdicts = [correlation_outcome(k, threshold) for k in kyfan]
            columns = [params, kyfan, [threshold] * len(params), verdicts]
            if args.ppt:
                columns.append(ppt_min_eig(ps).tolist())
            writer.writerows(zip(*columns))
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``weylsep`` parser, built once per process and shared by every :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="weylsep",
        description="Entanglement and teleportation-resource detection "
        "in the Weyl operator basis.",
    )
    parser.add_argument("--version", action="version", version=f"weylsep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="print the Weyl basis as JSON")
    p_basis.add_argument("--d", type=int, required=True, help="local dimension (>= 2)")
    p_basis.set_defaults(func=cmd_basis)

    def add_io(p):
        p.add_argument("input", nargs="?", help="matrix file (JSON)")
        p.add_argument(
            "--state",
            help="state spec, family:key=value,..., instead of an input file "
            f"(families: {', '.join(FAMILIES)})",
        )
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the timestamp field for byte-deterministic output",
        )

    p_dec = sub.add_parser("decompose", help="Bloch/bipartite decomposition report")
    add_io(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_sep = sub.add_parser("check-sep", help="run the separability criteria")
    add_io(p_sep)
    p_sep.set_defaults(func=cmd_check_sep)

    p_tele = sub.add_parser("check-tele", help="search for a teleportation witness")
    add_io(p_tele)
    p_tele.add_argument("--budget", type=int, default=64, help="number of search starts")
    p_tele.add_argument("--seed", type=int, required=True, help="search seed (required)")
    p_tele.set_defaults(func=cmd_check_tele)

    p_scan = sub.add_parser("scan", help="sweep a state family, write CSV")
    p_scan.add_argument("--family", required=True, choices=["isotropic", "bell-diagonal"])
    p_scan.add_argument("--d", type=int, help="dimension for the isotropic family")
    p_scan.add_argument("--direction", help="t1,t2,t3 ray for the bell-diagonal family")
    p_scan.add_argument("--from", dest="start", type=float, required=True)
    p_scan.add_argument("--to", dest="stop", type=float, required=True)
    p_scan.add_argument("--step", type=float, required=True)
    p_scan.add_argument("--out", required=True, help="output CSV path, or - for stdout")
    p_scan.add_argument("--ppt", action="store_true", help="add a ppt_min_eig column")
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:  # stdout's reader left; keep the exit-time flush from failing again
        with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())  # skipped for a stdout without a descriptor
        return 141
    except (UsageError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a fault in the program, not the input
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

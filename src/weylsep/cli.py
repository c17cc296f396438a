"""Command-line front-end.

Subcommands: ``basis``, ``decompose``, ``check-sep``, ``check-tele`` and
``scan``. States come either from a matrix file or from the ``--state``
micro-grammar ``family:key=value,...`` (vector values are comma-joined,
e.g. ``bell-diagonal:t=0.2,0.2,0.2``).

Exit codes: 0 success; 2 usage or input error (:class:`UsageError`,
:class:`~weylsep.linalg.ValidationError` or :class:`OSError`); 1 any other
failure, which is a fault in the program. Every dimension given on the
command line (the ``d``, ``da`` and ``db`` state keys, ``basis --d`` and
``scan --d``) is capped at :data:`MAX_DIM` before anything is allocated.
Reports are JSON on stdout; identical invocations (including ``--seed``)
are byte-identical apart from the timestamp, which ``--no-timestamp``
removes. Seeds are never read from the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bipartite import (
    BipartiteDecomposition,
    correlation_verdict,
    decompose_bipartite,
    ppt_criterion,
    reconstruct_bipartite,
    weyl_separability_criterion,
)
from .bloch import bloch_length, decompose, purity_from_length, reconstruct
from .fileio import load_state, matrix_entries
from .linalg import DensityMatrix, ValidationError, validate_density
from .states import (
    bell_diagonal,
    example4,
    isotropic,
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


class UsageError(ValueError):
    """Bad flags, state specs, or input files; maps to exit code 2."""


def _dim(value) -> int:
    """A dimension read from the command line, capped at ``MAX_DIM`` before any allocation."""
    d = int(value)
    if d > MAX_DIM:
        raise UsageError(f"dimension {d} exceeds the maximum {MAX_DIM}")
    return d


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


def _take(params: dict, key: str, kind, length: int = 1):
    """Pop ``key`` and convert its ``length`` values; one value comes back bare."""
    if key not in params:
        raise UsageError(f"missing state parameter {key!r}")
    values = params.pop(key)
    if len(values) != length:
        expects = "a single value" if length == 1 else f"{length} comma-joined values"
        raise UsageError(f"state parameter {key!r} expects {expects}")
    try:
        converted = [kind(v) for v in values]
    except ValueError as exc:
        raise UsageError(f"bad value for state parameter {key!r}: {exc}") from exc
    return converted[0] if length == 1 else converted


def state_from_spec(spec: str) -> DensityMatrix:
    """Build a state from a ``family:key=value,...`` specification."""
    family, _, rest = spec.partition(":")
    family = family.strip()
    params = _parse_params(rest) if rest else {}
    try:
        if family == "isotropic":
            rho = isotropic(_take(params, "d", _dim), _take(params, "p", float))
        elif family == "bell-diagonal":
            rho = bell_diagonal(*_take(params, "t", float, 3))
        elif family == "max-entangled":
            rho = max_entangled(_take(params, "d", _dim))
        elif family == "ppt-3x3":
            rho = ppt_3x3()
        elif family == "example4":
            rho = example4(_take(params, "p", float))
        elif family == "random-mixed":
            if "d" in params:
                d = _take(params, "d", _dim)
                rho = random_mixed(d, _take(params, "rank", int), _take(params, "seed", int))
            else:
                da = _take(params, "da", _dim)
                db = _take(params, "db", _dim)
                rank = _take(params, "rank", int)
                seed = _take(params, "seed", int)
                single = random_mixed(da * db, rank, seed)
                rho = validate_density(single.matrix, [da, db])
        elif family == "random-product-pure":
            rho = random_product_pure(
                _take(params, "da", _dim),
                _take(params, "db", _dim),
                _take(params, "seed", int),
            )
        elif family == "random-separable":
            rho = random_separable(
                _take(params, "da", _dim),
                _take(params, "db", _dim),
                _take(params, "k", int),
                _take(params, "seed", int),
            )
        else:
            raise UsageError(f"unknown state family {family!r}")
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
    if not getattr(args, "no_timestamp", False):
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    report["input"] = descriptor
    return report


def _verdict_record(v) -> dict:
    return {
        "criterion": v.criterion,
        "outcome": v.outcome,
        "statistic": float(v.statistic),
        "threshold": float(v.threshold),
    }


def _emit(report) -> None:
    print(json.dumps(report, indent=2))


def _residual(rebuilt: np.ndarray, rho: DensityMatrix) -> float:
    return float(np.max(np.abs(rebuilt - rho.matrix)))


def _bipartite_summary(rho: DensityMatrix) -> tuple[BipartiteDecomposition, dict]:
    """The decomposition plus the summary that ``decompose`` and ``check-sep`` share."""
    dec = decompose_bipartite(rho)
    summary = {
        "alpha_length": float(np.linalg.norm(dec.alpha)),
        "beta_length": float(np.linalg.norm(dec.beta)),
        "kyfan_norm": float(np.sum(dec.singular_values)),
        "top_singular_values": [float(s) for s in dec.singular_values[:5]],
        "reconstruction_residual": _residual(reconstruct_bipartite(dec), rho),
    }
    return dec, summary


# ---------------------------------------------------------------------------
# subcommands


def cmd_basis(args) -> int:
    d = _dim(args.d)
    if d < 2:
        raise UsageError(f"dimension must be >= 2, got {d}")
    basis = weyl_basis(d)
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
        dec, summary = _bipartite_summary(rho)
        residual = summary.pop("reconstruction_residual")
        report["bipartite"] = {
            **summary,
            "alpha": matrix_entries(dec.alpha),
            "beta": matrix_entries(dec.beta),
            "correlation_shape": list(dec.correlation.shape),
            "correlation": matrix_entries(dec.correlation),
        }
    else:
        raise UsageError(f"decompose supports 1 or 2 subsystems, got dims {rho.dims}")
    report["reconstruction_residual"] = residual
    _emit(report)
    return 0


def cmd_check_sep(args) -> int:
    rho, descriptor = _load_input(args)
    dec, summary = _bipartite_summary(rho)
    verdicts = [correlation_verdict(dec)]
    if min(rho.dims) <= 3:
        verdicts.append(ppt_criterion(rho))
    report = _report_header(args, descriptor)
    report["decomposition"] = summary
    report["verdicts"] = [_verdict_record(v) for v in verdicts]
    _emit(report)
    return 0


def cmd_check_tele(args) -> int:
    if args.budget < 1:
        raise UsageError(f"budget must be >= 1, got {args.budget}")
    if args.seed < 0:
        raise UsageError(f"seed must be >= 0, got {args.seed}")
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
        "best_unitary": matrix_entries(est.best_unitary),
    }
    report["verdicts"] = [_verdict_record(verdict_from_estimate(est, d))]
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
    # while accumulated roundoff never pushes a grid point past it
    count = int(np.floor((stop - start) / step + 1e-6)) + 1
    return [min(start + i * step, stop) for i in range(count)]


def cmd_scan(args) -> int:
    grid = _scan_grid(args.start, args.stop, args.step)
    if args.family == "isotropic":
        if args.d is None:
            raise UsageError("isotropic scan requires --d")
        d = _dim(args.d)
        make = lambda p: isotropic(d, p)  # noqa: E731
    elif args.family == "bell-diagonal":
        if args.direction is None:
            raise UsageError("bell-diagonal scan requires --direction t1,t2,t3")
        try:
            direction = [float(x) for x in args.direction.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad --direction: {exc}") from exc
        if len(direction) != 3:
            raise UsageError("--direction expects three comma-joined values")
        make = lambda s: bell_diagonal(*(s * t for t in direction))  # noqa: E731
    else:
        raise UsageError(f"unknown scan family {args.family!r}")

    header = ["param", "kyfan", "threshold", "verdict"] + (["ppt_min_eig"] if args.ppt else [])
    rows = []
    for param in grid:
        rho = make(param)
        verdict = weyl_separability_criterion(rho)
        row = [param, verdict.statistic, verdict.threshold, verdict.outcome]
        if args.ppt:
            row.append(ppt_criterion(rho).statistic)
        rows.append(row)

    with (
        contextlib.nullcontext(sys.stdout) if args.out == "-" else open(args.out, "w", newline="")
    ) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
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
            "(families: isotropic, bell-diagonal, max-entangled, ppt-3x3, "
            "example4, random-mixed, random-product-pure, random-separable)",
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
    except (UsageError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a fault in the program, not the input
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

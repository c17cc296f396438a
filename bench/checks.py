"""Correctness checks for benchmark results, with oracles independent of the Weyl basis.

Each ``check_*`` function returns a list of failure messages; an empty list
means the result is correct. Comparisons are written as ``not (x <= tol)`` so
that a NaN fails.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

ENTANGLED = "ENTANGLED"
INCONCLUSIVE = "INCONCLUSIVE"
VERDICT_TOKENS = {ENTANGLED, INCONCLUSIVE, "SEPARABLE", "USEFUL"}

KYFAN_TOL = 1e-10
RESIDUAL_TOL = 1e-10
PURITY_TOL = 1e-10
MAGIC_TOL = 1e-8
LAMBDA_MAX_TOL = 1e-9
MEAN_VALUE_TOL = 1e-9
#: Bipartitions on which a positive partial transpose proves separability.
PPT_EXACT_DIMS = {(2, 2), (2, 3), (3, 2)}

_S = 1.0 / np.sqrt(2.0)
#: Magic basis as columns: |Phi+>, i|Phi->, i|Psi+>, |Psi->.
MAGIC = np.array(
    [
        [_S, 1j * _S, 0, 0],
        [0, 0, 1j * _S, _S],
        [0, 0, 1j * _S, -_S],
        [_S, -1j * _S, 0, 0],
    ]
)


def kyfan_oracle(m: np.ndarray, da: int, db: int) -> float:
    """Ky Fan norm of the correlation matrix without the Weyl basis.

    ``sqrt(dA*dB)`` times the trace norm of the realigned centred operator
    ``rho - rhoA (x) I/dB - I (x) rhoB/dA + I/(dA*dB)``: realignment maps any
    orthonormal product operator basis to the standard one, and the
    normalised Weyl operators are such a basis.
    """
    m = np.asarray(m, dtype=complex)
    r4 = m.reshape(da, db, da, db)
    rho_a = np.einsum("abcb->ac", r4)
    rho_b = np.einsum("abad->bd", r4)
    centred = (
        m
        - np.kron(rho_a, np.eye(db)) / db
        - np.kron(np.eye(da), rho_b) / da
        + np.eye(da * db) / (da * db)
    )
    realigned = centred.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    return float(np.sqrt(da * db) * np.linalg.svd(realigned, compute_uv=False).sum())


def fef_two_qubit(m: np.ndarray) -> float:
    """Fully entangled fraction of a two-qubit state, ``lambda_max(Re(M^dag rho M))``.

    Maximally entangled two-qubit states are, up to a phase, the real unit
    vectors in the magic basis.
    """
    return float(np.linalg.eigvalsh(np.real(MAGIC.conj().T @ m @ MAGIC))[-1])


def isotropic_matrix(d: int, p: float) -> np.ndarray:
    ket = np.eye(d).reshape(-1) / np.sqrt(d)
    return (1.0 - p) * np.eye(d * d) / (d * d) + p * np.outer(ket, ket)


def _close(label: str, value, expected: float, tol: float) -> list[str]:
    if not abs(value - expected) <= tol:
        return [f"{label} {value!r} differs from {expected!r} by more than {tol:g}"]
    return []


def check_bipartite(m, dims, kind: str, separable: bool, out: dict) -> list[str]:
    """Ky Fan statistic against the oracle, reconstruction, and verdict logic."""
    da, db = dims
    weyl, ppt = out["weyl"], out["ppt"]
    oracle = kyfan_oracle(m, da, db)
    fails = _close("criterion statistic", weyl.statistic, oracle, KYFAN_TOL)
    if "kyfan" in out:
        fails += _close("kyfan_norm", out["kyfan"], oracle, KYFAN_TOL)
    if "rebuilt" in out:
        residual = float(np.max(np.abs(out["rebuilt"] - m)))
        if not residual <= RESIDUAL_TOL:
            fails.append(f"reconstruction residual {residual:.3e} above {RESIDUAL_TOL:g}")
    if separable and ENTANGLED in (weyl.outcome, ppt.outcome):
        fails.append(f"separable {kind} input reported ENTANGLED")
    if (da, db) in PPT_EXACT_DIMS and weyl.outcome == ENTANGLED and ppt.outcome != ENTANGLED:
        fails.append(f"{da}x{db}: Ky Fan ENTANGLED but PPT {ppt.outcome}")
    if kind == "ppt-3x3" and (weyl.outcome, ppt.outcome) != (ENTANGLED, INCONCLUSIVE):
        fails.append(f"ppt-3x3 verdicts {weyl.outcome}/{ppt.outcome}, expected ENTANGLED/INCONCLUSIVE")
    return fails


def check_bloch(m, out: dict) -> list[str]:
    d = m.shape[0]
    fails = []
    residual = float(np.max(np.abs(out["rebuilt"] - m)))
    if not residual <= RESIDUAL_TOL:
        fails.append(f"bloch reconstruction residual {residual:.3e} above {RESIDUAL_TOL:g}")
    fails += _close("purity_from_length", out["purity"], float(np.real(np.trace(m @ m))), PURITY_TOL)
    if not out["length"] <= np.sqrt(d - 1) + PURITY_TOL:
        fails.append(f"bloch length {out['length']!r} above sqrt(d-1) at d={d}")
    return fails


def check_teleport(m, d: int, kind: str, params: tuple, out: dict) -> list[str]:
    """FEF bounds and the two routes to the detection operator's mean value."""
    value = out["value"]
    fails = []
    if d == 2:
        fails += _close("two-qubit FEF", value, fef_two_qubit(m), MAGIC_TOL)
    if kind == "isotropic":
        p = params[0]
        fails += _close("isotropic FEF", value, p + (1.0 - p) / (d * d), MAGIC_TOL)
    lam = float(np.linalg.eigvalsh(m)[-1])
    if not value <= lam + LAMBDA_MAX_TOL:
        fails.append(f"FEF {value!r} above lambda_max {lam!r}")
    fails += _close("mean value", out["mean"], d * d * value, MEAN_VALUE_TOL)
    return fails


def _verdict_tokens(tokens) -> list[str]:
    bad = sorted(set(tokens) - VERDICT_TOKENS)
    return [f"unknown verdict tokens {bad}"] if bad else []


def check_cli(case: str, expected_rc: int, matrix, first_stdout, out: dict) -> list[str]:
    """Exit code, parseable output, verdict tokens, determinism, clean errors.

    ``matrix`` is the input state when the case has one; ``first_stdout`` is
    the stdout of the first run of the same command, or None.
    """
    rc, stdout, stderr = out["rc"], out["stdout"], out["stderr"]
    fails = []
    if rc != expected_rc:
        fails.append(f"{case}: exit code {rc}, expected {expected_rc}")
    if "Traceback" in stderr:
        fails.append(f"{case}: traceback on stderr")
    if first_stdout is not None and stdout != first_stdout:
        fails.append(f"{case}: repeated run is not byte-identical")
    if fails or expected_rc != 0:
        if expected_rc != 0 and not stderr.startswith("error:"):
            fails.append(f"{case}: malformed input gave no error message")
        return fails
    try:
        if case == "scan":
            rows = list(csv.reader(io.StringIO(stdout)))
            if rows[0] != ["param", "kyfan", "threshold", "verdict", "ppt_min_eig"]:
                fails.append(f"scan: unexpected header {rows[0]}")
            fails += _verdict_tokens(r[3] for r in rows[1:])
            for r in rows[1:]:
                p = float(r[0])
                fails += _close(f"scan kyfan at p={p}", float(r[1]), kyfan_oracle(isotropic_matrix(3, p), 3, 3), KYFAN_TOL)
            return fails
        report = json.loads(stdout)
    except (ValueError, IndexError) as exc:
        return [f"{case}: stdout does not parse: {exc}"]
    fails += _verdict_tokens(v["outcome"] for v in report.get("verdicts", []))
    if case.startswith("check-sep"):
        da, db = report["input"]["dims"]
        fails += _close(f"{case} kyfan_norm", report["decomposition"]["kyfan_norm"], kyfan_oracle(matrix, da, db), KYFAN_TOL)
    elif case == "check-tele":
        value = report["fef"]["value"]
        fails += _close("check-tele FEF", value, fef_two_qubit(matrix), MAGIC_TOL)
        fails += _close("check-tele statistic", report["verdicts"][0]["statistic"], 4 * value, MEAN_VALUE_TOL)
    elif case.startswith("decompose"):
        residual = report["reconstruction_residual"]
        if not residual <= RESIDUAL_TOL:
            fails.append(f"{case}: reconstruction residual {residual:.3e}")
        if "bloch" in report:
            purity = float(np.real(np.trace(matrix @ matrix)))
            fails += _close(f"{case} purity", report["bloch"]["purity"], purity, PURITY_TOL)
        else:
            da, db = report["input"]["dims"]
            oracle = kyfan_oracle(matrix, da, db)
            fails += _close(f"{case} kyfan_norm", report["bipartite"]["kyfan_norm"], oracle, KYFAN_TOL)
    return fails

"""Teleportation-resource detection via a Weyl-built observable.

For a unitary U on the d-dimensional factor, the detection operator is

    O_U = sum over all (n, m) of (U W_nm U^dag) (x) conj(W_nm)

where conj is the entrywise complex conjugate (the (0, 0) term is
I (x) I). The sum collapses to ``d^2 (U (x) I) |psi+><psi+| (U^dag (x) I)``,
a scaled rank-one projector, so O_U is Hermitian PSD and

    <O_U>_rho = d^2 <psi+| (U^dag (x) I) rho (U (x) I) |psi+>.

Maximizing the right-hand side over U gives ``d^2 F(rho)`` with F the
fully entangled fraction, and rho is useful for teleportation exactly
when some U achieves ``<O_U> > d``. The search below returns a certified
lower bound on F (it only ever evaluates true mean values), so a verdict
of USEFUL is sound while a miss stays INCONCLUSIVE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import ENTANGLED, INCONCLUSIVE, STATISTIC_MARGIN, Verdict
from .linalg import DensityMatrix, DimensionMismatchError, hermiticity_defect
from .states import haar_unitary
from .weyl import weyl_basis

UNITARITY_TOL = 1e-10
MEAN_IMAG_TOL = 1e-8
MAX_SWEEPS = 200
STALL_TOL = 1e-10

_FIVE_ANGLES = 2.0 * np.pi * np.arange(5) / 5.0


@dataclass(frozen=True)
class DetectionOperator:
    """The d^2 x d^2 observable O_U together with the unitary that built it."""

    d: int
    unitary: np.ndarray
    matrix: np.ndarray


@dataclass(frozen=True)
class FefEstimate:
    """Best fully-entangled-fraction lower bound found by the search."""

    value: float
    best_unitary: np.ndarray
    evaluations: int
    converged: bool


def unitarity_defect(u: np.ndarray) -> float:
    """Max-abs entry of ``U U^dag - I``."""
    u = np.asarray(u)
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


def detection_operator(u: np.ndarray, d: int | None = None) -> DetectionOperator:
    """Assemble O_U from the Weyl sum for a unitary U.

    The result is checked to be Hermitian; non-unitary or mis-sized inputs
    are rejected.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatchError(f"expected a square unitary, got shape {u.shape}")
    if d is None:
        d = u.shape[0]
    if u.shape[0] != d:
        raise DimensionMismatchError(f"unitary is {u.shape[0]}x{u.shape[0]}, expected {d}x{d}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    defect = unitarity_defect(u)
    if defect > UNITARITY_TOL:
        raise ValueError(f"input is not unitary: max |UU^dag - I| = {defect:.3e}")
    ops = weyl_basis(d).ops
    conjugated = np.einsum("ab,kbc,dc->kad", u, ops, u.conj())
    matrix = np.einsum("kab,kcd->acbd", conjugated, ops.conj()).reshape(d * d, d * d)
    herm = hermiticity_defect(matrix)
    if herm > UNITARITY_TOL:
        raise ArithmeticError(f"assembled operator lost Hermiticity: defect {herm:.3e}")
    u = u.copy()
    u.flags.writeable = False
    matrix.flags.writeable = False
    return DetectionOperator(d, u, matrix)


def mean_value(rho: DensityMatrix, op: DetectionOperator) -> float:
    """``Tr(rho O_U)``, checked to be real."""
    if rho.dims != (op.d, op.d):
        raise DimensionMismatchError(
            f"state dims {rho.dims} do not match operator dimension {op.d}x{op.d}"
        )
    val = complex(np.trace(rho.matrix @ op.matrix))
    if abs(val.imag) > MEAN_IMAG_TOL:
        raise ArithmeticError(
            f"mean value has imaginary part {val.imag:.3e}; operator is broken"
        )
    return float(val.real)


def optimal_fidelity(f: float, d: int) -> float:
    """Optimal teleportation fidelity from the fully entangled fraction."""
    if f < -1e-12 or f > 1.0 + 1e-9:
        raise ValueError(f"fully entangled fraction {f} outside [0, 1]")
    f = min(max(f, 0.0), 1.0)
    return (d * f + 1.0) / (d + 1.0)


class _Objective:
    """F-candidate value ``<psi_U| rho |psi_U>`` as a function of U.

    With the row-major vec convention, ``(U (x) I)|psi+>`` has components
    ``U[a, b] / sqrt(d)``, so the objective is the quadratic form
    ``vec(U)^dag rho vec(U) / d``. Evaluations are counted for reporting.
    """

    def __init__(self, rho: np.ndarray, d: int):
        self.rho = rho
        self.d = d
        self.evaluations = 0

    def __call__(self, u: np.ndarray) -> float:
        self.evaluations += 1
        v = u.reshape(-1)
        return float(np.real(v.conj() @ (self.rho @ v))) / self.d


def _phase_step(obj: _Objective, u: np.ndarray, col: int, best: float):
    """Optimal phase on one column, solved in closed form.

    The objective as a function of the phase angle is a pure sinusoid
    ``const + |g| cos(phi + arg g)``; the maximizer is ``phi = -arg g``.
    """
    d = obj.d
    v = u.reshape(-1)
    w = np.zeros_like(v)
    w[col::d] = v[col::d]
    t = obj.rho @ w
    g = (v - w).conj() @ t
    obj.evaluations += 1
    if abs(g) < 1e-18:
        return best, u
    u2 = u.copy()
    u2[:, col] *= np.exp(-1j * np.angle(g))
    val = obj(u2)
    if val > best:
        return val, u2
    return best, u


def _rotated(u: np.ndarray, p: int, q: int, theta: float, imag: bool) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    g = np.array([[c, 1j * s], [1j * s, c]]) if imag else np.array([[c, -s], [s, c]])
    u2 = u.copy()
    u2[:, [p, q]] = u[:, [p, q]] @ g
    return u2


def _givens_step(obj: _Objective, u: np.ndarray, p: int, q: int, imag: bool, best: float):
    """Optimal plane-rotation angle between two columns.

    ``imag`` selects between the real rotation and its phased companion;
    together with the column phases the two families span the full
    tangent space of U(d), so a point where every one-parameter move
    stalls is a true critical point. The objective along the angle is a
    trigonometric polynomial with frequencies up to 2, pinned exactly by
    five equispaced samples; its stationary angles are roots of a quartic
    in ``exp(1j*theta)``.
    """
    vals = np.empty(5)
    vals[0] = best
    for j in range(1, 5):
        vals[j] = obj(_rotated(u, p, q, _FIVE_ANGLES[j], imag))
    a = np.fft.fft(vals) / 5.0  # a[k] multiplies exp(1j*k*theta), k = 0,1,2,-2,-1
    poly = np.array([2.0 * a[2], a[1], 0.0, -a[4], -2.0 * a[3]])
    scale = float(np.max(np.abs(poly)))
    if scale < 1e-15:
        return best, u
    best_u = u
    for w in np.roots(poly):
        if not 0.5 < abs(w) < 2.0:
            continue
        theta = float(np.angle(w))
        u2 = _rotated(u, p, q, theta, imag)
        val = obj(u2)
        if val > best:
            best, best_u = val, u2
    return best, best_u


def _refine(obj: _Objective, u: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Cyclic coordinate ascent over column phases and plane rotations."""
    d = obj.d
    best = obj(u)
    for _ in range(MAX_SWEEPS):
        sweep_start = best
        for k in range(d):
            best, u = _phase_step(obj, u, k, best)
        for p in range(d - 1):
            for q in range(p + 1, d):
                best, u = _givens_step(obj, u, p, q, False, best)
                best, u = _givens_step(obj, u, p, q, True, best)
                best, u = _phase_step(obj, u, q, best)
        if best - sweep_start < STALL_TOL:
            return u, best, True
    return u, best, False


def fef_search(rho: DensityMatrix, budget: int = 64, *, seed) -> FefEstimate:
    """Multi-start lower-bound search for the fully entangled fraction.

    ``budget`` counts refinement starts. The deterministic starts come
    first (identity, then every Weyl unitary); remaining slots are Haar
    samples, each drawn from a private stream derived from
    ``(seed, start index)`` so results are reproducible and nondecreasing
    in the budget. Every start is refined by cyclic single-parameter
    ascent until a full sweep improves by less than ``STALL_TOL`` or the
    sweep cap is hit.
    """
    da, db = _require_square(rho)
    d = da
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    obj = _Objective(rho.matrix, d)
    basis = weyl_basis(d)
    best_val = -1.0
    best_u = np.eye(d, dtype=complex)
    all_stalled = True
    for idx in range(budget):
        if idx < d * d:
            # ops[0] is the identity, so it always leads the start set
            start = basis.ops[idx].astype(complex)
        else:
            start = haar_unitary(d, (seed, idx))
        u, val, stalled = _refine(obj, start.copy())
        all_stalled = all_stalled and stalled
        if val > best_val:
            best_val, best_u = val, u
    best_u = best_u.copy()
    best_u.flags.writeable = False
    return FefEstimate(best_val, best_u, obj.evaluations, all_stalled)


def verdict_from_estimate(est: FefEstimate, d: int) -> Verdict:
    """Map a search result onto the usefulness test ``<O_U> > d``."""
    statistic = d * d * est.value
    outcome = ENTANGLED if statistic > d + STATISTIC_MARGIN else INCONCLUSIVE
    return Verdict("teleportation", outcome, statistic, float(d))


def teleportation_verdict(rho: DensityMatrix, budget: int = 64, *, seed) -> Verdict:
    """Search for a witnessing unitary and report USEFUL or INCONCLUSIVE.

    The search yields only a lower bound on the fully entangled fraction,
    so a negative outcome never claims the state is useless.
    """
    d, _ = _require_square(rho)
    return verdict_from_estimate(fef_search(rho, budget, seed=seed), d)


def _require_square(rho: DensityMatrix) -> tuple[int, int]:
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise DimensionMismatchError(
            f"expected a d x d bipartition, got dims {rho.dims}"
        )
    return rho.dims[0], rho.dims[1]

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

With the row-major vec convention ``(U (x) I)|psi+>`` has components
``U[a, b] / sqrt(d)``, so O_U is ``d vec(U) vec(U)^dag`` and the search
objective is the quadratic form ``f(U) = vec(U)^dag rho vec(U) / d``.

The search is the generalized power method of Journee, Nesterov,
Richtarik and Sepulchre (JMLR 11, 2010) on the unitary group: with
``G = reshape(rho vec U)``, step to the polar factor ``W V^dag`` of the
SVD ``G = W S V^dag``. No step lowers f. Because rho is PSD, f is convex,
so it lies above its tangent plane at U:

    f(U') >= f(U) + (2/d) Re Tr(G^dag (U' - U)).

Over unitary U', ``Re Tr(G^dag U')`` is largest at the polar factor, where
it equals the trace norm ``sum S >= Re Tr(G^dag U)``; so
``f(polar(G)) >= f(U)``. The step actually uses ``G + SHIFT U``, the same
step for ``rho + SHIFT I``, whose objective is ``f + SHIFT`` on unitaries,
so the bound holds unchanged. The shift pins the polar factor where G is
singular (for a product pure state G has rank one): a point with
``U^dag G`` PSD is then a strict fixed point, where without it the SVD
completes the null space from round-off and U never settles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import INCONCLUSIVE, STATISTIC_MARGIN, USEFUL, Verdict
from .linalg import DensityMatrix, DimensionMismatchError, hermiticity_defect
from .states import haar_unitary
from .weyl import weyl_basis

UNITARITY_TOL = 1e-10
MEAN_IMAG_TOL = 1e-8
MAX_ITERATIONS = 1000
FIXED_POINT_TOL = 1e-8
SHIFT = 1e-6


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
    """Build O_U for a unitary U as the collapsed Weyl sum ``d vec(U) vec(U)^dag``.

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
    v = u.reshape(-1)
    matrix = d * np.outer(v, v.conj())
    herm = hermiticity_defect(matrix)
    if herm > UNITARITY_TOL:
        raise ArithmeticError(f"assembled operator lost Hermiticity: defect {herm:.3e}")
    u = u.copy()
    u.flags.writeable = False
    matrix.flags.writeable = False
    return DetectionOperator(d, u, matrix)


def mean_value(rho: DensityMatrix, op: DetectionOperator) -> float:
    """``Tr(rho O_U)`` as the O(D^2) sum ``sum_ij rho[i, j] O[j, i]``, checked to be real.

    It reads the built operator, so it stays a route independent of the search.
    """
    if rho.dims != (op.d, op.d):
        raise DimensionMismatchError(
            f"state dims {rho.dims} do not match operator dimension {op.d}x{op.d}"
        )
    val = complex(np.sum(rho.matrix * op.matrix.T))
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


def _polar_ascent(rho: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Iterate ``U <- polar(reshape(rho vec U) + SHIFT U)`` from ``u`` to a fixed point.

    Returns the last unitary, the number of steps taken and whether a step
    left every entry of U within ``FIXED_POINT_TOL`` before the cap.
    """
    d = u.shape[0]
    for step in range(1, MAX_ITERATIONS + 1):
        w, _, vh = np.linalg.svd((rho @ u.reshape(-1)).reshape(d, d) + SHIFT * u)
        nxt = w @ vh
        if np.max(np.abs(nxt - u)) < FIXED_POINT_TOL:
            return nxt, step, True
        u = nxt
    return u, MAX_ITERATIONS, False


def fef_search(rho: DensityMatrix, budget: int = 64, *, seed) -> FefEstimate:
    """Multi-start lower-bound search for the fully entangled fraction.

    ``budget`` counts refinement starts. The deterministic starts come
    first (identity, then every Weyl unitary); remaining slots are Haar
    samples, each drawn from a private stream derived from
    ``(seed, start index)`` so results are reproducible and nondecreasing
    in the budget. Every start is refined by polar iteration (see the
    module docstring) until a step moves no entry of U by
    ``FIXED_POINT_TOL`` or more, or ``MAX_ITERATIONS`` steps are taken.
    ``evaluations`` is the total number of steps over all starts, and
    ``converged`` says every start reached a fixed point.
    """
    da, db = _require_square(rho)
    d = da
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    basis = weyl_basis(d)
    best_val = -1.0
    best_u = np.eye(d, dtype=complex)
    steps = 0
    all_fixed = True
    for idx in range(budget):
        if idx < d * d:
            # ops[0] is the identity, so it always leads the start set
            start = basis.ops[idx].astype(complex)
        else:
            start = haar_unitary(d, (seed, idx))
        u, taken, fixed = _polar_ascent(rho.matrix, start)
        steps += taken
        all_fixed = all_fixed and fixed
        v = u.reshape(-1)
        val = float(np.real(v.conj() @ (rho.matrix @ v))) / d
        if val > best_val:
            best_val, best_u = val, u
    best_u = best_u.copy()
    best_u.flags.writeable = False
    return FefEstimate(best_val, best_u, steps, all_fixed)


def verdict_from_estimate(est: FefEstimate, d: int) -> Verdict:
    """Map a search result onto the usefulness test ``<O_U> > d``: USEFUL or INCONCLUSIVE."""
    statistic = d * d * est.value
    outcome = USEFUL if statistic > d + STATISTIC_MARGIN else INCONCLUSIVE
    return Verdict("teleportation", outcome, statistic, float(d))


def teleportation_verdict(rho: DensityMatrix, budget: int = 64, *, seed) -> Verdict:
    """Search for a witnessing unitary and report USEFUL or INCONCLUSIVE.

    The search yields only a lower bound on the fully entangled fraction,
    so a negative outcome never claims the state is useless.
    """
    d, _ = _require_square(rho)
    return verdict_from_estimate(fef_search(rho, budget, seed=seed), d)


def _require_square(rho: DensityMatrix) -> tuple[int, int]:
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1] or rho.dims[0] < 2:
        raise DimensionMismatchError(
            f"expected a d x d bipartition with d >= 2, got dims {rho.dims}"
        )
    return rho.dims[0], rho.dims[1]

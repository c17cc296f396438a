"""Bipartite Weyl decomposition, correlation matrix, and separability tests.

A state on ``dA (x) dB`` decomposes as

    rho = (1/(dA*dB)) * (I(x)I + sum a_s W_s(x)I + sum b_t I(x)W_t
                          + sum_{s,t} L[s,t] W_s(x)W_t)

with all sums over non-identity Weyl operators of the respective factor
and coefficients obtained from traces against the daggered basis. The
matrix ``L`` is the correlation matrix. Its Ky Fan (trace) norm cannot
exceed ``sqrt((dA-1)*(dB-1))`` on separable states, which yields a
one-sided entanglement test: a larger norm certifies entanglement, a
smaller one proves nothing.

The table of all ``dA^2 x dB^2`` coefficients is computed without forming
any operator. ``W(n, m)`` has the single nonzero entry ``exp(2j*pi*k*n/d)``
in row ``k``, at column ``(k+m) mod d``, so the coefficient of
``W(n1, m1) (x) W(n2, m2)`` is the two-dimensional discrete Fourier
transform, over ``(a, b)``, of the cyclic diagonal
``rho[(a, b), ((a+m1) mod dA, (b+m2) mod dB)]``. One gather and two matrix
products with the dA- and dB-point DFT matrices give the whole table in
O(D^2 (dA + dB)) operations, ``D = dA*dB``, against O(D^4) for traces
against the stacked basis; the conjugate transforms plus a scatter through
the same index rebuild the state (:mod:`weylsep.weyl`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bloch import BlochVector, _negation_table, reconstruct
from .linalg import (
    DensityMatrix,
    _require_bipartite,
    min_eigenvalue,
    partial_transpose,
    purity,
    singular_values,
    validate_density,
)
from .weyl import weyl_assemble, weyl_coefficients

ENTANGLED = "ENTANGLED"
SEPARABLE = "SEPARABLE"
INCONCLUSIVE = "INCONCLUSIVE"
USEFUL = "USEFUL"

#: Margin added to thresholds before claiming ENTANGLED, so that roundoff
#: at an exact boundary never produces a false positive.
STATISTIC_MARGIN = 1e-9

RANK_ONE_RATIO_TOL = 1e-8
FACTOR_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class Verdict:
    """Outcome token of one criterion, with the witnessing scalar and its threshold.

    The Ky Fan and PPT criteria answer ENTANGLED or INCONCLUSIVE, the
    teleportation criterion USEFUL or INCONCLUSIVE. SEPARABLE is reserved:
    no criterion produces it yet.
    """

    criterion: str
    outcome: str
    statistic: float
    threshold: float


@dataclass(frozen=True)
class BipartiteDecomposition:
    """Local coefficient vectors plus the correlation matrix.

    ``alpha`` has length dA^2 - 1, ``beta`` length dB^2 - 1, and
    ``correlation`` shape (dA^2 - 1, dB^2 - 1), all in the lexicographic
    Weyl ordering with the identity slot removed.
    """

    da: int
    db: int
    alpha: np.ndarray
    beta: np.ndarray
    correlation: np.ndarray

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of ``correlation``, nonincreasing; one SVD on first read."""
        return singular_values(self.correlation)


def decompose_bipartite(rho: DensityMatrix) -> BipartiteDecomposition:
    """All local and joint Weyl coefficients of a bipartite state."""
    da, db = _require_bipartite(rho)
    table = weyl_coefficients(rho.matrix, da, db)
    return BipartiteDecomposition(
        da=da,
        db=db,
        alpha=table[1:, 0].copy(),
        beta=table[0, 1:].copy(),
        correlation=table[1:, 1:].copy(),
    )


def reconstruct_bipartite(dec: BipartiteDecomposition) -> np.ndarray:
    """Assemble the state back from its coefficients."""
    da, db = dec.da, dec.db
    table = np.empty((da * da, db * db), dtype=complex)
    table[0, 0] = 1.0
    table[1:, 0] = dec.alpha
    table[0, 1:] = dec.beta
    table[1:, 1:] = dec.correlation
    return weyl_assemble(table, da, db)


def reduced_from_decomposition(dec: BipartiteDecomposition, sys: int) -> DensityMatrix:
    """Reduced state of one factor, assembled from the local coefficients.

    Equals the partial trace of the source state.
    """
    if sys not in (0, 1):
        raise ValueError(f"sys must be 0 or 1, got {sys}")
    d = dec.da if sys == 0 else dec.db
    coeffs = dec.alpha if sys == 0 else dec.beta
    return validate_density(reconstruct(BlochVector(d, coeffs)), [d])


def symmetry_defects(dec: BipartiteDecomposition) -> tuple[float, float, float]:
    """Max violations of the Hermiticity-induced coefficient symmetry.

    Returns the defects for alpha, beta, and the correlation matrix; each
    compares ``conj(x[idx])`` against the phased coefficient at the negated
    index pair.
    """
    pa, ka = _negation_table(dec.da)
    pb, kb = _negation_table(dec.db)
    defect_a = float(np.max(np.abs(dec.alpha.conj() - pa * dec.alpha[ka])))
    defect_b = float(np.max(np.abs(dec.beta.conj() - pb * dec.beta[kb])))
    phase_m = np.outer(pa, pb)
    partner_m = dec.correlation[np.ix_(ka, kb)]
    defect_m = float(np.max(np.abs(dec.correlation.conj() - phase_m * partner_m)))
    return defect_a, defect_b, defect_m


def kyfan_norm(m: np.ndarray) -> float:
    """Sum of the singular values (trace / nuclear norm)."""
    return float(np.sum(singular_values(m)))


def correlation_verdict(dec: BipartiteDecomposition) -> Verdict:
    """Correlation-matrix trace-norm test on a decomposition already built.

    ENTANGLED when the Ky Fan norm of the correlation matrix exceeds
    ``sqrt((dA-1)*(dB-1))`` beyond the roundoff margin; INCONCLUSIVE
    otherwise. The bound is only necessary for separability, so this
    criterion never answers SEPARABLE.
    """
    statistic = float(np.sum(dec.singular_values))
    threshold = float(np.sqrt((dec.da - 1) * (dec.db - 1)))
    outcome = ENTANGLED if statistic > threshold + STATISTIC_MARGIN else INCONCLUSIVE
    return Verdict("weyl-correlation", outcome, statistic, threshold)


def weyl_separability_criterion(rho: DensityMatrix) -> Verdict:
    """:func:`correlation_verdict` of the state's decomposition."""
    return correlation_verdict(decompose_bipartite(rho))


def ppt_criterion(rho: DensityMatrix) -> Verdict:
    """Positive-partial-transpose test, used as a cross-validation oracle.

    A negative eigenvalue of the partial transpose certifies entanglement;
    a positive partial transpose is reported INCONCLUSIVE (it proves
    separability only at 2x2 and 2x3, and verdicts stay one-sided here).
    """
    statistic = min_eigenvalue(partial_transpose(rho, 1))
    outcome = ENTANGLED if statistic < -STATISTIC_MARGIN else INCONCLUSIVE
    return Verdict("ppt", outcome, statistic, 0.0)


def product_test(
    rho: DensityMatrix, purity_tol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray] | None:
    """Decide whether a pure bipartite state is a product state.

    A pure state is a product exactly when its correlation matrix is the
    rank-one outer product of the local coefficient vectors. Returns the
    pair ``(alpha, beta)`` on success (the factors' Bloch vectors, from
    which the factor states can be rebuilt), or None when the state is not
    a product. Mixed inputs, ``Tr rho^2 < 1 - purity_tol``, are rejected
    because the rank-one equivalence only holds for pure states.
    """
    _require_bipartite(rho)
    pur = purity(rho)
    if pur < 1.0 - purity_tol:
        raise ValueError(
            f"product test requires a pure state: Tr rho^2 = {pur:.12g} "
            f"< 1 - {purity_tol:.0e}"
        )
    dec = decompose_bipartite(rho)
    s = dec.singular_values
    outer = np.outer(dec.alpha, dec.beta)
    residual = float(np.linalg.norm(dec.correlation - outer))
    if s[0] < 1e-15:
        return None
    if s[1] / s[0] <= RANK_ONE_RATIO_TOL and residual <= FACTOR_RESIDUAL_TOL:
        return dec.alpha.copy(), dec.beta.copy()
    return None

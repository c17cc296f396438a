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
the same index rebuild the state (:mod:`weylsep.weyl`). The decomposition
is that table itself: its identity column holds ``a``, its identity row
``b``, and the rest is ``L``.

L is complex, but in the Hermitian Weyl basis, which pairs each ``W_s``
with its adjoint, the table of a Hermitian state is real: ``P_A T P_B^T``
with P unitary (:func:`weylsep.weyl.hermitian_coefficients`). That is the
paper's coefficient symmetry, and the imaginary part of the transformed
table measures how far a matrix breaks it. Above
``D = EAGER_MAX_DIM`` the Ky Fan statistic is therefore read from a real
SVD of ``Re(P_A T P_B^T)`` without its identity row and column. Dropping
the imaginary part, the O(eps) defect of the transform, moves each
singular value by at most its spectral norm (Weyl's perturbation
inequality for singular values).

The PPT cross-check reads the smallest eigenvalue of the partial
transpose, :func:`ppt_statistic`, for one state or a stack of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    EAGER_MAX_DIM,
    DensityMatrix,
    _require_bipartite,
    purity,
    singular_values,
    transpose_factor,
    validate_density,
)
from .weyl import hermitian_coefficients, weyl_assemble, weyl_coefficients

ENTANGLED = "ENTANGLED"
SEPARABLE = "SEPARABLE"
INCONCLUSIVE = "INCONCLUSIVE"
USEFUL = "USEFUL"

#: Margin added to thresholds before claiming ENTANGLED, so that roundoff
#: at an exact boundary never produces a false positive.
STATISTIC_MARGIN = 1e-9

PURITY_TOL = 1e-8
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
    """The Weyl coefficient table ``T[s, t] = Tr[rho (W_s^dag (x) W_t^dag)]``.

    ``table`` has shape (dA^2, dB^2), both axes in the lexicographic Weyl
    ordering with the identity first, and ``table[0, 0] = 1`` exactly.
    :func:`decompose_bipartite` marks it read-only, so its views ``alpha``
    (length dA^2 - 1), ``beta`` (length dB^2 - 1) and ``correlation``
    (shape (dA^2 - 1, dB^2 - 1)) are read-only too, and the cached
    singular values cannot go stale.
    """

    da: int
    db: int
    table: np.ndarray

    @property
    def alpha(self) -> np.ndarray:
        """Local coefficients of the first factor: the identity column."""
        return self.table[1:, 0]

    @property
    def beta(self) -> np.ndarray:
        """Local coefficients of the second factor: the identity row."""
        return self.table[0, 1:]

    @property
    def correlation(self) -> np.ndarray:
        """The correlation matrix L: the table without its identity row and column."""
        return self.table[1:, 1:]

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of ``correlation``, nonincreasing; one SVD on first read.

        See :func:`correlation_singular_values`: a complex SVD up to
        ``D = EAGER_MAX_DIM``, a real one in the Hermitian Weyl basis above.
        """
        return correlation_singular_values(self.table, self.da, self.db)


def correlation_singular_values(table: np.ndarray, da: int, db: int) -> np.ndarray:
    """Singular values of the correlation block of a coefficient table, or of each table of a stack.

    Up to ``D = da*db = EAGER_MAX_DIM`` they are those of the complex block
    ``T[1:, 1:]``. Above, they are those of the real block
    ``Re(P_A T P_B^T)[1:, 1:]`` (:func:`weylsep.weyl.hermitian_coefficients`),
    which has the same singular values when the state is Hermitian. The
    transform and a real SVD break even with the complex SVD near the gate
    and cost less from about D = 35; below the gate they cost more.
    """
    if da * db <= EAGER_MAX_DIM:
        return singular_values(table[..., 1:, 1:])
    return singular_values(hermitian_coefficients(table, da, db).real[..., 1:, 1:])


def decompose_bipartite(rho: DensityMatrix) -> BipartiteDecomposition:
    """All local and joint Weyl coefficients of a bipartite state."""
    da, db = _require_bipartite(rho)
    table = weyl_coefficients(rho.matrix, da, db)
    table[0, 0] = 1.0
    table.flags.writeable = False
    return BipartiteDecomposition(da, db, table)


def reconstruct_bipartite(dec: BipartiteDecomposition) -> np.ndarray:
    """Assemble the state back from its coefficients."""
    return weyl_assemble(dec.table, dec.da, dec.db)


def reduced_from_decomposition(dec: BipartiteDecomposition, sys: int) -> DensityMatrix:
    """Reduced state of one factor, assembled from the local coefficients.

    Equals the partial trace of the source state.
    """
    if sys not in (0, 1):
        raise ValueError(f"sys must be 0 or 1, got {sys}")
    d = dec.da if sys == 0 else dec.db
    local = dec.table[:, 0] if sys == 0 else dec.table[0]
    return validate_density(weyl_assemble(local, d), [d])


def kyfan_norm(m: np.ndarray) -> float:
    """Sum of the singular values (trace / nuclear norm)."""
    return float(np.sum(singular_values(m)))


def kyfan_bound(da: int, db: int) -> float:
    """The separable bound ``sqrt((dA-1)*(dB-1))`` on the Ky Fan norm of the correlation matrix."""
    return float(np.sqrt((da - 1) * (db - 1)))


def correlation_outcome(statistic: float, threshold: float) -> str:
    """ENTANGLED when the Ky Fan statistic exceeds the threshold beyond the roundoff margin."""
    return ENTANGLED if statistic > threshold + STATISTIC_MARGIN else INCONCLUSIVE


def correlation_verdict(dec: BipartiteDecomposition) -> Verdict:
    """Correlation-matrix trace-norm test on a decomposition already built.

    ENTANGLED when the Ky Fan norm of the correlation matrix exceeds
    :func:`kyfan_bound` beyond the roundoff margin; INCONCLUSIVE
    otherwise. The bound is only necessary for separability, so this
    criterion never answers SEPARABLE.
    """
    statistic = float(np.sum(dec.singular_values))
    threshold = kyfan_bound(dec.da, dec.db)
    outcome = correlation_outcome(statistic, threshold)
    return Verdict("weyl-correlation", outcome, statistic, threshold)


def weyl_separability_criterion(rho: DensityMatrix) -> Verdict:
    """:func:`correlation_verdict` of the state's decomposition."""
    return correlation_verdict(decompose_bipartite(rho))


def ppt_statistic(h: np.ndarray, da: int, db: int) -> np.ndarray:
    """Smallest eigenvalue of the partial transpose on the second factor, per matrix of a stack.

    h must be Hermitian bit for bit, as a validated state is
    (:func:`weylsep.linalg.validate_density`): the partial transpose permutes
    its entries, so it is too, and its spectrum is solved as it stands.
    """
    return np.linalg.eigvalsh(transpose_factor(h, da, db, 1))[..., 0]


def ppt_criterion(rho: DensityMatrix) -> Verdict:
    """Positive-partial-transpose test, used as a cross-validation oracle.

    A negative eigenvalue of the partial transpose certifies entanglement;
    a positive partial transpose is reported INCONCLUSIVE (it proves
    separability only at 2x2 and 2x3, and verdicts stay one-sided here).
    """
    da, db = _require_bipartite(rho)
    statistic = float(ppt_statistic(rho.matrix, da, db))
    outcome = ENTANGLED if statistic < -STATISTIC_MARGIN else INCONCLUSIVE
    return Verdict("ppt", outcome, statistic, 0.0)


def product_test(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray] | None:
    """Decide whether a pure bipartite state is a product state.

    A pure state is a product exactly when its correlation matrix is the
    rank-one outer product of the local coefficient vectors. Returns the
    pair ``(alpha, beta)`` on success (the factors' Bloch vectors, as
    read-only views of the decomposition, from which the factor states can
    be rebuilt), or None when the state is not a product. Mixed inputs,
    ``Tr rho^2 < 1 - PURITY_TOL``, are rejected because the rank-one
    equivalence only holds for pure states.
    """
    _require_bipartite(rho)
    pur = purity(rho)
    if pur < 1.0 - PURITY_TOL:
        raise ValueError(
            f"product test requires a pure state: Tr rho^2 = {pur:.12g} "
            f"< 1 - {PURITY_TOL:.0e}"
        )
    dec = decompose_bipartite(rho)
    s = dec.singular_values
    outer = np.outer(dec.alpha, dec.beta)
    residual = float(np.linalg.norm(dec.correlation - outer))
    if s[0] < 1e-15:
        return None
    if s[1] / s[0] <= RANK_ONE_RATIO_TOL and residual <= FACTOR_RESIDUAL_TOL:
        return dec.alpha, dec.beta
    return None

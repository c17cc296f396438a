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

The named Weyl-diagonal families skip the transform and the SVD
(:func:`weyl_diagonal_decomposition`): their table is nonzero only at the
pairs ``(s, s-bar)``, with ``W_{s-bar} = conj(W_s)``, so their correlation
matrix is monomial and its singular values are the moduli of its entries.

The PPT cross-check reads the smallest eigenvalue of the partial
transpose. The named families that skip validation carry it in closed
form (:mod:`weylsep.states`); for every other state it is solved
(:func:`ppt_statistic`) on first use and kept on the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import (
    EAGER_MAX_DIM,
    DensityMatrix,
    DimensionMismatchError,
    _kept,
    _require_bipartite,
    singular_values,
    transpose_factor,
)
from .weyl import hermitian_coefficients, weyl_assemble, weyl_coefficients

ENTANGLED = "ENTANGLED"
SEPARABLE = "SEPARABLE"
INCONCLUSIVE = "INCONCLUSIVE"
USEFUL = "USEFUL"

#: Margin added to thresholds before claiming ENTANGLED, so that roundoff
#: at an exact boundary never produces a false positive.
STATISTIC_MARGIN = 1e-9

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


@dataclass(frozen=True, eq=False)
class BipartiteDecomposition:
    """The Weyl coefficient table ``T[s, t] = Tr[rho (W_s^dag (x) W_t^dag)]``.

    ``table`` has shape (dA^2, dB^2), both axes in the lexicographic Weyl
    ordering with the identity first, and ``table[0, 0] = 1`` exactly.
    :func:`decompose_bipartite` marks it read-only, so its views ``alpha``
    (length dA^2 - 1), ``beta`` (length dB^2 - 1) and ``correlation``
    (shape (dA^2 - 1, dB^2 - 1)) are read-only too, and the kept
    singular values (:func:`~weylsep.linalg._kept`) cannot go stale. A
    decomposition built in closed form (:func:`weyl_diagonal_decomposition`)
    holds its singular values from the start.
    """

    da: int
    db: int
    table: np.ndarray
    _singular_values: np.ndarray | None = field(default=None, repr=False)

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

    @property
    def singular_values(self) -> np.ndarray:
        """Singular values of ``correlation``, nonincreasing and read-only; one SVD on first read.

        See :func:`correlation_singular_values`: a complex SVD up to
        ``D = EAGER_MAX_DIM``, a real one in the Hermitian Weyl basis above.
        """
        return _kept(
            self, "_singular_values", lambda: correlation_singular_values(self.table, self.da, self.db)
        )


def correlation_singular_values(table: np.ndarray, da: int, db: int) -> np.ndarray:
    """Singular values of the correlation block of a coefficient table.

    Up to ``D = da*db = EAGER_MAX_DIM`` they are those of the complex block
    ``T[1:, 1:]``. Above, they are those of the real block
    ``Re(P_A T P_B^T)[1:, 1:]`` (:func:`weylsep.weyl.hermitian_coefficients`),
    which has the same singular values when the state is Hermitian. The
    transform and a real SVD break even with the complex SVD near the gate
    and cost less from about D = 35; below the gate they cost more.
    """
    if da * db <= EAGER_MAX_DIM:
        return singular_values(table[1:, 1:])
    return singular_values(hermitian_coefficients(table, da, db).real[1:, 1:])


def weyl_diagonal_singular_values(coefficients: np.ndarray) -> np.ndarray:
    """The correlation singular values of :func:`weyl_diagonal_decomposition`, per row of a stack.

    They are ``|c_s|`` for ``s != 0``, nonincreasing: shape ``(..., d^2 - 1)``
    for coefficients of shape ``(..., d^2)``. Each row of a stack is the
    single row's result bit for bit.
    """
    values = np.abs(coefficients[..., 1:])
    values.sort(axis=-1)
    # contiguous, so that a row of a stack sums in the order a single row does
    return values[..., ::-1].copy()


@lru_cache(maxsize=None)
def _conjugate_pairs(d: int) -> np.ndarray:
    """Flat positions of the pairs ``(s, s-bar)`` in a ``d^2 x d^2`` table, read-only.

    Conjugation negates the phases of ``W(n, m)`` and keeps its entries'
    places, so ``W_{s-bar} = conj(W(n, m)) = W(-n mod d, m)``.
    """
    s = np.arange(d * d)
    n, m = np.divmod(s, d)
    positions = s * (d * d) + (-n % d) * d + m
    positions.flags.writeable = False
    return positions


def weyl_diagonal_decomposition(coefficients: np.ndarray) -> BipartiteDecomposition:
    """The decomposition of a d x d Weyl-diagonal state from its d^2 coefficients, in closed form.

    A Weyl-diagonal state is ``sum_k p_k |Omega_k><Omega_k|`` with
    ``Omega_k = (W_k (x) I)|psi+>``: the isotropic states, and at d = 2 the
    Bell-diagonal ones. Since ``<psi+|A (x) B|psi+> = Tr[A B^T] / d`` and
    ``(W_t^dag)^T = conj(W_t)``, the table of ``|psi+><psi+|`` is
    ``Tr[W_s^dag conj(W_t)] / d``: 1 where ``conj(W_t) = W_s``, that is at
    ``t = s-bar``, and 0 elsewhere.
    Conjugating by ``W_k (x) I`` multiplies entry ``(s, s-bar)`` by the
    commutation phase of ``W_k`` and ``W_s``, so the state's table holds
    ``c_s = sum_k p_k chi_k(s)`` at ``(s, s-bar)`` and 0 elsewhere, with
    ``c_0 = Tr rho = 1``. The correlation block is then monomial (one
    nonzero entry per row and column), so ``L L^dag`` is diagonal and its
    singular values are the ``|c_s|``, ``s != 0``
    (:func:`weyl_diagonal_singular_values`). No transform and no SVD are run.
    """
    d = math.isqrt(len(coefficients))
    table = np.zeros((d * d, d * d), dtype=complex)
    table.flat[_conjugate_pairs(d)] = coefficients
    table.flags.writeable = False
    values = weyl_diagonal_singular_values(coefficients)
    values.flags.writeable = False
    return BipartiteDecomposition(d, d, table, values)


def decompose_bipartite(rho: DensityMatrix) -> BipartiteDecomposition:
    """All local and joint Weyl coefficients of a bipartite state.

    The first call on a state computes the table and keeps the
    decomposition on the state; later calls return that same object, so
    ``decompose_bipartite(rho) is decompose_bipartite(rho)`` and its
    singular values are solved once per state (see
    :class:`~weylsep.linalg.DensityMatrix`). A state that a named
    Weyl-diagonal family built in closed form (:mod:`weylsep.states`) gets
    its table and singular values from :func:`weyl_diagonal_decomposition`
    instead, with no transform and no SVD.
    """
    return _kept(rho, "_decomposition", lambda: _decompose(rho))


def _decompose(rho: DensityMatrix) -> BipartiteDecomposition:
    """A bipartite state's decomposition: in closed form when it is Weyl-diagonal, else by transform."""
    da, db = _require_bipartite(rho)
    if rho._weyl_diagonal is not None:
        return weyl_diagonal_decomposition(rho._weyl_diagonal)
    table = weyl_coefficients(rho.matrix, da, db)
    table[0, 0] = 1.0
    table.flags.writeable = False
    return BipartiteDecomposition(da, db, table)


def reconstruct_bipartite(dec: BipartiteDecomposition) -> np.ndarray:
    """Assemble the state back from its coefficients."""
    return weyl_assemble(dec.table, dec.da, dec.db)


def kyfan_norm(m: np.ndarray) -> float:
    """Sum of the singular values (trace / nuclear norm) of one matrix.

    Anything but a 2-D array raises :class:`DimensionMismatchError`: a stack
    would otherwise give the sum of its matrices' norms.
    """
    m = np.asarray(m)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {m.shape}")
    return float(np.sum(singular_values(m)))


def kyfan_bound(da: int, db: int) -> float:
    """The separable bound ``sqrt((dA-1)*(dB-1))`` on the Ky Fan norm of the correlation matrix."""
    return math.sqrt((da - 1) * (db - 1))


def correlation_outcome(statistic: float, threshold: float) -> str:
    """ENTANGLED when the Ky Fan statistic exceeds the threshold beyond the roundoff margin."""
    return ENTANGLED if statistic > threshold + STATISTIC_MARGIN else INCONCLUSIVE


def weyl_separability_criterion(rho: DensityMatrix) -> Verdict:
    """Correlation-matrix trace-norm test, read from the decomposition the state keeps.

    ENTANGLED when the Ky Fan norm of the correlation matrix exceeds
    :func:`kyfan_bound` beyond the roundoff margin; INCONCLUSIVE
    otherwise. The bound is only necessary for separability, so this
    criterion never answers SEPARABLE. The norm is the sum of the
    decomposition's cached singular values, so a state that was already
    decomposed pays for no second transform and no second SVD.
    """
    dec = decompose_bipartite(rho)
    statistic = float(dec.singular_values.sum())
    threshold = kyfan_bound(dec.da, dec.db)
    outcome = correlation_outcome(statistic, threshold)
    return Verdict("weyl-correlation", outcome, statistic, threshold)


def ppt_statistic(h: np.ndarray, da: int, db: int) -> float:
    """Smallest eigenvalue of the partial transpose of one matrix on its second factor.

    h must be Hermitian bit for bit, as a validated state is
    (:func:`weylsep.linalg.validate_density`): the partial transpose permutes
    its entries, so it is too, and its spectrum is solved as it stands.
    """
    return float(np.linalg.eigvalsh(transpose_factor(h, da, db, 1))[0])


def ppt_criterion(rho: DensityMatrix) -> Verdict:
    """Positive-partial-transpose test, used as a cross-validation oracle.

    A negative eigenvalue of the partial transpose certifies entanglement;
    a positive partial transpose is reported INCONCLUSIVE (it proves
    separability only at 2x2 and 2x3, and verdicts stay one-sided here).

    The statistic is that least eigenvalue, kept on the state like its
    spectrum: the first call solves it (:func:`ppt_statistic`) and later
    calls read it, with no partial transpose and no eigensolve. A state
    that a named family built without validation holds it from the start,
    in closed form of the family's parameters (:mod:`weylsep.states` gives
    each proof), which agrees with the solved value to round-off. A
    relabel, of a family state included, starts without it.
    """
    da, db = _require_bipartite(rho)
    statistic = _kept(rho, "_ppt_min_eig", lambda: ppt_statistic(rho.matrix, da, db))
    outcome = ENTANGLED if statistic < -STATISTIC_MARGIN else INCONCLUSIVE
    return Verdict("ppt", outcome, statistic, 0.0)


def product_test(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray] | None:
    """Decide whether a bipartite state, pure or mixed, is a product state.

    With ``a`` the identity column of the table and ``b`` its identity row,
    the marginals are ``rho_A = sum_s a_s W_s / dA`` and
    ``rho_B = sum_t b_t W_t / dB`` (``Tr W_t = dB`` at the identity and 0
    elsewhere), so ``rho_A (x) rho_B`` has the table ``a b^T``. The
    operators ``W_s (x) W_t`` are trace-orthogonal with norm
    ``sqrt(dA*dB)``, and ``T - a b^T`` vanishes on the identity row and
    column, so ``||rho - rho_A (x) rho_B||_F = ||L - alpha beta^T||_F /
    sqrt(dA*dB)``. A product ``sigma (x) tau`` has its marginals as
    factors; hence rho is a product exactly when ``L = alpha beta^T``.
    The test accepts a residual ``||L - alpha beta^T||_F`` up to
    ``FACTOR_RESIDUAL_TOL``. On a pure state that also bounds the second
    singular value of L, by Weyl's inequality, since ``alpha beta^T``
    has rank one. Returns the pair ``(alpha, beta)`` on success (the
    factors' Bloch vectors, as read-only views of the decomposition, from
    which the factor states can be rebuilt), or None when the state is not
    a product.
    """
    dec = decompose_bipartite(rho)
    if np.linalg.norm(dec.correlation - np.outer(dec.alpha, dec.beta)) <= FACTOR_RESIDUAL_TOL:
        return dec.alpha, dec.beta
    return None

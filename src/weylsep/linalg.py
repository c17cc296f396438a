"""Dense complex linear algebra kernels and density-matrix validation.

Everything here operates on plain ``numpy`` arrays of ``complex128``.
Subsystem A is always the left (slow, most significant) tensor factor in
row-major composite indexing, i.e. the basis ket ``|i j>`` has linear
index ``i * dB + j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .bipartite import BipartiteDecomposition

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10

#: Largest ``D = dA*dB`` at which validation solves the spectrum and the Ky
#: Fan statistic takes a complex SVD. Above it, validation certifies
#: positivity by a Cholesky factorization and the statistic takes a real SVD
#: in the Hermitian Weyl basis; at or below it a LAPACK call costs about its
#: numpy overhead whatever the routine, and a spectrum that the FEF cap would
#: solve again is cheaper to keep.
EAGER_MAX_DIM = 16


class ValidationError(ValueError):
    """A matrix breaks a density-matrix invariant, or a state parameter is out of range."""


class DimensionMismatchError(ValidationError):
    """Shape or subsystem-dimension bookkeeping does not add up."""


class NotHermitianError(ValidationError):
    """Hermiticity defect exceeds tolerance."""


class WrongTraceError(ValidationError):
    """Trace differs from one beyond tolerance."""


class NotPositiveSemidefiniteError(ValidationError):
    """A negative eigenvalue below tolerance was found."""


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated trace-one Hermitian PSD matrix plus subsystem dimensions.

    ``matrix`` is Hermitian bit for bit and ``spectrum`` holds its
    ascending eigenvalues. Up to ``EAGER_MAX_DIM`` validation solves the
    spectrum and keeps it; above, validation certifies positivity without
    it, and ``spectrum`` is solved on first read and cached. Construct
    through :func:`validate_density`; the dataclass itself does not
    re-check the invariants. Two other constructions skip validation.
    The named families of :mod:`weylsep.states` whose spectrum is a closed
    form of their parameters (``isotropic``, ``bell_diagonal``,
    ``example4``, ``max_entangled``) wrap the read-only matrix validation
    would store once their parameter check proves it a state; their
    spectrum is solved on first read, to the bits validation would keep.
    And a dims relabel, ``dataclasses.replace(rho, dims=...)``, keeps the
    same matrix and spectrum under dims with the same product, after the
    caller has checked those dims (as the CLI does for its
    ``random-mixed`` pairs).
    Instances are immutable (the matrix and the spectrum are marked
    read-only) and safe to share between threads: two threads that read
    an unsolved spectrum at once both solve it, to the same bits. States
    compare and hash by identity, as do the library's other values that
    hold arrays; a field-wise ``==`` over arrays has no truth value.

    A bipartite state also keeps its Weyl decomposition: the first
    :func:`weylsep.bipartite.decompose_bipartite` of the state fills
    ``_decomposition``, and every later reader of the state (the Ky Fan
    criterion, the product test, the CLI summaries) shares that one table
    and, through it, one SVD of the correlation matrix. The table holds
    one complex entry per entry of ``matrix``, D^2 in all, and is freed
    with the state. A relabel starts with an empty slot, so it never
    serves a table built for the old dims. Two threads that decompose an
    undecomposed state at once both compute the table, to the same bits.

    The Weyl-diagonal named families (``isotropic``, ``max_entangled`` and
    the certified ``bell_diagonal`` states) also set ``_weyl_diagonal`` to
    the state's d^2 coefficients ``c_s``, a read-only array.
    :func:`~weylsep.bipartite.decompose_bipartite` then builds the table
    and its singular values from them in closed form, on first call, with
    no transform and no SVD
    (:func:`~weylsep.bipartite.weyl_diagonal_decomposition`). Until then
    the state holds no table. A relabel does not inherit the closed form.

    Every state a named family builds without validation (``isotropic``,
    ``max_entangled``, ``example4`` and the certified ``bell_diagonal``
    states) also sets ``_ppt_min_eig`` to the least eigenvalue of its
    partial transpose, a float in closed form of its parameters, within
    round-off of the solved value: ``(1-p)/d^2 - p/d`` for an isotropic
    state, whose partial transpose is ``(1-p)/d^2 * I + p * SWAP/d``
    (:func:`weylsep.states.isotropic_ppt_min_eig`); one half less the
    largest Bell weight, since transposing the second qubit negates ``t2``
    and so maps each weight w to ``1/2 - w``
    (:func:`weylsep.states.bell_diagonal_ppt_min_eig`); and the least root
    of example4's one 2x2 block (:func:`weylsep.states.example4`).
    :func:`~weylsep.bipartite.ppt_criterion` reads it and solves no
    spectrum; a validated state, and a relabel, which does not inherit
    the value, leave the slot empty and get the solve.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    _spectrum: np.ndarray | None = field(default=None, repr=False)
    _decomposition: BipartiteDecomposition | None = field(default=None, init=False, repr=False)
    _weyl_diagonal: np.ndarray | None = field(default=None, init=False, repr=False)
    _ppt_min_eig: float | None = field(default=None, init=False, repr=False)

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return self.matrix.shape[0]

    @property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of ``matrix``, read-only; solved on first read unless validation did."""
        if self._spectrum is None:
            spectrum = np.linalg.eigvalsh(self.matrix)
            spectrum.flags.writeable = False
            object.__setattr__(self, "_spectrum", spectrum)
        return self._spectrum


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), the squared Frobenius norm of the Hermitian matrix; no spectrum is solved."""
    return float(np.vdot(rho.matrix, rho.matrix).real)


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values in nonincreasing order, of a matrix or of each matrix of a stack.

    A real matrix takes a real SVD, a complex one a complex SVD.
    """
    return np.linalg.svd(np.asarray(m), compute_uv=False)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(m + m^dagger) / 2`` as a fresh array, Hermitian bit for bit, per matrix of a stack.

    The halves are summed rather than halving the sum, which is the same
    number bit for bit except where the sum would overflow.
    """
    half = m / 2
    return half + half.conj().swapaxes(-1, -2)


def _require_bipartite(rho: DensityMatrix) -> tuple[int, int]:
    if len(rho.dims) != 2:
        raise DimensionMismatchError(
            f"expected exactly 2 subsystems, got dims {rho.dims}"
        )
    return rho.dims[0], rho.dims[1]


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state of one subsystem of a bipartite state.

    ``keep=0`` traces out the right factor, ``keep=1`` the left one.
    """
    da, db = _require_bipartite(rho)
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep}")
    r4 = rho.matrix.reshape(da, db, da, db)
    reduced = np.einsum("abcb->ac" if keep == 0 else "abad->bd", r4)
    return validate_density(reduced, [len(reduced)])


def partial_transpose(rho: DensityMatrix, sys: int) -> np.ndarray:
    """Blockwise transpose on one subsystem.

    The result is Hermitian but in general not PSD, so it is returned as a
    bare array rather than a :class:`DensityMatrix`.
    """
    da, db = _require_bipartite(rho)
    return transpose_factor(rho.matrix, da, db, sys)


def transpose_factor(m: np.ndarray, da: int, db: int, sys: int) -> np.ndarray:
    """Transpose on factor ``sys`` of a ``(da*db)``-square matrix, or of each matrix of a stack."""
    if sys not in (0, 1):
        raise ValueError(f"sys must be 0 or 1, got {sys}")
    lead = m.shape[:-2]
    r4 = m.reshape(*lead, da, db, da, db)
    out = r4.swapaxes(-4, -2) if sys == 0 else r4.swapaxes(-3, -1)
    return out.reshape(*lead, da * db, da * db)


def _cholesky_certifies(h: np.ndarray) -> bool:
    """Whether ``h + POSITIVITY_TOL I`` has a finite Cholesky factor.

    The shift is added on the diagonal of a copy. A failed factorization,
    or a factor with a non-finite diagonal entry (LAPACK returns NaN
    without an error when an entry overflows), gives False.
    """
    shifted = h.copy()
    shifted.flat[:: len(h) + 1] += POSITIVITY_TOL
    try:
        factor = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor.diagonal()).all())


def _is_count(value, least: int) -> bool:
    """True for an int or numpy integer, not a bool, that is at least ``least``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def validate_density(m: np.ndarray, dims) -> DensityMatrix:
    """Check the density-matrix invariants of a complex square matrix and wrap the result.

    Violations are reported in the order dimension bookkeeping, finiteness,
    Hermiticity, unit trace, positivity; each violated invariant raises its
    own :class:`ValidationError` subclass, whose message carries the
    measured violation; the trace is read from m. The state keeps the
    checked Hermitian part (within ``HERMITICITY_TOL / 2`` of m), and its
    spectrum when validation solved one (``D <= EAGER_MAX_DIM``, or a
    Cholesky factorization that failed on a state accepted by its spectrum).

    The halves ``m/2`` and ``(m/2)^dagger`` give both the Hermiticity
    defect, ``2 max|m/2 - (m/2)^dagger|``, and the stored part, their sum
    (:func:`hermitian_part` bit for bit), in one buffer. Halving and doubling
    are exact in binary floating point away from subnormals (Higham, §2.1),
    so the defect equals ``max|m - m^dagger|`` except where m has subnormal
    entries, and it is inf, not an overflow warning, where ``m - m^dagger``
    would overflow. Finiteness is tested only when the defect fails: a NaN
    or inf entry makes the defect NaN or inf, so such a matrix is still
    reported as non-finite before any Hermiticity message.

    Positivity is ``lambda_min(h) >= -POSITIVITY_TOL``. Up to
    ``D = EAGER_MAX_DIM`` it is read from the spectrum. Above, it is
    certified by a Cholesky factorization of ``h + POSITIVITY_TOL I``,
    which is backward stable (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 10): success means that a perturbation of
    norm ``O(D eps ||h||)`` of ``h + POSITIVITY_TOL I`` is PSD, so that
    ``lambda_min(h) >= -POSITIVITY_TOL - O(D eps ||h||)``. Acceptance can
    thus differ from the spectral rule only for ``lambda_min`` within
    round-off of ``-POSITIVITY_TOL``. When the factorization fails,
    validation falls back to the spectral rule, so every rejection and its
    message are those of the spectrum.
    """
    m = np.asarray(m, dtype=complex)
    dims = tuple(dims)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not dims or not all(_is_count(d, 1) for d in dims):
        raise DimensionMismatchError(f"subsystem dims must be positive integers, got {dims!r}")
    dims = tuple(int(d) for d in dims)
    if math.prod(dims) != m.shape[0]:
        raise DimensionMismatchError(
            f"subsystem dims {dims} multiply to {math.prod(dims)}, "
            f"matrix dimension is {m.shape[0]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN fails its check below
        half = m / 2
        # One C-ordered buffer (the layout of hermitian_part, which BLAS rounds
        # by) holds (m/2)^dag - m/2 for the defect, then the Hermitian part.
        # A third live D x D array made large states page-fault as the heap regrew.
        h = np.conjugate(half.T, order="C")
        h -= half
        defect = 2 * float(np.abs(h).max())
        trace = m.trace()
        wrong = not abs(trace - 1.0) <= TRACE_TOL
    if not defect <= HERMITICITY_TOL:
        if not np.isfinite(m).all():
            raise ValidationError("matrix contains non-finite entries")
        raise NotHermitianError(
            f"not Hermitian: max |m - m^dag| = {defect:.3e} exceeds {HERMITICITY_TOL:.0e}"
        )
    np.conjugate(half.T, out=h)
    h += half  # (m/2)^dag + m/2, hermitian_part(m) bit for bit
    h.flags.writeable = False
    if wrong:
        raise WrongTraceError(f"trace is {trace.real:.12g}{trace.imag:+.3e}j, expected 1")
    if len(h) > EAGER_MAX_DIM and _cholesky_certifies(h):
        return DensityMatrix(h, dims)
    spectrum = np.linalg.eigvalsh(h)
    if spectrum[0] < -POSITIVITY_TOL:
        raise NotPositiveSemidefiniteError(
            f"negative eigenvalue {spectrum[0]:.3e} below -{POSITIVITY_TOL:.0e}"
        )
    spectrum.flags.writeable = False
    return DensityMatrix(h, dims, spectrum)

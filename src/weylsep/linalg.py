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
    ascending eigenvalues. Construct through :func:`validate_density`; the
    dataclass itself does not re-check the invariants. Two other
    constructions skip validation. The named families of
    :mod:`weylsep.states` whose spectrum is a closed form of their
    parameters (``isotropic``, ``bell_diagonal``, ``example4``,
    ``max_entangled``) wrap the read-only matrix validation would store
    once their parameter check proves it a state. And a dims relabel,
    ``dataclasses.replace(rho, dims=...)``, keeps the same matrix and
    spectrum under dims with the same product, after the caller has
    checked those dims (as the CLI does for its ``random-mixed`` pairs).
    Instances are immutable (the matrix is marked read-only) and compare
    and hash by identity, as do the library's other values that hold
    arrays; a field-wise ``==`` over arrays has no truth value.

    A state keeps what its readers would otherwise solve again, in private
    slots that :func:`_kept` fills on first read:

    - ``_spectrum``, read through ``spectrum``. Validation fills it when
      it solved the spectrum (``D <= EAGER_MAX_DIM``); otherwise the first
      read solves it, to the bits validation would keep.
    - ``_decomposition``, the Weyl table of
      :func:`weylsep.bipartite.decompose_bipartite`, which every later
      reader (the Ky Fan criterion, the product test, the CLI summaries)
      shares with its one SVD of the correlation matrix. It holds D^2
      complex entries and is freed with the state.
    - ``_ppt_min_eig``, the least eigenvalue of the partial transpose,
      read by :func:`weylsep.bipartite.ppt_criterion`.

    The named families that skip validation pre-fill ``_ppt_min_eig``
    with a closed form of their parameters, and the Weyl-diagonal ones
    (``isotropic``, ``max_entangled`` and the certified ``bell_diagonal``
    states) also set ``_weyl_diagonal`` to their d^2 coefficients ``c_s``,
    from which the first decomposition builds the table in closed form
    (:func:`weylsep.states._certified`). ``_spectrum`` is an init field,
    so a relabel keeps it. The others are not, so a relabel starts with
    them empty and never reads a value solved under the old dims.
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
        return _kept(self, "_spectrum", lambda: np.linalg.eigvalsh(self.matrix))


def _kept(owner, name: str, solve):
    """``owner.<name>``, filled with ``solve()`` first when the slot is empty (None).

    The owner is a frozen dataclass and the slot a quantity of its
    immutable fields, so a value, once solved, is kept on the owner and
    freed with it. An array is marked read-only before it is kept, so no
    reader can make it stale. Instances stay safe to share between
    threads: two threads that read an empty slot at once both solve it,
    to the same bits, and either value is kept.
    """
    value = getattr(owner, name)
    if value is None:
        value = solve()
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(owner, name, value)
    return value


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), the squared Frobenius norm of the Hermitian matrix; no spectrum is solved."""
    return float(np.vdot(rho.matrix, rho.matrix).real)


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of a matrix in nonincreasing order.

    A real matrix takes a real SVD, a complex one a complex SVD.
    """
    return np.linalg.svd(np.asarray(m), compute_uv=False)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(m + m^dagger) / 2`` of a square matrix as a fresh array, Hermitian bit for bit.

    The halves are summed rather than halving the sum, which is the same
    number bit for bit except where the sum would overflow.
    """
    half = m / 2
    return half + half.conj().T


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
    """Transpose on factor ``sys`` of a ``(da*db)``-square matrix."""
    if sys not in (0, 1):
        raise ValueError(f"sys must be 0 or 1, got {sys}")
    r4 = m.reshape(da, db, da, db)
    out = r4.swapaxes(0, 2) if sys == 0 else r4.swapaxes(1, 3)
    return out.reshape(da * db, da * db)


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


def _dimension(d) -> int:
    """A local dimension as a Python int, once it is checked to be an integer of at least 2."""
    if not _is_count(d, 2):
        if isinstance(d, (int, np.integer)):
            raise ValidationError(f"dimension must be >= 2, got {d}")
        raise ValidationError(f"dimension must be an integer, got {d!r}")
    return int(d)


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

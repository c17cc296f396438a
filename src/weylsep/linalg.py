"""Dense complex linear algebra kernels and density-matrix validation.

Everything here operates on plain ``numpy`` arrays of ``complex128``.
Subsystem A is always the left (slow, most significant) tensor factor in
row-major composite indexing, i.e. the basis ket ``|i j>`` has linear
index ``i * dB + j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


@dataclass(frozen=True)
class DensityMatrix:
    """A validated trace-one Hermitian PSD matrix plus subsystem dimensions.

    ``matrix`` is Hermitian bit for bit and ``spectrum`` holds its
    ascending eigenvalues. Up to ``EAGER_MAX_DIM`` validation solves the
    spectrum and keeps it; above, validation certifies positivity without
    it, and ``spectrum`` is solved on first read and cached. Construct
    through :func:`validate_density`; the dataclass itself does not
    re-check the invariants. The one other construction is a dims
    relabel, ``dataclasses.replace(rho, dims=...)``: the same matrix and
    spectrum under dims with the same product, after the caller has
    checked those dims (as the CLI does for its ``random-mixed`` pairs).
    Instances are immutable (the matrix and the spectrum are marked
    read-only) and safe to share between threads: two threads that read
    an unsolved spectrum at once both solve it, to the same bits.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    _spectrum: np.ndarray | None = field(default=None, repr=False, compare=False)

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


def hermiticity_defect(m: np.ndarray) -> float | np.ndarray:
    """Max-abs entry of ``m - m^dagger``, per matrix of a stack ``(..., D, D)``.

    A single matrix gives a float, a stack an array of its leading shape.
    """
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the left factor carries the slow index."""
    return np.kron(np.asarray(a), np.asarray(b))


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
    if keep == 0:
        reduced = np.einsum("abcb->ac", r4)
        d = da
    else:
        reduced = np.einsum("abad->bd", r4)
        d = db
    return validate_density(reduced, [d])


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

    Checks the dimension bookkeeping, then finiteness, Hermiticity, unit
    trace and positivity, in that order; each violated invariant raises its
    own :class:`ValidationError` subclass, whose message carries the
    measured violation; the trace is read from m. The state keeps the
    checked Hermitian part (within ``HERMITICITY_TOL / 2`` of m), and its
    spectrum when validation solved one (``D <= EAGER_MAX_DIM``, or a
    Cholesky factorization that failed on a state accepted by its spectrum).

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
    if not np.isfinite(m).all():
        raise ValidationError("matrix contains non-finite entries")
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_TOL:
        raise NotHermitianError(
            f"not Hermitian: max |m - m^dag| = {defect:.3e} exceeds {HERMITICITY_TOL:.0e}"
        )
    h = hermitian_part(m)
    h.flags.writeable = False
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN trace fails below
        trace = m.trace()
        wrong = not abs(trace - 1.0) <= TRACE_TOL
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

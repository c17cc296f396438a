"""Factories for named states and seeded random ensembles.

All constructors return :class:`DensityMatrix` values and raise
:class:`ValidationError` for a parameter outside the family's range. Two
routes build them. The named families whose spectrum is a closed form of
their parameters (:func:`isotropic`, :func:`bell_diagonal`,
:func:`example4`, :func:`max_entangled`) check their parameters and wrap
the matrix directly: it is the matrix validation would store, and the
parameter check proves what validation's spectrum would. Every other
constructor goes through :func:`~weylsep.linalg.validate_density`. Either
way the state has the same matrix and, once read, the same spectrum, byte
for byte. The real parameters of the named families (not the dimension)
may be Python or numpy real scalars or 0-d real arrays; each is made a
Python float once, on entry, so an ``np.float32`` p builds the state of
``float(p)``, byte for byte. Anything else, a complex number, a string or
an array of more than one element, raises :class:`ValidationError`
naming the value. The random families are deterministic functions of
their seed: the same seed and parameters reproduce the output bit for
bit, so results can be replicated across machines and implementations.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache

import numpy as np

from .linalg import (
    POSITIVITY_TOL,
    DensityMatrix,
    ValidationError,
    hermitian_part,
    validate_density,
)


def max_entangled_ket(d: int) -> np.ndarray:
    """The ket ``sum_i |ii> / sqrt(d)``."""
    if d < 2:
        raise ValidationError(f"dimension must be >= 2, got {d}")
    ket = np.zeros(d * d, dtype=complex)
    ket[:: d + 1] = 1.0 / np.sqrt(d)
    return ket


def _certified(m: np.ndarray, d: int) -> DensityMatrix:
    """The ``d x d`` state of a family matrix that its parameters prove valid, unvalidated.

    The caller has checked that m is the matrix validation would store
    (Hermitian bit for bit, so its own Hermitian part, byte for byte),
    that its trace is one, and, from the closed form of its spectrum, that
    its smallest eigenvalue is at least ``-POSITIVITY_TOL``. The spectrum
    is solved on first read by the ``eigvalsh`` validation would have run
    on the same bytes.
    """
    m.flags.writeable = False
    return DensityMatrix(m, (int(d), int(d)))


#: The scalar types a family parameter may have, besides a 0-d array holding one.
_REAL_SCALARS = (float, int, np.floating, np.integer)


def _real(value, name: str) -> float:
    """A family parameter as a Python float, which the closed forms' proofs assume.

    Python and numpy real scalars and 0-d real arrays are accepted; an
    ``np.float32`` is widened exactly, so ``1.0 - p`` is then a float64
    operation, and an int beyond the float range becomes +-inf, as IEEE
    rounding would make it. Anything else raises :class:`ValidationError`
    naming it.
    """
    x = value
    if not isinstance(x, _REAL_SCALARS) and isinstance(x, np.ndarray) and x.ndim == 0:
        x = x[()]
    if not isinstance(x, _REAL_SCALARS):
        raise ValidationError(f"{name} must be a real scalar, got {value!r}")
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def max_entangled(d: int) -> DensityMatrix:
    """Projector onto the maximally entangled state of a d x d system.

    Its spectrum is 1 once and 0 ``d^2 - 1`` times. Every call shares one
    read-only matrix per d, the one :func:`isotropic_matrix` mixes in.
    """
    return _certified(_isotropic_terms(d)[1], d)


def isotropic(d: int, p: float) -> DensityMatrix:
    """Mixture of white noise and the maximally entangled state.

    ``(1-p)/d^2 * I + p * |psi+><psi+|`` with ``0 <= p <= 1``; separable
    exactly for ``p <= 1/(d+1)``. The spectrum is ``p + (1-p)/d^2`` once
    and ``(1-p)/d^2`` ``d^2 - 1`` times, so every p in [0, 1] gives a
    state and the parameter check is the whole positivity rule: every
    accepted p, made a float on entry, gives the state without validation.
    """
    x = _real(p, "mixing parameter")
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"mixing parameter must lie in [0, 1], got {p}")
    return _certified(isotropic_matrix(d, x), d)


# typed, so that a float d such as 2.0 fails as a dimension, as
# max_entangled_ket makes it, instead of hitting the entry of np.int64(2)
@lru_cache(maxsize=None, typed=True)
def _isotropic_terms(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only complex ``I`` and ``|psi+><psi+|`` of a d x d system."""
    ket = max_entangled_ket(d)
    terms = np.eye(d * d, dtype=complex), np.outer(ket, ket.conj())
    for term in terms:
        term.flags.writeable = False
    return terms


def isotropic_matrix(d: int, p) -> np.ndarray:
    """The unchecked :func:`isotropic` matrix, or a ``(..., d*d, d*d)`` stack for an array ``p``.

    Each matrix is Hermitian bit for bit: it equals its own
    :func:`~weylsep.linalg.hermitian_part`, byte for byte. The two terms
    it mixes are built once per d and kept for the life of the process.
    """
    identity, projector = _isotropic_terms(d)
    m = np.multiply.outer((1.0 - p) / (d * d), identity)
    m += np.multiply.outer(p, projector)
    return m


#: ``XX``, ``YY`` and ``ZZ``, the Pauli products of :func:`bell_diagonal`, read-only.
_PAULI_PRODUCTS = np.stack([
    np.kron(p, p) for p in np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
])
_PAULI_PRODUCTS.flags.writeable = False


def bell_diagonal(t1: float, t2: float, t3: float) -> DensityMatrix:
    """Two-qubit state ``(I + t1 XX + t2 YY + t3 ZZ) / 4``.

    Its spectrum is the four Bell weights ``(1 + s1 t1 + s2 t2 + s3 t3)/4``
    over the sign vectors with ``s1 s2 s3 = -1`` (Horodecki and Horodecki,
    PRA 54, 1838 (1996)), so valid parameters form the tetrahedron with
    vertices (-1,-1,-1), (-1,1,1), (1,-1,1), (1,1,-1). Separable exactly
    when ``|t1| + |t2| + |t3| <= 1``.

    Each parameter is made a float on entry, and non-finite ones are
    rejected first. Parameters whose smallest Bell weight is at least
    ``-POSITIVITY_TOL`` give the state without validation; that closed
    form differs from validation's spectral rule only within round-off of
    ``-POSITIVITY_TOL``. The others are validated, so every rejection (a
    non-finite entry, a trace that round-off moved off one, a negative
    eigenvalue) keeps the validation message and its spectral value.
    """
    name = "correlation parameter"
    a, b, c = _real(t1, name), _real(t2, name), _real(t3, name)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ValidationError(f"correlation parameters must be finite, got {(t1, t2, t3)}")
    m = bell_diagonal_matrix(a, b, c)
    # a float overflow here gives +-inf, with no warning
    if min(1 + a - b + c, 1 - a + b + c, 1 + a + b - c, 1 - a - b - c) / 4 >= -POSITIVITY_TOL:
        return _certified(m, 2)
    return validate_density(m, [2, 2])


def bell_diagonal_matrix(t1, t2, t3) -> np.ndarray:
    """The unchecked :func:`bell_diagonal` matrix, or a ``(..., 4, 4)`` stack for arrays ``t``.

    Each finite matrix is Hermitian bit for bit: it equals its own
    :func:`~weylsep.linalg.hermitian_part`, byte for byte.
    """
    m = np.eye(4, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # validation rejects a non-finite entry
        for t, product in zip((t1, t2, t3), _PAULI_PRODUCTS):
            m = m + np.multiply.outer(t, product)
        return m / 4.0


@cache
def ppt_3x3() -> DensityMatrix:
    """A 3x3 state with positive partial transpose that is entangled.

    Built as the normalized projector complementary to five orthonormal
    product vectors forming an unextendible product basis (the "tiles"
    construction). Its entanglement is invisible to the PPT test but is
    caught by the correlation-matrix criterion. The state is built once
    and shared: every call returns the same immutable object.
    """
    e = np.eye(3, dtype=complex)
    s2 = np.sqrt(2.0)
    chis = [
        np.kron(e[0], (e[0] - e[1]) / s2),
        np.kron((e[0] - e[1]) / s2, e[2]),
        np.kron(e[2], (e[1] - e[2]) / s2),
        np.kron((e[1] - e[2]) / s2, e[0]),
        np.kron(e[0] + e[1] + e[2], e[0] + e[1] + e[2]) / 3.0,
    ]
    m = np.eye(9, dtype=complex)
    for chi in chis:
        m -= np.outer(chi, chi.conj())
    return validate_density(m / 4.0, [3, 3])


def example4(p: float) -> DensityMatrix:
    """Two-qubit mixture ``p |phi-><phi-| + (1-p) |00><00|``.

    ``|phi-> = (|01> - |10>) / sqrt(2)``; separable only at ``p = 0``.
    Bell-state names in this package: ``sum_i |ii> / sqrt(d)`` is written
    psi+ (see :func:`max_entangled_ket`) and the singlet is written phi-,
    which swaps the usual textbook labels. The two projectors are
    orthogonal, so the spectrum is ``p``, ``1-p``, 0 and 0, and every p in
    [0, 1], made a float on entry, gives a state. The state stores the
    Hermitian part of the mixture, which fixes the signed zeros of the
    complex outer product.
    """
    x = _real(p, "mixing parameter")
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"mixing parameter must lie in [0, 1], got {p}")
    phi = np.zeros(4, dtype=complex)
    phi[1] = 1.0 / np.sqrt(2.0)
    phi[2] = -1.0 / np.sqrt(2.0)
    m = x * np.outer(phi, phi.conj())
    m[0, 0] += 1.0 - x
    return _certified(hermitian_part(m), 2)


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_mixed(d: int, rank: int, seed) -> DensityMatrix:
    """Ginibre-induced random state of the given rank on one d-level system."""
    if not 1 <= rank <= d:
        raise ValidationError(f"rank must lie in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
    g = _ginibre(rng, d, rank)
    m = g @ g.conj().T
    m /= np.trace(m).real
    return validate_density(m, [d])


def _random_pure_ket(rng: np.random.Generator, d: int) -> np.ndarray:
    v = _ginibre(rng, d, 1)[:, 0]
    return v / np.linalg.norm(v)


def random_product_pure(da: int, db: int, seed) -> DensityMatrix:
    """Projector onto a random product ket ``|a> (x) |b>``."""
    rng = np.random.default_rng(seed)
    ket = np.kron(_random_pure_ket(rng, da), _random_pure_ket(rng, db))
    return validate_density(np.outer(ket, ket.conj()), [da, db])


def random_separable(da: int, db: int, k: int, seed) -> DensityMatrix:
    """Convex mixture of k random pure product states.

    Weights are Dirichlet-uniform over the simplex; the output is
    separable by construction.
    """
    if k < 1:
        raise ValidationError(f"mixture size must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(k))
    # the normals of k successive _random_pure_ket(da), _random_pure_ket(db)
    # pairs, in draw order: real then imaginary parts of a, then of b
    z = rng.standard_normal((k, 2 * (da + db)))
    a = z[:, :da] + 1j * z[:, da : 2 * da]
    b = z[:, 2 * da : 2 * da + db] + 1j * z[:, 2 * da + db :]
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    kets = (a[:, :, None] * b[:, None, :]).reshape(k, da * db)
    m = (kets.T * weights) @ kets.conj()
    return validate_density(m, [da, db])


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed unitary from one seed, via QR of a Ginibre matrix.

    The diagonal of the triangular factor is rephased to positive reals,
    which removes the QR gauge freedom and makes the distribution exactly
    Haar. Deterministic given the seed.
    """
    if d < 2:
        raise ValidationError(f"dimension must be >= 2, got {d}")
    z = _ginibre(np.random.default_rng(seed), d, d)
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    ph = np.diagonal(r)
    return q * (ph / np.abs(ph))

"""Factories for named states and seeded random ensembles.

All constructors return validated :class:`DensityMatrix` values and
raise :class:`ValidationError` for a parameter outside the family's
range. The random families are deterministic functions of their seed:
the same seed and parameters reproduce the output bit for bit, so results
can be replicated across machines and implementations.
"""

from __future__ import annotations

import numpy as np

from .linalg import DensityMatrix, ValidationError, kron, validate_density


def max_entangled_ket(d: int) -> np.ndarray:
    """The ket ``sum_i |ii> / sqrt(d)``."""
    if d < 2:
        raise ValidationError(f"dimension must be >= 2, got {d}")
    ket = np.zeros(d * d, dtype=complex)
    ket[:: d + 1] = 1.0 / np.sqrt(d)
    return ket


def max_entangled(d: int) -> DensityMatrix:
    """Projector onto the maximally entangled state of a d x d system."""
    ket = max_entangled_ket(d)
    return validate_density(np.outer(ket, ket.conj()), [d, d])


def isotropic(d: int, p: float) -> DensityMatrix:
    """Mixture of white noise and the maximally entangled state.

    ``(1-p)/d^2 * I + p * |psi+><psi+|`` with ``0 <= p <= 1``; separable
    exactly for ``p <= 1/(d+1)``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"mixing parameter must lie in [0, 1], got {p}")
    return validate_density(isotropic_matrix(d, p), [d, d])


def isotropic_matrix(d: int, p) -> np.ndarray:
    """The unchecked :func:`isotropic` matrix, or a ``(..., d*d, d*d)`` stack for an array ``p``.

    Each matrix is Hermitian bit for bit: it equals its own
    :func:`~weylsep.linalg.hermitian_part`, byte for byte.
    """
    ket = max_entangled_ket(d)
    m = np.multiply.outer((1.0 - p) / (d * d), np.eye(d * d, dtype=complex))
    m += np.multiply.outer(p, np.outer(ket, ket.conj()))
    return m


#: ``XX``, ``YY`` and ``ZZ``, the Pauli products of :func:`bell_diagonal`, read-only.
_PAULI_PRODUCTS = np.stack([
    kron(p, p) for p in np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
])
_PAULI_PRODUCTS.flags.writeable = False


def bell_diagonal(t1: float, t2: float, t3: float) -> DensityMatrix:
    """Two-qubit state ``(I + t1 XX + t2 YY + t3 ZZ) / 4``.

    Valid parameters form the tetrahedron with vertices (-1,-1,-1),
    (-1,1,1), (1,-1,1), (1,1,-1); anything outside fails the positivity
    check. Separable exactly when ``|t1| + |t2| + |t3| <= 1``.
    """
    if not np.all(np.isfinite([t1, t2, t3])):
        raise ValidationError(f"correlation parameters must be finite, got {(t1, t2, t3)}")
    return validate_density(bell_diagonal_matrix(t1, t2, t3), [2, 2])


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


def ppt_3x3() -> DensityMatrix:
    """A 3x3 state with positive partial transpose that is entangled.

    Built as the normalized projector complementary to five orthonormal
    product vectors forming an unextendible product basis (the "tiles"
    construction). Its entanglement is invisible to the PPT test but is
    caught by the correlation-matrix criterion.
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
    which swaps the usual textbook labels.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"mixing parameter must lie in [0, 1], got {p}")
    phi = np.zeros(4, dtype=complex)
    phi[1] = 1.0 / np.sqrt(2.0)
    phi[2] = -1.0 / np.sqrt(2.0)
    m = p * np.outer(phi, phi.conj())
    m[0, 0] += 1.0 - p
    return validate_density(m, [2, 2])


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

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
for byte.

The isotropic matrix is built from its structure, with no per-d array
kept (:func:`isotropic_matrix`), and :func:`max_entangled` is the
isotropic state at ``p = 1``. :func:`isotropic` and :func:`example4`
check their mixing parameter by one rule, ``0 <= p <= 1``.

Three of those families are Weyl-diagonal: :func:`isotropic`,
:func:`max_entangled` and the :func:`bell_diagonal` states that skip
validation. Their states also carry their Weyl decomposition in closed
form, as the read-only array of their d^2 coefficients
(:func:`isotropic_coefficients`, :func:`bell_diagonal_coefficients`),
computed when the state is built. The first
:func:`~weylsep.bipartite.decompose_bipartite` of such a state keeps them,
with singular values ``p`` (``d^2 - 1`` times) or ``|t1|, |t2|, |t3|`` in
nonincreasing order, and runs no transform and no SVD
(:func:`~weylsep.bipartite.weyl_diagonal_decomposition`); it builds the
D^2 coefficient table only when that is read. Those
agree with the transform route to round-off, not bit for bit.
:func:`example4` is not Weyl-diagonal and keeps the transform.

Every state that skips validation also carries the least eigenvalue of
its partial transpose in closed form, in the slot where
:func:`~weylsep.bipartite.ppt_criterion` keeps the value it solves for
any other state, so it reads it with no partial transpose and no
eigensolve: ``(1-p)/d^2 - p/d`` for :func:`isotropic` and
:func:`max_entangled`, since ``(|psi+><psi+|)^T_B = SWAP/d``
(:func:`isotropic_ppt_min_eig`); one half less the largest Bell weight
for :func:`bell_diagonal`, since the transpose of the second qubit
negates ``t2`` (:func:`bell_diagonal_ppt_min_eig`); and
``-p^2 / (2 ((1-p) + hypot(1-p, p)))`` for :func:`example4`, the least
root of its one 2x2 block. Each agrees with the solved value to round-off
(within 1e-15 on the families' parameter ranges), not bit for bit. The
first two also take an array of parameters, as ``scan --ppt`` does, and
give each entry the scalar result bit for bit.

A dimension must be an int or a numpy integer (not a bool) of at least
2; anything else raises :class:`ValidationError` naming it, before
anything is built. The real parameters of the named families may be
Python or numpy real scalars or 0-d real arrays; each is made a Python
float once, on entry, so an ``np.float32`` p builds the state of
``float(p)``, byte for byte. Anything else, a complex number, a string or
an array of more than one element, raises :class:`ValidationError`
naming the value. The random families are deterministic functions of
their seed: the same seed and parameters reproduce the output bit for
bit, so results can be replicated across machines and implementations.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .linalg import (
    POSITIVITY_TOL,
    DensityMatrix,
    ValidationError,
    _dimension,
    hermitian_part,
    validate_density,
)


def max_entangled_ket(d: int) -> np.ndarray:
    """The ket ``sum_i |ii> / sqrt(d)``."""
    d = _dimension(d)
    ket = np.zeros(d * d, dtype=complex)
    ket[:: d + 1] = 1.0 / np.sqrt(d)
    return ket


def _certified(
    m: np.ndarray, d: int, ppt_min_eig: float, coefficients: np.ndarray | None = None
) -> DensityMatrix:
    """The ``d x d`` state of a family matrix that its parameters prove valid, unvalidated.

    The caller has checked that m is the matrix validation would store
    (Hermitian bit for bit, so its own Hermitian part, byte for byte),
    that its trace is one, and, from the closed form of its spectrum, that
    its smallest eigenvalue is at least ``-POSITIVITY_TOL``. The spectrum
    slot stays empty, so its first read runs the ``eigvalsh`` validation
    would have run on the same bytes.

    ``ppt_min_eig`` pre-fills the slot where the state keeps the least
    eigenvalue of its partial transpose
    (:class:`~weylsep.linalg.DensityMatrix`), so
    :func:`~weylsep.bipartite.ppt_criterion` never solves it: the value
    in closed form of the family's parameters, within round-off of the
    solved one (:func:`isotropic_ppt_min_eig`,
    :func:`bell_diagonal_ppt_min_eig` and :func:`example4` give the
    proofs). A Weyl-diagonal family also passes ``coefficients``, its d^2
    Weyl-diagonal coefficients, kept read-only. The first decomposition
    keeps them in place of a table and builds the table only when it is
    read, so the Ky Fan criterion, the PPT test and the ``check-sep``
    summary hold no D^2 array beyond the matrix
    (:func:`~weylsep.bipartite.reconstruction_residual`).
    """
    m.flags.writeable = False
    rho = DensityMatrix(m, (d, d))
    object.__setattr__(rho, "_ppt_min_eig", ppt_min_eig)
    if coefficients is not None:
        coefficients.flags.writeable = False
        object.__setattr__(rho, "_weyl_diagonal", coefficients)
    return rho


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


def _mixing(p) -> float:
    """A mixing parameter as a Python float, once it is checked to lie in [0, 1]."""
    x = _real(p, "mixing parameter")
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"mixing parameter must lie in [0, 1], got {p}")
    return x


def max_entangled(d: int) -> DensityMatrix:
    """Projector onto the maximally entangled state of a d x d system.

    It is the isotropic state at ``p = 1``, built and decomposed as that
    state is: its spectrum is 1 once and 0 ``d^2 - 1`` times, and every
    correlation singular value is 1.
    """
    return isotropic(d, 1.0)


def isotropic(d: int, p: float) -> DensityMatrix:
    """Mixture of white noise and the maximally entangled state.

    ``(1-p)/d^2 * I + p * |psi+><psi+|`` with ``0 <= p <= 1``; separable
    exactly for ``p <= 1/(d+1)``. The spectrum is ``p + (1-p)/d^2`` once
    and ``(1-p)/d^2`` ``d^2 - 1`` times, so every p in [0, 1] gives a
    state and the parameter check is the whole positivity rule: every
    accepted p, made a float on entry, gives the state without validation.
    Its correlation singular values are all p (:func:`isotropic_coefficients`),
    and the least eigenvalue of its partial transpose is
    ``(1-p)/d^2 - p/d`` (:func:`isotropic_ppt_min_eig`).
    """
    d, x = _dimension(d), _mixing(p)
    return _certified(
        isotropic_matrix(d, x), d, isotropic_ppt_min_eig(d, x), isotropic_coefficients(d, x)
    )


def isotropic_coefficients(d: int, p) -> np.ndarray:
    """The Weyl-diagonal coefficients of :func:`isotropic`, or a ``(..., d^2)`` stack for an array ``p``.

    ``c_0 = 1`` and ``c_s = p`` for the other ``d^2 - 1`` indices s: the
    table of ``I`` is ``d^2`` at ``(0, 0)`` and 0 elsewhere, and that of
    ``|psi+><psi+|`` is 1 at every ``(s, s-bar)``
    (:func:`~weylsep.bipartite.weyl_diagonal_decomposition`), so the
    mixture has ``(1-p) + p = 1`` at ``(0, 0)`` and p at the other pairs.
    A ``-0.0`` p gives ``+0.0`` coefficients.
    """
    stack = getattr(p, "shape", ())  # np.shape would first make a float an array
    c = np.empty((*stack, d * d))
    c[...] = (p + 0.0)[..., None] if stack else p + 0.0
    c[..., 0] = 1.0
    return c


def isotropic_ppt_min_eig(d: int, p):
    """``(1-p)/d^2 - p/d``, the least eigenvalue of the partial transpose of :func:`isotropic`.

    The partial transpose of ``|psi+><psi+| = sum_ij |ii><jj| / d`` is
    ``sum_ij |ij><ji| / d = SWAP / d`` (M. and P. Horodecki, PRA 59, 4206
    (1999)), and SWAP is a Hermitian involution with both eigenvalues +1
    (symmetric) and -1 (antisymmetric) at ``d >= 2``. The partial
    transpose of the state, ``(1-p)/d^2 * I + p * SWAP/d``, thus has the
    spectrum ``(1-p)/d^2 +- p/d``, whose least value, for ``p >= 0``, is
    this one. An array ``p`` gives the value per entry, each the scalar
    result bit for bit: the same four IEEE operations run on each.
    """
    return (1.0 - p) / (d * d) - p / d


def isotropic_matrix(d: int, p: float) -> np.ndarray:
    """The unchecked :func:`isotropic` matrix.

    The matrix is built from its structure, with no per-d array kept:
    ``(1-p)/d^2`` on the diagonal, ``p * (1/sqrt(d))^2`` on the strided view
    ``[::d+1, ::d+1]``, whose ``d^2`` entries ``|ii><jj|`` are exactly the
    nonzero entries of ``|psi+><psi+|``, and the sum of the two on the
    ``d`` entries ``|ii><ii|`` that both terms hold. For every p in
    [0, 1], ``-0.0`` included, these are the bytes of the term-by-term sum
    ``(1-p)/d^2 * I + p * |psi+><psi+|`` over the complex I and the outer
    product of :func:`max_entangled_ket`: each entry of that sum is one of
    these values plus exact zeros, and ``+0 + -0`` is ``+0``, so a
    ``-0.0`` projector weight is written as ``+0.0``. The matrix is
    Hermitian bit for bit: it equals its own
    :func:`~weylsep.linalg.hermitian_part`, byte for byte.
    """
    n, a = d * d, 1.0 / math.sqrt(d)
    x, y = (1.0 - p) / n, p * (a * a) + 0.0
    m = np.zeros((n, n), dtype=complex)
    # written, not added: at d <= 4 an in-place add on a strided view costs
    # more than the rest of the build
    m[:: d + 1, :: d + 1] = y
    diagonal = m.reshape(n * n)[:: n + 1]
    diagonal[...] = x
    diagonal[:: d + 1] = x + y
    return m


#: Where each entry of :func:`bell_diagonal_matrix` is in ``(1 + t3, 1 - t3, t1 - t2, t1 + t2, 0)``.
_BELL_ENTRIES = np.array([[0, 4, 4, 2], [4, 1, 3, 4], [4, 3, 1, 4], [2, 4, 4, 0]])
_BELL_ENTRIES.flags.writeable = False


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
    eigenvalue) keeps the validation message and its spectral value. Only
    the states that skip validation carry their decomposition in closed
    form (:func:`bell_diagonal_coefficients`), with correlation singular
    values ``|t1|, |t2|, |t3|`` in nonincreasing order, and the least
    eigenvalue of their partial transpose, one half less the largest Bell
    weight (:func:`bell_diagonal_ppt_min_eig`).
    """
    name = "correlation parameter"
    a, b, c = _real(t1, name), _real(t2, name), _real(t3, name)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ValidationError(f"correlation parameters must be finite, got {(t1, t2, t3)}")
    m = bell_diagonal_matrix(a, b, c)
    # a float overflow here gives +-inf, with no warning
    if min(_bell_weights(a, b, c)) / 4 >= -POSITIVITY_TOL:
        ppt_min_eig = bell_diagonal_ppt_min_eig(a, b, c)
        return _certified(m, 2, ppt_min_eig, bell_diagonal_coefficients(a, b, c))
    return validate_density(m, [2, 2])


def _bell_weights(t1, t2, t3) -> tuple:
    """Four times the Bell weights of :func:`bell_diagonal`, ``1 + s . t`` over ``s1 s2 s3 = -1``."""
    return (1 + t1 - t2 + t3, 1 - t1 + t2 + t3, 1 + t1 + t2 - t3, 1 - t1 - t2 - t3)


def bell_diagonal_ppt_min_eig(t1, t2, t3):
    """The least eigenvalue of the partial transpose of :func:`bell_diagonal`, per entry of arrays.

    It is one half less the largest Bell weight (R. and M. Horodecki, PRA
    54, 1838 (1996)). Transposing the second qubit fixes X and Z and
    negates Y, so it maps the state to the one of ``(t1, -t2, t3)``, whose
    Bell weights are ``(1 - s . t)/4 = 1/2 - (1 + s . t)/4`` over
    ``s1 s2 s3 = -1``: one half less each weight of the state. Arrays
    give the value per entry, each the scalar result bit for bit: the same
    sums run on each, and the largest is picked exactly.
    """
    weights = _bell_weights(t1, t2, t3)
    largest = np.maximum.reduce(weights) if getattr(t1, "shape", ()) else max(weights)
    return 0.5 - largest / 4


def bell_diagonal_coefficients(t1, t2, t3) -> np.ndarray:
    """The Weyl-diagonal coefficients of :func:`bell_diagonal`, or a ``(..., 4)`` stack for arrays.

    They are ``(1, t1, t3, -t2)``: in Weyl order the operators are ``I``,
    ``W(0, 1) = X``, ``W(1, 0) = Z`` and ``W(1, 1) = iY``, ``s-bar = s`` at
    d = 2, and ``(iY)^dag (x) (iY)^dag = -(Y (x) Y)``. A ``-0.0`` becomes
    ``+0.0``: ``t + 0.0`` and ``0.0 - t`` are ``t`` and ``-t`` with the
    sign of a zero cleared.
    """
    c = np.empty((*getattr(t1, "shape", ()), 4))
    c[..., 0] = 1.0
    c[..., 1] = t1 + 0.0
    c[..., 2] = t3 + 0.0
    c[..., 3] = 0.0 - t2
    return c


def bell_diagonal_matrix(t1: float, t2: float, t3: float) -> np.ndarray:
    """The unchecked :func:`bell_diagonal` matrix.

    ``XX``, ``YY`` and ``ZZ`` are real, with entries 0 and +-1, so
    ``(I + t1 XX + t2 YY + t3 ZZ) / 4`` holds five numbers: ``(1 +- t3)/4``
    on the diagonal, ``(t1 -+ t2)/4`` on the anti-diagonal, and 0. Each is
    one sum, divided by 4 as a complex number, and one gather through a
    read-only index places them. Those are the bytes of summing the three
    products onto I term by term and dividing by 4, signed zeros and
    overflows included: each entry of that sum is one of these sums plus
    exact zeros, and the complex division by 4 turns a -0 real part into
    +0 either way. No numpy warning is raised. A finite matrix is
    Hermitian bit for bit: it equals its own
    :func:`~weylsep.linalg.hermitian_part`, byte for byte.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # validation rejects a non-finite entry
        w = np.array([1 + t3, 1 - t3, t1 - t2, t1 + t2, 0.0], dtype=complex) / 4.0
    return w[_BELL_ENTRIES]


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

    Transposing the second qubit maps ``|01><10|`` to ``|00><11|``, so the
    partial transpose is ``p/2`` on ``|01>`` and ``|10>`` and the block
    ``[[1-p, -p/2], [-p/2, 0]]`` on ``|00>, |11>``. Its least eigenvalue,
    at most 0 and so the least of all, is
    ``((1-p) - hypot(1-p, p)) / 2``, stored as the equal
    ``-p^2 / (2 ((1-p) + hypot(1-p, p)))``, which has no cancellation;
    the zero at ``p = 0`` is ``+0.0``.
    """
    x = _mixing(p)
    q = 1.0 - x
    phi = np.zeros(4, dtype=complex)
    phi[1] = 1.0 / np.sqrt(2.0)
    phi[2] = -1.0 / np.sqrt(2.0)
    m = x * np.outer(phi, phi.conj())
    m[0, 0] += q
    return _certified(hermitian_part(m), 2, 0.0 - x * x / (2.0 * (q + math.hypot(q, x))))


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
    d = _dimension(d)
    z = _ginibre(np.random.default_rng(seed), d, d)
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    ph = np.diagonal(r)
    return q * (ph / np.abs(ph))

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

At d = 2, F has a closed form (Badziag, Horodecki, Horodecki and
Horodecki, PRA 62, 012311, 2000), and ``fef_search`` returns it without
a search. Let M be the magic basis of Hill and Wootters (PRL 78, 5022,
1997), whose columns are Phi+, i Phi-, i Psi+ and Psi-, and B = sqrt(2) M,
whose entries are 0, +-1 and +-i. Every maximally entangled two-qubit
state is ``e^{i phi} M x`` with x a real unit vector. In the present
terms: with row-major vec, ``reshape(B x)`` is
``x0 I + i (x1 Z + x2 X + x3 Y)``, and since the Pauli matrices
anticommute and square to I, its product with its adjoint is
``|x|^2 I``. So a real unit x gives a unitary in SU(2), and every element
of SU(2) is of this form (a unit quaternion). Every unitary is
``e^{i phi}`` times one of SU(2), and the phase drops out of f. Hence
``vec(U)`` ranges over the ``e^{i phi} B x``, and

    f(U) = x^T R x,    R = Re(B^dag rho B) / 2 = Re(M^dag rho M),

because ``B^dag rho B`` is Hermitian, so its imaginary part is
antisymmetric and drops out of a real quadratic form. The maximum of
``x^T R x`` over real unit vectors is ``lambda_max(R)``, so
``F = lambda_max(R)``, attained at ``U = reshape(B x)`` with x the top
eigenvector of R. ``eigh`` returns x real and of unit norm to
``O(eps)``; the entries of U are entries of x, with signs and factors i
and no rounding, so U is ``|x|`` times a unitary and unitary to
round-off. The reported value is f at that U, a true mean value. The
bound is ``min(lambda_max(rho), lambda_max(R_hat)) + ROUNDOFF_ULPS * D *
eps * ||rho||_F`` with D = 4 and R_hat the R that ``eigh`` is given; the
cap ``lambda_max(rho)`` carries the same margin at every d (below).
The margin, ``16 eps ||rho||_F``, covers two errors. Forming R: each
column of B has two nonzero entries, so each entry of ``B^dag rho``, and
then of its product with B, is a sum of two exact terms, rounded once;
with ``u = eps / 2`` that bounds ``|R_hat - R|`` entrywise by
``2u |B|^T |rho| |B| / 2`` (the halving is exact), whose Frobenius norm
is at most ``2 eps ||rho||_F`` since ``|| |B| ||_2 = 2``. ``eigh`` reads
one triangle of R_hat, and every entry of either triangle obeys the
bound. Then ``eigh``: it is backward stable and returns the eigenvalues
of a matrix within ``O(D eps ||R_hat||)`` of the one it was given, and
``||R_hat||_2 <= ||rho||_F`` to first order, so the remaining
``14 eps ||rho||_F``, that is ``3.5 D eps ||rho||_F``, covers it. So at
d = 2 ``upper_bound`` meets F to within the margin, ``evaluations`` is 0
(no polar step runs), ``converged`` is True (nothing iterates) and
``starts_used`` is 1 (the one ``eigh``). Neither ``DUAL_STEPS`` nor the
Haar starts play a part, but ``budget`` and ``seed`` are still checked.

Above d = 2 the search is the generalized power method of Journee,
Nesterov, Richtarik and Sepulchre (JMLR 11, 2010) on the unitary group:
with ``G = reshape(rho vec U)``, step to the polar factor ``W V^dag`` of
the SVD ``G = W S V^dag``. No step lowers f. Because rho is PSD, f is convex,
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

The search refines its starts one at a time, in start order. Start 0 is
the identity. Start 1 is the spectral start: the polar factor
``W V^dag`` of ``reshape(v) = W S V^dag``, with v the top eigenvector of
rho from one ``eigh``. Of all unitaries, it gives the psi_U nearest to v,
since ``Re <psi_U|v> = Re Tr(U^dag reshape(v)) / sqrt(d)`` is largest at
the polar factor. When v is maximally entangled, it gives
``psi_U = v`` up to a phase, and so F = ``lambda_max(rho)`` at start 1.
On a Weyl-diagonal state ``sum_k p_k |Omega_k><Omega_k|``,
``Omega_k = (W_k (x) I)|psi+>``, that is the case: every Weyl unitary is a
fixed point of the polar step, and the spectral start is the one at
``argmax p_k`` (with distinct p_k). The start is also covariant: when
the top eigenvalue is simple, ``U_A (x) U_B`` takes v to
``(U_A (x) U_B) v`` up to a phase, ``reshape(v)`` to
``U_A reshape(v) U_B^T``, its polar factor P to ``U_A P U_B^T``, and
``psi_P`` to ``(U_A (x) U_B) psi_P``, as
``(A (x) I)|psi+> = (I (x) A^T)|psi+>``. The polar step is covariant in
the same way, so when the spectral start decides the search, the value
is the same in every local frame. Starts ``j >= 2`` are Haar unitaries,
each drawn from a stream of its own, ``(seed, j)``, only when the search
reaches it. A start's path depends on that start alone.

The identity comes first because the ``eigh`` is the costliest step of
a short search, ``O(d^6)`` against ``O(d^4)`` per polar step, and on
isotropic states the identity reaches the cap in one step. So the
``eigh`` is solved only when the search reaches start 1, that is, when
start 0 did not close the gap.

The search also has upper bounds, so it can stop once no start can do
better. The first is free: ``F(rho) <= lambda_max(rho)``.
Every ``psi_U = (U (x) I)|psi+>`` is a unit vector, since U is unitary,
and ``<psi|rho|psi> <= lambda_max(rho)`` for every unit vector psi (expand
psi in the eigenbasis of rho: the overlap is a convex combination of the
eigenvalues). So ``f(U) <= lambda_max(rho)`` for every U; on isotropic
states the identity start reaches this cap in one step. The cap is read
from the state, as the last entry of ``DensityMatrix.spectrum``: the
spectrum validation solved up to ``D = EAGER_MAX_DIM``, or one solve on
this first read above it. That eigenvalue is exact only to the backward
error of the solver, ``O(D eps ||rho||)``, so the cap is
``lambda_max + ROUNDOFF_ULPS * D * eps * ||rho||_F``, the margin of the
d = 2 closed form; without it, a value that reaches the cap could sit an
ulp above ``upper_bound``.

The second is the dual certificate, the SDP relaxation of F (Horodecki,
Horodecki and Horodecki, PRA 60, 1888, 1999). Every psi_U has both
marginals ``I/d``, so for any Hermitian H_A and H_B

    <psi_U| H_A (x) I |psi_U> = Tr(H_A) / d,   <psi_U| I (x) H_B |psi_U> = Tr(H_B) / d,

and hence, with ``M = rho - H_A (x) I - I (x) H_B``,

    f(U) = <psi_U|M|psi_U> + (Tr H_A + Tr H_B) / d <= lambda_max(M) + (Tr H_A + Tr H_B) / d

for every U: each such number bounds F. The pair is built traceless, and
the trace term only absorbs its round-off; soundness does not rest on
how the pair was chosen, only on how tight the bound is. At d = 2 the
least such bound equals F.

A good pair comes from a start's end point U with value f. Let
``G = reshape(rho vec U)`` and ``X = Herm(G U^dag) - f I``, which is
traceless because ``Tr(G U^dag) = d f``. For each traceless Hermitian K
(the gauge) take

    H_A = X/2 + K,    H_B = (U^dag (X/2 - K) U)^T.

Row-major vec turns ``(A (x) B) vec(Y)`` into ``vec(A Y B^T)``, so
``M vec(U) = vec(G - H_A U - U H_B^T) = vec(G - X U)``, which is
``f vec(U)`` when ``G U^dag`` is Hermitian, as it is at a fixed point of
the polar step (``G U^dag = W (S - SHIFT) W^dag``). So psi_U stays an
eigenvector of M(K) with eigenvalue f for every K, and the bound reaches
f exactly when some K makes f the top eigenvalue. ``lambda_max(M(K))``
is convex in K; with v the top eigenvector of M and ``V = reshape(v)``
its derivative along a traceless Hermitian direction D is
``-Tr(D (V V^dag - U V^dag V U^dag))``, the two partial traces of vv^dag.
So from ``K = 0`` the certificate takes Polyak subgradient steps on K
with target f: step ``(lambda_max - f) / ||grad||^2`` along the traceless
Hermitian part of ``V V^dag - U V^dag V U^dag``, the later steps
lengthened by ``POLYAK_FACTOR``, within Polyak's (0, 2), which closes
the slow tail that plain steps leave near the optimum. Every
``lambda_max`` evaluated gives a bound, and the least one is kept.

Round-off: each bound adds the margin ``ROUNDOFF_ULPS * D * eps * s``
with ``D = d^2`` and ``s = ||rho||_F + sqrt(d) (||H_A||_F + ||H_B||_F)``,
which bounds ``||M||_F``. Forming M costs at most two roundings per
entry, ``2 eps s`` in norm, and ``eigh`` returns the eigenvalues of a
matrix within ``O(D eps ||M||)`` of the one it was given (backward
stability, with the factor D for the Householder reduction). H_A and H_B
are Hermitian bit for bit (each is a Hermitian part), and so is M,
so ``eigh``, which reads one triangle, solves M itself.

A certificate costs one ``eigh`` of a D x D matrix per step, ``O(d^6)``,
against ``O(d^4)`` per start for a polar step, so it is rationed: only a
start that sets a new best value still below the bound, and more than
``GAP_TOL`` above the value last certified, is certified (a start that
lands within round-off of a certified one is at the same maximum, and its
certificate would spend the budget on the same gap); one
search spends at most ``DUAL_STEPS`` calls; a certificate ends early
when two steps have not halved its distance to f, or when the step would
be longer than ``||rho||_F`` (K is then near a stationary point whose
bound stays above f, as at a start that is not a global maximum); and
above ``DUAL_MAX_D`` no certificate runs, so there the search is the
cap-only search. The cutoff is measured on budget-64 searches over six
random states per d (one BLAS thread, best of 5). Certificates take
36-98% off the time at d = 3-6, since a closed gap spares every later
start, and 24% and 4% off at d = 7 and 8, where they close the gap at
start 0 on the states of rank 1-3 (1-2 at d = 8) and move the others by
-2% to +8%. At d = 16, with budget 16, they add 53%: one 256 x 256
``eigh`` takes longer than a whole pure-state search.

The stop rule: after start j ends, with ``best_j`` the best value of
starts ``0..j`` and ``bound_j`` the least of the cap and the certificates
of starts ``0..j``, the search stops at the first j with
``best_j >= bound_j - GAP_TOL``. A start that ends at the cap needs no
rule of its own, since its value is within ``GAP_TOL`` of every bound.
Whether the search stops at j, and what each certificate spends, depends
only on starts ``0..j``. So a larger budget runs the starts of a smaller
one first, each bit for bit the same, and the value is exactly
nondecreasing in the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bipartite import INCONCLUSIVE, STATISTIC_MARGIN, USEFUL, Verdict
from .linalg import (
    DensityMatrix,
    DimensionMismatchError,
    _dimension,
    _is_count,
    hermitian_part,
)
from .states import haar_unitary

UNITARITY_TOL = 1e-10
MEAN_IMAG_TOL = 1e-8
MAX_ITERATIONS = 1000
FIXED_POINT_TOL = 1e-8
GAP_TOL = 1e-12
SHIFT = 1e-6
DUAL_STEPS = 24
DUAL_MAX_D = 8
POLYAK_FACTOR = 1.9
ROUNDOFF_ULPS = 4
EPS = float(np.finfo(float).eps)

# sqrt(2) times the magic basis, one vector per column: Phi+, i Phi-, i Psi+,
# Psi-. Its entries are 0, +-1 and +-i, so products with it round only in sums.
_MAGIC = np.array([[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]])
_MAGIC.flags.writeable = False
_MAGIC_H = _MAGIC.conj().T
_MAGIC_H.flags.writeable = False


@dataclass(frozen=True, eq=False)
class DetectionOperator:
    """The d^2 x d^2 observable O_U together with the unitary that built it."""

    d: int
    unitary: np.ndarray
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class FefEstimate:
    """Best fully-entangled-fraction lower bound found by the search.

    ``upper_bound >= F(rho)`` is the least certified bound: the cap
    ``lambda_max(rho)`` plus its round-off margin, or a dual certificate
    below it, or at d = 2 the closed form plus the same margin (module
    docstring). ``starts_used`` counts
    the starts through the one that closed the gap between ``value`` and
    ``upper_bound`` to ``GAP_TOL``, or every start when none did; at
    d = 2 it is 1, with no polar step (``evaluations`` 0).
    """

    value: float
    best_unitary: np.ndarray
    evaluations: int
    converged: bool
    upper_bound: float
    starts_used: int


@np.errstate(over="ignore", invalid="ignore")
def unitarity_defect(u: np.ndarray) -> float:
    """Max-abs entry of ``U U^dag - I``, without a numpy warning.

    An inf or NaN entry of U, or a product that overflows, gives a NaN or
    inf defect, which fails every tolerance check. ``dot`` is the BLAS
    product of ``@``, bit for bit, with less call overhead, which pays for
    most of the error-state switch.
    """
    u = np.asarray(u)
    p = u.dot(u.conj().T)
    p.flat[:: len(p) + 1] -= 1
    return float(np.abs(p).max())


def detection_operator(u: np.ndarray) -> DetectionOperator:
    """Build O_U for a unitary U as the collapsed Weyl sum ``d vec(U) vec(U)^dag``.

    d is read from U, which must be square, at least 2x2 and unitary. The
    outer product is Hermitian to round-off (each entry and its mirror are
    conjugate products of the same two numbers).
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatchError(f"expected a square unitary, got shape {u.shape}")
    d = _dimension(u.shape[0])
    defect = unitarity_defect(u)
    if not defect <= UNITARITY_TOL:
        raise ValueError(f"input is not unitary: max |UU^dag - I| = {defect:.3e}")
    v = u.reshape(-1)
    matrix = d * (v[:, None] * v.conj())
    u = u.copy()
    u.flags.writeable = False
    matrix.flags.writeable = False
    return DetectionOperator(d, u, matrix)


def mean_value(rho: DensityMatrix, op: DetectionOperator) -> float:
    """``Tr(rho O_U)`` as the O(D^2) sum ``np.vdot(O, rho)``, checked to be real.

    ``np.vdot`` gives ``sum_ij conj(O[i, j]) rho[i, j]``, which equals
    ``Tr(rho O)`` for a Hermitian ``O``, as every built operator is. For a
    non-Hermitian ``O`` it gives the conjugate of ``Tr(rho O)``, so the real
    part and the ``|imag|`` check are the same. An inf entry gives
    ``nan+nanj`` without a numpy warning and fails the check. It reads the
    built operator, so it stays a route independent of the search.
    """
    if rho.dims != (op.d, op.d):
        raise DimensionMismatchError(
            f"state dims {rho.dims} do not match operator dimension {op.d}x{op.d}"
        )
    val = complex(np.vdot(op.matrix, rho.matrix))
    if not abs(val.imag) <= MEAN_IMAG_TOL:
        raise ArithmeticError(
            f"mean value has imaginary part {val.imag:.3e}; operator is broken"
        )
    return float(val.real)


def optimal_fidelity(f: float, d: int) -> float:
    """Optimal teleportation fidelity from the fully entangled fraction."""
    if not -1e-12 <= f <= 1.0 + 1e-9:
        raise ValueError(f"fully entangled fraction {f} outside [0, 1]")
    f = min(max(f, 0.0), 1.0)
    return (d * f + 1.0) / (d + 1.0)


def _value(rho: np.ndarray, u: np.ndarray) -> float:
    """Objective ``vec(U)^dag rho vec(U) / d`` at one unitary."""
    v = u.reshape(-1)
    return float(np.vdot(v, rho @ v).real) / u.shape[0]


def _gauge_pair(
    rho: np.ndarray, u: np.ndarray, f: float, k: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``H_A = X/2 + K`` and ``H_B = (U^dag (X/2 - K) U)^T``, ``X = Herm(G U^dag) - f I``."""
    d = u.shape[0]
    g = (rho @ u.reshape(-1)).reshape(d, d)
    half = (hermitian_part(g @ u.conj().T) - f * np.eye(d)) / 2
    return half + k, hermitian_part((u.conj().T @ (half - k) @ u).T)


def _dual_matrix(rho: np.ndarray, ha: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """``rho - H_A (x) I - I (x) H_B``, the left factor of each Kronecker product the slow index."""
    eye = np.eye(ha.shape[0])
    return rho - np.kron(ha, eye) - np.kron(eye, hb)


def _dual_bound(rho: np.ndarray, u: np.ndarray, f: float, calls: int) -> tuple[float, int]:
    """Least certified bound on F from the gauge family at U, and the ``eigh`` calls spent.

    ``rho`` is the state's matrix and ``f`` the search value at U. The
    first bound is at ``K = 0``; each further one follows a Polyak step on
    K with target f. Stops when a bound is within ``GAP_TOL`` of f, when
    two steps have not halved the distance of the least bound to f, when
    the step would be longer than ``||rho||_F`` (K is then near a stationary
    point whose bound stays above f), or after ``calls`` calls.
    """
    d = u.shape[0]
    k = np.zeros((d, d), dtype=complex)
    scale = float(np.linalg.norm(rho))
    bounds = [np.inf, np.inf]
    for spent in range(1, calls + 1):
        ha, hb = _gauge_pair(rho, u, f, k)
        lam, vecs = np.linalg.eigh(_dual_matrix(rho, ha, hb))
        top = float(lam[-1])
        slack = (np.trace(ha).real + np.trace(hb).real) / d
        margin = ROUNDOFF_ULPS * d * d * EPS * (
            scale + np.sqrt(d) * (np.linalg.norm(ha) + np.linalg.norm(hb))
        )
        bounds.append(min(bounds[-1], top + slack + margin))
        if bounds[-1] - f <= GAP_TOL or bounds[-1] - f > (bounds[-3] - f) / 2:
            break
        v = vecs[:, -1].reshape(d, d)
        grad = hermitian_part(v @ v.conj().T - u @ (v.conj().T @ v) @ u.conj().T)
        grad -= np.trace(grad).real / d * np.eye(d)
        norm = float(np.linalg.norm(grad))
        if top - f > scale * norm:
            break
        k = k + ((1.0 if spent == 1 else POLYAK_FACTOR) * (top - f) / norm**2) * grad
    return float(bounds[-1]), spent


def _polar_ascent(rho: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Iterate ``U <- polar(reshape(rho vec U) + SHIFT U)`` from one start.

    Stops at the first step that moves no entry by ``FIXED_POINT_TOL`` or
    more, or after ``MAX_ITERATIONS`` steps. Returns the last unitary, the
    number of steps and whether the last step was a fixed point.
    """
    d = u.shape[0]
    for step in range(1, MAX_ITERATIONS + 1):
        g = (rho @ u.reshape(d * d, 1)).reshape(d, d)
        w, _, vh = np.linalg.svd(g + SHIFT * u)
        nxt = w @ vh
        fixed = bool(np.max(np.abs(nxt - u)) < FIXED_POINT_TOL)
        u = nxt
        if fixed:
            break
    return u, step, fixed


def _two_qubit_fef(m: np.ndarray, cap: float, margin: float) -> FefEstimate:
    """The d = 2 closed form: F = ``lambda_max(R)`` and a unitary at it (module docstring)."""
    lam, vecs = np.linalg.eigh((_MAGIC_H @ m @ _MAGIC).real / 2)
    u = (_MAGIC @ vecs[:, -1]).reshape(2, 2)
    u.flags.writeable = False
    value = _value(m, u)
    return FefEstimate(value, u, 0, True, min(cap, float(lam[-1]) + margin), 1)


def _start(m: np.ndarray, d: int, seed, j: int) -> np.ndarray:
    """Start j above d = 2: the identity, the spectral start, then Haar from ``(seed, j)``."""
    if j == 0:
        return np.eye(d, dtype=complex)
    if j == 1:
        w, _, vh = np.linalg.svd(np.linalg.eigh(m)[1][:, -1].reshape(d, d))
        return w @ vh
    return haar_unitary(d, (seed, j))


def _require_integer(value, name: str, least: int) -> None:
    """Reject a bool, a non-integer or a value below ``least``; numpy integers pass."""
    if not _is_count(value, least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def fef_search(rho: DensityMatrix, budget: int = 64, *, seed) -> FefEstimate:
    """Fully entangled fraction: the closed form at d = 2, a multi-start lower-bound search above.

    rho must be a d x d pair with d >= 2 (else DimensionMismatchError),
    ``budget`` an integer >= 1 and ``seed`` an integer >= 0 (a bool is
    neither); all three are checked first, at every d. At d = 2 the result is
    the closed form of the module docstring: ``value`` is F to round-off,
    ``upper_bound`` is ``min(lambda_max(rho), lambda_max(R)) + margin``,
    ``evaluations`` is 0, ``converged`` is True and ``starts_used`` is 1.
    Above d = 2, ``budget`` counts refinement starts: start 0 is the
    identity, start 1 the polar factor of the reshaped top eigenvector of
    rho (one ``eigh``, solved only when the search reaches it), and start
    ``j >= 2`` a Haar unitary drawn from the stream ``(seed, j)`` when the
    search reaches it. The starts are refined one at a time, in start
    order, by polar iteration; each stops when a step moves no entry of
    its U by ``FIXED_POINT_TOL`` or more, or after ``MAX_ITERATIONS``
    steps. Each start that sets a new best value below the bound, and
    more than ``GAP_TOL`` above the value last certified, gets a dual
    certificate from the shared budget of ``DUAL_STEPS`` ``eigh`` calls
    (for ``d <= DUAL_MAX_D``). The search
    stops after the first start j whose best value over starts ``0..j``
    is within ``GAP_TOL`` of the least bound of starts ``0..j``: the cap
    ``lambda_max(rho)``, read from ``rho.spectrum``, plus its round-off
    margin ``ROUNDOFF_ULPS * d^2 * eps * ||rho||_F``, or a certificate.
    ``upper_bound`` is that least bound and ``starts_used`` is j + 1
    (``budget`` when the gap stays open). ``evaluations`` is the total
    number of polar steps over the starts used, and ``converged`` says
    every start used reached a fixed point.
    Ties go to the first start with the largest value.
    """
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1] or rho.dims[0] < 2:
        raise DimensionMismatchError(
            f"expected a d x d bipartition with d >= 2, got dims {rho.dims}"
        )
    d = rho.dims[0]
    _require_integer(budget, "budget", 1)
    _require_integer(seed, "seed", 0)
    m = rho.matrix
    margin = ROUNDOFF_ULPS * d * d * EPS * math.sqrt(np.vdot(m, m).real)
    bound = float(rho.spectrum[-1]) + margin
    if d == 2:
        return _two_qubit_fef(m, bound, margin)
    dual_left = DUAL_STEPS if d <= DUAL_MAX_D else 0
    best, best_u, evaluations, converged = -np.inf, None, 0, True
    certified = -np.inf
    for j in range(budget):
        u, steps, fixed = _polar_ascent(m, _start(m, d, seed, j))
        evaluations += steps
        converged = converged and fixed
        value = _value(m, u)
        if value > best:
            best, best_u = value, u
            if dual_left and certified + GAP_TOL < best < bound - GAP_TOL:
                cert, spent = _dual_bound(m, u, best, dual_left)
                bound, dual_left, certified = min(bound, cert), dual_left - spent, best
        if best >= bound - GAP_TOL:
            break
    best_u.flags.writeable = False
    return FefEstimate(best, best_u, evaluations, converged, bound, j + 1)


def verdict_from_estimate(est: FefEstimate) -> Verdict:
    """Map a search result onto the usefulness test ``<O_U> > d``: USEFUL or INCONCLUSIVE.

    d is read from ``est.best_unitary``; the statistic is ``d^2 value``.
    """
    d = est.best_unitary.shape[0]
    statistic = d * d * est.value
    outcome = USEFUL if statistic > d + STATISTIC_MARGIN else INCONCLUSIVE
    return Verdict("teleportation", outcome, statistic, float(d))


def teleportation_verdict(rho: DensityMatrix, budget: int = 64, *, seed) -> Verdict:
    """Search for a witnessing unitary and report USEFUL or INCONCLUSIVE.

    The search yields only a lower bound on the fully entangled fraction,
    so a negative outcome never claims the state is useless.
    """
    return verdict_from_estimate(fef_search(rho, budget, seed=seed))

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

The search is the generalized power method of Journee, Nesterov,
Richtarik and Sepulchre (JMLR 11, 2010) on the unitary group: with
``G = reshape(rho vec U)``, step to the polar factor ``W V^dag`` of the
SVD ``G = W S V^dag``. No step lowers f. Because rho is PSD, f is convex,
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

All starts of one search run as a ``(budget, d, d)`` stack: each step is
one stacked ``rho vec U`` product, one batched SVD and one stacked
``W V^dag`` over the starts still active, and a start leaves the stack at
its own fixed point. The products are stacked matrix-vector products,
one BLAS call per start, never one matrix product over the whole stack.
That keeps every start's arithmetic independent of which other starts
share the stack, so a start's path, and hence the search value, is
bit-for-bit the same at every budget, and the value is exactly
nondecreasing in the budget rather than only up to round-off.

The search also has a free upper bound: ``F(rho) <= lambda_max(rho)``.
Every ``psi_U = (U (x) I)|psi+>`` is a unit vector, since U is unitary,
and ``<psi|rho|psi> <= lambda_max(rho)`` for every unit vector psi (expand
psi in the eigenbasis of rho: the overlap is a convex combination of the
eigenvalues). So ``f(U) <= lambda_max(rho)`` for every U, and a start
whose value reaches the cap is optimal; on isotropic states the identity
start reaches it in one step. The cap is read from the state, as the last
entry of ``DensityMatrix.spectrum``: lambda_max of the Hermitian part
``(rho + rho^dag) / 2``, which validation has already solved. The real
part of ``vec(U)^dag rho vec(U)`` is exactly the quadratic form of that
Hermitian part, so the cap stays exact on inputs that carry a small
Hermiticity defect. A start *reaches the cap* when it arrives
at its fixed point with a value of at least ``lambda_max - CAP_TOL``.
The first such start, j*, ends the search for the starts after it, which
leave the stack at once; the starts before it run on to their own ends.
The result is the best of starts ``0..j*``, which is exactly what a search
that refines one start at a time and stops at its first start at the cap
returns. Whether start j reaches the cap depends only on start j's own
arithmetic, so j* is the same at every budget that includes it. A
budget b below j* + 1 runs starts ``0..b-1``, a prefix of the starts of
any larger budget; at and above j* + 1 every budget runs the same
starts ``0..j*``.
Either way a larger budget runs a superset of the starts, each bit for
bit the same, and the value stays exactly nondecreasing in the budget.
Stopping the whole stack at the first start at the cap would not keep
this: the earlier starts would end at a step that depends on which later
starts share the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import INCONCLUSIVE, STATISTIC_MARGIN, USEFUL, Verdict
from .linalg import DensityMatrix, DimensionMismatchError, hermiticity_defect
from .states import haar_unitaries
from .weyl import weyl_basis

UNITARITY_TOL = 1e-10
MEAN_IMAG_TOL = 1e-8
MAX_ITERATIONS = 1000
FIXED_POINT_TOL = 1e-8
CAP_TOL = 1e-12
SHIFT = 1e-6


@dataclass(frozen=True)
class DetectionOperator:
    """The d^2 x d^2 observable O_U together with the unitary that built it."""

    d: int
    unitary: np.ndarray
    matrix: np.ndarray


@dataclass(frozen=True)
class FefEstimate:
    """Best fully-entangled-fraction lower bound found by the search.

    ``upper_bound`` is the cap ``lambda_max(rho) >= F(rho)``, and
    ``starts_used`` the number of starts the search ran before it stopped.
    """

    value: float
    best_unitary: np.ndarray
    evaluations: int
    converged: bool
    upper_bound: float
    starts_used: int


def unitarity_defect(u: np.ndarray) -> float:
    """Max-abs entry of ``U U^dag - I``."""
    u = np.asarray(u)
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


def detection_operator(u: np.ndarray, d: int | None = None) -> DetectionOperator:
    """Build O_U for a unitary U as the collapsed Weyl sum ``d vec(U) vec(U)^dag``.

    The result is checked to be Hermitian; non-unitary or mis-sized inputs
    are rejected.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatchError(f"expected a square unitary, got shape {u.shape}")
    if d is None:
        d = u.shape[0]
    if u.shape[0] != d:
        raise DimensionMismatchError(f"unitary is {u.shape[0]}x{u.shape[0]}, expected {d}x{d}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    defect = unitarity_defect(u)
    if defect > UNITARITY_TOL:
        raise ValueError(f"input is not unitary: max |UU^dag - I| = {defect:.3e}")
    v = u.reshape(-1)
    matrix = d * np.outer(v, v.conj())
    herm = hermiticity_defect(matrix)
    if herm > UNITARITY_TOL:
        raise ArithmeticError(f"assembled operator lost Hermiticity: defect {herm:.3e}")
    u = u.copy()
    u.flags.writeable = False
    matrix.flags.writeable = False
    return DetectionOperator(d, u, matrix)


def mean_value(rho: DensityMatrix, op: DetectionOperator) -> float:
    """``Tr(rho O_U)`` as the O(D^2) sum ``sum_ij rho[i, j] O[j, i]``, checked to be real.

    It reads the built operator, so it stays a route independent of the search.
    """
    if rho.dims != (op.d, op.d):
        raise DimensionMismatchError(
            f"state dims {rho.dims} do not match operator dimension {op.d}x{op.d}"
        )
    val = complex(np.sum(rho.matrix * op.matrix.T))
    if abs(val.imag) > MEAN_IMAG_TOL:
        raise ArithmeticError(
            f"mean value has imaginary part {val.imag:.3e}; operator is broken"
        )
    return float(val.real)


def optimal_fidelity(f: float, d: int) -> float:
    """Optimal teleportation fidelity from the fully entangled fraction."""
    if f < -1e-12 or f > 1.0 + 1e-9:
        raise ValueError(f"fully entangled fraction {f} outside [0, 1]")
    f = min(max(f, 0.0), 1.0)
    return (d * f + 1.0) / (d + 1.0)


def _values(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Objective ``vec(U)^dag rho vec(U) / d`` of every unitary in a ``(k, d, d)`` stack."""
    k, d, _ = u.shape
    vecs = u.reshape(k, d * d, 1)
    overlaps = np.matmul(vecs.conj().transpose(0, 2, 1), np.matmul(rho, vecs))
    return overlaps.real.reshape(k) / d


def _polar_ascent_stack(
    state: DensityMatrix, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Iterate ``U <- polar(reshape(rho vec U) + SHIFT U)`` on a ``(k, d, d)`` start stack.

    Each step refines, in one call per operation, the starts still active;
    a start whose step moves no entry by ``FIXED_POINT_TOL`` or more leaves
    the active set there. A start that leaves with a value of at least
    ``cap - CAP_TOL``, where ``cap = state.spectrum[-1]``, reaches the cap:
    every later start leaves the stack with it, and earlier starts run on.
    Returns, for the starts up to the first that reaches the cap (all
    starts when none does), the last unitary of each, its step count,
    whether it reached a fixed point before ``MAX_ITERATIONS`` steps and
    its value; then the cap.
    """
    k, d, _ = starts.shape
    rho, cap = state.matrix, float(state.spectrum[-1])
    u = np.array(starts, dtype=complex)
    steps = np.full(k, MAX_ITERATIONS)
    fixed = np.zeros(k, dtype=bool)
    values = np.empty(k)
    used = k
    active = np.arange(k)
    cur = u
    for step in range(1, MAX_ITERATIONS + 1):
        # stacked matvecs: one BLAS call per slice, never one gemm over the stack
        g = np.matmul(rho, cur.reshape(-1, d * d, 1)).reshape(cur.shape)
        w, _, vh = np.linalg.svd(g + SHIFT * cur)
        nxt = w @ vh
        done = np.max(np.abs(nxt - cur), axis=(1, 2)) < FIXED_POINT_TOL
        if not done.any():
            cur = nxt
            continue
        finished, arrived = active[done], nxt[done]
        u[finished] = arrived
        steps[finished] = step
        fixed[finished] = True
        values[finished] = _values(rho, arrived)
        hits = finished[values[finished] >= cap - CAP_TOL]
        if hits.size:
            used = min(used, int(hits[0]) + 1)
        keep = ~done & (active < used)
        active, cur = active[keep], nxt[keep]
        if not active.size:
            break
    else:
        u[active] = cur
        values[active] = _values(rho, cur)
    return u[:used], steps[:used], fixed[:used], values[:used], cap


def fef_search(rho: DensityMatrix, budget: int = 64, *, seed) -> FefEstimate:
    """Multi-start lower-bound search for the fully entangled fraction.

    ``budget`` counts refinement starts. The deterministic starts come
    first (identity, then every Weyl unitary); remaining slots are Haar
    samples, each drawn from a private stream derived from
    ``(seed, start index)`` so results are reproducible and nondecreasing
    in the budget. All starts are refined together as one stack by polar
    iteration, each start with arithmetic of its own so that a larger
    budget cannot perturb the starts of a smaller one (see the module
    docstring); each stops when a step moves no entry of its U by
    ``FIXED_POINT_TOL`` or more, or after ``MAX_ITERATIONS`` steps. The
    first start that stops at ``lambda_max(rho) - CAP_TOL`` or above ends
    the search for every later start. ``upper_bound`` is that cap,
    ``lambda_max(rho)``, read from ``rho.spectrum``; ``starts_used``
    counts the starts up to and including that first start at the cap
    (``budget`` when none reaches it). ``evaluations`` is the total number
    of steps over the starts used, and ``converged`` says every start used
    reached a fixed point.
    Ties go to the first start with the largest value.
    """
    da, db = _require_square(rho)
    d = da
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    starts = np.empty((budget, d, d), dtype=complex)
    # ops[0] is the identity, so it always leads the start set
    n_weyl = min(budget, d * d)
    starts[:n_weyl] = weyl_basis(d).ops[:n_weyl]
    if budget > n_weyl:
        starts[n_weyl:] = haar_unitaries(d, [(seed, idx) for idx in range(n_weyl, budget)])
    u, steps, fixed, values, cap = _polar_ascent_stack(rho, starts)
    best = int(np.argmax(values))
    best_u = u[best].copy()
    best_u.flags.writeable = False
    return FefEstimate(
        float(values[best]), best_u, int(steps.sum()), bool(fixed.all()), cap, len(u)
    )


def verdict_from_estimate(est: FefEstimate, d: int) -> Verdict:
    """Map a search result onto the usefulness test ``<O_U> > d``: USEFUL or INCONCLUSIVE."""
    statistic = d * d * est.value
    outcome = USEFUL if statistic > d + STATISTIC_MARGIN else INCONCLUSIVE
    return Verdict("teleportation", outcome, statistic, float(d))


def teleportation_verdict(rho: DensityMatrix, budget: int = 64, *, seed) -> Verdict:
    """Search for a witnessing unitary and report USEFUL or INCONCLUSIVE.

    The search yields only a lower bound on the fully entangled fraction,
    so a negative outcome never claims the state is useless.
    """
    d, _ = _require_square(rho)
    return verdict_from_estimate(fef_search(rho, budget, seed=seed), d)


def _require_square(rho: DensityMatrix) -> tuple[int, int]:
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1] or rho.dims[0] < 2:
        raise DimensionMismatchError(
            f"expected a d x d bipartition with d >= 2, got dims {rho.dims}"
        )
    return rho.dims[0], rho.dims[1]

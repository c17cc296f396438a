"""Independent brute-force oracles and test ensembles.

Nothing here goes through the library's search or decomposition paths, so
these values can certify them. The exceptions are
:func:`scan_one_row_at_a_time`, which pins the stacked ``scan`` to the
library's single-state functions, :func:`matrix_entries_one_at_a_time`,
the entrywise form of the CLI's JSON serializer, and
:func:`isotropic_matrix_by_terms`, which mixes the library's ket.
"""

from __future__ import annotations

import csv
import functools
import io

import numpy as np

GRID_STEP = np.pi / 120

# Per component of psi = (U (x) I)|psi+> with U = Rz(a) Ry(b) Rz(g):
# sign, half-angle trig factor (cos or sin of b/2), and the half-integer
# exponents of exp(1j*a), exp(1j*g).
_COMPONENTS = (
    (1.0, "c", -1, -1),
    (-1.0, "s", -1, 1),
    (1.0, "s", 1, -1),
    (1.0, "c", 1, 1),
)

# (trig_k, trig_l) products expanded over the basis (1, cos b, sin b).
_TRIG_PRODUCTS = {
    ("c", "c"): (0.5, 0.5, 0.0),
    ("s", "s"): (0.5, -0.5, 0.0),
    ("c", "s"): (0.0, 0.0, 0.5),
    ("s", "c"): (0.0, 0.0, 0.5),
}


def _fourier_tables(rho: np.ndarray) -> np.ndarray:
    """Coefficients C[t, m, n] with

    <psi|rho|psi> = Re sum_{m,n} (C0 + C1 cos b + C2 sin b)[m, n]
                                  * exp(1j*m*a) * exp(1j*n*g),

    m, n in {-1, 0, 1} stored at index m+1, n+1. Exact: each psi component
    carries half-integer frequencies, so products have frequencies <= 1.
    """
    c = np.zeros((3, 3, 3), dtype=complex)
    for k, (sk, tk, pk, qk) in enumerate(_COMPONENTS):
        for l, (sl, tl, pl, ql) in enumerate(_COMPONENTS):
            m = (pl - pk) // 2
            n = (ql - qk) // 2
            w0, w1, w2 = _TRIG_PRODUCTS[(tk, tl)]
            base = 0.5 * sk * sl * rho[k, l]
            c[0, m + 1, n + 1] += base * w0
            c[1, m + 1, n + 1] += base * w1
            c[2, m + 1, n + 1] += base * w2
    return c


def _psi_euler(a, b, g):
    ca, sa = np.cos(b / 2.0), np.sin(b / 2.0)
    ea, eg = np.exp(0.5j * a), np.exp(0.5j * g)
    return np.array(
        [ca / (ea * eg), -sa * eg / ea, sa * ea / eg, ca * ea * eg]
    ) / np.sqrt(2.0)


def fef_grid_oracle_2x2(rho_matrices, step=GRID_STEP, spot_checks=64):
    """Max of <psi_U| rho |psi_U> over a full Euler-angle grid.

    U = Rz(a) Ry(b) Rz(g) with a, g in [0, 2*pi) and b in [0, pi], all at
    the given step (about 7e6 grid points at pi/120). The grid values are
    produced through the exact Fourier form of the objective and verified
    against direct evaluation at ``spot_checks`` random grid points, so
    the result is a plain exhaustive grid maximum per state.
    """
    n_half = int(round(np.pi / step))
    alphas = step * np.arange(2 * n_half)
    betas = step * np.arange(n_half + 1)
    gammas = step * np.arange(2 * n_half)

    ex = np.exp(1j * np.outer(alphas, np.array([-1, 0, 1])))
    ey = np.exp(1j * np.outer(gammas, np.array([-1, 0, 1])))
    cb = np.cos(betas)[:, None, None]
    sb = np.sin(betas)[:, None, None]

    rng = np.random.default_rng(0)
    best = np.empty(len(rho_matrices))
    for i, rho in enumerate(rho_matrices):
        rho = np.asarray(rho, dtype=complex)
        c = _fourier_tables(rho)
        t0 = (ex @ c[0] @ ey.T).real
        t1 = (ex @ c[1] @ ey.T).real
        t2 = (ex @ c[2] @ ey.T).real
        grid = t0[None, :, :] + cb * t1[None, :, :] + sb * t2[None, :, :]
        best[i] = float(grid.max())
        for _ in range(spot_checks):
            ia = rng.integers(len(alphas))
            ib = rng.integers(len(betas))
            ig = rng.integers(len(gammas))
            psi = _psi_euler(alphas[ia], betas[ib], gammas[ig])
            direct = float(np.real(psi.conj() @ rho @ psi))
            if abs(direct - grid[ib, ia, ig]) > 1e-10:
                raise AssertionError(
                    f"oracle self-check failed: {direct} vs {grid[ib, ia, ig]}"
                )
    return best


def haar_from_rng(rng: np.random.Generator, d: int) -> np.ndarray:
    """QR-based Haar unitary drawn from an existing generator."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r)
    return q * (ph / np.abs(ph))


def random_entangled_pure_matrix(da: int, db: int, seed) -> np.ndarray:
    """Projector onto a pure state with full Schmidt rank by construction.

    Schmidt coefficients are floored away from zero, so the Schmidt rank is
    exactly min(da, db) >= 2 with a sizable margin.
    """
    rng = np.random.default_rng(seed)
    r = min(da, db)
    lam = rng.dirichlet(np.ones(r))
    lam = 0.5 * lam + 0.5 / r
    ua = haar_from_rng(rng, da)
    ub = haar_from_rng(rng, db)
    ket = np.zeros(da * db, dtype=complex)
    for i in range(r):
        ket += np.sqrt(lam[i]) * np.kron(ua[:, i], ub[:, i])
    return np.outer(ket, ket.conj())


def tiles_state_matrix() -> np.ndarray:
    """The 3x3 tiles bound-entangled state, built from its definition.

    ``(I - sum_i |psi_i><psi_i|) / 4`` over the five product vectors of
    the tiles unextendible product basis (Bennett et al., PRL 82, 5385,
    1999), written out entry by entry in the computational basis.
    """
    e = np.eye(3)
    kets = [
        np.kron(e[0], e[0] - e[1]) / np.sqrt(2.0),
        np.kron(e[0] - e[1], e[2]) / np.sqrt(2.0),
        np.kron(e[2], e[1] - e[2]) / np.sqrt(2.0),
        np.kron(e[1] - e[2], e[0]) / np.sqrt(2.0),
        np.ones(9) / 3.0,
    ]
    projector = sum(np.outer(k, k) for k in kets)
    return (np.eye(9) - projector).astype(complex) / 4.0


def realigned_kyfan(rho: np.ndarray, da: int, db: int) -> float:
    """Correlation-matrix Ky Fan norm through realignment, with no basis.

    The correlation part of rho is the centred operator
    ``rho - rho_A (x) I/dB - I/dA (x) rho_B + I/(dA*dB)``. Realigning it,
    ``R[(i,j),(k,l)] = C[(i,k),(j,l)]``, maps every product term
    ``X (x) Y`` to ``vec(X) vec(Y)^T``. For any operator basis with
    ``Tr(B_s^dag B_t) = d delta_st`` on each factor, the Weyl basis among
    them, the correlation matrix therefore has Ky Fan norm
    ``sqrt(dA*dB)`` times the trace norm of R.
    """
    rho = np.asarray(rho, dtype=complex)
    r4 = rho.reshape(da, db, da, db)
    rho_a = np.einsum("ikjk->ij", r4)
    rho_b = np.einsum("kikj->ij", r4)
    centred = (
        rho
        - np.kron(rho_a, np.eye(db)) / db
        - np.kron(np.eye(da), rho_b) / da
        + np.eye(da * db) / (da * db)
    )
    realigned = centred.reshape(da, db, da, db).transpose(0, 2, 1, 3)
    sv = np.linalg.svd(realigned.reshape(da * da, db * db), compute_uv=False)
    return float(np.sqrt(da * db) * sv.sum())


def gell_mann_matrices(d: int) -> np.ndarray:
    """The d^2 - 1 generalized Gell-Mann matrices, ``Tr(l_i l_j) = 2 delta_ij``.

    Symmetric and antisymmetric off-diagonal pairs first, then the
    diagonal ones.
    """
    out = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k], anti[k, j] = -1j, 1j
            out += [sym, anti]
    for l in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        diag[:l, :l] = np.eye(l)
        diag[l, l] = -l
        out.append(np.sqrt(2.0 / (l * (l + 1))) * diag)
    return np.array(out)


def gell_mann_kyfan(rho: np.ndarray, da: int, db: int) -> float:
    """Correlation-matrix Ky Fan norm through the Gell-Mann basis.

    ``T[s,t] = Tr(rho l_s (x) l_t)`` is the correlation matrix of de
    Vicente (QIC 7, 624, 2007) up to the factor ``dA*dB/4``. The Gell-Mann
    matrices have ``Tr(l^2) = 2`` where the Weyl operators have
    ``Tr(W^dag W) = d``, so the Weyl-basis norm is
    ``sqrt(dA*dB)/2 * ||T||_tr``.
    """
    r4 = np.asarray(rho, dtype=complex).reshape(da, db, da, db)
    t = np.einsum("iajb,sji,tba->st", r4, gell_mann_matrices(da), gell_mann_matrices(db))
    return float(np.sqrt(da * db) / 2.0 * np.linalg.svd(t, compute_uv=False).sum())


def _weyl_entrywise(d: int, n: int, m: int) -> np.ndarray:
    """W(n, m) entry by entry: ``exp(2j*pi*k*n/d)`` at ``(k, (k+m) mod d)``."""
    w = np.zeros((d, d), dtype=complex)
    for k in range(d):
        w[k, (k + m) % d] = np.exp(2j * np.pi * k * n / d)
    return w


def weyl_diagonal_matrix(weights) -> np.ndarray:
    """``sum_k p_k |Omega_k><Omega_k|`` with ``Omega_k = (W_k (x) I)|psi+>``.

    A state of the magic simplex (Baumgartner, Hiesmayr and Narnhofer,
    PRA 74, 032327, 2006): ``weights`` holds the ``d^2`` probabilities
    ``p_k``, lexicographic in ``(n, m)``, and each W_k is built entry by
    entry. Its fully entangled fraction is ``max p_k``.
    """
    weights = np.asarray(weights, dtype=float)
    d = int(round(np.sqrt(weights.size)))
    psi = np.eye(d).reshape(-1) / np.sqrt(d)
    kets = [np.kron(_weyl_entrywise(d, n, m), np.eye(d)) @ psi for n in range(d) for m in range(d)]
    return sum(p * np.outer(k, k.conj()) for p, k in zip(weights, kets))


def weyl_diagonal_kyfan(weights) -> float:
    """The Ky Fan statistic of :func:`weyl_diagonal_matrix` in closed form: ``sum_{s != 0} |p-hat(s)|``.

    ``p-hat(s) = sum_k p_k chi_k(s)``, where ``chi_k(s) = exp(2j*pi*(n_k m_s
    - m_k n_s)/d)`` is the commutation phase of ``W_k = W(n_k, m_k)`` and
    ``W_s``. The state's table is ``p-hat(s)`` at ``(s, s-bar)`` and 0
    elsewhere, so its correlation matrix is monomial with singular values
    ``|p-hat(s)|`` (Baumgartner, Hiesmayr and Narnhofer, PRA 74, 032327,
    2006). The sign convention of the phase does not change a modulus.
    """
    weights = np.asarray(weights, dtype=float)
    d = int(round(np.sqrt(weights.size)))
    n, m = np.divmod(np.arange(d * d), d)
    chi = np.exp(2j * np.pi * ((np.outer(n, m) - np.outer(m, n)) % d) / d)  # [k, s]
    return float(np.abs(weights @ chi)[1:].sum())


def isotropic_weights(d: int, p: float) -> np.ndarray:
    """The magic-simplex weights of the isotropic state: ``p + (1-p)/d^2`` on psi+, ``(1-p)/d^2`` elsewhere."""
    weights = np.full(d * d, (1.0 - p) / (d * d))
    weights[0] += p
    return weights


def bell_diagonal_weights(t) -> np.ndarray:
    """The magic-simplex weights of ``(I + t1 XX + t2 YY + t3 ZZ) / 4``, in Weyl order.

    ``Omega_k = (W_k (x) I)|psi+>`` for ``W_k = I, X, Z, iY`` is
    ``|00> + |11>``, ``|01> + |10>``, ``|00> - |11>`` and ``|01> - |10>``
    (normalized, up to phase), on which XX, YY, ZZ take the values
    ``(1, -1, 1)``, ``(1, 1, -1)``, ``(-1, 1, 1)`` and ``(-1, -1, -1)``.
    """
    signs = np.array([[1, -1, 1], [1, 1, -1], [-1, 1, 1], [-1, -1, -1]], dtype=float)
    return (1.0 + signs @ np.asarray(t, dtype=float)) / 4


def octahedron_face_points() -> list[tuple[float, float, float]]:
    """Bell-diagonal parameters with ``|t1| + |t2| + |t3| = 1``, the separable boundary.

    Fixed points on the axes, an edge and a face, then one seeded point of
    each of the octahedron's eight faces. Each lies in the tetrahedron of
    states, which holds the octahedron.
    """
    points = [(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.5, -0.5, 0.0), (-0.25, 0.25, 0.5)]
    rng = np.random.default_rng(31)
    for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
                  (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1)):
        w = rng.dirichlet(np.ones(3))
        points.append(tuple((np.array(signs) * w / w.sum()).tolist()))
    return points


def bell_diagonal_matrix_by_terms(t1, t2, t3) -> np.ndarray:
    """``(I + t1 XX + t2 YY + t3 ZZ) / 4`` summed term by term.

    The Pauli products are complex Kronecker products, each term is a
    complex product added to the running sum, and the sum is divided by 4
    as a complex array: the bytes every formula of the Bell-diagonal
    matrix is held to.
    """
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    m = np.eye(4, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for t, p in zip((t1, t2, t3), paulis):
            m = m + t * np.kron(p, p)
        return m / 4.0


@functools.lru_cache(maxsize=1)
def _isotropic_terms(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The complex identity and ``|psi+><psi+|`` of one d, kept for the next call with that d."""
    from weylsep import max_entangled_ket

    ket = max_entangled_ket(d)
    terms = np.eye(d * d, dtype=complex), np.outer(ket, ket.conj())
    for term in terms:
        term.flags.writeable = False
    return terms


def isotropic_matrix_by_terms(d: int, p) -> np.ndarray:
    """``(1-p)/d^2 * I + p * |psi+><psi+|`` summed term by term.

    The identity is complex, the projector is the complex outer product of
    :func:`weylsep.max_entangled_ket` with its conjugate, and each term is a
    complex product: the bytes every formula of the isotropic matrix is
    held to. The two terms are built once per d, for consecutive calls
    with the same d.
    """
    identity, projector = _isotropic_terms(d)
    m = (1.0 - p) / (d * d) * identity
    m += p * projector
    return m


def weyl_coefficient_table(rho: np.ndarray, da: int, db: int) -> np.ndarray:
    """``Tr[rho (W_s^dag (x) W_t^dag)]`` for every pair, by explicit traces.

    Rows run over the ``da^2`` operators ``(n, m)`` of the first factor and
    columns over the ``db^2`` of the second, lexicographic in ``(n, m)``;
    ``db = 1`` gives the single-system coefficients in one column.
    """
    ops_a = [_weyl_entrywise(da, n, m) for n in range(da) for m in range(da)]
    ops_b = [_weyl_entrywise(db, n, m) for n in range(db) for m in range(db)]
    table = np.empty((da * da, db * db), dtype=complex)
    for s, wa in enumerate(ops_a):
        for t, wb in enumerate(ops_b):
            table[s, t] = np.trace(rho @ np.kron(wa.conj().T, wb.conj().T))
    return table


def weyl_sum_operator(u: np.ndarray) -> np.ndarray:
    """``sum_(n,m) (U W_nm U^dag) (x) conj(W_nm)``, term by term.

    The detection operator by its defining Weyl sum, with each W(n, m)
    built entry by entry; the library builds the collapsed closed form.
    """
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    total = np.zeros((d * d, d * d), dtype=complex)
    for n in range(d):
        for m in range(d):
            w = _weyl_entrywise(d, n, m)
            total += np.kron(u @ w @ u.conj().T, w.conj())
    return total


_S = 1.0 / np.sqrt(2.0)
# Magic basis as columns: |Phi+>, i|Phi->, i|Psi+>, |Psi->.
_MAGIC = np.array(
    [
        [_S, 1j * _S, 0, 0],
        [0, 0, 1j * _S, _S],
        [0, 0, 1j * _S, -_S],
        [_S, -1j * _S, 0, 0],
    ]
)


def fef_magic_2x2(rho: np.ndarray) -> float:
    """Fully entangled fraction of a two-qubit state in closed form.

    Up to a global phase, the maximally entangled two-qubit states are the
    real unit vectors in the magic basis, so F is the largest eigenvalue of
    ``Re(M^dag rho M)`` (Badziag, Horodecki, Horodecki and Horodecki,
    PRA 62, 012311, 2000).
    """
    m = _MAGIC.conj().T @ np.asarray(rho, dtype=complex) @ _MAGIC
    return float(np.linalg.eigvalsh(m.real)[-1])


# The polar search's stopping rule and shift, as the teleport module
# docstring states them.
POLAR_MAX_ITERATIONS = 1000
POLAR_FIXED_POINT_TOL = 1e-8
POLAR_SHIFT = 1e-6
POLAR_CAP_TOL = 1e-12


def fef_one_start_at_a_time(
    rho: np.ndarray, starts: np.ndarray, cap=None, tol=POLAR_CAP_TOL, upper=None
):
    """Polar search refined one start at a time, in start order.

    From each U in ``starts`` iterate ``U <- W V^dag``, the polar factor of
    ``reshape(rho vec U) + SHIFT U``, until a step moves no entry by the
    tolerance or the step limit is reached; the objective is
    ``vec(U)^dag rho vec(U) / d``. Returns ``(value, best_unitary,
    evaluations, converged)`` with ties going to the first start, to
    compare against the library's search.

    With ``cap`` (an upper bound on the objective), the search stops after
    the first start j whose best value over starts ``0..j`` is at least
    ``bound - tol``, and the number of starts run is appended to the
    result: the one-start-at-a-time form of the library's stopping rule.
    ``bound`` is the least of ``cap`` and the certificates of starts
    ``0..j``: ``upper(u, value)`` is called on each start that sets a new
    best value still below ``bound - tol``, and returns an upper bound on
    the objective or None.
    """
    rho = np.asarray(rho, dtype=complex)
    d = starts.shape[-1]
    best_val, best_u, steps, converged = -np.inf, None, 0, True
    bound = np.inf if cap is None else cap
    for used, u in enumerate(starts, 1):
        u = np.array(u, dtype=complex)
        for step in range(1, POLAR_MAX_ITERATIONS + 1):
            g = (rho @ u.reshape(-1)).reshape(d, d)
            w, _, vh = np.linalg.svd(g + POLAR_SHIFT * u)
            nxt = w @ vh
            moved = np.max(np.abs(nxt - u))
            u = nxt
            if moved < POLAR_FIXED_POINT_TOL:
                break
        else:
            converged = False
        steps += step
        v = u.reshape(-1)
        val = float(np.real(v.conj() @ (rho @ v))) / d
        if val > best_val:
            best_val, best_u = val, u
            if upper is not None and best_val < bound - tol:
                cert = upper(u, best_val)
                bound = bound if cert is None else min(bound, cert)
        if best_val >= bound - tol:
            break
    if cap is None:
        return best_val, best_u, steps, converged
    return best_val, best_u, steps, converged, used


def scan_one_row_at_a_time(start, stop, step, ppt=False, d=None, direction=None) -> str:
    """The CSV of ``weylsep scan``, one state, one verdict and one PPT test per row.

    Each row builds its state through the family constructor (isotropic
    with ``d``, Bell-diagonal along ``direction`` otherwise) and runs the
    public single-state criteria on it.
    """
    from weylsep import bell_diagonal, isotropic, ppt_criterion, weyl_separability_criterion

    if d is not None:
        make = lambda p: isotropic(d, p)  # noqa: E731
    else:
        make = lambda s: bell_diagonal(*(s * t for t in direction))  # noqa: E731
    count = int(np.floor((stop - start) / step + 1e-6)) + 1
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["param", "kyfan", "threshold", "verdict"] + (["ppt_min_eig"] if ppt else []))
    for i in range(count):
        param = min(start + i * step, stop)
        rho = make(param)
        verdict = weyl_separability_criterion(rho)
        row = [param, verdict.statistic, verdict.threshold, verdict.outcome]
        if ppt:
            row.append(ppt_criterion(rho).statistic)
        writer.writerow(row)
    return out.getvalue()


def matrix_entries_one_at_a_time(m) -> list[list[float]]:
    """Row-major ``[re, im]`` pairs, one Python float pair per numpy complex scalar."""
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-abs entry of ``m - m^dagger``; it subtracts m itself, where validation subtracts halves."""
    return float(np.abs(m - m.conj().T).max())


def isotropic_spectrum(d: int, p: float) -> np.ndarray:
    """Ascending spectrum of ``(1-p) I/d^2 + p |psi+><psi+|``: one ``p + (1-p)/d^2``, the rest ``(1-p)/d^2``."""
    noise = (1.0 - p) / (d * d)
    return np.array([noise] * (d * d - 1) + [p + noise])


def bell_weights(t) -> np.ndarray:
    """Ascending spectrum of ``(I + t1 XX + t2 YY + t3 ZZ) / 4``.

    One eigenvalue per Bell state: ``(1 + s . t) / 4`` over the sign
    vectors with ``s1 s2 s3 = -1``. The Bell states diagonalize every Pauli
    product, with the eigenvalue of XX, YY, ZZ on ``|00> + |11>`` being
    ``(1, -1, 1)`` and the others following by a Pauli on one side.
    """
    signs = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float)
    return np.sort((1.0 + signs @ np.asarray(t, dtype=float)) / 4)


def example4_spectrum(p: float) -> np.ndarray:
    """Ascending spectrum of ``p |phi-><phi-| + (1-p) |00><00|``, two orthogonal projectors."""
    return np.sort([0.0, 0.0, p, 1.0 - p])

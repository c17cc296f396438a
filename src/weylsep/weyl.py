"""The Weyl (clock-and-shift) unitary operator basis.

For dimension ``d`` there are ``d*d`` operators indexed by ``(n, m)`` with
``0 <= n, m < d``: entry ``(k, (k+m) mod d)`` carries the phase
``exp(2j*pi*k*n/d)`` and every other entry vanishes. They are unitary,
trace-orthogonal with ``Tr W^dag W' = d`` on matching indices, and reduce
to ``{I, sigma_x, sigma_z, i*sigma_y}`` at ``d = 2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import _dimension


def weyl_op(d: int, n: int, m: int) -> np.ndarray:
    """The (n, m) clock-and-shift operator on a d-dimensional space.

    Indices are reduced modulo d. ``(0, 0)`` gives the identity.
    """
    d = _dimension(d)
    n %= d
    m %= d
    w = np.zeros((d, d), dtype=complex)
    ks = np.arange(d)
    # conj gives the zero phases a -0 imaginary part; + 0 makes it +0, so
    # printed operators read 0.0 there
    w[ks, (ks + m) % d] = fourier(d)[n].conj() + 0
    return w


@dataclass(frozen=True, eq=False)
class WeylBasis:
    """All d^2 Weyl operators, lexicographic in (n, m), identity first.

    ``ops`` has shape ``(d*d, d, d)`` and is read-only; downstream code
    indexes the non-identity part as ``ops[1:]``.
    """

    d: int
    ops: np.ndarray

    def index(self, n: int, m: int) -> int:
        """Position of (n, m) in the lexicographic ordering."""
        return (n % self.d) * self.d + (m % self.d)

    def op(self, n: int, m: int) -> np.ndarray:
        return self.ops[self.index(n, m)]

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """Index pairs in basis order, including (0, 0)."""
        return [(n, m) for n in range(self.d) for m in range(self.d)]


# typed, as every cache here is, so that a result does not depend on what
# was cached before: a float d such as 2.0 fails even after np.int64(2)
@lru_cache(maxsize=None, typed=True)
def weyl_basis(d: int) -> WeylBasis:
    """Construct and cache the full basis for dimension d."""
    d = _dimension(d)
    ops = np.stack([weyl_op(d, n, m) for n in range(d) for m in range(d)])
    ops.flags.writeable = False
    return WeylBasis(d, ops)


@lru_cache(maxsize=None, typed=True)
def cyclic_index(da: int, db: int = 1) -> np.ndarray:
    """Flat positions of ``M[(a, b), ((a+m1) mod da, (b+m2) mod db)]``.

    The read-only result has shape ``(da, db, da, db)`` in ``(a, b, m1, m2)``
    order and indexes the row-major ravel of a ``(da*db, da*db)`` matrix. It
    is a permutation of ``range((da*db)**2)``, so gathering through it reads
    every entry once and scattering through it writes every entry once.
    """
    a, b, m1, m2 = np.ix_(np.arange(da), np.arange(db), np.arange(da), np.arange(db))
    row = a * db + b
    col = ((a + m1) % da) * db + (b + m2) % db
    index = row * (da * db) + col
    index.flags.writeable = False
    return index


@lru_cache(maxsize=None, typed=True)
def fourier(d: int) -> np.ndarray:
    """Read-only DFT matrix ``F[n, k] = exp(-2j*pi*n*k/d)``."""
    ks = np.arange(d)
    # Reduce n*k mod d before the trig call; keeps phases exact for small d.
    f = np.exp(-2j * np.pi * (np.outer(ks, ks) % d) / d)
    f.flags.writeable = False
    return f


def weyl_coefficients(matrix: np.ndarray, da: int, db: int = 1) -> np.ndarray:
    """Table ``T[s, t] = Tr[M (W_s^dag (x) W_t^dag)]`` of a ``(da*db)``-square matrix.

    Rows run over the ``da^2`` operators of the first factor and columns
    over the ``db^2`` of the second, both lexicographic in ``(n, m)``; with
    ``db = 1`` the single column holds the one-factor coefficients. Since
    ``W(n, m)`` has the single entry ``exp(2j*pi*k*n/d)`` in row ``k``, each
    coefficient is a discrete Fourier transform of a cyclic diagonal: the
    diagonals are gathered once, then transformed over ``a`` and over ``b``,
    in O(D^2 (da + db)) operations with ``D = da*db``.
    """
    # one matrix's D^2 entries: a stack fails here rather than yield its first table
    g = matrix.reshape(da * da * db * db).take(cyclic_index(da, db))  # (a, b, m1, m2)
    g = fourier(da) @ g.reshape(da, -1)  # (n1, b, m1, m2)
    g = fourier(db) @ g.reshape(da, db, -1)  # (n1, n2, m1, m2)
    return g.reshape(da, db, da, db).swapaxes(1, 2).reshape(da * da, db * db)


def weyl_assemble(table: np.ndarray, da: int, db: int = 1) -> np.ndarray:
    """Inverse of :func:`weyl_coefficients`: ``sum_{s,t} T[s, t] W_s (x) W_t / (da*db)``."""
    dim = da * db
    g = table.reshape(da, da, db, db).transpose(0, 2, 1, 3)  # (n1, n2, m1, m2)
    g = fourier(da).conj() @ g.reshape(da, -1)  # (a, n2, m1, m2)
    g = fourier(db).conj() @ g.reshape(da, db, -1)  # (a, b, m1, m2)
    out = np.empty(dim * dim, dtype=complex)
    out[cyclic_index(da, db).reshape(-1)] = g.reshape(-1) / dim
    return out.reshape(dim, dim)


@lru_cache(maxsize=None, typed=True)
def hermitian_rows(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Hermitian Weyl basis of dimension d: the sparse rows of a unitary P.

    ``H_k = sum_s P[k, s] W_s^dag`` is Hermitian for every k. For
    ``s = (n, m)`` and ``-s = (-n mod d, -m mod d)``, ``W_s^dag`` equals
    ``exp(2j*pi*n*m/d) W_{-s}``, so ``W_s^dag`` and ``W_{-s}^dag`` are each
    other's adjoints up to the phase ``F_s = fourier(d)[n, m]``, and for
    each pair ``s < -s`` (lexicographic positions)

        H_s = (W_s^dag + F_s W_{-s}^dag) / sqrt(2),
        H_{-s} = i (W_s^dag - F_s W_{-s}^dag) / sqrt(2),

    and a self-paired ``s = -s`` (the identity, and at even d the indices
    in ``{0, d/2}^2``) gets ``H_s = sqrt(F_s) W_s^dag``. Row k of P thus has
    its weights at columns k and -k. Returns the position of -k for each
    k, and the weights ``P[k, k]`` and ``P[k, -k]`` (0 when ``k = -k``), as
    read-only arrays of length d^2.
    """
    k = np.arange(d * d)
    n, m = np.divmod(k, d)
    neg = (-n % d) * d + (-m % d)
    f = fourier(d).reshape(-1)
    r = np.sqrt(0.5)
    at_self = np.where(k < neg, r, -1j * r * f)
    at_neg = np.where(k < neg, r * f, 1j * r)
    paired = k == neg
    at_self[paired], at_neg[paired] = np.sqrt(f[paired]), 0
    for a in (neg, at_self, at_neg):
        a.flags.writeable = False
    return neg, at_self, at_neg


def hermitian_coefficients(table: np.ndarray, da: int, db: int) -> np.ndarray:
    """``P_A T P_B^T``: a two-factor :func:`weyl_coefficients` table in the Hermitian Weyl basis.

    Entry ``(k, l)`` is ``Tr[M (H_k (x) H_l)]`` with ``H_k`` Hermitian
    (:func:`hermitian_rows`), so the result is real when M is Hermitian:
    its imaginary part is the same table of ``(M - M^dag) / 2i``. P is
    unitary and maps the identity to itself, so the block without the
    first row and column has the singular values of the table's. P_A is
    applied to the rows, then P_B to the columns, each as one gather of
    the negated indices and two weighted terms: O(D^2) operations.
    """
    na, sa, ea = hermitian_rows(da)
    nb, sb, eb = hermitian_rows(db)
    rows = sa[:, None] * table + ea[:, None] * table.take(na, axis=0)
    return rows * sb + rows.take(nb, axis=1) * eb


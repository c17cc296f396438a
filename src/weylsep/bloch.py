"""Bloch decomposition of single-system states over the Weyl basis.

A state rho on a d-dimensional space is written as
``rho = (I + sum_k a_k W_k) / d`` where the sum runs over the d^2 - 1
non-identity Weyl operators and ``a_k = Tr(W_k^dag rho)``. Hermiticity of
rho ties coefficients at opposite indices together:
``conj(a[n, m]) = exp(-2j*pi*n*m/d) * a[-n, -m]``, which says that the
coefficients in the Hermitian Weyl basis are real
(:func:`weylsep.weyl.hermitian_coefficients` of the one-factor table
``[1, a]`` with ``db = 1``). The Euclidean length of the coefficient
vector is bounded by ``sqrt(d - 1)`` with equality exactly for pure
states.

The coefficients are computed without forming the basis: ``W(n, m)`` has
the single nonzero entry ``exp(2j*pi*k*n/d)`` in row ``k``, at column
``(k+m) mod d``, so ``a[n, m]`` is the discrete Fourier transform over
``k`` of the cyclic diagonal ``rho[k, (k+m) mod d]``. One gather and one
d x d matrix product give all d^2 coefficients in O(d^3) operations, and
the conjugate transform plus a scatter through the same index rebuilds the
state (:func:`weylsep.weyl.weyl_coefficients` with one factor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, DimensionMismatchError
from .weyl import weyl_assemble, weyl_coefficients


@dataclass(frozen=True)
class BlochVector:
    """Coefficients over the non-identity Weyl operators, lexicographic order.

    :func:`decompose` marks ``coeffs`` read-only.
    """

    d: int
    coeffs: np.ndarray

    def coefficient(self, n: int, m: int) -> complex:
        """Coefficient at index (n, m); (0, 0) is excluded by construction."""
        k = (n % self.d) * self.d + (m % self.d)
        if k == 0:
            raise ValueError("the identity component is fixed at 1/d and not stored")
        return complex(self.coeffs[k - 1])


def decompose(rho: DensityMatrix) -> BlochVector:
    """Coefficients ``a_k = Tr(W_k^dag rho)`` of a single-system state."""
    if len(rho.dims) != 1:
        raise DimensionMismatchError(
            f"decompose expects a single subsystem, got dims {rho.dims}"
        )
    coeffs = weyl_coefficients(rho.matrix, rho.dim).reshape(-1)[1:]
    coeffs.flags.writeable = False
    return BlochVector(rho.dim, coeffs)


def reconstruct(v: BlochVector) -> np.ndarray:
    """Assemble ``(I + sum_k a_k W_k) / d`` from a coefficient vector."""
    return weyl_assemble(np.concatenate(([1.0], v.coeffs)), v.d)


def bloch_length(v: BlochVector) -> float:
    """Euclidean norm of the coefficient vector."""
    return float(np.linalg.norm(v.coeffs))


def purity_from_length(v: BlochVector) -> float:
    """Tr(rho^2) of the source state, computed as ``(1 + |v|^2) / d``."""
    length = bloch_length(v)
    return (1.0 + length * length) / v.d

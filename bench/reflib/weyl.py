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


def _root_phases(d: int, n: int) -> np.ndarray:
    # Reduce k*n mod d before the trig call; keeps phases exact for small d.
    ks = np.arange(d)
    return np.exp(2j * np.pi * ((ks * n) % d) / d)


def weyl_op(d: int, n: int, m: int) -> np.ndarray:
    """The (n, m) clock-and-shift operator on a d-dimensional space.

    Indices are reduced modulo d. ``(0, 0)`` gives the identity.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    n %= d
    m %= d
    w = np.zeros((d, d), dtype=complex)
    ks = np.arange(d)
    w[ks, (ks + m) % d] = _root_phases(d, n)
    return w


def weyl_dagger_index(d: int, n: int, m: int) -> tuple[complex, tuple[int, int]]:
    """Phase and index pair with ``W(n, m)^dag == phase * W(idx2)``.

    The phase is ``exp(2j*pi*n*m/d)`` and ``idx2 = (-n mod d, -m mod d)``.
    """
    n %= d
    m %= d
    phase = complex(np.exp(2j * np.pi * ((n * m) % d) / d))
    return phase, ((-n) % d, (-m) % d)


@dataclass(frozen=True)
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


@lru_cache(maxsize=None)
def weyl_basis(d: int) -> WeylBasis:
    """Construct and cache the full basis for dimension d."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    ops = np.stack([weyl_op(d, n, m) for n in range(d) for m in range(d)])
    ops.flags.writeable = False
    return WeylBasis(d, ops)

"""Small exact linear algebra over :class:`fractions.Fraction`.

numpy's solvers are floating point only, and the identities checked on the
discrete side (determinants of counting matrices, Green-function sums) as
well as the exact curvature paths are *exact* statements.  ``exact_det``,
``exact_inv`` and the solve ``L x = 1`` behind
:func:`curvfun.discrete.green_sum` share one fraction-free elimination,
``_eliminate`` (E. H. Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22 (1968)).  Each
row of ``[A | B]`` is scaled to integers by the lcm of its denominators;
every entry the forward pass produces is then a minor of the scaled
matrix, so each division is exact and no Fraction is formed until the
results are.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["exact_det", "exact_inv"]


def _eliminate(A, B):
    """``(det A, X)`` with ``A X = B``; ``X`` is ``None`` when ``A`` is singular.

    ``A`` is n x n and ``B`` has n rows of m entries each (m may be 0).
    Each entry is taken exactly as ``Fraction(x)`` takes it.  The forward
    pass leaves ``d``, the determinant of the row-permuted scaled matrix,
    as its last pivot; back-substitution then finds ``Y = d X = adj(A) B``
    in integers, one exact division per entry.
    """
    n = len(A)
    m, scale = [], 1
    for a, b in zip(A, B):
        row = [x if type(x) is int else Fraction(x) for x in list(a) + list(b)]
        dens = [int(x.denominator) for x in row]  # int(): numpy integers would overflow
        s = math.lcm(*dens)
        scale *= s
        m.append([int(x.numerator) * (s // d) for x, d in zip(row, dens)])
    sign, prev = 1, 1
    for k in range(n):
        p = next((r for r in range(k, n) if m[r][k]), None)
        if p is None:
            return Fraction(0), None
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        pivot, tail = m[k][k], m[k][k + 1:]
        for row in m[k + 1:]:
            f = row[k]
            row[k + 1:] = [(x * pivot - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = pivot
    y = [None] * n
    for k in reversed(range(n)):
        row = m[k]
        y[k] = [(prev * row[c] - sum(row[j] * y[j][c - n] for j in range(k + 1, n))) // row[k]
                for c in range(n, len(row))]
    det = Fraction(sign * prev, scale)
    return det, [[Fraction(v, prev) for v in r] for r in y]


def exact_det(A):
    """Determinant of a square rational matrix, exact; 1 for the empty matrix."""
    A = list(A)
    return _eliminate(A, [[]] * len(A))[0]


def exact_inv(A):
    """Inverse of a square matrix as nested lists of Fractions; ``ValueError`` if singular."""
    A = list(A)
    n = len(A)
    _, x = _eliminate(A, [[int(i == j) for j in range(n)] for i in range(n)])
    if x is None:
        raise ValueError("singular matrix")
    return x

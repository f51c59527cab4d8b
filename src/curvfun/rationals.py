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
results are.  The forward pass stays exact and runs on an ``np.int64``
array while every entry of its active block is below 2**31 in size; the
first step that could overflow promotes the array to Python ints
(``dtype=object``), and the pass carries on there.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = ["exact_det", "exact_inv"]

# Entries below this in size keep x * pivot - f * y below 2**63.
_INT64_BOUND = 2**31


def _eliminate(A, B):
    """``(det A, X)`` with ``A X = B``; ``X`` is ``None`` when ``A`` is singular.

    ``A`` is n x n and ``B`` has n rows of m entries each (m may be 0).
    Each entry is taken exactly as ``Fraction(x)`` takes it.  The forward
    pass leaves ``d``, the determinant of the row-permuted scaled matrix,
    as its last pivot; back-substitution then finds ``Y = d X = adj(A) B``
    in integers, one exact division per entry.
    """
    n = len(A)
    rows, scale = [], 1
    for a, b in zip(A, B):
        row = list(a) + list(b)
        if not all(type(x) is int for x in row):
            row = [x if type(x) is int else Fraction(x) for x in row]
            dens = [int(x.denominator) for x in row]  # int(): numpy integers would overflow
            s = math.lcm(*dens)
            scale *= s
            row = [int(x.numerator) * (s // d) for x, d in zip(row, dens)]
        rows.append(row)
    try:
        m = np.array(rows, dtype=np.int64)
    except OverflowError:
        m = np.array(rows, dtype=object)
    sign, prev = 1, 1
    for k in range(n):
        active = m[k:, k:]
        if m.dtype != object and (active.max() >= _INT64_BOUND
                                  or active.min() <= -_INT64_BOUND):
            m = m.astype(object)
        nonzero = np.flatnonzero(m[k:, k])
        if not nonzero.size:
            return Fraction(0), None
        p = k + int(nonzero[0])
        if p != k:
            m[[k, p]] = m[[p, k]]
            sign = -sign
        pivot = int(m[k, k])
        sub = m[k + 1:, k + 1:]
        sub *= pivot
        sub -= np.multiply.outer(m[k + 1:, k], m[k, k + 1:])
        if prev == -1:
            np.negative(sub, out=sub)
        elif prev != 1:
            sub //= prev
        prev = pivot
    m = m.tolist()
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

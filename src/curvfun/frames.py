"""Orthonormal frames: Gram-Schmidt against a metric, rotations, Haar draws.

Frames are stored row-wise: ``frame[i, :]`` holds the chart components of
the i-th frame vector, so orthonormality reads ``frame @ g @ frame.T = I``.
``gram_schmidt_frames`` builds the chart basis's frame at each point of a
batch as the inverse of its metric's Cholesky factor; that one batched
factorization also checks positive definiteness.

``haar_orthogonal`` is the package's one Haar sampler: the ``haar`` frame
strategy and the ``gamma_mc`` estimator draw a block of nodes' rotations
from it, each node's normals from that node's own ``point_rng`` stream, and
orthonormalize the whole block at once by a batched Gram-Schmidt whose
every step is one elementwise numpy operation over the block.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, RankDeficientError

__all__ = [
    "gram_schmidt_frames",
    "rotate_frame",
    "haar_orthogonal",
    "point_rng",
]

RANK_TOL = 1e-10


def gram_schmidt_frames(g):
    """Orthonormalize each point's chart basis against its metric.

    ``g`` is a batch (p, n, n); a single point is a batch of one.  Ascending
    Gram-Schmidt of the chart basis is L^-1 for the Cholesky factor g = L L^T
    (both are g-orthonormal and lower triangular with a positive diagonal),
    and diag L holds its residual norms.  Raises :class:`RankDeficientError`
    when the factorization fails (g is not positive definite) or a residual
    norm falls below 1e-10.
    """
    try:
        chol = np.linalg.cholesky(np.asarray(g, dtype=float))
    except np.linalg.LinAlgError:
        raise RankDeficientError("Gram-Schmidt: metric not positive definite") from None
    norms = np.diagonal(chol, axis1=1, axis2=2)
    ok = np.all((norms >= RANK_TOL) & np.isfinite(norms), axis=0)
    if not np.all(ok):
        raise RankDeficientError("Gram-Schmidt residual below tolerance at vector %d"
                                 % np.argmin(ok))
    # inv goes through pivoted LU, which leaves rounding above the diagonal
    return np.tril(np.linalg.inv(chol))


def rotate_frame(frame, i, j, angle):
    """Rotate the frame by ``angle`` in the span of vectors i and j.

    A Givens rotation of two rows; metric-orthonormality is preserved since
    the rotation acts inside the frame's own span.
    """
    if i == j:
        raise ConfigError("rotation plane needs two distinct frame indices")
    out = np.array(frame, dtype=float, copy=True)
    c, s = np.cos(angle), np.sin(angle)
    vi, vj = out[i].copy(), out[j].copy()
    out[i] = c * vi + s * vj
    out[j] = -s * vi + c * vj
    return out


def _orthonormal_columns(a):
    """Q of ``a = QR`` with R's diagonal positive, for a (..., n, n) stack.

    Classical Gram-Schmidt of each matrix's columns with one
    reorthogonalization ("twice is enough"), in a component-leading layout:
    ``m[i, j]`` holds entry (i, j) of every matrix, shape (B,), so each step
    is one numpy operation over the whole batch.  Every sum runs in index
    order through elementwise operations (no ``sum``, ``einsum`` or
    ``matmul``, whose order depends on the batch), so each matrix keeps its
    bits whatever stack it is orthonormalized in.  Raises
    :class:`RankDeficientError` when a column's residual norm is not above
    ``RANK_TOL`` times the norm of its input column.
    """
    n = a.shape[-1]
    m = np.ascontiguousarray(np.moveaxis(a.reshape(-1, n, n), 0, -1))
    col_sq = _index_sum(m * m)
    for j in range(n):
        v = m[:, j]  # orthonormalized in place, against the columns before it
        for _ in range(2 if j else 0):
            coef = _index_sum(m[:, :j] * v[:, None])
            for k in range(j):
                v -= coef[k] * m[:, k]
        sq = _index_sum(v * v)
        if not np.all(sq > RANK_TOL**2 * col_sq[j]):
            raise RankDeficientError(
                "Haar draw: Gram-Schmidt residual below tolerance at column %d" % j
            )
        v /= np.sqrt(sq)
    return np.ascontiguousarray(np.moveaxis(m, -1, 0)).reshape(a.shape)


def _index_sum(x):
    """Sum over the leading axis, in index order."""
    out = x[0].copy()
    for row in x[1:]:
        out += row
    return out


def haar_orthogonal(n, rng, count=None):
    """Draws from the Haar measure on O(n) (Mezzadri 2007, math-ph/0609050).

    The Q of a Gaussian matrix's QR with R's diagonal positive, which
    removes the sign ambiguity that would otherwise bias the draw; that Q
    is the Gram-Schmidt of the matrix's columns, computed for a whole stack
    at once by :func:`_orthonormal_columns`.  With ``count`` set, returns a
    (count, n, n) stack whose bits equal ``count`` sequential single draws
    from the same ``rng``.  ``rng`` may also be an iterable of generators,
    one per node: each draws its own normals into its row of a
    (nodes, n, n) or (nodes, count, n, n) stack, and every rotation keeps
    the bits of the draw its generator makes alone.
    """
    shape = (n, n) if count is None else (count, n, n)
    if isinstance(rng, np.random.Generator):
        normals = rng.standard_normal(shape)
    else:
        rngs = list(rng)
        normals = np.empty((len(rngs),) + shape)
        for row, r in enumerate(rngs):
            r.standard_normal(shape, out=normals[row])
    return _orthonormal_columns(normals)


def point_rng(seed, node_index):
    """Deterministic per-point generator, independent of batching/workers.

    Seeding by (seed, node_index) through SeedSequence spawn keys gives each
    grid node its own stream, so results do not depend on how points are
    chunked across threads.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(node_index,))
    return np.random.Generator(np.random.PCG64(ss))

"""Orthonormal frames: Gram-Schmidt against a metric, rotations, Haar draws.

Frames are stored row-wise: ``frame[i, :]`` holds the chart components of
the i-th frame vector, so orthonormality reads ``frame @ g @ frame.T = I``.

``haar_orthogonal`` is the package's one Haar sampler: the ``haar`` frame
strategy and the ``gamma_mc`` estimator both draw a node's rotations from it
in one batch, from that node's own ``point_rng`` stream.
"""

from __future__ import annotations

import numpy as np

from .errors import RankDeficientError

__all__ = [
    "gram_schmidt_frame",
    "gram_schmidt_frames",
    "rotate_frame",
    "haar_orthogonal",
    "point_rng",
]

RANK_TOL = 1e-10


def gram_schmidt_frame(g, vectors):
    """Orthonormalize ``vectors`` (rows) against the metric ``g``.

    Ascending order: vector 0 is normalized first, each later vector has the
    projections onto the earlier ones removed before its own normalization.
    Raises :class:`RankDeficientError` if a residual norm falls below 1e-10.
    """
    return gram_schmidt_frames(g[None, :, :], np.asarray(vectors, dtype=float)[None, :, :])[0]


def gram_schmidt_frames(g, vectors):
    """Batched metric Gram-Schmidt; ``g`` (p, n, n), ``vectors`` (p, n, n)."""
    g = np.asarray(g, dtype=float)
    out = np.array(vectors, dtype=float, copy=True)
    npts, n = g.shape[0], g.shape[1]
    for i in range(n):
        for j in range(i):
            # <v_i, e_j>_g e_j with e_j already unit
            coef = np.einsum("pa,pab,pb->p", out[:, i, :], g, out[:, j, :])
            out[:, i, :] -= coef[:, None] * out[:, j, :]
        sq = np.einsum("pa,pab,pb->p", out[:, i, :], g, out[:, i, :])
        if np.any(sq < RANK_TOL**2) or not np.all(np.isfinite(sq)):
            raise RankDeficientError(
                "Gram-Schmidt residual below tolerance at vector %d" % i
            )
        out[:, i, :] /= np.sqrt(sq)[:, None]
    return out


def rotate_frame(frame, i, j, angle):
    """Rotate the frame by ``angle`` in the span of vectors i and j.

    A Givens rotation of two rows; metric-orthonormality is preserved since
    the rotation acts inside the frame's own span.
    """
    if i == j:
        raise ValueError("rotation plane needs two distinct frame indices")
    out = np.array(frame, dtype=float, copy=True)
    c, s = np.cos(angle), np.sin(angle)
    vi, vj = out[i].copy(), out[j].copy()
    out[i] = c * vi + s * vj
    out[j] = -s * vi + c * vj
    return out


def haar_orthogonal(n, rng, count=None):
    """Draws from the Haar measure on O(n) (Mezzadri 2007, math-ph/0609050).

    QR of a Gaussian matrix with the sign of R's diagonal pushed into Q,
    which removes the sign ambiguity that would otherwise bias the draw.
    With ``count`` set, returns a (count, n, n) stack from one stacked QR;
    its bits equal ``count`` sequential single draws from the same ``rng``.
    """
    shape = (n, n) if count is None else (count, n, n)
    q, r = np.linalg.qr(rng.standard_normal(shape))
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def point_rng(seed, node_index):
    """Deterministic per-point generator, independent of batching/workers.

    Seeding by (seed, node_index) through SeedSequence spawn keys gives each
    grid node its own stream, so results do not depend on how points are
    chunked across threads.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(node_index,))
    return np.random.Generator(np.random.PCG64(ss))

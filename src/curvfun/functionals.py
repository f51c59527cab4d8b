"""Curvature functionals built from sectional curvatures.

Three pointwise densities on a 2d-dimensional Riemannian manifold, each
taking a batch of points and returning a float array with one value per
point:

* ``k_discrete`` -- the symmetric-sum density: a constant times the sum over
  all permutations of the frame indices of the product of d sectional
  curvatures of consecutive frame planes.  Computed via the reduction of the
  permutation sum to a sum over perfect matchings (each matching is counted
  ``2^d d!`` times by the permutations), which drops the cost from (2d)! to
  (2d-1)!! terms.

* ``k_gbc`` -- the sign-weighted double-permutation density built from the
  full Riemann tensor in an orthonormal frame.  Its double sum over pairs of
  permutations reduces to a double sum over pairs of matchings together with
  an alignment permutation, with the within-pair orientation flips cancelling
  against the antisymmetries of the Riemann tensor.

* ``haar_pair_average`` -- the frame-averaged density: expectation over
  Haar-random orthonormal frames of the product of sectional curvatures of
  consecutive frame planes, times (2d)! and the same normalization constant.
  It is the one Monte Carlo estimator, batched over points and samples, with
  a standard-error report; the ``gamma_mc`` quadrature density calls it.
  Each plane's curvature is one batched matmul: with the Riemann tensor read
  as an (n^2, n^2) matrix R and x = u (x) v, K(u, v) = x R x.

Every function here takes a batch with a leading axis of points; a single
matrix or tensor is a batch of one.  The unnormalized sums behind the first
two densities, ``perm_sum`` and ``gbc_raw_sum``, are exact on object arrays
of Fractions.  The literal permutation and double-permutation sums they
reduce are test oracles and live with the tests.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import BadDimensionError

__all__ = [
    "normalization_constant",
    "perfect_matchings",
    "matching_sum",
    "perm_sum",
    "k_discrete",
    "gbc_raw_sum",
    "k_gbc",
    "scalar_curvature",
    "haar_pair_average",
]


# Byte budget of one gbc_raw_sum gather over the combination table.
GBC_GATHER_BYTES = 32 * 2**20


def normalization_constant(d):
    """The constant 1 / (d! (4 pi)^d) multiplying the permutation sum."""
    return 1.0 / (math.factorial(d) * (4 * math.pi) ** d)


def _check_even(n):
    if n % 2 != 0 or n < 2:
        raise BadDimensionError("need an even dimension >= 2, got %d" % n)
    return n // 2


@lru_cache(maxsize=None)
def perfect_matchings(m):
    """All perfect matchings of {0, ..., m-1} in canonical form.

    Each matching is a tuple of (a, b) pairs with a < b, sorted by a; there
    are (m-1)!! of them.  Built recursively: pair the smallest free index
    with each other free index in turn.
    """
    if m % 2 != 0:
        raise BadDimensionError("perfect matchings need an even ground set")
    if m == 0:
        return ((),)
    idx = tuple(range(m))

    def rec(free):
        if not free:
            return [()]
        a = free[0]
        out = []
        for i in range(1, len(free)):
            b = free[i]
            rest = free[1:i] + free[i + 1 :]
            for tail in rec(rest):
                out.append(((a, b),) + tail)
        return out

    return tuple(rec(idx))


def _word_sign(word):
    """Sign of a permutation given as a tuple of images (inversion count)."""
    inv = 0
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            if word[i] > word[j]:
                inv += 1
    return -1 if inv % 2 else 1


@lru_cache(maxsize=None)
def _matching_indices(m):
    """Index arrays (A, B) of shape (n_matchings, m/2) for fast products."""
    ms = perfect_matchings(m)
    a = np.array([[p[0] for p in match] for match in ms], dtype=np.intp)
    b = np.array([[p[1] for p in match] for match in ms], dtype=np.intp)
    return a, b


def matching_sum(k):
    """Sum over perfect matchings of products of matrix entries.

    ``k`` is a batch (npoints, 2d, 2d) of symmetric sectional-curvature
    matrices; returns (npoints,) sums of prod_pairs K[a, b] over all
    perfect matchings of the index set.  Exact for object-dtype (Fraction)
    input.
    """
    k = np.asarray(k)
    _check_even(k.shape[1])
    a, b = _matching_indices(k.shape[1])
    return np.prod(k[:, a, b], axis=2).sum(axis=1)  # product per (point, matching)


def perm_sum(k):
    """Full permutation sum via the matching reduction (exact-capable).

    Equals ``2^d d! * matching_sum(k)``: every matching arises from exactly
    d! orderings of its pairs times 2^d orientations within pairs, and the
    product is invariant under both for symmetric ``k``.
    """
    k = np.asarray(k)
    n = k.shape[-2]
    d = _check_even(n)
    factor = 2**d * math.factorial(d)
    return factor * matching_sum(k)


def k_discrete(k):
    """Pointwise symmetric-sum curvature density from sectional matrices.

    The permutation sum times 1/(d!(4 pi)^d), which collapses to
    matching_sum / (2 pi)^d; a float for each point, Fraction input included.
    """
    d = _check_even(np.shape(k)[-1])
    return np.asarray(matching_sum(k), dtype=float) / (2 * math.pi) ** d


# -- sign-weighted double-permutation density --------------------------------


@lru_cache(maxsize=None)
def _gbc_combos(n):
    """Reduced index data for the double-permutation sum in dimension n=2d.

    Returns ``(signs, flat, factor)`` where iterating over combos c and
    multiplying the components R.flat[flat[c, k]] (``flat`` holds C-order
    flat indices of 4-index tuples) over k, weighting by signs[c], summing,
    and scaling by ``factor`` reproduces the full signed sum over pairs of
    permutations.

    Derivation of the reduction: a permutation is a matching plus an
    ordering of its pairs plus orientations within pairs.  Reordering whole
    pairs is an even permutation (a block swap is two transpositions), so
    only the canonical word of the matching contributes to the sign; the
    within-pair orientation flips contribute (-1) each to the sign but also
    (-1) each through the antisymmetry of R in its first and second index
    pairs, so they cancel and only multiply the count by 2^(2d).  Relative
    pair orderings between the two permutations survive as an alignment
    permutation rho in S_d, and the d! absolute orderings give the factor.
    """
    d = _check_even(n)
    ms = perfect_matchings(n)
    signs = []
    idx = []
    for mp in ms:
        sp = _word_sign(tuple(x for pair in mp for x in pair))
        for msig in ms:
            ss = _word_sign(tuple(x for pair in msig for x in pair))
            for rho in itertools.permutations(range(d)):
                rows = [
                    (mp[k][0], mp[k][1], msig[rho[k]][0], msig[rho[k]][1])
                    for k in range(d)
                ]
                signs.append(sp * ss)
                idx.append(rows)
    factor = 2 ** (2 * d) * math.factorial(d)
    flat = np.ravel_multi_index(np.moveaxis(np.array(idx, dtype=np.intp), 2, 0), (n,) * 4)
    return np.array(signs, dtype=np.intp), flat, factor


def gbc_raw_sum(riem_frame):
    """Signed double-permutation sum of Riemann components in a frame.

    ``riem_frame`` is a batch (npoints, 2d, 2d, 2d, 2d) of frame-contracted
    Riemann tensors.  Exact on object dtype.  The points are taken in
    slices whose gather stays within ``GBC_GATHER_BYTES`` (three points per
    slice in dimension 8, where the table has 264,600 combinations), so
    memory does not grow with the batch.
    Each point's terms are summed along its own row, so its sum does not
    depend on the batch or the slicing.
    """
    r = np.asarray(riem_frame)
    signs, flat, factor = _gbc_combos(r.shape[1])
    r = r.reshape(len(r), -1)
    rows = max(1, GBC_GATHER_BYTES // (flat.size * r.itemsize))
    sums = []
    for part in np.array_split(r, -(-len(r) // rows)):
        prods = np.prod(np.take(part, flat, axis=1), axis=2)  # (rows, ncombos)
        sums.append((prods * signs).sum(axis=1))
    return factor * np.concatenate(sums)


def k_gbc(riem_frame):
    """Sign-weighted curvature density from a batch of Riemann tensors.

    ``gbc_raw_sum`` times 2^(-d) C_d, a float for each point, Fraction input
    included.  The sum scales by det(e)^2 in a basis e, 1/det g for an
    orthonormal frame, where k_gbc sqrt(det g) integrates to the Euler
    characteristic; from the chart-basis tensor, that is k_gbc / sqrt(det g).
    """
    d = _check_even(np.shape(riem_frame)[-1])
    return np.asarray(gbc_raw_sum(riem_frame), dtype=float) * (normalization_constant(d) / 2**d)


def scalar_curvature(k):
    """Scalar curvature from a batch of sectional matrices in orthonormal frames.

    Twice the sum of sectional curvatures over unordered frame planes,
    i.e. the plain sum of each full matrix (diagonal is zero).
    """
    return np.asarray(k).sum(axis=(1, 2))


# -- Haar-averaged density ----------------------------------------------------


def haar_pair_average(riem, frames):
    """Monte Carlo average of the consecutive-pair product over given frames.

    ``riem`` is a batch (P, n, n, n, n) of Riemann tensors and ``frames`` a
    batch (P, S, n, n) of S g-orthonormal frames per point, normally Haar
    rotations of a base frame.  For each frame the product
    prod_k K(t_{2k-1}, t_{2k}) of sectional curvatures of consecutive frame
    planes is formed; returns per-point arrays of (2d)! C_d times the sample
    mean and the matching standard error.  A point's values come from its
    own rows alone, so they do not depend on the batch it is in.
    """
    riem = np.asarray(riem, dtype=float)
    frames = np.asarray(frames, dtype=float)
    npts, nsamples, n = frames.shape[:3]
    d = _check_even(n)
    if nsamples < 2:
        raise ValueError("a Monte Carlo standard error needs at least 2 samples")
    rop = riem.reshape(npts, n * n, n * n)
    prods = np.ones((npts, nsamples))
    for k in range(d):
        # K(u, v) = R_abcd u_a v_b u_c v_d = x R x with x = u (x) v and R as (n^2, n^2)
        x = (frames[:, :, 2 * k, :, None] * frames[:, :, 2 * k + 1, None, :]).reshape(
            npts, nsamples, n * n)
        prods *= np.einsum("psi,psi->ps", x @ rop, x)
    scale = math.factorial(n) * normalization_constant(d)
    return scale * prods.mean(axis=1), scale * prods.std(axis=1, ddof=1) / math.sqrt(nsamples)


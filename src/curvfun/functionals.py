"""Curvature functionals built from sectional curvatures.

Three pointwise densities on a 2d-dimensional Riemannian manifold:

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
  a standard-error report; the ``gamma_mc`` quadrature density and the
  single-point wrapper ``haar_product_estimate`` both call it.

``brute_force_perm_sum`` keeps the literal (2d)!-term permutation sum
beside its reduction, because ``reproduce`` fixes a printed convention with
it; the brute-force double-permutation sum is a test oracle and lives with
the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadDimensionError

__all__ = [
    "normalization_constant",
    "perfect_matchings",
    "matching_sum",
    "perm_sum",
    "brute_force_perm_sum",
    "k_discrete",
    "gbc_raw_sum",
    "k_gbc",
    "GBCValue",
    "scalar_curvature",
    "haar_pair_average",
    "haar_product_estimate",
    "HaarEstimate",
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
    matrices (a single matrix is accepted too); returns (npoints,) sums
    of prod_pairs K[a, b] over all perfect matchings of the index set.
    Exact for object-dtype (Fraction) input.
    """
    k = np.asarray(k)
    single = k.ndim == 2
    if single:
        k = k[None]
    _check_even(k.shape[1])
    a, b = _matching_indices(k.shape[1])
    prods = np.prod(k[:, a, b], axis=2)  # (npoints, n_matchings)
    out = prods.sum(axis=1)
    return out[0] if single else out


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


def brute_force_perm_sum(k):
    """Literal sum over all (2d)! permutations; slow reference path."""
    k = np.asarray(k)
    single = k.ndim == 2
    if single:
        k = k[None]
    n = k.shape[1]
    d = _check_even(n)
    total = np.zeros(len(k), dtype=k.dtype if k.dtype == object else np.float64)
    if k.dtype == object:
        total = np.array([0] * len(k), dtype=object)
    for sigma in itertools.permutations(range(n)):
        term = k[:, sigma[0], sigma[1]]
        for kk in range(1, d):
            term = term * k[:, sigma[2 * kk], sigma[2 * kk + 1]]
        total = total + term
    return total[0] if single else total


def k_discrete(k, normalization="geometric"):
    """Pointwise symmetric-sum curvature density from sectional matrices.

    ``normalization="geometric"`` multiplies the permutation sum by
    1/(d!(4 pi)^d), which collapses to matching_sum / (2 pi)^d; ``"raw"``
    returns the bare permutation sum (exact for Fraction input).
    """
    k = np.asarray(k)
    n = k.shape[-2]
    d = _check_even(n)
    if normalization == "raw":
        return perm_sum(k)
    if normalization != "geometric":
        raise ValueError("unknown normalization %r" % (normalization,))
    ms = matching_sum(k)
    if np.asarray(ms).dtype == object:
        ms = np.vectorize(float)(ms) if np.ndim(ms) else float(ms)
    return ms / (2 * math.pi) ** d


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
    Riemann tensors (single tensor accepted).  Exact on object dtype.  The
    points are taken in slices whose gather stays within
    ``GBC_GATHER_BYTES`` (three points per slice in dimension 8, where the
    table has 264,600 combinations), so memory does not grow with the batch.
    """
    r = np.asarray(riem_frame)
    single = r.ndim == 4
    if single:
        r = r[None]
    signs, flat, factor = _gbc_combos(r.shape[1])
    r = r.reshape(len(r), -1)
    # A gather holds (rows, ncombos, d) entries, so the rows are split to fit
    # the budget.  Summed down a (ncombos, rows) array, numpy adds the
    # combinations in index order when rows >= 2 but pairwise when rows == 1;
    # balanced slices of at least three rows leave no one-row slice in a
    # batch of two or more, so no point's sum depends on the slicing.
    rows = max(3, GBC_GATHER_BYTES // (flat.size * r.itemsize))
    sums = []
    for part in np.array_split(r, -(-len(r) // rows)):
        prods = np.prod(np.take(part, flat, axis=1), axis=2)  # (rows, ncombos)
        sums.append((np.ascontiguousarray(prods.T) * signs[:, None]).sum(axis=0))
    out = factor * np.concatenate(sums)
    return out[0] if single else out


@dataclass
class GBCValue:
    """Result of the sign-weighted density at one or more points.

    ``raw_sum`` is the bare double-permutation sum (exact when the input
    was exact); ``mean_term`` is raw_sum / ((2d)!)^2, the average over the
    permutation pairs; ``value`` is the geometrically normalized density
    2^(-d) C_d raw_sum, which integrates to the Euler characteristic.
    """

    value: object
    raw_sum: object
    mean_term: object
    dim: int


def k_gbc(riem_frame, normalization="geometric"):
    """Sign-weighted curvature density from a frame-contracted Riemann tensor."""
    r = np.asarray(riem_frame)
    n = r.shape[-2]
    d = _check_even(n)
    raw = gbc_raw_sum(riem_frame)
    npairs = math.factorial(n) ** 2
    if np.asarray(raw).dtype == object:
        from fractions import Fraction

        mean = raw * Fraction(1, npairs) if np.ndim(raw) == 0 else raw / Fraction(npairs)
        raw_f = float(raw) if np.ndim(raw) == 0 else np.vectorize(float)(raw)
    else:
        mean = raw / npairs
        raw_f = raw
    if normalization == "raw":
        value = raw
    elif normalization == "geometric":
        value = raw_f * (normalization_constant(d) / 2**d)
    else:
        raise ValueError("unknown normalization %r" % (normalization,))
    return GBCValue(value=value, raw_sum=raw, mean_term=mean, dim=n)


def scalar_curvature(k):
    """Scalar curvature from a sectional matrix in an orthonormal frame.

    Twice the sum of sectional curvatures over unordered frame planes,
    i.e. the plain sum of the full matrix (diagonal is zero).
    """
    k = np.asarray(k)
    if k.ndim == 2:
        return k.sum()
    return k.sum(axis=(1, 2))


# -- Haar-averaged density ----------------------------------------------------


@dataclass
class HaarEstimate:
    """Monte Carlo estimate of the frame-averaged density at a point."""

    value: float
    stderr: float
    nsamples: int


def haar_pair_average(riem, frames):
    """Monte Carlo average of the consecutive-pair product over given frames.

    ``riem`` is a batch (P, n, n, n, n) of Riemann tensors and ``frames`` a
    batch (P, S, n, n) of S g-orthonormal frames per point, normally Haar
    rotations of a base frame.  For each frame the product
    prod_k K(t_{2k-1}, t_{2k}) of sectional curvatures of consecutive frame
    planes is formed; returns per-point arrays of (2d)! C_d times the sample
    mean and the matching standard error.
    """
    riem = np.asarray(riem, dtype=float)
    frames = np.asarray(frames, dtype=float)
    npts, nsamples, n = frames.shape[:3]
    d = _check_even(n)
    if nsamples < 2:
        raise ValueError("a Monte Carlo standard error needs at least 2 samples")
    prods = np.ones((npts, nsamples))
    for k in range(d):
        u = frames[:, :, 2 * k, :]
        v = frames[:, :, 2 * k + 1, :]
        prods *= np.einsum("psa,psb,psc,psd,pabcd->ps", u, v, u, v, riem, optimize=True)
    scale = math.factorial(n) * normalization_constant(d)
    return scale * prods.mean(axis=1), scale * prods.std(axis=1, ddof=1) / math.sqrt(nsamples)


def haar_product_estimate(riem, g, nsamples, rng, base_frame=None):
    """Single-point Haar estimate of the consecutive-pair product average.

    Draws ``nsamples`` Haar-orthogonal rotations of a g-orthonormal base
    frame (Gram-Schmidt of the chart basis unless ``base_frame`` is given)
    and averages with :func:`haar_pair_average`.
    """
    from .frames import gram_schmidt_frame, haar_orthogonal

    riem = np.asarray(riem, dtype=float)
    n = riem.shape[0]
    if base_frame is None:
        base_frame = gram_schmidt_frame(np.asarray(g, dtype=float), np.eye(n))
    frames = haar_orthogonal(n, rng, nsamples) @ base_frame
    value, stderr = haar_pair_average(riem[None], frames[None])
    return HaarEstimate(value=float(value[0]), stderr=float(stderr[0]), nsamples=nsamples)

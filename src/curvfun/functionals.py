"""Curvature functionals built from sectional curvatures.

Three pointwise densities on a 2d-dimensional Riemannian manifold, each
taking a batch of points and returning a float array with one value per
point:

* ``k_discrete`` -- the symmetric-sum density: a constant times the sum over
  all permutations of the frame indices of the product of d sectional
  curvatures of consecutive frame planes.  The permutation sum is 2^d d!
  times the sum over perfect matchings, the hafnian of the sectional matrix
  (each matching is counted ``2^d d!`` times by the permutations), and the
  hafnian is expanded along its first index, memoised on the index subsets
  left: the same expansion as the Pfaffian below, without its signs.

* ``k_gbc`` -- the Gauss-Bonnet-Chern density: the sign-weighted
  double-permutation sum of the full Riemann tensor in an orthonormal frame.
  The sum is d! times the top coefficient of the Pfaffian of a matrix of
  2-forms, 4 Omega for a curvature tensor, where Omega_ab =
  sum_{k<l} R_abkl e^k ^ e^l is the curvature 2-form (S.-S. Chern, Ann.
  Math. 45 (1944); J. Milnor and J. Stasheff, *Characteristic Classes*
  (1974), appendix C).  The Pfaffian is expanded along its first index, one
  wedge with a 2-form at a time.

* ``haar_pair_average`` -- the frame-averaged density: expectation over
  Haar-random orthonormal frames of the product of sectional curvatures of
  consecutive frame planes, times (2d)! and the same normalization constant.
  It is the one Monte Carlo estimator, batched over points and samples, with
  a standard-error report; the ``gamma_mc`` quadrature density calls it.
  Each plane's curvature is one batched matmul,
  :func:`curvfun.geometry.plane_curvatures`: with the Riemann tensor read as
  an (n^2, n^2) matrix R and x = u (x) v, K(u, v) = x R x.

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
from .geometry import plane_curvatures

__all__ = [
    "normalization_constant",
    "matching_sum",
    "perm_sum",
    "k_discrete",
    "gbc_raw_sum",
    "k_gbc",
    "scalar_curvature",
    "haar_pair_average",
]


def normalization_constant(d):
    """The constant 1 / (d! (4 pi)^d) multiplying the permutation sum."""
    return 1.0 / (math.factorial(d) * (4 * math.pi) ** d)


def _check_even(n):
    if n % 2 != 0 or n < 2:
        raise BadDimensionError("need an even dimension >= 2, got %d" % n)
    return n // 2


def _expand(n, base, term):
    """A pairing sum over range(n), expanded along the first index.

    The value on the empty subset is ``base``; on an index subset s it is
    the sum over t = 1, ..., len(s) - 1 of ``term(s, t, rest)``, where rest
    is the value on s without s[0] and s[t].  Memoised on the subset within
    the call, so it visits the subsets that drop leading pairs, not the
    (n-1)!! perfect matchings.
    """
    memo = {(): base}

    def value(s):
        if s not in memo:
            total = 0
            for t in range(1, len(s)):
                total = total + term(s, t, value(s[1:t] + s[t + 1 :]))
            memo[s] = total
        return memo[s]

    return value(tuple(range(n)))


def matching_sum(k):
    """Sum over perfect matchings of products of matrix entries: the hafnian.

    ``k`` is a batch (npoints, 2d, 2d) of symmetric sectional-curvature
    matrices; returns (npoints,) sums of prod_pairs K[a, b] over all
    perfect matchings of the index set, haf(K) (E. R. Caianiello, Nuovo
    Cimento 10 (1953)).  Expanded along the first index,
    haf(S) = sum_t K[s0, st] haf(S without s0, st), memoised on the index
    subset within the call.  Exact for object-dtype (Fraction) input.
    """
    k = np.asarray(k)
    n = k.shape[1]
    _check_even(n)
    return _expand(n, np.ones(len(k), dtype=k.dtype), lambda s, t, rest: k[:, s[0], s[t]] * rest)


def perm_sum(k):
    """Full permutation sum via the hafnian (exact-capable).

    Equals ``2^d d! * matching_sum(k)``, 2^d d! haf(K): every matching
    arises from exactly d! orderings of its pairs times 2^d orientations
    within pairs, and the product is invariant under both for symmetric
    ``k``.
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
def _wedge_table(n, p):
    """Terms of the wedge of a p-form with a 2-form in dimension n.

    A q-form is an array of its components on the q-subsets of range(n),
    in ``itertools.combinations`` order.  Returns ``(form, two, sign,
    starts)``: term t is sign[t] times p-form component form[t] times
    2-form component two[t]; the terms are sorted by the (p+2)-subset they
    land on, and those of output component o begin at starts[o].  The
    sign of e^I ^ e^k ^ e^l, I sorted and k < l, is -1 to the count of
    entries of I above k plus those above l.
    """
    out = {sub: i for i, sub in enumerate(itertools.combinations(range(n), p + 2))}
    terms = []
    for i, sub in enumerate(itertools.combinations(range(n), p)):
        for j, (k, l) in enumerate(itertools.combinations(range(n), 2)):
            if k not in sub and l not in sub:
                above = sum(x > k for x in sub) + sum(x > l for x in sub)
                terms.append((out[tuple(sorted(sub + (k, l)))], i, j, (-1) ** above))
    terms.sort()
    target, form, two, sign = (np.array(c, dtype=np.intp) for c in zip(*terms))
    return form, two, sign, np.flatnonzero(np.diff(target, prepend=-1))


def gbc_raw_sum(riem_frame):
    """Signed double-permutation sum of Riemann components in a frame.

    ``riem_frame`` is a batch (npoints, 2d, 2d, 2d, 2d) of frame-contracted
    Riemann tensors; returns (npoints,) sums, over all pairs of permutations
    (pi, sigma), of sgn(pi) sgn(sigma) prod_k R[pi(2k), pi(2k+1), sigma(2k),
    sigma(2k+1)].  The sum is d! times the top coefficient of Pf(Omega'),
    the Pfaffian of the matrix of 2-forms
    Omega'_ab = sum_{k<l} W[(ab), (kl)] e^k ^ e^l in the commutative algebra
    of even forms (S.-S. Chern, Ann. Math. 45 (1944); J. Milnor and
    J. Stasheff, *Characteristic Classes* (1974), appendix C).  Here
    W[(ab), (kl)] = R_abkl - R_ablk - R_bakl + R_balk for a < b and k < l:
    the input is antisymmetrized in each index pair, as the permutation sum
    does implicitly, so no symmetry of R is assumed; for a curvature tensor
    W is 4R.  The Pfaffian is expanded along its first index, memoised on
    the index subset within the call.  Exact on object dtype.  A point's sum
    comes from its own row alone, so it does not depend on the batch.
    """
    r = np.asarray(riem_frame)
    n = r.shape[1]
    d = _check_even(n)
    a, b = np.triu_indices(n, 1)
    ab, ba = a * n + b, b * n + a
    rop = r.reshape(len(r), n * n, n * n)  # R_abkl at row an + b, column kn + l
    w = np.take(rop, ab, axis=1) - np.take(rop, ba, axis=1)
    w = np.take(w, ab, axis=2) - np.take(w, ba, axis=2)  # (npoints, pair (ab), component (kl))
    pair = {(i, j): t for t, (i, j) in enumerate(zip(a.tolist(), b.tolist()))}

    def term(s, t, rest):
        form, two, sign, starts = _wedge_table(n, len(s) - 2)
        wedge = np.add.reduceat(rest[:, form] * w[:, pair[s[0], s[t]], two] * sign, starts, axis=1)
        return wedge if t % 2 else -wedge

    return math.factorial(d) * _expand(n, np.ones((len(r), 1), dtype=w.dtype), term)[:, 0]


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
    prods = np.ones((npts, nsamples))
    for k in range(d):
        prods *= plane_curvatures(riem, frames[:, :, 2 * k], frames[:, :, 2 * k + 1])
    scale = math.factorial(n) * normalization_constant(d)
    return scale * prods.mean(axis=1), scale * prods.std(axis=1, ddof=1) / math.sqrt(nsamples)


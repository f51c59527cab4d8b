"""Independent reference implementations used only by the tests.

Each oracle computes a quantity the package also computes, by a separate
route: central finite differences instead of hyper-dual jets, the literal
permutation and double-permutation sums and the sum over an enumerated
list of perfect matchings instead of the memoised first-index expansions
of the hafnian and the Pfaffian, a five-operand einsum per frame plane
instead of the matmul over u (x) v of ``plane_curvatures``, four one-slot
einsums instead of the congruence of ``riemann_in_frame``, LAPACK's QR with
the sign fix instead of the Haar sampler's batched Gram-Schmidt, the
metric Gram-Schmidt loop
instead of the inverse Cholesky factor, a direct Gram-matrix check of a
frame, an embedding's curvature from the derivatives of its induced
metric through the general Riemann formula instead of from the Gauss
equation, a product's curvature from its padded full-dimensional jets
instead of from its factors, a product's coordinate-frame density from its
assembled full-dimensional chunk instead of from its factors' densities,
a Lie group's curvature in a rotated frame from its rotated structure
constants instead of from the frame contraction, CP^2's sectional
matrix from K = 1 + 3 <Ju, v>^2 / (|u|^2 |v|^2), written out in loops,
instead of from its Fubini-Study tensor, and the fraction-free elimination
on nested lists of Python ints instead of on an int64 array promoted to
Python ints only when an entry grows large.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from curvfun.errors import NonOrthonormalFrameError, RankDeficientError
from curvfun.frames import RANK_TOL
from curvfun.functionals import k_discrete, k_gbc, scalar_curvature
from curvfun.geometry import (
    _assemble_matrix_jets,
    _block_diagonal,
    _entries_jets,
    _gauss_jets,
    curvature_chunk,
    riemann_arrays,
    riemann_in_frame,
    sectional_from_riemann,
)
from curvfun.jets import Jet2, variables
from curvfun.zoo import CP2_J


def finite_difference_jet(f, x, h=1e-5):
    """Central finite-difference (value, gradient, Hessian) of ``f`` at ``x``.

    ``f`` maps a plain coordinate vector to a float.  Used as an oracle
    against the hyper-dual path; shares no code with it.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    value = f(x)
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2 * h)
        hess[i, i] = (f(x + e) - 2 * value + f(x - e)) / h**2
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            hess[i, j] = hess[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4 * h**2)
    return value, grad, hess


def christoffel_fd(metric, x, h=1e-5):
    """Finite-difference Christoffel symbols; independent oracle path."""
    x = np.asarray(x, dtype=float)
    n = metric.dim

    def gval(y):
        return metric.jets(y[None])[0][0].astype(float)

    g = gval(x)
    dg = np.zeros((n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        dg[:, :, k] = (gval(x + e) - gval(x - e)) / (2 * h)
    ginv = np.linalg.inv(g)
    gamma = np.zeros((n, n, n))
    for kk in range(n):
        for i in range(n):
            for j in range(n):
                s = 0.0
                for l in range(n):
                    s += ginv[kk, l] * (dg[j, l, i] + dg[i, l, j] - dg[i, j, l])
                gamma[kk, i, j] = s / 2
    return gamma


def brute_force_perm_sum(k):
    """Literal sum over all (2d)! permutations of a batch; slow reference path."""
    k = np.asarray(k)
    n = k.shape[1]
    d = n // 2
    total = 0
    for sigma in itertools.permutations(range(n)):
        term = k[:, sigma[0], sigma[1]]
        for kk in range(1, d):
            term = term * k[:, sigma[2 * kk], sigma[2 * kk + 1]]
        total = total + term
    return total


def perfect_matchings(m):
    """All perfect matchings of {0, ..., m-1} in canonical form.

    Each matching is a tuple of (a, b) pairs with a < b, sorted by a; there
    are (m-1)!! of them.  Built recursively: pair the smallest free index
    with each other free index in turn.
    """

    def rec(free):
        if not free:
            return [()]
        return [((free[0], free[i]),) + tail
                for i in range(1, len(free))
                for tail in rec(free[1:i] + free[i + 1 :])]

    return rec(tuple(range(m)))


def enumeration_matching_sum(k):
    """Sum over the listed perfect matchings of a batch, one product each.

    Each product is taken pair by pair in the matching's canonical order and
    the matchings are added in enumeration order; slow reference path.
    """
    k = np.asarray(k)
    total = 0
    for match in perfect_matchings(k.shape[1]):
        term = 1
        for a, b in match:
            term = term * k[:, a, b]
        total = total + term
    return total


def haar_qr(a):
    """Q of a stack's QR with R's diagonal made positive (Mezzadri 2007).

    One LAPACK QR per matrix and the sign of R's diagonal pushed into Q;
    the Haar sampler reaches the same Q by Gram-Schmidt of the columns.
    """
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def einsum_pair_products(riem, frames):
    """Per-sample products of consecutive-plane sectional curvatures, (P, S).

    One five-operand einsum per frame plane, K(u, v) = R_abcd u_a v_b u_c v_d,
    apart from the package's matmul over u (x) v.
    """
    npts, nsamples, n = frames.shape[:3]
    prods = np.ones((npts, nsamples))
    for k in range(n // 2):
        u = frames[:, :, 2 * k, :]
        v = frames[:, :, 2 * k + 1, :]
        prods *= np.einsum("psa,psb,psc,psd,pabcd->ps", u, v, u, v, riem, optimize=True)
    return prods


def einsum_sectional(riem, frames):
    """R(t_i, t_j, t_i, t_j) for every ordered pair (i, j), diagonal included.

    One five-operand einsum, apart from the package's matmul over u (x) v.
    """
    return np.einsum("pia,pjb,pic,pjd,pabcd->pij", frames, frames, frames, frames, riem,
                     optimize=True)


def einsum_riemann_in_frame(riem, frames):
    """The Riemann tensor in a frame, one slot at a time, apart from the
    package's congruence E R E^T with E = F (x) F."""
    r = np.einsum("pabcd,pia->pibcd", riem, frames)
    r = np.einsum("pibcd,pjb->pijcd", r, frames)
    r = np.einsum("pijcd,pkc->pijkd", r, frames)
    return np.einsum("pijkd,pld->pijkl", r, frames)


def _word_sign(word):
    """Sign of a permutation given as a tuple of images (inversion count)."""
    inv = 0
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            if word[i] > word[j]:
                inv += 1
    return -1 if inv % 2 else 1


def brute_force_gbc_raw_sum(riem_frame):
    """Literal signed sum over all ((2d)!)^2 permutation pairs; reference."""
    r = np.asarray(riem_frame)
    single = r.ndim == 4
    if single:
        r = r[None]
    n = r.shape[1]
    d = n // 2
    perms = [(s, _word_sign(s)) for s in itertools.permutations(range(n))]
    total = np.array([0] * len(r), dtype=object) if r.dtype == object else np.zeros(len(r))
    for pi, sign_pi in perms:
        for sg, sign_sg in perms:
            term = r[:, pi[0], pi[1], sg[0], sg[1]]
            for kk in range(1, d):
                term = term * r[:, pi[2 * kk], pi[2 * kk + 1], sg[2 * kk], sg[2 * kk + 1]]
            total = total + sign_pi * sign_sg * term
    return total[0] if single else total


def gram_schmidt_loop(g, vectors):
    """Ascending metric Gram-Schmidt of ``vectors`` (rows), one vector at a time.

    One einsum pass per projection and per norm over the batch, against
    ``gram_schmidt_frames``' one Cholesky factorization.
    """
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


def check_orthonormal(g, frame, tol=1e-8):
    """Validate frame @ g @ frame.T = I; raises NonOrthonormalFrameError."""
    gram = frame @ g @ frame.T
    err = np.max(np.abs(gram - np.eye(len(frame))))
    if not err < tol:
        raise NonOrthonormalFrameError(
            "frame Gram matrix deviates from identity by %.3e" % err
        )
    return float(err)


def induced_metric_jets(components, points):
    """``(g, dg, d2g)`` of the metric G^T G an embedding's ``components`` induce.

    G and H are the Jacobian and the Hessians of the components.  ``d2g``
    is ``<H_ik, H_jl> + <H_il, H_jk>``: it leaves out the terms with third
    derivatives of the embedding, which cancel in the antisymmetrised
    combination :func:`riemann_arrays` reads, so that formula still gives
    the true Riemann tensor.
    """
    npts, n = points.shape
    comps = components(variables(points))
    G = np.zeros((npts, len(comps), n))
    H = np.zeros((npts, len(comps), n, n))
    for a, c in enumerate(comps):
        if isinstance(c, Jet2):
            G[:, a, :] = c.grad
            H[:, a, :, :] = c.hess
    g = np.einsum("pai,paj->pij", G, G)
    dg = np.einsum("paik,paj->pijk", H, G) + np.einsum("pai,pajk->pijk", G, H)
    hh = np.einsum("paik,pajl->pijkl", H, H)
    return g, dg, hh + np.einsum("pijkl->pijlk", hh)


def general_jets(metric, points):
    """``(g, dg, d2g)`` of a metric that is not a product, for :func:`riemann_arrays`.

    Closed-form entries give their hyper-dual jets, and an embedding the
    jets of its induced metric (:func:`induced_metric_jets`).  Any other
    source (a constant metric, a compact group's) reads no chart axis, so
    dg = 0, and d2g is the Hessian of g in normal coordinates,
    -(R_ikjl + R_iljk) / 3, from the source's own R.
    """
    source = metric._jets_fn
    if getattr(source, "func", None) is _gauss_jets:
        return induced_metric_jets(*source.args, points)
    if getattr(source, "func", None) is _entries_jets:
        entries, dim = source.args
        return _assemble_matrix_jets(entries(variables(points)), points, dim)
    assert metric.depends_on == ()
    g, riem = metric.jets(points)
    d2g = -(np.einsum("pikjl->pijkl", riem) + np.einsum("piljk->pijkl", riem)) / 3
    return g, np.zeros(g.shape + (metric.dim,)), d2g


def padded_jets(metric, points):
    """``(g, dg, d2g)`` at every point, a product's padded from its factors'.

    A product has no jets of its own; this recurses into ``metric.factors``
    and places each factor's :func:`general_jets` on its diagonal block, so
    nested products work too.
    """
    if metric.factors is None:
        return general_jets(metric, points)
    first, second = metric.factors
    parts = zip(padded_jets(first, points[:, : first.dim]),
                padded_jets(second, points[:, first.dim :]))
    return tuple(_block_diagonal(a, b) for a, b in parts)


def padded_curvature(metric, points):
    """``(g, riem, base)`` from the metric's padded jets at every point.

    Runs the full-dimensional Riemann formula and the Gram-Schmidt loop on
    every row: no factor split, no distinct-row evaluation and no Cholesky.
    """
    g, dg, d2g = padded_jets(metric, points)
    base = gram_schmidt_loop(g, np.broadcast_to(np.eye(metric.dim), g.shape))
    return g, riemann_arrays(g, dg, d2g), base


def block_density(metric, functional, points):
    """Coordinate-frame density (f dV) from the assembled full-dimensional chunk.

    ``curvature_chunk``'s block-diagonal (g, riem, base) contracted at every
    row in the product's own dimension, written out apart from the
    quadrature module's own contraction.
    """
    g, riem, base = curvature_chunk(metric, points)
    vol = np.sqrt(np.linalg.det(g))
    if functional == "volume":
        return vol
    if functional == "gbc":
        return k_gbc(riemann_in_frame(riem, base)) * vol
    k = sectional_from_riemann(riem, base)
    return (k_discrete(k) if functional == "gamma_d" else scalar_curvature(k)) * vol


def cp2_sectional_loop(rows):
    """CP^2's exact sectional matrix of the frame ``rows``, by K = 1 + 3 <Ju, v>^2.

    ``rows`` are four pairwise-orthogonal integer (or rational) vectors,
    each standing for its unit vector; every entry is a ``Fraction``.
    """
    f = [[Fraction(v) for v in row] for row in rows]
    jmat = [[Fraction(v) for v in row] for row in CP2_J]
    norms = [sum(x * x for x in row) for row in f]
    if any(n == 0 for n in norms):
        raise NonOrthonormalFrameError("zero frame vector")
    for i in range(4):
        for j in range(i + 1, 4):
            if sum(f[i][a] * f[j][a] for a in range(4)) != 0:
                raise NonOrthonormalFrameError("frame rows %d, %d not orthogonal" % (i, j))
    k = np.zeros((4, 4), dtype=object)
    k[...] = Fraction(0)
    for i in range(4):
        ji = [sum(jmat[a][b] * f[i][b] for b in range(4)) for a in range(4)]
        for j in range(4):
            if i == j:
                continue
            pair = sum(ji[a] * f[j][a] for a in range(4))
            k[i, j] = 1 + 3 * pair * pair / (norms[i] * norms[j])
    return k


def rotated_structure_constants(alpha, q):
    """Structure constants after the orthogonal change of basis e' = q e.

    The sectional matrix of the rotated basis is then
    ``np.einsum("ijk,ijk->ij", a, a) / 4``, with no Riemann tensor and no
    frame contraction.  Raises ``NonOrthonormalFrameError`` unless ``q`` is
    orthogonal.
    """
    q = np.asarray(q, dtype=float)
    if np.max(np.abs(q @ q.T - np.eye(len(q)))) > 1e-8:
        raise NonOrthonormalFrameError("basis change must be orthogonal")
    return np.einsum("ai,bj,ck,ijk->abc", q, q, q, alpha, optimize=True)


def bareiss_lists(A, B):
    """``(det A, X)`` with ``A X = B`` (``X`` is ``None`` if ``A`` is singular), by
    Bareiss elimination on nested lists of Python ints.

    The same pivot rule as ``curvfun.rationals._eliminate``: the first
    nonzero entry at or below the diagonal.  Every row is scaled to
    integers by the lcm of its denominators.
    """
    n = len(A)
    m, scale = [], 1
    for a, b in zip(A, B):
        row = [x if type(x) is int else Fraction(x) for x in list(a) + list(b)]
        dens = [int(x.denominator) for x in row]
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
    return Fraction(sign * prev, scale), [[Fraction(v, prev) for v in r] for r in y]

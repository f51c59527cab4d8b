"""Independent reference implementations used only by the tests.

Each oracle computes a quantity the package also computes, by a separate
route: central finite differences instead of hyper-dual jets, the literal
permutation and double-permutation sums instead of their matching
reductions, a five-operand einsum per frame plane instead of the Monte
Carlo estimator's matmul, LAPACK's QR with the sign fix instead of the Haar
sampler's batched Gram-Schmidt, a direct Gram-matrix check of a frame, an
embedding's curvature from the derivatives of its induced metric through
the general Riemann formula instead of from the Gauss equation, a
product's curvature from its padded full-dimensional jets instead of from
its factors, a product's coordinate-frame density from its assembled
full-dimensional chunk instead of from its factors' densities, and a Lie
group's curvature in a rotated frame from its rotated structure constants
instead of from the frame contraction.
"""

import itertools

import numpy as np

from curvfun.errors import NonOrthonormalFrameError
from curvfun.frames import gram_schmidt_frames
from curvfun.functionals import _word_sign, k_discrete, k_gbc, scalar_curvature
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


def check_orthonormal(g, frame, tol=1e-8):
    """Validate frame @ g @ frame.T = I; raises NonOrthonormalFrameError."""
    gram = frame @ g @ frame.T
    err = np.max(np.abs(gram - np.eye(len(frame))))
    if not err < tol:
        raise NonOrthonormalFrameError(
            "frame Gram matrix deviates from identity by %.3e" % err
        )
    return float(err)


def induced_metric_jets(embedding, points):
    """``(g, dg, d2g)`` of the metric G^T G an embedding induces.

    G and H are the Jacobian and the Hessians of the components.  ``d2g``
    is ``<H_ik, H_jl> + <H_il, H_jk>``: it leaves out the terms with third
    derivatives of the embedding, which cancel in the antisymmetrised
    combination :func:`riemann_arrays` reads, so that formula still gives
    the true Riemann tensor.
    """
    npts, n = points.shape
    m = embedding.ambient_dim
    G = np.zeros((npts, m, n))
    H = np.zeros((npts, m, n, n))
    for a, c in enumerate(embedding.components(variables(points))):
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

    Runs the full-dimensional Riemann formula and Gram-Schmidt on every
    row: no factor split and no distinct-row evaluation.
    """
    g, dg, d2g = padded_jets(metric, points)
    base = gram_schmidt_frames(g, np.broadcast_to(np.eye(metric.dim), g.shape))
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

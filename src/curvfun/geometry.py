"""Metric fields, Christoffel symbols, Riemann tensor, sectional curvature.

Every metric source supplies the same pair for a batch of chart points:
the metric g and its lowered Riemann tensor R, the metric's invariant
2-jet (in normal coordinates g = delta - R.x.x / 3 + ...).  Each source
has one route to it:

* closed-form entries: hyper-dual jets of g, then :func:`riemann_arrays`
  (the general formula; exact on Fraction input);
* an embedding: the Gauss equation, from the first and second
  derivatives of the embedding (:func:`_gauss_jets`);
* a constant metric: R = 0;
* a compact group's bi-invariant metric (:mod:`curvfun.liegroups`):
  R = alpha.alpha / 4.

``block_diagonal`` combines two metrics into a product.  Each metric
declares ``depends_on``, the chart axes it reads; the integrator collapses
the others to one node.

The pipeline is batched over chart points.  :func:`curvature_chunk` is the
one path from a metric to curvature data (checked g and R, Gram-Schmidt
base frames); the quadrature densities and :func:`curvature_batch` both
call it.  There is no single-point API: a point is a batch of one.  A
product has no jets of its own: its chunk is assembled from its factors'
chunks, block by block (a product has no mixed-block curvature), and where
the frame is aligned with the factors the integrator multiplies the
factors' integrals instead.  Any other metric is evaluated once per
distinct row of its ``depends_on`` columns and the results are copied to
the rows that repeat it.

Everything is evaluated in chart coordinates, never in normal coordinates:
sectional curvatures come from contracting against an explicitly
orthonormalized frame, and the frame-free GBC and scalar curvature
densities from the chart-basis tensor with g and its inverse.

Index conventions, used consistently below:

* ``g[p, i, j]``            metric at point ``p``
* ``dg[p, i, j, k]``        del_k g_ij (closed-form entries only)
* ``d2g[p, i, j, k, l]``    del_k del_l g_ij (closed-form entries only)
* ``gamma[p, k, i, j]``     Gamma^k_ij
* ``riem[p, i, j, k, l]``   R_ijkl, lowered, with R(t_i, t_j, t_i, t_j) the
  sectional curvature of the (t_i, t_j) plane (so the round sphere has
  R_1212 > 0 in an orthonormal frame).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from . import jets as J
from .errors import NonFiniteError, SingularMetricError
from .frames import gram_schmidt_frames
from .rationals import exact_inv

__all__ = [
    "MetricField",
    "EmbeddingMap",
    "christoffel_arrays",
    "riemann_arrays",
    "curvature_chunk",
    "curvature_batch",
    "sectional_from_riemann",
]

SYMMETRY_TOL = 1e-12


class MetricField:
    """A metric tensor field on a chart.

    Use one of the constructors :meth:`from_entries`, :meth:`from_embedding`,
    or :meth:`constant`.  ``dim`` is the chart dimension (even for all the
    manifolds of interest, but the pipeline itself does not care).

    ``depends_on`` is the sorted tuple of chart axes (0-based) the metric
    reads; every axis unless a constructor is told otherwise.  The metric,
    and so every curvature density built from it, is constant along the
    other axes, which lets the integrator evaluate it on one node of each.

    ``factors`` is ``(first, second)`` for a :meth:`block_diagonal` product
    and ``None`` otherwise.  A product has no jets of its own:
    :func:`curvature_chunk` takes its curvature from its factors.
    """

    def __init__(self, dim, jets_fn, provenance, depends_on=None, factors=None):
        self.dim = dim
        self._jets_fn = jets_fn
        self.provenance = provenance
        self.depends_on = tuple(range(dim)) if depends_on is None else tuple(sorted(depends_on))
        self.factors = factors

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_entries(cls, dim, entries, provenance="closed-form", depends_on=None):
        """Metric from a callable ``entries(vars) -> (dim, dim) nested list``.

        ``vars`` is the list of jet variables; each matrix element may be a
        jet expression in them or a plain constant.  The same callable is
        reused for exact (Fraction) evaluation when the incoming points have
        object dtype.  ``depends_on`` lists the variables the entries read.
        """

        return cls(dim, partial(_entries_jets, entries, dim), provenance, depends_on)

    @classmethod
    def constant(cls, matrix):
        matrix = np.asarray(matrix, dtype=float)
        dim = matrix.shape[0]

        def jets_fn(points):
            npts = len(points)
            return np.broadcast_to(matrix, (npts, dim, dim)).copy(), np.zeros((npts,) + (dim,) * 4)

        return cls(dim, jets_fn, "constant", depends_on=())

    @classmethod
    def from_embedding(cls, embedding, depends_on=None):
        """First fundamental form of an :class:`EmbeddingMap`.

        ``depends_on`` lists the chart axes the induced metric reads; the
        embedding itself may still move along the others (a rotation axis).
        """

        return cls(embedding.chart_dim, partial(_gauss_jets, embedding), "embedding", depends_on)

    @classmethod
    def block_diagonal(cls, first, second):
        """Product metric: block-diagonal combination of two metric fields.

        A product has no jets of its own: its curvature chunk is assembled
        from the factors' (:func:`curvature_chunk`), and its coordinate-frame
        integrals from the factors' integrals (:mod:`curvfun.quadrature`).
        """
        n1 = first.dim
        provenance = "product(%s, %s)" % (first.provenance, second.provenance)
        depends_on = first.depends_on + tuple(n1 + k for k in second.depends_on)
        return cls(n1 + second.dim, None, provenance, depends_on, factors=(first, second))

    # -- evaluation ----------------------------------------------------------

    def jets(self, points):
        """Batched, checked ``(g, riem)`` at ``points`` of shape (npoints, dim).

        ``g`` is the metric and ``riem`` its lowered Riemann tensor, each
        source's by its own route (see the module docstring).  On float
        input, raises :class:`NonFiniteError` when either is not finite,
        :class:`SingularMetricError` when ``g`` is asymmetric beyond
        ``SYMMETRY_TOL`` at some point, and ``LinAlgError`` when it is not
        positive definite; the integrator then names the node.  Object
        (Fraction) input is passed through unchecked and stays exact.
        A product raises ``TypeError``: call ``jets`` on its factors.
        """
        if self.factors is not None:
            raise TypeError("%s has no jets of its own; evaluate its factors "
                            "(metric.factors)" % self.provenance)
        g, riem = self._jets_fn(np.asarray(points))
        if g.dtype != object:
            if not (np.all(np.isfinite(g)) and np.all(np.isfinite(riem))):
                raise NonFiniteError("metric or curvature is not finite")
            if np.max(np.abs(g - np.swapaxes(g, 1, 2))) > SYMMETRY_TOL:
                raise SingularMetricError("metric is not symmetric")
            np.linalg.cholesky(g)  # raises LinAlgError when not positive definite
        return g, riem


def _entries_jets(entries, dim, points):
    """``(g, riem)`` of closed-form entries: their jets, then :func:`riemann_arrays`."""
    g, dg, d2g = _assemble_matrix_jets(entries(J.variables(points)), points, dim)
    return g, riemann_arrays(g, dg, d2g)


def _assemble_matrix_jets(rows, points, dim):
    npts = len(points)
    dtype = points.dtype if points.dtype == object else np.float64
    g = np.zeros((npts, dim, dim), dtype=dtype)
    dg = np.zeros((npts, dim, dim, dim), dtype=dtype)
    d2g = np.zeros((npts, dim, dim, dim, dim), dtype=dtype)
    for i in range(dim):
        for j in range(dim):
            e = rows[i][j]
            if isinstance(e, J.Jet2):
                g[:, i, j] = e.value
                dg[:, i, j, :] = e.grad
                d2g[:, i, j, :, :] = e.hess
            else:
                g[:, i, j] = e
    return g, dg, d2g


@dataclass
class EmbeddingMap:
    """Chart into Euclidean space; the metric it induces is J^T J.

    ``components`` maps the list of jet variables to a list of
    ``ambient_dim`` jets (or constants).
    """

    chart_dim: int
    ambient_dim: int
    components: callable


def _gauss_jets(embedding, points):
    """``(g, riem)`` of an embedding by the Gauss equation, on float points.

    With Jacobian G and component Hessians H, g = G^T G; the normal part
    of the Hessians is Hn = H - G g^-1 G^T H, and
    R_rsmv = <Hn_rm, Hn_sv> - <Hn_rv, Hn_sm> (do Carmo, *Riemannian
    Geometry*, ch. 6): one batched solve and one (n^2, m) @ (m, n^2)
    product per point, no derivative of g.
    """
    npts, n = points.shape
    m = embedding.ambient_dim
    G = np.zeros((npts, m, n))
    H = np.zeros((npts, m, n * n))
    for a, c in enumerate(embedding.components(J.variables(points))):
        if isinstance(c, J.Jet2):
            G[:, a, :] = c.grad
            H[:, a, :] = c.hess.reshape(npts, n * n)
    Gt = np.swapaxes(G, 1, 2)
    g = Gt @ G
    hn = H - G @ np.linalg.solve(g, Gt @ H)
    pp = (np.swapaxes(hn, 1, 2) @ hn).reshape(npts, n, n, n, n)  # <Hn_rm, Hn_sv> at [r, m, s, v]
    return g, np.einsum("prmsv->prsmv", pp) - np.einsum("prvsm->prsmv", pp)


# -- curvature pipeline ------------------------------------------------------


def _batched_inverse(g):
    if g.dtype == object:
        out = np.empty_like(g)
        for p in range(len(g)):
            out[p] = np.array(exact_inv(g[p].tolist()), dtype=object)
        return out
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise SingularMetricError("metric not invertible") from None


def _half(a):
    """a / 2, kept exact on object (Fraction) arrays."""
    return a * (Fraction(1, 2) if a.dtype == object else 0.5)


def christoffel_arrays(g, dg):
    """Batched Christoffel symbols of both kinds from metric jets.

    Returns ``(gamma, first)`` with ``gamma[p, k, i, j] = Gamma^k_ij`` and
    ``first[p, l, i, j] = Gamma_{l,ij} = (del_i g_jl + del_j g_il - del_l g_ij) / 2``.
    """
    first = _half(
        np.einsum("pjli->plij", dg) + np.einsum("pilj->plij", dg) - np.einsum("pijl->plij", dg)
    )
    gamma = np.einsum("pkl,plij->pkij", _batched_inverse(g), first)
    return gamma, first


def riemann_arrays(g, dg, d2g):
    """Batched lowered Riemann tensor R[p, r, s, m, v].

    R_rsmv = (d2g[r,v,m,s] + d2g[s,m,v,r] - d2g[s,v,m,r] - d2g[r,m,v,s]) / 2
             + Gamma_{a,ms} Gamma^a_rv - Gamma_{a,vs} Gamma^a_rm,

    with one metric inverse.  Both parts are antisymmetric in (m, v), so R is
    computed as B[r,s,m,v] - B[r,s,v,m] with
    B = (d2g[r,v,m,s] + d2g[s,m,v,r]) / 2 + Gamma_{a,ms} Gamma^a_rv.

    Sign convention: R(t_i, t_j, t_i, t_j) is the sectional curvature, so
    the round sphere gives R_1212 = +1 in an orthonormal frame.
    """
    gamma, first = christoffel_arrays(g, dg)
    b = _half(np.einsum("prvms->prsmv", d2g) + np.einsum("psmvr->prsmv", d2g))
    b = b + np.einsum("pams,parv->prsmv", first, gamma, optimize=True)
    return b - np.einsum("prsvm->prsmv", b)


def sectional_from_riemann(riem, frames):
    """Sectional curvature matrices K_ij = R(t_i, t_j, t_i, t_j).

    ``frames[p, i, :]`` are the components of frame vector t_i in the chart
    basis.  Returns (npoints, n, n) with exact zeros on the diagonal.
    """
    # contract into the frame pairwise to keep intermediates small
    r1 = np.einsum("pabcd,pia->pibcd", riem, frames)
    r2 = np.einsum("pibcd,pjb->pijcd", r1, frames)
    k = np.einsum("pijcd,pic,pjd->pij", r2, frames, frames)
    for i in range(k.shape[1]):
        k[:, i, i] = 0
    return k


def riemann_in_frame(riem, frames):
    """Riemann tensor contracted into an orthonormal frame (all 4 slots).

    Not exported and not called by the pipeline, which reads the frame-free
    densities from the chart-basis tensor; perfbench's tracer wraps it by name.
    """
    r = np.einsum("pabcd,pia->pibcd", riem, frames)
    r = np.einsum("pibcd,pjb->pijcd", r, frames)
    r = np.einsum("pijcd,pkc->pijkd", r, frames)
    return np.einsum("pijkd,pld->pijkl", r, frames)


def curvature_chunk(metric, points):
    """Metric, Riemann tensor and base frame at a batch of chart points.

    The one curvature path: the metric's checked ``(g, riem)`` and the
    metric Gram-Schmidt frame of the chart basis (rows are frame
    vectors in chart components).  Returns ``(g, riem, base)``; ``riem`` is
    exact on object input, ``base`` is always float.

    A product is assembled block by block from its factors' chunks: its
    Riemann tensor has no mixed-block terms, and Gram-Schmidt of a
    block-diagonal ``g`` against the chart basis is the block-diagonal of
    the factors' frames.  Any other metric is evaluated once per distinct
    row of its ``depends_on`` columns (see :func:`_distinct_rows`) and the
    results are gathered back to the rows.
    """
    points = np.asarray(points)
    if metric.factors is not None:
        first, second = metric.factors
        n1 = first.dim
        parts = zip(curvature_chunk(first, points[:, :n1]),
                    curvature_chunk(second, points[:, n1:]))
        return tuple(_block_diagonal(a, b) for a, b in parts)
    rows = _distinct_rows(points, metric.depends_on)
    g, riem = metric.jets(points if rows is None else points[rows[0]])
    out = g, riem, gram_schmidt_frames(g, np.broadcast_to(np.eye(metric.dim), g.shape))
    return out if rows is None else tuple(a[rows[1]] for a in out)


def _distinct_rows(points, depends_on):
    """``(reps, inverse)`` with ``points[reps][inverse]`` agreeing on ``depends_on``.

    ``reps`` indexes the first row of each distinct value of the
    ``depends_on`` columns, in order of first occurrence; a metric that
    reads no axis has one.  Returns ``None`` when every row is distinct
    and for object (Fraction) input, which is evaluated as it is.
    """
    if points.dtype == object or len(points) < 2:
        return None
    if not depends_on:
        return np.zeros(1, dtype=np.intp), np.zeros(len(points), dtype=np.intp)
    cols = np.ascontiguousarray(points[:, list(depends_on)])
    keys = cols.view(np.dtype((np.void, cols.itemsize * cols.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if len(first) == len(points):
        return None
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def _block_diagonal(a, b):
    """Per-point block-diagonal tensor with blocks ``a`` and ``b`` on every axis."""
    n1, n2 = a.shape[1], b.shape[1]
    out = np.zeros((len(a),) + (n1 + n2,) * (a.ndim - 1), dtype=np.result_type(a, b))
    out[(slice(None),) + (slice(None, n1),) * (a.ndim - 1)] = a
    out[(slice(None),) + (slice(n1, None),) * (b.ndim - 1)] = b
    return out


def curvature_batch(metric, points):
    """Sectional matrices, Riemann tensors, frames, and metrics at many points.

    Each point gets the metric Gram-Schmidt frame of the chart basis.
    Returns ``(k, riem, frames, g)``.
    """
    g, riem, frames = curvature_chunk(metric, points)
    return sectional_from_riemann(riem, frames), riem, frames, g

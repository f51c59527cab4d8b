"""Metric fields, Christoffel symbols, Riemann tensor, sectional curvature.

The pipeline is ``metric -> christoffel -> riemann -> sectional matrix``.
Metrics come in three flavors: closed-form entries (differentiated with
hyper-dual jets), embedding-induced (first fundamental form of a chart into
Euclidean space, from second-order jets of the embedding), and constant;
``block_diagonal`` combines two of them into a product.  All of them feed
the same Riemann formula.

Everything is evaluated in chart coordinates; scalar outputs (sectional
curvatures and the functionals built on them) are obtained by contracting
against an explicitly orthonormalized frame, never by constructing normal
coordinates.

Index conventions, used consistently below:

* ``g[p, i, j]``            metric at point ``p``
* ``dg[p, i, j, k]``        del_k g_ij
* ``d2g[p, i, j, k, l]``    del_k del_l g_ij, up to terms the Riemann
  tensor cancels (see :meth:`MetricField.jets`)
* ``gamma[p, k, i, j]``     Gamma^k_ij
* ``riem[p, i, j, k, l]``   R_ijkl, lowered, with R(t_i, t_j, t_i, t_j) the
  sectional curvature of the (t_i, t_j) plane (so the round sphere has
  R_1212 > 0 in an orthonormal frame).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import jets as J
from .errors import (
    DegenerateChartError,
    DegeneratePlaneError,
    NonFiniteError,
    SingularMetricError,
)
from .rationals import exact_det, exact_inv

__all__ = [
    "MetricField",
    "EmbeddingMap",
    "CurvatureAtPoint",
    "christoffel",
    "christoffel_fd",
    "riemann",
    "induced_metric",
    "sectional",
    "curvature_at",
]

SYMMETRY_TOL = 1e-12


def _as_points(x, dim):
    """Normalize a single point or a batch to shape (npoints, dim)."""
    x = np.asarray(x)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != dim:
        raise ValueError("expected points of dimension %d, got %d" % (dim, x.shape[1]))
    return x, single


class MetricField:
    """A metric tensor field on a chart.

    Use one of the constructors :meth:`from_entries`, :meth:`from_embedding`,
    or :meth:`constant`.  ``dim`` is the chart dimension (even for all the
    manifolds of interest, but the pipeline itself does not care).
    """

    def __init__(self, dim, jets_fn, provenance, embedding=None):
        self.dim = dim
        self._jets_fn = jets_fn
        self.provenance = provenance
        self.embedding = embedding

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_entries(cls, dim, entries, provenance="closed-form"):
        """Metric from a callable ``entries(vars) -> (dim, dim) nested list``.

        ``vars`` is the list of jet variables; each matrix element may be a
        jet expression in them or a plain constant.  The same callable is
        reused for exact (Fraction) evaluation when the incoming points have
        object dtype.
        """

        def jets_fn(points):
            return _assemble_matrix_jets(entries(J.variables(points)), points, dim)

        return cls(dim, jets_fn, provenance)

    @classmethod
    def constant(cls, matrix):
        matrix = np.asarray(matrix, dtype=float)
        dim = matrix.shape[0]

        def jets_fn(points):
            npts = len(points)
            g = np.broadcast_to(matrix, (npts, dim, dim)).copy()
            dg = np.zeros((npts, dim, dim, dim))
            d2g = np.zeros((npts, dim, dim, dim, dim))
            return g, dg, d2g

        return cls(dim, jets_fn, "constant")

    @classmethod
    def from_embedding(cls, embedding):
        """First fundamental form of an :class:`EmbeddingMap`."""

        def jets_fn(points):
            return _induced_metric_jets(embedding, points)

        return cls(embedding.chart_dim, jets_fn, "embedding", embedding=embedding)

    @classmethod
    def block_diagonal(cls, first, second):
        """Product metric: block-diagonal combination of two metric fields."""
        n1, n2 = first.dim, second.dim
        dim = n1 + n2

        def jets_fn(points):
            g1, dg1, d2g1 = first.jets(points[:, :n1])
            g2, dg2, d2g2 = second.jets(points[:, n1:])
            npts = len(points)
            dtype = np.result_type(g1, g2)
            g = np.zeros((npts, dim, dim), dtype=dtype)
            dg = np.zeros((npts, dim, dim, dim), dtype=dtype)
            d2g = np.zeros((npts, dim, dim, dim, dim), dtype=dtype)
            g[:, :n1, :n1] = g1
            g[:, n1:, n1:] = g2
            dg[:, :n1, :n1, :n1] = dg1
            dg[:, n1:, n1:, n1:] = dg2
            d2g[:, :n1, :n1, :n1, :n1] = d2g1
            d2g[:, n1:, n1:, n1:, n1:] = d2g2
            return g, dg, d2g

        provenance = "product(%s, %s)" % (first.provenance, second.provenance)
        return cls(dim, jets_fn, provenance)

    # -- evaluation ----------------------------------------------------------

    def jets(self, points):
        """Batched ``(g, dg, d2g)`` at ``points`` of shape (npoints, dim).

        ``g`` and ``dg`` are the metric and its first derivatives.  ``d2g``
        only has to be right where :func:`riemann_arrays` reads it, in the
        combination
        ``d2g[r,v,m,s] + d2g[s,m,v,r] - d2g[s,v,m,r] - d2g[r,m,v,s]``.
        Closed-form entries give the true second derivatives; an embedding
        gives ``<H_ik, H_jl> + <H_il, H_jk>`` from the Hessians ``H`` of its
        components, leaving out the terms with third derivatives of the
        embedding, which cancel in that combination (the Gauss equation).
        """
        points = np.asarray(points)
        g, dg, d2g = self._jets_fn(points)
        if g.dtype != object:
            if not (np.all(np.isfinite(g)) and np.all(np.isfinite(dg)) and np.all(np.isfinite(d2g))):
                raise NonFiniteError("metric derivatives are not finite")
        return g, dg, d2g

    def value(self, x, validate=True):
        """Metric matrix at one point, with symmetry and SPD validation."""
        pts, _ = _as_points(x, self.dim)
        g = self.jets(pts)[0][0]
        if validate:
            _validate_metric_value(g, x)
        return g

    def volume_element(self, x):
        """sqrt(det g) at one point (> 0 for a valid metric)."""
        g = self.value(x)
        if g.dtype == object:
            d = exact_det(g.tolist())
            if d <= 0:
                raise SingularMetricError("nonpositive metric determinant at %r" % (x,))
            return d  # exact determinant; caller takes the square root
        return float(np.sqrt(np.linalg.det(g)))


def _validate_metric_value(g, x):
    if g.dtype == object:
        gl = g.tolist()
        n = len(gl)
        for i in range(n):
            for j in range(i + 1, n):
                if gl[i][j] != gl[j][i]:
                    raise SingularMetricError("asymmetric exact metric at %r" % (x,))
        # leading principal minors positive <=> positive definite
        for k in range(1, n + 1):
            if exact_det([row[:k] for row in gl[:k]]) <= 0:
                raise SingularMetricError("metric not positive definite at %r" % (x,))
        return
    if not np.all(np.isfinite(g)):
        raise NonFiniteError("metric value not finite at %r" % (x,))
    if np.max(np.abs(g - g.T)) > SYMMETRY_TOL:
        raise SingularMetricError("metric not symmetric at %r" % (x,))
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise SingularMetricError("metric not positive definite at %r" % (x,)) from None


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

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        comps = self.components(J.variables(x[None, :]))
        rows = []
        for c in comps:
            if isinstance(c, J.Jet2):
                rows.append(c.grad[0])
            else:
                rows.append(np.zeros(self.chart_dim))
        return np.array(rows)  # (ambient_dim, chart_dim)


def _induced_metric_jets(embedding, points):
    """``(g, dg, d2g)`` of J^T J from second-order jets of the components.

    ``d2g`` omits the third-derivative terms; see :meth:`MetricField.jets`.
    """
    npts, n = points.shape
    m = embedding.ambient_dim
    dtype = points.dtype if points.dtype == object else np.float64
    G = np.zeros((npts, m, n), dtype=dtype)
    H = np.zeros((npts, m, n, n), dtype=dtype)
    for a, c in enumerate(embedding.components(J.variables(points))):
        if isinstance(c, J.Jet2):
            G[:, a, :] = c.grad
            H[:, a, :, :] = c.hess
    g = np.einsum("pai,paj->pij", G, G)
    dg = np.einsum("paik,paj->pijk", H, G) + np.einsum("pai,pajk->pijk", G, H)
    hh = np.einsum("paik,pajl->pijkl", H, H)
    d2g = hh + np.einsum("pijkl->pijlk", hh)  # <H_ik, H_jl> + <H_il, H_jk>
    return g, dg, d2g


def induced_metric(embedding, x):
    """First fundamental form J^T J at a point, validated SPD.

    Raises :class:`DegenerateChartError` when the Jacobian is
    rank-deficient (e.g. at the poles of Euler-angle charts).
    """
    jac = embedding.jacobian(x)
    if np.linalg.matrix_rank(jac, tol=1e-10) < embedding.chart_dim:
        raise DegenerateChartError("embedding Jacobian rank-deficient at %r" % (x,))
    g = jac.T @ jac
    _validate_metric_value(g, x)
    return g


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

    with one metric inverse.  ``d2g`` enters only through that
    antisymmetrised combination, which is all :meth:`MetricField.jets`
    promises of it.  Both parts are antisymmetric in (m, v), so R is
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
    """Riemann tensor contracted into an orthonormal frame (all 4 slots)."""
    r = np.einsum("pabcd,pia->pibcd", riem, frames)
    r = np.einsum("pibcd,pjb->pijcd", r, frames)
    r = np.einsum("pijcd,pkc->pijkd", r, frames)
    return np.einsum("pijkd,pld->pijkl", r, frames)


@dataclass
class CurvatureAtPoint:
    """Curvature data at one chart point.

    ``riemann`` is the lowered tensor in the chart basis; ``sectional`` the
    matrix K_ij in the stored orthonormal ``frame`` (rows are frame vectors
    in chart components).
    """

    riemann: np.ndarray
    sectional: np.ndarray
    frame: np.ndarray
    metric_value: np.ndarray = field(repr=False, default=None)


def christoffel(metric, x):
    """Christoffel symbols Gamma^k_ij at a point (hyper-dual derivatives)."""
    pts, _ = _as_points(x, metric.dim)
    g, dg, _ = metric.jets(pts)
    _validate_metric_value(g[0], x)
    return christoffel_arrays(g, dg)[0][0]


def christoffel_fd(metric, x, h=1e-5):
    """Finite-difference Christoffel symbols; independent oracle path."""
    x = np.asarray(x, dtype=float)
    n = metric.dim

    def gval(y):
        return metric.value(y, validate=False).astype(float)

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


def riemann(metric, x):
    """Lowered Riemann tensor R_ijkl at one point in the chart basis."""
    pts, _ = _as_points(x, metric.dim)
    g, dg, d2g = metric.jets(pts)
    _validate_metric_value(g[0], x)
    riem = riemann_arrays(g, dg, d2g)
    return riem[0]


def sectional(curv, i, j):
    """Sectional curvature of the (t_i, t_j) frame plane from a
    :class:`CurvatureAtPoint`; raises for the degenerate plane i == j."""
    if i == j:
        raise DegeneratePlaneError("sectional curvature needs two distinct frame directions")
    return float(curv.sectional[i, j])


def curvature_batch(metric, points, frames=None):
    """Sectional matrices, Riemann tensors, frames, and metrics at many points.

    ``frames`` is an optional (npoints, n, n) array of frame row-vectors;
    by default each point gets the metric Gram-Schmidt frame of the chart
    basis.  Returns ``(k, riem, frames, g)``.
    """
    from .frames import gram_schmidt_frames

    points = np.asarray(points)
    g, dg, d2g = metric.jets(points)
    riem = riemann_arrays(g, dg, d2g)
    if frames is None:
        eye = np.eye(metric.dim)
        frames = gram_schmidt_frames(g, np.broadcast_to(eye, g.shape))
    k = sectional_from_riemann(riem, np.asarray(frames))
    return k, riem, frames, g


def curvature_at(metric, x, frame=None):
    """Full curvature data at one point.

    ``frame`` is an explicit (n, n) array of frame row-vectors; by default
    the metric-Gram-Schmidt frame of the chart basis is used.
    """
    from .frames import gram_schmidt_frame

    pts, _ = _as_points(x, metric.dim)
    g, dg, d2g = metric.jets(pts)
    _validate_metric_value(g[0], x)
    riem = riemann_arrays(g, dg, d2g)
    if frame is None:
        frame = gram_schmidt_frame(g[0], np.eye(metric.dim))
    frames = np.asarray(frame)[None, :, :]
    sec = sectional_from_riemann(riem, frames)
    return CurvatureAtPoint(
        riemann=riem[0], sectional=sec[0], frame=np.asarray(frame), metric_value=g[0]
    )

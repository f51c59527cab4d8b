"""Catalog of concrete manifolds: charts, metrics and oracles.

Each entry is a :class:`ManifoldSpec` bundling a chart domain (a default
quadrature grid), a metric source (closed-form entries, an embedding, or
a compact group's bi-invariant metric on one node weighted by the group
volume), and optional closed-form pointwise oracles (independent of the
tensor pipeline, used to cross-check it).  The reference values these
manifolds are checked against live in :mod:`curvfun.reproduce`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import jets as J
from . import liegroups as LG
from .errors import BadDimensionError, ConfigError, NonOrthonormalFrameError
from .expressions import parse_expression
from .functionals import k_discrete
from .geometry import SYMMETRY_TOL, EmbeddingMap, MetricField
from .quadrature import MAX_AXIS_NODES, Axis, Grid, _grid_block

__all__ = [
    "ManifoldSpec",
    "round_sphere",
    "ellipsoid_of_revolution",
    "general_4_ellipsoid",
    "two_ellipsoid",
    "rp2",
    "taubes_torus",
    "extended_torus",
    "klembeck_patch",
    "flat_torus",
    "compact_group",
    "product",
    "cp2_sectional_exact",
    "CP2_J",
    "manifold_by_name",
    "load_manifold_file",
    "MANIFOLD_NAMES",
]

TWO_PI = 2 * math.pi


@dataclass
class ManifoldSpec:
    """A chart-based manifold ready for the curvature pipeline."""

    name: str
    dim: int
    metric: MetricField
    default_grid: Grid
    oracles: dict = field(default_factory=dict)
    notes: str = ""

    def interior_points(self, count, seed):
        """Uniform random points strictly inside the chart box (for tests)."""
        rng = np.random.Generator(np.random.PCG64(seed))
        lo = np.array([a.lo for a in self.default_grid.axes])
        hi = np.array([a.hi for a in self.default_grid.axes])
        u = rng.uniform(0.1, 0.9, size=(count, self.dim))
        return lo + u * (hi - lo)


# -- spheres and ellipsoids ----------------------------------------------------


def _sphere_components(scales):
    """Embedding components of a centered ellipsoid in nested polar angles.

    ``scales`` are the semi-axes (length n+1 for an n-dimensional chart);
    component i is scales[i] * sin(x1)...sin(x_{i}) * cos(x_{i+1}), with a
    trailing all-sine component.
    """

    def components(v):
        comps = []
        prefix = 1
        for i, x in enumerate(v):
            comps.append(scales[i] * prefix * J.cos(x))
            prefix = prefix * J.sin(x)
        comps.append(scales[-1] * prefix)
        return comps

    return components


def _polar_grid(ns):
    """Grid with all-but-last axes on (0, pi) Gauss-Legendre, last periodic."""
    axes = [Axis(0.0, math.pi, n) for n in ns[:-1]]
    axes.append(Axis(0.0, TWO_PI, ns[-1], periodic=True))
    return Grid(tuple(axes))


def round_sphere(dim):
    """Unit sphere S^dim (dim in {2, 4, 6}) with embedding-induced metric."""
    if dim not in (2, 4, 6):
        raise BadDimensionError("round_sphere supports dimensions 2, 4, 6")
    return ellipsoid_of_revolution(1.0, dim=dim)


def ellipsoid_of_revolution(a, dim=4):
    """Ellipsoid of revolution: unit sphere with one axis stretched by ``a``.

    For ``a = 1`` this is the round sphere.  The sectional curvatures in
    the (diagonal) coordinate frame are products of the two principal
    curvatures of the profile/orbit directions, giving the closed-form
    density oracle below.
    """
    if dim not in (2, 4, 6):
        raise BadDimensionError("ellipsoid_of_revolution supports dimensions 2, 4, 6")
    a = _semi_axis("a", a)
    scales = [a] + [1.0] * dim
    emb = EmbeddingMap(chart_dim=dim, ambient_dim=dim + 1, components=_sphere_components(scales))
    # a surface of revolution about the first axis: the last angle is free
    metric = MetricField.from_embedding(emb, depends_on=range(dim - 1))
    d = dim // 2
    ns = {2: (33, 32), 4: (17, 17, 17, 16), 6: (7, 7, 7, 7, 7, 6)}[dim]
    grid = _polar_grid(list(ns))

    def q_of(points):
        t = points[:, 0]
        return a * a * np.sin(t) ** 2 + np.cos(t) ** 2

    def k_d_density(points):
        # matchings pair the profile direction with one orbit direction
        # (factor a^2/Q^2) and orbit directions among themselves (a^2/Q);
        # all (dim-1)!! matchings contribute the same product.
        q = q_of(points)
        n_match = _double_factorial(dim - 1)
        return n_match * (a**2 / q**2) * (a**2 / q) ** (d - 1) / TWO_PI**d

    def dv_density(points):
        q = q_of(points)
        out = np.sqrt(q)
        for i in range(1, dim):
            out = out * np.sin(points[:, i - 1]) ** (dim - i)
        return out

    name = "s%d" % dim if a == 1.0 else "e%d(a=%g)" % (dim, a)
    return ManifoldSpec(
        name=name,
        dim=dim,
        metric=metric,
        default_grid=grid,
        oracles={"k_d": k_d_density, "dV": dv_density},
        notes="profile angle x1; orbit angles x2..; poles excluded by interior nodes",
    )


def _semi_axis(name, value):
    """A semi-axis parameter as a positive finite float, else ``ConfigError`` naming it."""
    try:
        v = float(value)
    except ValueError:
        v = math.nan
    if not (math.isfinite(v) and v > 0):
        raise ConfigError("semi-axis %s must be a positive finite number, got %r" % (name, value))
    return v


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def general_4_ellipsoid(axes):
    """4-ellipsoid with five independent semi-axes (no closed-form oracle).

    Expensive at production grids; the default grid here is a 5^4 smoke
    resolution.
    """
    if len(axes) != 5:
        raise ConfigError("need five semi-axes, got %d" % len(axes))
    axes = [_semi_axis("a%d" % (k + 1), v) for k, v in enumerate(axes)]
    emb = EmbeddingMap(chart_dim=4, ambient_dim=5, components=_sphere_components(axes))
    grid = Grid(
        (
            Axis(0.0, math.pi, 5),
            Axis(0.0, math.pi, 5),
            Axis(0.0, math.pi, 5),
            Axis(0.0, TWO_PI, 5, periodic=True),
        )
    )
    return ManifoldSpec(
        name="e4gen",
        dim=4,
        metric=MetricField.from_embedding(emb),
        default_grid=grid,
        notes="smoke-scale default grid; full-resolution runs are out of desk scope",
    )


def two_ellipsoid(a=1.0, b=2.0, c=3.0):
    """2-ellipsoid with semi-axes (a, b, c); Gauss curvature oracle included."""
    a, b, c = _semi_axis("a", a), _semi_axis("b", b), _semi_axis("c", c)

    def components(v):
        return [
            a * J.sin(v[0]) * J.cos(v[1]),
            b * J.sin(v[0]) * J.sin(v[1]),
            c * J.cos(v[0]),
        ]

    emb = EmbeddingMap(chart_dim=2, ambient_dim=3, components=components)

    def k_d_density(points):
        phi, th = points[:, 0], points[:, 1]
        x = a * np.sin(phi) * np.cos(th)
        y = b * np.sin(phi) * np.sin(th)
        z = c * np.cos(phi)
        denom = (x / a**2) ** 2 + (y / b**2) ** 2 + (z / c**2) ** 2
        gauss = 1.0 / (a * b * c * denom) ** 2
        return gauss / TWO_PI

    grid = _polar_grid([48, 48])
    return ManifoldSpec(
        name="e2",
        dim=2,
        metric=MetricField.from_embedding(emb),
        default_grid=grid,
        oracles={"k_d": k_d_density},
    )


# -- real projective plane -----------------------------------------------------


def rp2():
    """RP^2 via the Veronese embedding of the unit sphere into R^6.

    Chart (t, s): the sphere direction is (sin s cos t, sin s sin t, cos s)
    and the embedding is (x^2, y^2, z^2, sqrt2 xy, sqrt2 xz, sqrt2 yz),
    which identifies antipodes.  Induced metric diag(2 sin^2 s, 2); the
    quotient is covered once by t in (0, pi), s in (0, pi).
    """
    r2 = math.sqrt(2.0)

    def components(v):
        t, s = v[0], v[1]
        x = J.sin(s) * J.cos(t)
        y = J.sin(s) * J.sin(t)
        z = J.cos(s)
        return [x * x, y * y, z * z, r2 * x * y, r2 * x * z, r2 * y * z]

    emb = EmbeddingMap(chart_dim=2, ambient_dim=6, components=components)
    grid = Grid((Axis(0.0, math.pi, 32, periodic=True), Axis(0.0, math.pi, 33)))

    def k_d_density(points):
        return np.full(len(points), 0.5 / TWO_PI)

    return ManifoldSpec(
        name="rp2",
        dim=2,
        metric=MetricField.from_embedding(emb, depends_on=(1,)),
        default_grid=grid,
        oracles={"k_d": k_d_density},
        notes="metric is t-independent, so the t-axis may be treated as periodic "
        "with period pi for quadrature",
    )


# -- warped 4-tori --------------------------------------------------------------


def _as_scalar_field(u):
    """Accept an expression string or a callable of two jet variables."""
    if callable(u):
        return u
    expr = parse_expression(str(u))
    extra = expr.variables - {"x1", "x2"}
    if extra:
        raise ConfigError("warp function %r may only use x1, x2; found %s"
                          % (expr.text, sorted(extra)))
    return lambda a, b: expr({"x1": a, "x2": b})


def taubes_torus(u="cos(x2) + cos(x1)"):
    """Flat-in-two-directions warped 4-torus.

    Coordinates (x1, x2, x3, x4); the warp u depends on (x1, x2) and the
    metric is dx1^2 + dx2^2 + exp(2u) dx3^2 + exp(-2u) dx4^2.  Taking the
    warp to depend on the two *unwarped* coordinates is the reading that
    reproduces the published sectional-curvature matrix; the other reading
    (u a function of the warped coordinates) makes half the matrix vanish
    and contradicts it.
    """
    u_fn = _as_scalar_field(u)

    def entries(v):
        w = u_fn(v[0], v[1])
        e2u = J.exp(2 * w)
        em2u = J.exp(-2 * w)
        return [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, e2u, 0],
            [0, 0, 0, em2u],
        ]

    metric = MetricField.from_entries(4, entries, provenance="warped 4-torus", depends_on=(0, 1))
    grid = Grid(
        (
            Axis(0.0, TWO_PI, 33, periodic=True),
            Axis(0.0, TWO_PI, 33, periodic=True),
            Axis(0.0, TWO_PI, 1, periodic=True),
            Axis(0.0, TWO_PI, 1, periodic=True),
        )
    )

    def _u_jets(points):
        v = J.variables(np.asarray(points, dtype=float)[:, :2])
        w = u_fn(v[0], v[1])
        if not isinstance(w, J.Jet2):
            w = v[0] * 0 + w
        return w.grad[:, 0], w.grad[:, 1], w.hess[:, 0, 0], w.hess[:, 1, 1], w.hess[:, 0, 1]

    def k_d_density(points):
        ut, us, utt, uss, _ = _u_jets(points)
        return (us**2 * ut**2 - uss * utt) / (2 * math.pi**2)

    def k_gbc_density(points):
        ut, us, utt, uss, uts = _u_jets(points)
        return (uts**2 - utt * uss) / (2 * math.pi**2)

    def dv_density(points):
        return np.ones(len(points))

    def sectional_oracle(points):
        ut, us, utt, uss, _ = _u_jets(points)
        m = len(points)
        k = np.zeros((m, 4, 4))
        k[:, 0, 2] = -(ut**2) - utt
        k[:, 0, 3] = -(ut**2) + utt
        k[:, 1, 2] = -(us**2) - uss
        k[:, 1, 3] = -(us**2) + uss
        k[:, 2, 3] = ut**2 + us**2
        k = k + np.transpose(k, (0, 2, 1))
        return k

    return ManifoldSpec(
        name="taubes",
        dim=4,
        metric=metric,
        default_grid=grid,
        oracles={
            "k_d": k_d_density,
            "k_gbc": k_gbc_density,
            "dV": dv_density,
            "sectional": sectional_oracle,
        },
        notes="densities are x3/x4-independent; the default grid uses single "
        "nodes on those periodic axes (midpoint rule is exact for constants)",
    )


def extended_torus(u="cos(x2) + cos(x1)", v="0"):
    """Doubly warped 4-torus: exp(2v) dx1^2 + exp(-2v) dx2^2 + exp(2u) dx3^2
    + exp(-2u) dx4^2 with both warps functions of (x1, x2).

    With v = 0 this reduces (bitwise, entry for entry) to the metric of
    :func:`taubes_torus`.
    """
    u_fn = _as_scalar_field(u)
    v_fn = _as_scalar_field(v)

    def entries(vars_):
        w = u_fn(vars_[0], vars_[1])
        z = v_fn(vars_[0], vars_[1])
        if not isinstance(z, J.Jet2):
            z = vars_[0] * 0 + z
        return [
            [J.exp(2 * z), 0, 0, 0],
            [0, J.exp(-2 * z), 0, 0],
            [0, 0, J.exp(2 * w), 0],
            [0, 0, 0, J.exp(-2 * w)],
        ]

    metric = MetricField.from_entries(4, entries, provenance="doubly warped 4-torus",
                                      depends_on=(0, 1))
    grid = Grid(
        (
            Axis(0.0, TWO_PI, 17, periodic=True),
            Axis(0.0, TWO_PI, 17, periodic=True),
            Axis(0.0, TWO_PI, 1, periodic=True),
            Axis(0.0, TWO_PI, 1, periodic=True),
        )
    )
    return ManifoldSpec(
        name="extended",
        dim=4,
        metric=metric,
        default_grid=grid,
        notes="numerical-evaluation example; no closed-form density is published",
    )


def flat_torus(dim=4):
    """Flat torus: identity metric, everything vanishes."""
    metric = MetricField.constant(np.eye(dim))
    grid = Grid(tuple(Axis(0.0, TWO_PI, 5, periodic=True) for _ in range(dim)))
    return ManifoldSpec(
        name="flat%d" % dim,
        dim=dim,
        metric=metric,
        default_grid=grid,
    )


# -- compact groups --------------------------------------------------------------


def compact_group(algebra):
    """A compact group with its bi-invariant metric, as a one-node chart.

    The metric (:func:`curvfun.liegroups.biinvariant_metric`) has the same
    curvature at every point, so one node integrates it exactly: axis 1
    spans [0, V], V the group volume in ``liegroups.VOLUMES``, the others
    [0, 1], and the node's weights multiply to V.  The k_d oracle comes
    from the exact rational sectional table ``algebra.k_exact``.
    """
    volume = LG.VOLUMES[algebra.name]
    grid = Grid((Axis(0.0, volume, 1),) + (Axis(0.0, 1.0, 1),) * (algebra.dim - 1))
    density = float(k_discrete(algebra.k_exact[None])[0])
    return ManifoldSpec(
        name=algebra.name,
        dim=algebra.dim,
        metric=LG.biinvariant_metric(algebra),
        default_grid=grid,
        oracles={"k_d": lambda p: np.full(len(p), density), "dV": lambda p: np.ones(len(p))},
        notes="bi-invariant metric, %s; curvature constant over the group, so one node "
        "weighted by the group volume (axis 1's length)" % algebra.metric_note,
    )


# -- local patches ---------------------------------------------------------------


def klembeck_patch(half_width=0.2, n_per_axis=3):
    """Six-dimensional polynomial metric patch, identity at the origin.

    The metric entries are quadratic polynomials, so hyper-dual second
    derivatives (and on exact Fraction input the whole curvature tensor)
    are exact.  At the origin the sectional-curvature matrix has the
    two-triangle support pattern with value 3 on the six curved planes,
    making the symmetric-sum density vanish while the sign-weighted
    density is negative.
    """

    def entries(v):
        x1, x2, x3, x4, x5, x6 = v
        return [
            [1 - 3 * x3 * x3, -2 * x4 * x3, 0, 0, 0, 2 * x5 * x2],
            [-2 * x4 * x3, 1 - 3 * x4 * x4, 2 * x4 * x1, 0, 0, 0],
            [0, 2 * x4 * x1, 1 - 3 * x5 * x5, -2 * x5 * x6, 0, 0],
            [0, 0, -2 * x5 * x6, 1 - 3 * x6 * x6, 2 * x6 * x3, 0],
            [0, 0, 0, 2 * x6 * x3, 1 - 3 * x1 * x1, -2 * x1 * x2],
            [2 * x5 * x2, 0, 0, 0, -2 * x1 * x2, 1 - 3 * x2 * x2],
        ]

    metric = MetricField.from_entries(6, entries, provenance="polynomial patch")
    grid = Grid(tuple(Axis(-half_width, half_width, n_per_axis) for _ in range(6)))
    return ManifoldSpec(
        name="klembeck",
        dim=6,
        metric=metric,
        default_grid=grid,
        notes="local patch only; gamma over the box is not a topological quantity",
    )


# -- products --------------------------------------------------------------------


def _sphere_spec_any_dim(dim, n_nodes):
    """Round-sphere spec for product factors (any dim >= 1)."""
    if dim == 1:
        metric = MetricField.constant(np.eye(1))
        grid = Grid((Axis(0.0, TWO_PI, n_nodes, periodic=True),))
        return ManifoldSpec(name="s1", dim=1, metric=metric, default_grid=grid)
    scales = [1.0] * (dim + 1)
    emb = EmbeddingMap(chart_dim=dim, ambient_dim=dim + 1, components=_sphere_components(scales))
    ns = [n_nodes] * (dim - 1) + [n_nodes]
    grid = _polar_grid(ns)
    metric = MetricField.from_embedding(emb, depends_on=range(dim - 1))
    return ManifoldSpec(name="s%d" % dim, dim=dim, metric=metric, default_grid=grid)


def product(m1, m2, name=None):
    """Product manifold with block-diagonal metric and concatenated chart."""
    metric = MetricField.block_diagonal(m1.metric, m2.metric)
    grid = Grid(tuple(m1.default_grid.axes) + tuple(m2.default_grid.axes))
    oracles = {}
    if "k_d" in m1.oracles and "k_d" in m2.oracles and m1.dim % 2 == 0 and m2.dim % 2 == 0:
        n1 = m1.dim
        o1, o2 = m1.oracles["k_d"], m2.oracles["k_d"]

        def k_d_density(points):
            return o1(points[:, :n1]) * o2(points[:, n1:])

        oracles["k_d"] = k_d_density
    return ManifoldSpec(
        name=name or "%sx%s" % (m1.name, m2.name),
        dim=m1.dim + m2.dim,
        metric=metric,
        default_grid=grid,
        oracles=oracles,
        notes="product-aligned coordinate frame is the default; mixed planes are flat",
    )


def s2xs2():
    a = _sphere_spec_any_dim(2, 17)
    b = _sphere_spec_any_dim(2, 17)
    return product(a, b, name="s2xs2")


def s3xs1():
    a = _sphere_spec_any_dim(3, 9)
    b = _sphere_spec_any_dim(1, 8)
    return product(a, b, name="s3xs1")


def e2xe2():
    a = two_ellipsoid(1.0, 2.0, 3.0)
    b = two_ellipsoid(1.0, 2.0, 3.0)
    # production-size factor grids are overkill for the product; trim them
    a.default_grid = _polar_grid([25, 24])
    b.default_grid = _polar_grid([25, 24])
    return product(a, b, name="e2xe2")


# -- CP^2 (direct sectional source) ----------------------------------------------

# complex structure on R^4 = C^2, coordinates (re z1, im z1, re z2, im z2)
CP2_J = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)


def cp2_sectional_exact(rows):
    """Exact rational CP^2 sectional matrix from integer frame rows.

    ``rows`` are four pairwise-orthogonal integer (or rational) vectors;
    normalization is handled by dividing by the squared lengths, so inputs
    like (1, 0, 1, 0) stand for the unit vector along that direction.
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


# -- registry and user spec files -------------------------------------------------


_BUILDERS = {
    "s2": lambda p: round_sphere(2),
    "s4": lambda p: round_sphere(4),
    "s6": lambda p: round_sphere(6),
    "e2": lambda p: two_ellipsoid(p.pop("a", 1.0), p.pop("b", 2.0), p.pop("c", 3.0)),
    "e4": lambda p: ellipsoid_of_revolution(p.pop("a", 2.0)),
    "e4gen": lambda p: general_4_ellipsoid(
        [p.pop(k, dflt) for k, dflt in
         (("a1", 1.0), ("a2", 1.1), ("a3", 1.2), ("a4", 1.3), ("a5", 1.4))]
    ),
    "rp2": lambda p: rp2(),
    "taubes": lambda p: taubes_torus(p.pop("u", "cos(x2) + cos(x1)")),
    "extended": lambda p: extended_torus(p.pop("u", "cos(x2) + cos(x1)"), p.pop("v", "0")),
    "klembeck": lambda p: klembeck_patch(),
    "flat4": lambda p: flat_torus(4),
    "s2xs2": lambda p: s2xs2(),
    "s3xs1": lambda p: s3xs1(),
    "e2xe2": lambda p: e2xe2(),
    "su3": lambda p: compact_group(LG.su3()),
    "so4": lambda p: compact_group(LG.so4()),
}

MANIFOLD_NAMES = tuple(_BUILDERS)


def manifold_by_name(name, params=None):
    """Instantiate a catalog manifold by name with optional parameters."""
    if name not in _BUILDERS:
        raise ConfigError("unknown manifold %r (catalog: %s)" % (name, ", ".join(sorted(_BUILDERS))))
    params = dict(params or {})
    spec = _BUILDERS[name](params)
    if params:
        raise ConfigError("unused parameters for %r: %s (given with --param)"
                          % (name, sorted(params)))
    return spec


def _spec_axis(k, a):
    """One ``Axis`` from the k-th entry of a spec file's ``"axes"`` list."""
    if not isinstance(a, dict):
        raise ConfigError('spec file: axis %d must be an object with "lo", "hi" and "n"' % k)
    for key in ("lo", "hi", "n"):
        if key not in a:
            raise ConfigError('spec file: axis %d has no "%s"' % (k, key))
    if isinstance(a["n"], bool) or not isinstance(a["n"], int) or a["n"] < 1:
        raise ConfigError('spec file: axis %d "n" must be a positive integer' % k)
    if a["n"] > MAX_AXIS_NODES:
        raise ConfigError('spec file: axis %d "n" must be at most %d, got %d'
                          % (k, MAX_AXIS_NODES, a["n"]))

    def bound(key):
        v = a[key]
        if isinstance(v, bool) or not isinstance(v, (int, float, str)):
            raise ConfigError('spec file: axis %d "%s" must be a number or an expression'
                              % (k, key))
        try:
            x = float(parse_expression(v)({}) if isinstance(v, str) else v)
            if not math.isfinite(x):
                raise ValueError("%r is not finite" % v)
        except (ValueError, OverflowError) as exc:  # a parse error, a bound not finite
            raise ConfigError('spec file: axis %d "%s": %s' % (k, key, exc)) from None
        return x

    lo, hi = bound("lo"), bound("hi")
    if lo >= hi:
        raise ConfigError('spec file: axis %d needs "lo" < "hi", got %r and %r'
                          % (k, a["lo"], a["hi"]))
    periodic = a.get("periodic", False)
    if not isinstance(periodic, bool):
        raise ConfigError('spec file: axis %d "periodic" must be true or false, got %r'
                          % (k, periodic))
    return Axis(lo, hi, a["n"], periodic)


# Nodes per step of the spec-file symmetry check, which holds (rows,) scalars only.
_SYMMETRY_STRIDE = 4096


def _check_symmetric(exprs, grid, var_names):
    """Reject a metric whose (i, j) and (j, i) entries differ at a grid node.

    The nodes are visited ``_SYMMETRY_STRIDE`` at a time, each entry read
    as one scalar per node, so memory stays bounded however large the grid.
    """
    per_axis = [a.nodes_weights() for a in grid.axes]
    for start in range(0, grid.n_points, _SYMMETRY_STRIDE):
        pts, _ = _grid_block(per_axis, start, min(start + _SYMMETRY_STRIDE, grid.n_points))
        env = dict(zip(var_names, pts.T))
        for i in range(len(exprs)):
            for j in range(i + 1, len(exprs)):
                with np.errstate(all="ignore"):  # non-finite entries are left to the run
                    gap = np.atleast_1d(np.abs(exprs[i][j](env) - exprs[j][i](env)))
                gap = gap[gap > SYMMETRY_TOL]
                if gap.size:
                    raise ConfigError(
                        "spec file: metric entries (%d,%d) and (%d,%d) differ by %.3g at a "
                        "default grid node; the metric must be symmetric"
                        % (i + 1, j + 1, j + 1, i + 1, gap.max())
                    )


def load_manifold_file(path):
    """Load a user-defined chart manifold from a declarative JSON file.

    Schema::

        {"name": "my-manifold",
         "axes": [{"lo": 0, "hi": "2*pi", "n": 17, "periodic": true}, ...],
         "metric": [["1", "0"], ["0", "sin(x1)^2"]]}

    Axis bounds and metric entries are expression strings (or numbers) in
    the grammar of :mod:`curvfun.expressions`; metric entries may use the
    chart variables x1..xn, and the metric's ``depends_on`` is the set of
    variables they use.  A missing or ill-typed key, or a metric whose
    transposed entries differ at a node of the default grid by more than
    ``SYMMETRY_TOL``, raises ``ConfigError`` naming the problem.
    """
    import json

    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigError("cannot read spec file: %s" % exc) from None
    if not isinstance(data, dict):
        raise ConfigError("spec file must hold a JSON object")
    axes_spec = data.get("axes")
    if not isinstance(axes_spec, list) or not axes_spec:
        raise ConfigError('spec file needs "axes": a non-empty list of axis objects')
    dim = len(axes_spec)
    grid = Grid(tuple(_spec_axis(k + 1, a) for k, a in enumerate(axes_spec)))
    rows = data.get("metric")
    if not isinstance(rows, list) or len(rows) != dim or any(
        not isinstance(r, list) or len(r) != dim for r in rows
    ):
        raise ConfigError('spec file: "metric" must be a %dx%d matrix of expressions' % (dim, dim))
    var_names = ["x%d" % (i + 1) for i in range(dim)]
    exprs = []
    for r in rows:
        row_exprs = []
        for cell in r:
            e = parse_expression(str(cell))
            bad = e.variables - set(var_names)
            if bad:
                raise ConfigError("spec file: metric entry uses unknown variables %s"
                                  % sorted(bad))
            row_exprs.append(e)
        exprs.append(row_exprs)
    used = set().union(*(e.variables for row in exprs for e in row))
    depends_on = [i for i, nm in enumerate(var_names) if nm in used]
    # the entries are constant along the other axes, so those are checked at one node
    _check_symmetric(exprs, grid.collapse(depends_on).checked(), var_names)

    def entries(v):
        env = {nm: v[i] for i, nm in enumerate(var_names)}
        return [[e(env) for e in row] for row in exprs]
    metric = MetricField.from_entries(dim, entries, provenance="user spec file",
                                      depends_on=depends_on)
    return ManifoldSpec(
        name=str(data.get("name", "user-manifold")),
        dim=dim,
        metric=metric,
        default_grid=grid,
        notes="user-defined chart",
    )

"""Metric fields, Christoffel symbols, and the curvature tensor pipeline."""

import math
from fractions import Fraction

import numpy as np
import pytest

from curvfun.errors import ChartSingularityError
from curvfun.geometry import (
    MetricField,
    christoffel_arrays,
    curvature_batch,
    curvature_chunk,
    riemann_arrays,
    riemann_in_frame,
    sectional_from_riemann,
)
from curvfun.jets import cos, sin, variables
from curvfun.quadrature import Axis, Grid, functional_density, integrate_functional
from curvfun.zoo import manifold_by_name
from oracles import (
    christoffel_fd,
    einsum_riemann_in_frame,
    einsum_sectional,
    general_jets,
    padded_curvature,
)


def christoffel(metric, x):
    """Gamma^k_ij at one point, through the batched path."""
    return christoffel_arrays(*general_jets(metric, np.array([x], dtype=float))[:2])[0][0]


def sphere_metric(radius=1.0):
    """Round 2-sphere in polar coordinates (x1, x2) = (theta, phi)."""
    r2 = radius * radius

    def entries(v):
        s = sin(v[0])
        return [[r2, 0], [0, r2 * s * s]]

    return MetricField.from_entries(2, entries)


def test_sphere_christoffels_match_closed_form():
    m = sphere_metric()
    theta = 0.8
    gamma = christoffel(m, [theta, 1.2])
    # nonzero entries: G^theta_phiphi = -sin cos, G^phi_thetaphi = cot(theta)
    assert gamma[0, 1, 1] == pytest.approx(-math.sin(theta) * math.cos(theta))
    assert gamma[1, 0, 1] == pytest.approx(1 / math.tan(theta))
    assert gamma[1, 1, 0] == pytest.approx(1 / math.tan(theta))
    assert gamma[0, 0, 0] == pytest.approx(0.0, abs=1e-14)


def test_christoffels_match_finite_difference_oracle():
    m = sphere_metric(radius=1.7)
    for x in ([0.6, 0.3], [1.1, 2.2], [2.0, 5.0]):
        ad = christoffel(m, x)
        fd = christoffel_fd(m, x)
        assert np.max(np.abs(ad - fd)) < 1e-6


def test_sphere_riemann_component_and_sectional():
    m = sphere_metric()
    theta = 1.1
    k, riem, _, _ = curvature_batch(m, np.array([[theta, 0.4]]))
    # lowered R_{theta phi theta phi} = sin^2 theta on the unit sphere
    assert riem[0, 0, 1, 0, 1] == pytest.approx(math.sin(theta) ** 2)
    assert k[0, 0, 1] == pytest.approx(1.0)


def generic_3d_metric():
    def entries(v):
        x, y, z = v
        return [
            [1 + 0.3 * sin(y), 0.1 * sin(x) * cos(y), 0],
            [0.1 * sin(x) * cos(y), 2 + 0.2 * cos(x), 0.05 * x * sin(z)],
            [0, 0.05 * x * sin(z), 1 + 0.1 * x * x],
        ]

    return MetricField.from_entries(3, entries)


def test_riemann_tensor_symmetries_generic_metric():
    m = generic_3d_metric()
    pts = np.array([[0.4, 0.9, 1.3], [1.0, 0.2, 0.7]])
    _, riem, _, _ = curvature_batch(m, pts)
    # pair antisymmetry, pair-swap symmetry, first Bianchi identity
    assert np.max(np.abs(riem + np.transpose(riem, (0, 2, 1, 3, 4)))) < 1e-9
    assert np.max(np.abs(riem + np.transpose(riem, (0, 1, 2, 4, 3)))) < 1e-9
    assert np.max(np.abs(riem - np.transpose(riem, (0, 3, 4, 1, 2)))) < 1e-9
    bianchi = (
        riem
        + np.transpose(riem, (0, 1, 3, 4, 2))
        + np.transpose(riem, (0, 1, 4, 2, 3))
    )
    assert np.max(np.abs(bianchi)) < 1e-9


def test_riemann_matches_textbook_formula_from_fd_christoffels():
    # independent reference: R^k_smv = d_m G^k_vs - d_v G^k_ms + G^k_ml G^l_vs
    # - G^k_vl G^l_ms, lowered with g, with dG by central differences
    m = generic_3d_metric()
    x = np.array([0.4, -0.7, 1.1])
    h = 1e-5
    gam = christoffel(m, x)
    dgam = np.zeros((3, 3, 3, 3))  # dgam[m, k, i, j] = d_m Gamma^k_ij
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        dgam[k] = (christoffel(m, x + e) - christoffel(m, x - e)) / (2 * h)
    rup = (
        np.einsum("mkvs->ksmv", dgam)
        - np.einsum("vkms->ksmv", dgam)
        + np.einsum("kml,lvs->ksmv", gam, gam)
        - np.einsum("kvl,lms->ksmv", gam, gam)
    )
    g, riem = m.jets(x[None])
    ref = np.einsum("rk,ksmv->rsmv", g[0], rup)
    assert np.max(np.abs(riem[0] - ref)) < 1e-8


def test_constant_metric_is_flat():
    g0 = np.array([[2.0, 0.3], [0.3, 1.5]])
    m = MetricField.constant(g0)
    _, riem, _, _ = curvature_batch(m, np.array([[0.1, 0.2]]))
    assert np.max(np.abs(riem[0])) == 0.0


def test_constant_metric_returns_its_riemann_tensor_bit_for_bit():
    rng = np.random.default_rng(4)
    g0, riem = np.diag([2.0, 0.5, 3.0]), rng.standard_normal((3, 3, 3, 3))
    m = MetricField.constant(g0, riem)
    assert m.depends_on == ()
    g, r = m.jets(rng.uniform(size=(5, 3)))
    assert all(np.array_equal(a, g0) for a in g)
    assert all(np.array_equal(a, riem) for a in r)


def test_induced_metric_matches_polar_sphere():
    def components(v):
        return [sin(v[0]) * cos(v[1]), sin(v[0]) * sin(v[1]), cos(v[0])]

    m = MetricField.from_embedding(2, components)
    ref = sphere_metric()
    pts = np.array([[0.7, 0.3], [1.4, 2.0], [2.4, 4.4]])
    ga, _ = m.jets(pts)
    gb, _ = ref.jets(pts)
    assert np.max(np.abs(ga - gb)) < 1e-12
    # J^T J from the components' gradients at one point agrees with the batched jets
    jac = np.array([c.grad[0] for c in components(variables(pts[:1]))])
    assert jac.T @ jac == pytest.approx(ga[0], abs=1e-12)
    # curvature through the embedding route agrees with the closed form
    ka, _, _, _ = curvature_batch(m, pts)
    assert ka[:, 0, 1] == pytest.approx(np.ones(3), abs=1e-9)


@pytest.mark.parametrize("dim", [2, 4])
def test_embedding_route_matches_closed_form_sphere(dim):
    # the embedding route (the Gauss equation) against the same polar chart
    # written as entries diag(1, sin^2 x1, sin^2 x1 sin^2 x2, ...)
    from curvfun.zoo import round_sphere

    spec = round_sphere(dim)

    def entries(v):
        rows = [[0] * dim for _ in range(dim)]
        scale = 1
        for i in range(dim):
            rows[i][i] = scale
            scale = scale * sin(v[i]) * sin(v[i])
        return rows

    closed = MetricField.from_entries(dim, entries)
    pts = spec.interior_points(20, seed=3)
    assert spec.metric.provenance == "embedding"
    riem_emb = spec.metric.jets(pts)[1]
    riem_closed = closed.jets(pts)[1]
    assert np.max(np.abs(riem_emb - riem_closed)) <= 1e-12


@pytest.mark.parametrize("name", ["s2", "s4", "s6", "e2", "e4", "e4gen", "rp2",
                                  "s2xs2", "s3xs1"])
def test_gauss_route_matches_the_general_route(name):
    # the Gauss equation against the induced metric's jets through riemann_arrays,
    # on every embedded chart; a product's on its embedded first factor
    spec = manifold_by_name(name)
    metric, pts = spec.metric, spec.interior_points(50, seed=5)
    if metric.factors is not None:
        metric = metric.factors[0]
        pts = pts[:, : metric.dim]
    assert metric.provenance == "embedding"
    g, riem = metric.jets(pts)
    ref_g, dg, d2g = general_jets(metric, pts)
    ref = riemann_arrays(ref_g, dg, d2g)
    assert np.max(np.abs(g - ref_g)) <= 1e-13 * np.max(np.abs(ref_g))
    assert np.max(np.abs(riem - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_degenerate_embedding_rejected():
    def components(v):
        return [v[0], v[0], 0 * v[0]]

    # the grid's first node is (0.3, 0.4); every node is degenerate
    grid = Grid((Axis(0.2, 0.6, 2, periodic=True), Axis(0.3, 0.5, 1, periodic=True)))
    with pytest.raises(ChartSingularityError) as err:
        integrate_functional(MetricField.from_embedding(2, components), grid,
                             with_error_estimate=False)
    assert err.value.point == pytest.approx([0.3, 0.4])


def test_singular_metric_value_rejected():
    def entries(v):
        return [[v[0], 0], [0, 1]]

    m = MetricField.from_entries(2, entries)
    # nodes (-1, 0) and (1, 0); only the first is singular
    grid = Grid((Axis(-2.0, 2.0, 2, periodic=True), Axis(-0.5, 0.5, 1, periodic=True)))
    with pytest.raises(ChartSingularityError) as err:
        integrate_functional(m, grid, with_error_estimate=False)
    assert err.value.point.tolist() == [-1.0, 0.0]


def test_block_diagonal_product_curvature():
    # S^2 x S^2: no cross-block curvature, each block keeps K = 1
    m = MetricField.block_diagonal(sphere_metric(), sphere_metric())
    assert m.dim == 4
    k, _, _, _ = curvature_batch(m, np.array([[0.9, 0.1, 1.3, 0.5]]))
    assert k[0, 0, 1] == pytest.approx(1.0)
    assert k[0, 2, 3] == pytest.approx(1.0)
    for i in (0, 1):
        for j in (2, 3):
            assert abs(k[0, i, j]) < 1e-12


def test_exact_object_path_produces_fractions():
    # polynomial metric evaluated at rational points stays rational end to end
    def entries(v):
        return [[1 + v[1] * v[1], 0], [0, 1 + v[0] * v[0]]]

    m = MetricField.from_entries(2, entries)
    pts = np.empty((1, 2), dtype=object)
    pts[0, 0] = Fraction(1, 2)
    pts[0, 1] = Fraction(1, 3)
    g, _ = m.jets(pts)
    assert g[0, 0, 0] == Fraction(10, 9)
    _, riem, _, _ = curvature_batch(m, pts)
    assert isinstance(riem[0, 0, 1, 0, 1], Fraction)


def test_volume_element():
    m = sphere_metric(radius=2.0)
    v = functional_density(m, "volume")(np.array([[0.8, 0.1]]), np.arange(1))[0][0]
    assert v == pytest.approx(4.0 * math.sin(0.8))


def _max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _record_jets_calls(monkeypatch):
    """Record ``(metric, points)`` for every ``MetricField.jets`` call."""
    seen = []
    real = MetricField.jets

    def jets(self, points):
        seen.append((self, points))
        return real(self, points)

    monkeypatch.setattr(MetricField, "jets", jets)
    return seen


@pytest.mark.parametrize("name", ["s2xs2", "s3xs1", "e2xe2"])
def test_product_route_matches_the_padded_route(name):
    # s3xs1's S^1 factor is constant, so its blocks come from one representative
    spec = manifold_by_name(name)
    pts = spec.interior_points(50, seed=11)
    for ours, ref in zip(curvature_chunk(spec.metric, pts), padded_curvature(spec.metric, pts)):
        assert ours.shape == ref.shape
        assert _max_rel(ours, ref) <= 1e-12


@pytest.mark.parametrize("name", ["s2xs2", "s3xs1", "e2xe2"])
def test_each_factor_is_evaluated_once_per_distinct_point(monkeypatch, name):
    spec = manifold_by_name(name)
    grid = Grid(tuple(Axis(a.lo, a.hi, 3, a.periodic) for a in spec.default_grid.axes))
    pts, _ = grid.points_weights()
    seen = _record_jets_calls(monkeypatch)
    curvature_chunk(spec.metric, pts)
    first, second = spec.metric.factors
    blocks = ((first, pts[:, : first.dim]), (second, pts[:, first.dim :]))
    for factor, cols in blocks:
        distinct = len({tuple(row) for row in cols[:, list(factor.depends_on)]})
        assert [len(p) for m, p in seen if m is factor] == [distinct]
    assert len(seen) == 2


def test_repeated_rows_get_the_curvature_of_their_point_alone():
    # s2xs2 reads x1 and x3 only: 81 nodes, 3 distinct rows per factor
    spec = manifold_by_name("s2xs2")
    grid = Grid(tuple(Axis(a.lo, a.hi, 3, a.periodic) for a in spec.default_grid.axes))
    pts, _ = grid.points_weights()
    chunk = curvature_chunk(spec.metric, pts)
    for row in range(len(pts)):
        alone = curvature_chunk(spec.metric, pts[row : row + 1])
        for ours, ref in zip(chunk, alone):
            assert _max_rel(ours[row : row + 1], ref) <= 1e-14


def test_distinct_rows_pass_through_untouched(monkeypatch):
    seen = _record_jets_calls(monkeypatch)
    pts = np.array([[0.4, 0.9, 1.3], [1.0, 0.2, 0.7], [0.4, 0.9, 1.4]])
    curvature_chunk(generic_3d_metric(), pts)
    assert len(seen) == 1 and seen[0][1] is pts


def _polynomial_metric(a, b):
    def entries(v):
        return [[a + v[1] * v[1], 0], [0, b + v[0] * v[0]]]

    return MetricField.from_entries(2, entries)


def test_exact_product_keeps_fractions_and_every_row(monkeypatch):
    # object input is not deduplicated: both (equal) rows reach each factor
    m = MetricField.block_diagonal(_polynomial_metric(1, 1), _polynomial_metric(2, 1))
    row = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(-1, 4)]
    pts = np.array([row, row], dtype=object)
    seen = _record_jets_calls(monkeypatch)
    _, riem, _ = curvature_chunk(m, pts)
    assert [len(p) for _, p in seen] == [2, 2]
    for block in ((0, 1, 0, 1), (2, 3, 2, 3)):
        assert isinstance(riem[(0,) + block], Fraction)
        assert riem[(0,) + block] != 0
    ref = padded_curvature(m, pts)[1]
    assert all(riem[(0,) + idx] == ref[(0,) + idx] for idx in np.ndindex(4, 4, 4, 4))


def test_a_product_has_no_jets_of_its_own():
    spec = manifold_by_name("s3xs1")
    with pytest.raises(TypeError, match=r"product\(embedding, .*\) has no jets of its own"):
        spec.metric.jets(spec.interior_points(2, seed=1))


def test_singular_factor_names_the_product_node(singular_product):
    metric, grid = singular_product
    with pytest.raises(ChartSingularityError) as err:
        integrate_functional(metric, grid, with_error_estimate=False)
    # the first node in C order, x1 = -1, fails; the flat factor's axes are collapsed
    assert err.value.point.tolist() == grid.collapse((0, 1)).points_weights()[0][0].tolist()
    assert len(err.value.point) == 4


def _fractions(rng, shape):
    return np.vectorize(Fraction, otypes=[object])(rng.integers(-5, 6, size=shape))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_sectional_matches_the_five_operand_einsum(n):
    """On raw tensors and frames, with no symmetry to lean on, every ordered
    pair i != j agrees with the einsum and the diagonal is exactly zero."""
    rng = np.random.default_rng(60 + n)
    riem, frames = rng.normal(size=(5,) + (n,) * 4), rng.normal(size=(5, n, n))
    k = sectional_from_riemann(riem, frames)
    ref = einsum_sectional(riem, frames)
    off = ~np.eye(n, dtype=bool)
    assert _max_rel(k[:, off], ref[:, off]) < 1e-13
    assert np.all(k[:, ~off] == 0)


def test_frame_contractions_are_exact_on_fractions():
    rng = np.random.default_rng(71)
    riem, frames = _fractions(rng, (3,) + (4,) * 4), _fractions(rng, (3, 4, 4))
    k = sectional_from_riemann(riem, frames)
    off = ~np.eye(4, dtype=bool)
    assert np.all(k[:, off] == einsum_sectional(riem, frames)[:, off])
    assert all(isinstance(x, Fraction) for x in k[:, off].ravel())
    assert np.all(k[:, ~off] == 0)
    framed = riemann_in_frame(riem, frames)
    assert framed.dtype == object
    assert np.all(framed == einsum_riemann_in_frame(riem, frames))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_riemann_in_frame_matches_the_one_slot_einsums(n):
    rng = np.random.default_rng(80 + n)
    riem, frames = rng.normal(size=(5,) + (n,) * 4), rng.normal(size=(5, n, n))
    assert _max_rel(riemann_in_frame(riem, frames), einsum_riemann_in_frame(riem, frames)) < 1e-13


@pytest.mark.parametrize("contract", [sectional_from_riemann, riemann_in_frame])
def test_frame_contractions_do_not_depend_on_the_batch(contract):
    """Each of 64 rows is bit-equal alone and in batches of 2, 7 and 64."""
    rng = np.random.default_rng(91)
    riem, frames = rng.normal(size=(64, 4, 4, 4, 4)), rng.normal(size=(64, 4, 4))
    whole = contract(riem, frames)
    for size in (1, 2, 7):
        parts = [contract(riem[s : s + size], frames[s : s + size]) for s in range(0, 64, size)]
        assert np.array_equal(np.concatenate(parts), whole)

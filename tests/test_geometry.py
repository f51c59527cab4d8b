"""Metric fields, Christoffel symbols, and the curvature tensor pipeline."""

import math
from fractions import Fraction

import numpy as np
import pytest

from curvfun.errors import (
    DegenerateChartError,
    DegeneratePlaneError,
    SingularMetricError,
)
from curvfun.geometry import (
    EmbeddingMap,
    MetricField,
    christoffel,
    christoffel_fd,
    curvature_at,
    curvature_batch,
    induced_metric,
    sectional,
)
from curvfun.jets import cos, sin


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
    curv = curvature_at(m, [theta, 0.4])
    # lowered R_{theta phi theta phi} = sin^2 theta on the unit sphere
    assert curv.riemann[0, 1, 0, 1] == pytest.approx(math.sin(theta) ** 2)
    assert sectional(curv, 0, 1) == pytest.approx(1.0)
    with pytest.raises(DegeneratePlaneError):
        sectional(curv, 1, 1)


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
    from curvfun.geometry import riemann

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
    ref = np.einsum("rk,ksmv->rsmv", m.value(x), rup)
    assert np.max(np.abs(riemann(m, x) - ref)) < 1e-8


def test_constant_metric_is_flat():
    g0 = np.array([[2.0, 0.3], [0.3, 1.5]])
    m = MetricField.constant(g0)
    curv = curvature_at(m, [0.1, 0.2])
    assert np.max(np.abs(curv.riemann)) == 0.0


def test_induced_metric_matches_polar_sphere():
    def components(v):
        return [sin(v[0]) * cos(v[1]), sin(v[0]) * sin(v[1]), cos(v[0])]

    emb = EmbeddingMap(chart_dim=2, ambient_dim=3, components=components)
    m = MetricField.from_embedding(emb)
    ref = sphere_metric()
    pts = np.array([[0.7, 0.3], [1.4, 2.0], [2.4, 4.4]])
    ga, _, _ = m.jets(pts)
    gb, _, _ = ref.jets(pts)
    assert np.max(np.abs(ga - gb)) < 1e-12
    # pointwise constructor agrees with the batched jets
    assert induced_metric(emb, pts[0]) == pytest.approx(ga[0], abs=1e-12)
    # curvature through the embedding route agrees with the closed form
    ka, _, _, _ = curvature_batch(m, pts)
    assert ka[:, 0, 1] == pytest.approx(np.ones(3), abs=1e-9)


@pytest.mark.parametrize("dim", [2, 4])
def test_embedding_route_matches_closed_form_sphere(dim):
    # the embedding route (second-order jets, Gauss part of d2g) against the
    # same polar chart written as entries diag(1, sin^2 x1, sin^2 x1 sin^2 x2, ...)
    from curvfun.geometry import riemann_arrays
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
    riem_emb = riemann_arrays(*spec.metric.jets(pts))
    riem_closed = riemann_arrays(*closed.jets(pts))
    assert np.max(np.abs(riem_emb - riem_closed)) <= 1e-12


def test_degenerate_embedding_rejected():
    def components(v):
        return [v[0], v[0], 0 * v[0]]

    emb = EmbeddingMap(chart_dim=2, ambient_dim=3, components=components)
    with pytest.raises(DegenerateChartError):
        induced_metric(emb, [0.3, 0.4])


def test_singular_metric_value_rejected():
    def entries(v):
        return [[v[0], 0], [0, 1]]

    m = MetricField.from_entries(2, entries)
    with pytest.raises(SingularMetricError):
        m.value([-1.0, 0.0])


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
    g, _, _ = m.jets(pts)
    assert g[0, 0, 0] == Fraction(10, 9)
    _, riem, _, _ = curvature_batch(m, pts)
    assert isinstance(riem[0, 0, 1, 0, 1], Fraction)


def test_volume_element():
    m = sphere_metric(radius=2.0)
    v = m.volume_element([0.8, 0.1])
    assert v == pytest.approx(4.0 * math.sin(0.8))

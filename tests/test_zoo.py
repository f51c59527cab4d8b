"""The manifold catalog: every closed-form oracle against the tensor pipeline."""

import json
import math

import numpy as np
import pytest

from curvfun.functionals import k_discrete, k_gbc
from curvfun.geometry import curvature_batch, riemann_in_frame
from curvfun.quadrature import integrate_functional, volume
from curvfun.zoo import (
    MANIFOLD_NAMES,
    e2xe2,
    load_manifold_file,
    manifold_by_name,
    taubes_torus,
    two_ellipsoid,
)

ORACLE_SPECS = [
    "s2",
    "s4",
    "e4",
    "e2",
    "rp2",
    "taubes",
    "s2xs2",
    "s3xs1",
    "e2xe2",
    "flat4",
]


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_k_d_oracle_matches_pipeline_at_20_points(name):
    spec = manifold_by_name(name, {})
    if "k_d" not in spec.oracles:
        pytest.skip("no pointwise oracle for %s" % name)
    pts = spec.interior_points(20, seed=101)
    k, _, _, _ = curvature_batch(spec.metric, pts)
    kd = k_discrete(k)
    oracle = spec.oracles["k_d"](pts)
    scale = np.maximum(np.abs(oracle), 1e-3)
    assert np.max(np.abs(kd - oracle) / scale) < 1e-9


def test_taubes_sectional_pattern_oracle():
    spec = taubes_torus()
    pts = spec.interior_points(20, seed=3)
    k, _, _, _ = curvature_batch(spec.metric, pts)
    assert np.max(np.abs(k - spec.oracles["sectional"](pts))) < 1e-12
    # K_12 vanishes identically for a warp in the flat coordinates
    assert np.max(np.abs(k[:, 0, 1])) < 1e-14


def test_taubes_gbc_oracle_matches_pipeline():
    spec = taubes_torus("cos(x1 + x2)")
    pts = spec.interior_points(12, seed=4)
    _, riem, frames, _ = curvature_batch(spec.metric, pts)
    pipeline = k_gbc(riemann_in_frame(riem, frames)).value
    assert pipeline == pytest.approx(spec.oracles["k_gbc"](pts), abs=1e-12)


def test_volume_oracles():
    s4 = manifold_by_name("s4", {})
    assert volume(s4.metric, s4.default_grid).value == pytest.approx(
        8 * math.pi**2 / 3, rel=1e-9
    )
    rp2 = manifold_by_name("rp2", {})
    assert volume(rp2.metric, rp2.default_grid).value == pytest.approx(
        4 * math.pi, rel=1e-9
    )


def test_registry_names_and_param_handling():
    assert set(ORACLE_SPECS) <= set(MANIFOLD_NAMES)
    with pytest.raises(ValueError):
        manifold_by_name("klein-bottle", {})
    with pytest.raises(ValueError):
        manifold_by_name("s2", {"bogus": "1"})
    # parametrized manifolds accept their parameters
    e4 = manifold_by_name("e4", {"a": "2.0"})
    assert "2" in e4.name or e4.metric is not None


def test_every_reference_is_tagged():
    allowed = {"quoted", "derived", "identity"}
    for name in MANIFOLD_NAMES:
        spec = manifold_by_name(name, {})
        for ref in spec.references:
            assert ref.source in allowed, (name, ref.quantity)
            assert ref.quantity
            if ref.tolerance is not None:
                assert ref.tolerance > 0
            if ref.discrepancy:
                assert ref.note, "discrepancy references must explain themselves"


def test_interior_points_stay_inside_the_grid_box():
    spec = manifold_by_name("e2", {})
    pts = spec.interior_points(50, seed=7)
    for ax, col in zip(spec.default_grid.axes, pts.T):
        width = ax.hi - ax.lo
        assert np.all(col >= ax.lo + 0.05 * width)
        assert np.all(col <= ax.hi - 0.05 * width)


def test_taubes_total_curvature_values():
    spec = taubes_torus()
    res = integrate_functional(spec.metric, spec.default_grid, with_error_estimate=False)
    assert res.value == pytest.approx(2 * math.pi**2, rel=1e-10)
    spec2 = taubes_torus("cos(x1 + x2)")
    res2 = integrate_functional(spec2.metric, spec2.default_grid, with_error_estimate=False)
    assert res2.value == pytest.approx(-math.pi**2, rel=1e-10)


def test_load_manifold_file_round_trip(tmp_path):
    payload = {
        "name": "warped-band",
        "axes": [
            {"lo": 0.0, "hi": "2*pi", "n": 12, "periodic": True},
            {"lo": -0.5, "hi": 0.5, "n": 8, "periodic": False},
        ],
        "metric": [["1 + 0.1*sin(x1)", "0"], ["0", "1 + x2^2"]],
    }
    path = tmp_path / "band.json"
    path.write_text(json.dumps(payload))
    spec = load_manifold_file(path)
    assert spec.name == "warped-band"
    assert spec.dim == 2
    assert spec.default_grid.axes[0].hi == pytest.approx(2 * math.pi)
    pts = spec.interior_points(4, seed=1)
    g, _, _ = spec.metric.jets(pts)
    assert g[:, 0, 0] == pytest.approx(1 + 0.1 * np.sin(pts[:, 0]))
    assert g[:, 1, 1] == pytest.approx(1 + pts[:, 1] ** 2)


def test_load_manifold_file_rejects_bad_shapes(tmp_path):
    payload = {
        "name": "broken",
        "axes": [{"lo": 0, "hi": 1, "n": 4, "periodic": False}],
        "metric": [["1", "0"], ["0", "1"]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_manifold_file(path)


@pytest.mark.parametrize("payload, key", [
    ({"metric": [["1"]]}, "axes"),
    ({"axes": {"lo": 0, "hi": 1, "n": 4}, "metric": [["1"]]}, "axes"),
    ({"axes": [{"lo": 0, "n": 4}], "metric": [["1"]]}, '"hi"'),
    ({"axes": [{"lo": 0, "hi": 1}], "metric": [["1"]]}, '"n"'),
    ({"axes": [{"lo": 0, "hi": 1, "n": "four"}], "metric": [["1"]]}, '"n"'),
    ({"axes": [{"lo": None, "hi": 1, "n": 4}], "metric": [["1"]]}, '"lo"'),
    ({"axes": [{"lo": 0, "hi": 1, "n": 4}]}, "metric"),
    ({"axes": [{"lo": 0, "hi": 1, "n": 4}], "metric": "1"}, "metric"),
])
def test_load_manifold_file_names_the_bad_key(tmp_path, payload, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=key):
        load_manifold_file(path)


def test_load_manifold_file_rejects_asymmetric_metric(tmp_path):
    axes = [{"lo": -1, "hi": 1, "n": 4}, {"lo": 0, "hi": 1, "n": 5}]
    path = tmp_path / "asym.json"
    # sqrt(x1) is NaN on half the nodes; the finite half must still be caught
    for upper in ("x1", "sqrt(x1)"):
        path.write_text(json.dumps({"axes": axes, "metric": [["2", upper], ["0", "1"]]}))
        with pytest.raises(ValueError, match="symmetric"):
            load_manifold_file(path)
    # transposed entries that agree as functions pass, whatever their text
    path.write_text(json.dumps({"axes": axes, "metric": [["2", "x1*x2"], ["x2*x1", "1"]]}))
    assert load_manifold_file(path).dim == 2


def test_cp2_exact_sectional_requires_orthogonal_rows():
    from curvfun.errors import NonOrthonormalFrameError
    from curvfun.zoo import cp2_sectional_exact

    with pytest.raises(NonOrthonormalFrameError):
        cp2_sectional_exact([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_product_k_d_is_the_product_of_factor_k_d():
    """In the coordinate frame of E2 x E2 the only nonzero pairing is K_12 K_34,
    so k_d of the product is the product of the factors' k_d."""
    spec, factor = e2xe2(), two_ellipsoid()
    pts = spec.interior_points(20, seed=13)
    k, _, _, _ = curvature_batch(spec.metric, pts)
    k1, _, _, _ = curvature_batch(factor.metric, pts[:, :2])
    k2, _, _, _ = curvature_batch(factor.metric, pts[:, 2:])
    assert k_discrete(k) == pytest.approx(k_discrete(k1) * k_discrete(k2), rel=1e-12)

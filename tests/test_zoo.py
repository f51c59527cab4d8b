"""The manifold catalog: every closed-form oracle against the tensor pipeline."""

import json
import math

import numpy as np
import pytest

from curvfun.errors import ConfigError
from curvfun.functionals import k_discrete, k_gbc
from curvfun.geometry import curvature_batch, riemann_in_frame
from curvfun.quadrature import integrate_functional
from curvfun.zoo import (
    MANIFOLD_NAMES,
    e2xe2,
    load_manifold_file,
    manifold_by_name,
    taubes_torus,
    two_ellipsoid,
)

from oracles import padded_jets

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
    "su3",
    "so4",
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
    pipeline = k_gbc(riemann_in_frame(riem, frames))
    assert pipeline == pytest.approx(spec.oracles["k_gbc"](pts), abs=1e-12)


def test_volume_oracles():
    s4 = manifold_by_name("s4", {})
    assert integrate_functional(s4.metric, s4.default_grid, "volume").value == pytest.approx(
        8 * math.pi**2 / 3, rel=1e-9
    )
    rp2 = manifold_by_name("rp2", {})
    assert integrate_functional(rp2.metric, rp2.default_grid, "volume").value == pytest.approx(
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


@pytest.mark.parametrize("name, params, message", [
    ("klein-bottle", {}, "unknown manifold 'klein-bottle'"),
    ("s2", {"bogus": "1"}, "unused parameters for 's2': \\['bogus'\\]"),
])
def test_catalog_errors_are_config_errors(name, params, message):
    with pytest.raises(ConfigError, match=message):
        manifold_by_name(name, params)


def test_oracle_density_is_constant_off_depends_on():
    """``compute`` integrates the k_d*dV oracle on the grid collapsed to the
    metric's ``depends_on``, which holds only if the oracles are constant
    along every other axis."""
    checked = []
    for name in MANIFOLD_NAMES:
        spec = manifold_by_name(name, {})
        if not {"k_d", "dV"} <= set(spec.oracles):
            continue
        pts = spec.interior_points(50, seed=19)
        moved = pts.copy()
        free = [k for k in range(spec.dim) if k not in spec.metric.depends_on]
        moved[:, free] = spec.interior_points(50, seed=20)[:, free]

        def density(p):
            return spec.oracles["k_d"](p) * spec.oracles["dV"](p)

        assert density(moved) == pytest.approx(density(pts), rel=1e-12), name
        checked.append(name)
    assert checked == ["s2", "s4", "s6", "e4", "taubes", "su3", "so4"]


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
    g, _ = spec.metric.jets(pts)
    assert g[:, 0, 0] == pytest.approx(1 + 0.1 * np.sin(pts[:, 0]))
    assert g[:, 1, 1] == pytest.approx(1 + pts[:, 1] ** 2)


@pytest.mark.parametrize("name", MANIFOLD_NAMES)
def test_metric_is_constant_off_its_declared_axes(name):
    # relative: rp2's t-derivative reads about 2e-15 rather than 0
    spec = manifold_by_name(name)
    _, dg, _ = padded_jets(spec.metric, spec.interior_points(50, seed=7))
    scale = np.max(np.abs(dg))
    for k in sorted(set(range(spec.dim)) - set(spec.metric.depends_on)):
        assert np.max(np.abs(dg[..., k])) <= 1e-12 * scale, k


def test_spec_file_depends_on_its_free_variables(tmp_path):
    payload = {
        "name": "warped-box",
        "axes": [{"lo": 0, "hi": 1, "n": 3} for _ in range(4)],
        "metric": [["1 + x3^2", "0", "0", "0"], ["0", "1", "0", "0"],
                   ["0", "0", "exp(x1)", "0"], ["0", "0", "0", "2"]],
    }
    path = tmp_path / "box.json"
    path.write_text(json.dumps(payload))
    assert load_manifold_file(path).metric.depends_on == (0, 2)


def test_load_manifold_file_rejects_bad_shapes(tmp_path):
    payload = {
        "name": "broken",
        "axes": [{"lo": 0, "hi": 1, "n": 4, "periodic": False}],
        "metric": [["1", "0"], ["0", "1"]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="1x1 matrix"):
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
    ({"axes": [4], "metric": [["1"]]}, "axis 1 must be an object"),
    ({"axes": [{"lo": 0, "hi": 1, "n": 4}], "metric": [["1 + x2"]]}, "unknown variables"),
    ([1, 2], "JSON object"),
])
def test_load_manifold_file_names_the_bad_key(tmp_path, payload, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=key):
        load_manifold_file(path)


@pytest.mark.parametrize("content", [None, "{not json", b"\xff\xfe"])
def test_unreadable_spec_file_is_a_config_error(tmp_path, content):
    path = tmp_path / "spec.json"
    if isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigError, match="cannot read spec file"):
        load_manifold_file(path)


def test_load_manifold_file_rejects_asymmetric_metric(tmp_path):
    axes = [{"lo": -1, "hi": 1, "n": 4}, {"lo": 0, "hi": 1, "n": 5}]
    path = tmp_path / "asym.json"
    # sqrt(x1) is NaN on half the nodes; the finite half must still be caught
    for upper in ("x1", "sqrt(x1)"):
        path.write_text(json.dumps({"axes": axes, "metric": [["2", upper], ["0", "1"]]}))
        with pytest.raises(ConfigError, match="symmetric"):
            load_manifold_file(path)
    # transposed entries that agree as functions pass, whatever their text
    path.write_text(json.dumps({"axes": axes, "metric": [["2", "x1*x2"], ["x2*x1", "1"]]}))
    assert load_manifold_file(path).dim == 2


@pytest.mark.parametrize("build", [
    lambda path: load_manifold_file(path),
    lambda path: manifold_by_name("taubes", {"u": "x3"}),
    lambda path: manifold_by_name("taubes", {"u": "cos(x1"}),
], ids=["spec-file-syntax", "warp-variable", "warp-syntax"])
def test_expression_errors_are_config_errors(tmp_path, build):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"axes": [{"lo": 0, "hi": 1, "n": 3}], "metric": [["1 +"]]}))
    with pytest.raises(ConfigError, match="'(1 \\+|x3|cos\\(x1)'"):
        build(path)


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


def test_extended_with_v_zero_is_taubes():
    taubes, extended = manifold_by_name("taubes"), manifold_by_name("extended")
    pts = taubes.interior_points(50, seed=23)
    for a, b in zip(extended.metric.jets(pts), taubes.metric.jets(pts)):
        assert np.array_equal(a, b)

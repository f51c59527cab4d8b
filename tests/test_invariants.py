"""Invariants the paper relies on, checked without an oracle.

``volume``, ``gbc`` and ``hilbert`` integrate invariants, so pulling the
Taubes torus back by a diffeomorphism phi (the spec-file metric J^T g(phi) J
with the warp composed with phi) leaves them as they are.  ``gamma_d``
contracts the Gram-Schmidt frame of the chart basis, so it moves exactly
when that frame turns.  Scaling g by lambda^2 in dimension 4 scales
``volume`` by lambda^4 and ``hilbert`` by lambda^2 and leaves ``gamma_d``
and ``gbc`` as they are.  The round S^2 pulled back by theta = y + 0.3 sin 2y
keeps its integrals too.

The paper's sign claims: a curvature tensor 1/2 h (.) h (Kulkarni-Nomizu)
with h positive semi-definite has K(u, v) = h(u,u) h(v,v) - h(u,v)^2 >= 0, and
so has a sum of them.  Then k_d is >= 0 in every frame, so is every Monte
Carlo sample of ``gamma_mc``, and in dimension 4 so is the GBC density
(Milnor's observation, in S.-S. Chern, Abh. Math. Sem. Hamburg 20, 1955);
in dimension 6 the last claim fails (Geroch; Klembeck, Proc. AMS 54, 1976).
"""

import json
import math

import numpy as np
import pytest

from curvfun.frames import haar_orthogonal
from curvfun.functionals import haar_pair_average, k_discrete, k_gbc
from curvfun.geometry import plane_curvatures, sectional_from_riemann
from curvfun.quadrature import integrate_functional
from curvfun.zoo import load_manifold_file

FUNCTIONALS = ("volume", "hilbert", "gbc", "gamma_d")
VOLUME = 1558.5454565440386  # (2 pi)^4
HILBERT = -3117.0909130880773
GAMMA_D = 19.739208802178716
GAMMA_D_TURNED = 8.897475174192813


def _taubes_values(path, block, u, scale="1"):
    """Each functional's integral on a Taubes-torus spec file written to ``path``.

    The file has the catalog's default 33 x 33 x 1 x 1 grid; ``block`` is the
    metric's (x1, x2) block, the warped axes carry exp(+-2u), and every
    entry is multiplied by ``scale``.
    """
    axis = {"lo": 0, "hi": "2*pi", "periodic": True}
    (a, b), (_, d) = block
    metric = [[a, b, "0", "0"], [b, d, "0", "0"],
              ["0", "0", "exp(2*(%s))" % u, "0"], ["0", "0", "0", "exp(-2*(%s))" % u]]
    spec = {"name": path.stem,
            "axes": [dict(axis, n=33), dict(axis, n=33), dict(axis, n=1), dict(axis, n=1)],
            "metric": [["%s*(%s)" % (scale, e) for e in row] for row in metric]}
    path.write_text(json.dumps(spec))
    spec = load_manifold_file(str(path))
    return {f: integrate_functional(spec.metric, spec.default_grid, f).value
            for f in FUNCTIONALS}


@pytest.fixture(scope="module")
def charts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("invariants")
    flat = (("1", "0"), ("0", "1"))
    return {
        "taubes": _taubes_values(tmp / "taubes.json", flat, "cos(x1) + cos(x2)"),
        # phi(y) = (y1 + sin(y2)/2, y2): d/dy1 = d/dx1, so the frame does not turn
        "shear_along": _taubes_values(
            tmp / "shear_along.json",
            (("1", "cos(x2)/2"), ("cos(x2)/2", "1 + cos(x2)^2/4")),
            "cos(x1 + sin(x2)/2) + cos(x2)"),
        # phi(y) = (y1, y2 + sin(y1)/2): the first frame vector turns
        "shear_across": _taubes_values(
            tmp / "shear_across.json",
            (("1 + cos(x1)^2/4", "cos(x1)/2"), ("cos(x1)/2", "1")),
            "cos(x1) + cos(x2 + sin(x1)/2)"),
        "scaled": _taubes_values(tmp / "scaled.json", flat, "cos(x1) + cos(x2)", scale="9"),
    }


@pytest.mark.parametrize("chart", ["taubes", "shear_along", "shear_across"])
def test_pullback_keeps_the_integrals_of_invariants(charts, chart):
    values = charts[chart]
    assert values["volume"] == pytest.approx(VOLUME, rel=1e-12)
    assert values["hilbert"] == pytest.approx(HILBERT, rel=1e-12)
    assert abs(values["gbc"]) < 1e-14  # chi(T^4) = 0


def test_gamma_d_moves_exactly_when_the_frame_turns(charts):
    assert charts["taubes"]["gamma_d"] == pytest.approx(GAMMA_D, rel=1e-12)
    assert charts["shear_along"]["gamma_d"] == pytest.approx(GAMMA_D, rel=1e-12)
    turned = charts["shear_across"]["gamma_d"]
    assert turned == pytest.approx(GAMMA_D_TURNED, rel=1e-12)
    assert abs(turned - GAMMA_D) > 0.01 * GAMMA_D


def test_scaling_by_lambda_squared(charts):
    """g -> 9 g, lambda = 3 in dimension 4."""
    base, scaled = charts["taubes"], charts["scaled"]
    assert scaled["volume"] == pytest.approx(81 * base["volume"], rel=1e-12)
    assert scaled["hilbert"] == pytest.approx(9 * base["hilbert"], rel=1e-12)
    assert scaled["gamma_d"] == pytest.approx(base["gamma_d"], rel=1e-12)
    assert abs(scaled["gbc"]) < 1e-14


def test_sphere_pulled_back_by_a_stretch_of_the_polar_angle(tmp_path):
    """theta = y + 0.3 sin 2y maps (0, pi) onto itself, so the integrals stay
    those of the round S^2: volume 4 pi, chi = 2, hilbert 8 pi."""
    spec = {"name": "s2-pullback",
            "axes": [{"lo": 0, "hi": "pi", "n": 33},
                     {"lo": 0, "hi": "2*pi", "n": 32, "periodic": True}],
            "metric": [["(1 + 0.6*cos(2*x1))^2", "0"], ["0", "sin(x1 + 0.3*sin(2*x1))^2"]]}
    path = tmp_path / "s2_pullback.json"
    path.write_text(json.dumps(spec))
    spec = load_manifold_file(str(path))
    expected = {"volume": 4 * math.pi, "gbc": 2.0, "hilbert": 8 * math.pi, "gamma_d": 2.0}
    for functional, value in expected.items():
        measured = integrate_functional(spec.metric, spec.default_grid, functional).value
        assert measured == pytest.approx(value, rel=1e-12), functional


def _kulkarni_nomizu_sums(n, rng, points=20, terms=3):
    """R(a, b, c, d) = sum of h(a,c) h(b,d) - h(a,d) h(b,c) over ``terms`` random
    positive semi-definite h, for each of ``points`` points."""
    a = rng.normal(size=(points, terms, n, n))
    h = a @ np.swapaxes(a, -1, -2)
    return np.einsum("ptac,ptbd->pabcd", h, h) - np.einsum("ptad,ptbc->pabcd", h, h)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_sign_claims_for_nonnegative_sectional_curvature(n):
    rng = np.random.default_rng(40 + n)
    riem = _kulkarni_nomizu_sums(n, rng)
    npts = len(riem)
    # the chart basis is orthonormal for g = I, and so is every Haar frame
    k = sectional_from_riemann(riem, np.broadcast_to(np.eye(n), riem.shape[:3]))
    assert np.all(k[:, ~np.eye(n, dtype=bool)] >= 0)
    frames = haar_orthogonal(n, rng, npts * 200).reshape(npts, 200, n, n)
    assert np.all(k_discrete(sectional_from_riemann(riem, frames[:, 0])) >= 0)
    products = np.ones((npts, 200))
    for j in range(0, n, 2):
        products *= plane_curvatures(riem, frames[:, :, j], frames[:, :, j + 1])
    assert np.all(products >= 0)  # every Monte Carlo sample of gamma_mc
    assert np.all(haar_pair_average(riem, frames)[0] >= 0)
    if n == 4:  # Milnor: the GBC density too, in dimension 4 only
        assert np.all(k_gbc(riem) >= 0)

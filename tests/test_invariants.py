"""Invariants the paper relies on, checked without an oracle.

``volume``, ``gbc`` and ``hilbert`` integrate invariants, so pulling the
Taubes torus back by a diffeomorphism phi (the spec-file metric J^T g(phi) J
with the warp composed with phi) leaves them as they are.  ``gamma_d``
contracts the Gram-Schmidt frame of the chart basis, so it moves exactly
when that frame turns.  Scaling g by lambda^2 in dimension 4 scales
``volume`` by lambda^4 and ``hilbert`` by lambda^2 and leaves ``gamma_d``
and ``gbc`` as they are.
"""

import json

import pytest

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

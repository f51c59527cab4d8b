"""Bi-invariant curvature of compact Lie groups through the chart pipeline."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from curvfun.errors import NonOrthonormalFrameError, NotBiInvariantError, NotClosedError
from curvfun.frames import haar_orthogonal, point_rng
from curvfun.functionals import k_discrete, matching_sum, perm_sum
from curvfun.geometry import curvature_batch, riemann_arrays
from curvfun.liegroups import (
    VOLUMES,
    LieAlgebra,
    _exact_algebra,
    _rotation,
    biinvariant_metric,
    so4,
    su3,
)
from curvfun.quadrature import integrate_functional
from curvfun.zoo import manifold_by_name

from oracles import rotated_structure_constants


def sectional(alg):
    """The pipeline's sectional matrix of the bi-invariant metric (constant over the group)."""
    return curvature_batch(biinvariant_metric(alg), np.zeros((1, alg.dim)))[0][0]


def quarter_alpha_squared(alpha):
    """K_ij = sum_k alpha_ijk^2 / 4, straight from the structure constants."""
    return np.einsum("ijk,ijk->ij", alpha, alpha) / 4.0


def group_value(name, functional="gamma_d", **kwargs):
    spec = manifold_by_name(name)
    return integrate_functional(spec.metric, spec.default_grid, functional, **kwargs)


def test_builtins_do_not_import_sympy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys; from curvfun.liegroups import so4, su3; "
            "so4(); su3(); assert 'sympy' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("build", [so4, su3], ids=lambda f: f.__name__)
def test_builtin_alpha_antisymmetric_and_matches_exact_table(build):
    alg = build()
    a = alg.alpha
    for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
        assert np.array_equal(np.transpose(a, axes), -a)
    exact = np.array([[float(v) for v in row] for row in alg.k_exact])
    assert np.max(np.abs(sectional(alg) - exact)) <= 1e-15


def test_su3_jacobi_and_matrix_shape():
    alg = su3()
    assert alg.dim == 8
    assert alg.jacobi_residual() < 1e-12
    K = alg.k_exact
    assert K[0][1] == Fraction(1, 4)
    assert K[3][7] == Fraction(3, 16)
    assert K[0][7] == 0


def test_su3_pairing_sums_exact():
    k = su3().k_exact[None]
    ms, ps = matching_sum(k)[0], perm_sum(k)[0]
    assert ms == Fraction(117, 8192)
    assert ps == Fraction(351, 64)
    # gamma for the paper's volume weight pi^5
    gamma = group_value("su3").value
    assert gamma == pytest.approx(117 * math.pi / 2**17, rel=1e-14)


def macdonald_volume(n):
    """vol SU(n) under -tr(XY): sqrt(n) (2 pi)^((n^2 + n - 2) / 2) / prod_{k<n} k!
    (I. G. Macdonald, Invent. Math. 56 (1980))."""
    return (math.sqrt(n) * (2 * math.pi) ** ((n * n + n - 2) // 2)
            / math.prod(math.factorial(k) for k in range(1, n)))


def test_group_weights_against_the_volumes_of_their_metrics():
    # SU(2) under -tr(XY) is the 3-sphere of radius sqrt(2), by hand
    assert macdonald_volume(2) == pytest.approx(4 * math.sqrt(2) * math.pi**2, rel=1e-15)
    assert macdonald_volume(3) == pytest.approx(16 * math.sqrt(3) * math.pi**5, rel=1e-15)
    # su3() is orthonormal under -2 Re tr: lengths times sqrt(2), the 8-volume times 2^4.
    # Its node keeps the paper's pi^5, and the record's notes give the metric's volume.
    metric_volume = 2**4 * macdonald_volume(3)
    assert metric_volume == pytest.approx(256 * math.sqrt(3) * math.pi**5, rel=1e-15)
    assert VOLUMES["su3"] == math.pi**5
    notes = manifold_by_name("su3").notes
    assert "paper's pi^5" in notes and "256 sqrt(3) pi^5 ~ %s" % f"{metric_volume:,.2f}" in notes
    # SO(4) -> S^3 with fibre SO(3) -> S^2 with fibre SO(2) = S^1, unit spheres under
    # -tr(XY)/2; so4() is orthonormal under -tr(XY), which scales the 6-volume by 2^3
    unit_spheres = (2 * math.pi) * (4 * math.pi) * (2 * math.pi**2)
    assert VOLUMES["so4"] == pytest.approx(2**3 * unit_spheres, rel=1e-15)
    assert "the group volume" in manifold_by_name("so4").notes


def test_so4_density_vanishes_identically():
    alg = so4()
    k = sectional(alg)[None]
    assert k_discrete(k)[0] == 0.0
    assert group_value("so4").value == 0.0


def test_rotate_algebra_preserves_biinvariance_and_jacobi():
    alg = su3()
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    rot = LieAlgebra(name="su3-rotated", alpha=rotated_structure_constants(alg.alpha, q))
    assert rot.jacobi_residual() < 1e-10
    k = sectional(rot)  # total antisymmetry preserved
    assert np.all(np.isfinite(k))
    # rotation is a genuine frame change: the density moves
    assert abs(k_discrete(k[None])[0] / k_discrete(sectional(alg)[None])[0] - 1) > 1e-4


def test_rotate_algebra_rejects_non_orthogonal():
    with pytest.raises(NonOrthonormalFrameError):
        rotated_structure_constants(su3().alpha, 2.0 * np.eye(8))


@pytest.mark.parametrize("build", [so4, su3], ids=lambda f: f.__name__)
def test_group_metric_riemann_is_quarter_alpha_alpha_exactly(build):
    alg = build()
    g, riem = biinvariant_metric(alg).jets(np.zeros((1, alg.dim)))
    assert np.array_equal(g[0], np.eye(alg.dim))
    assert np.array_equal(riem[0], np.einsum("ijm,klm->ijkl", alg.alpha, alg.alpha) / 4.0)
    assert np.array_equal(sectional(alg), quarter_alpha_squared(alg.alpha))


@pytest.mark.parametrize("build", [so4, su3], ids=lambda f: f.__name__)
def test_normal_coordinate_hessian_gives_the_same_riemann(build):
    """The Hessian of g in normal coordinates, -(R_ikjl + R_iljk) / 3, gives
    the metric's own R back through ``riemann_arrays``."""
    alg = build()
    n = alg.dim
    r = np.einsum("ijm,klm->ijkl", alg.alpha, alg.alpha) / 4.0
    hess = -(np.einsum("ikjl->ijkl", r) + np.einsum("iljk->ijkl", r)) / 3

    riem = riemann_arrays(np.eye(n)[None], np.zeros((1, n, n, n)), hess[None])
    assert np.max(np.abs(riem[0] - r)) <= 1e-15 * np.max(np.abs(r))


@pytest.mark.parametrize("name, scalar", [("su3", 6), ("so4", 3)])
def test_group_functionals_on_the_chart_path(name, scalar):
    volume = VOLUMES[name]
    assert abs(group_value(name, "gbc").value) <= 1e-12  # chi(G) = 0
    assert group_value(name, "hilbert").value == pytest.approx(scalar * volume, rel=1e-12)
    assert group_value(name, "volume").value == volume


# gamma_mc references: su3 from 100,000 samples at seed 7; so4 from the exact
# frame-averaged density 6.2491e-5 times the volume 128 pi^4.
@pytest.mark.parametrize("name, reference, ref_stderr", [
    ("su3", 0.0028609, 0.0000086),
    ("so4", 0.7791, 0.0),
])
def test_group_gamma_mc_matches_its_reference(name, reference, ref_stderr):
    res = group_value(name, "gamma_mc", nsamples=4096)
    assert abs(res.value - reference) <= 4 * math.hypot(res.stderr, ref_stderr)


def test_su3_haar_frame_matches_rotated_structure_constants():
    spec = manifold_by_name("su3")
    value = integrate_functional(spec.metric, spec.default_grid, frame="haar", seed=3).value
    q = haar_orthogonal(8, point_rng(3, 0))
    k = quarter_alpha_squared(rotated_structure_constants(su3().alpha, q))
    assert value == pytest.approx(k_discrete(k[None])[0] * VOLUMES["su3"], rel=1e-15)


def test_exact_algebra_rejects_non_closed_and_non_orthogonal_bases():
    # [L12, L13] = -L23 leaves the span of two so(3) generators
    with pytest.raises(NotClosedError):
        _exact_algebra("pair", [_rotation(1, 2, 3), _rotation(1, 3, 3)], 1, "test")
    with pytest.raises(NonOrthonormalFrameError):
        _exact_algebra("skew", [_rotation(1, 2, 3), _rotation(1, 2, 3) + _rotation(1, 3, 3)],
                       1, "test")


def test_biinvariant_metric_rejects_left_invariant_only():
    # alpha antisymmetric in (i,j) but not totally antisymmetric
    alpha = np.zeros((3, 3, 3))
    alpha[0, 1, 2] = 1.0
    alpha[1, 0, 2] = -1.0
    alpha[0, 2, 2] = 0.5
    alpha[2, 0, 2] = -0.5
    alg = LieAlgebra(name="bad", alpha=alpha, metric_note="test")
    with pytest.raises(NotBiInvariantError):
        biinvariant_metric(alg)


def test_builtin_registry():
    assert manifold_by_name("so4").dim == 6
    with pytest.raises(ValueError):
        manifold_by_name("e8")

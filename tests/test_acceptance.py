"""Acceptance gate: one test (one pass/fail line under ``pytest -v``) per criterion.

Every tolerance is pinned here, not imported, so a regression in any
default cannot silently loosen the gate.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from curvfun import zoo
from curvfun.cli import main as cli_main
from curvfun.frames import haar_orthogonal, point_rng
from curvfun.functionals import (
    gbc_raw_sum,
    haar_pair_average,
    k_discrete,
    matching_sum,
    perm_sum,
)
from curvfun.geometry import (
    christoffel_arrays,
    curvature_batch,
    riemann_in_frame,
    sectional_from_riemann,
)
from curvfun import liegroups as LG
from curvfun.quadrature import integrate, integrate_functional
from oracles import brute_force_perm_sum, christoffel_fd, general_jets


def _gamma(spec, functional="gamma_d", frame="coordinate"):
    return integrate_functional(
        spec.metric,
        spec.default_grid,
        functional=functional,
        frame=frame,
        with_error_estimate=False,
    ).value


def test_criterion_01_round_spheres_normalization():
    s2 = zoo.round_sphere(2)
    assert abs(_gamma(s2) - 2.0) <= 1e-6
    s4 = zoo.round_sphere(4)  # 17x17x17x16 grid
    assert tuple(a.n for a in s4.default_grid.axes) == (17, 17, 17, 16)
    assert abs(_gamma(s4) - 2.0) <= 1e-3
    vol = _gamma(s4, functional="volume")
    assert abs(vol - 8 * math.pi**2 / 3) <= 1e-6


def test_criterion_02_products_and_odd_factors():
    s2s2 = zoo.s2xs2()
    assert abs(_gamma(s2s2) - 4.0) <= 1e-3
    s3s1 = zoo.s3xs1()
    pts = s3s1.interior_points(1000, seed=2)
    k, _, _, _ = curvature_batch(s3s1.metric, pts)
    assert np.max(np.abs(k_discrete(k))) < 1e-10


def test_criterion_03_warped_torus_family():
    spec = zoo.taubes_torus("cos(x2) + cos(x1)")
    pts = spec.interior_points(20, seed=5)
    k, _, _, _ = curvature_batch(spec.metric, pts)
    # (a) the printed 4x4 sectional pattern
    assert np.max(np.abs(k - spec.oracles["sectional"](pts))) <= 1e-8
    # (b) the closed-form k_d
    assert np.max(np.abs(k_discrete(k) - spec.oracles["k_d"](pts))) <= 1e-8
    # (c) the ratio between the two printed warps is -2
    g1 = _gamma(spec)
    g2 = _gamma(zoo.taubes_torus("cos(x1 + x2)"))
    assert abs(g1 / g2 - (-2.0)) <= 1e-6
    # (d) tensor pipeline and displayed-formula quadrature agree
    def oracle_density(p, idx):
        return spec.oracles["k_d"](p) * spec.oracles["dV"](p), None

    g1_oracle, _ = integrate(oracle_density, spec.default_grid)
    assert abs(g1 - g1_oracle) <= 1e-8


def test_criterion_04_gbc_exactness_and_flat_limit():
    kb = zoo.klembeck_patch()
    origin = np.zeros((1, 6), dtype=object)
    origin[...] = Fraction(0)
    g, riem = kb.metric.jets(origin)
    frames = np.zeros((1, 6, 6), dtype=object)
    for i in range(6):
        frames[0, i, i] = Fraction(1)
    for i in range(6):
        for j in range(6):
            if frames[0, i, j] == 0:
                frames[0, i, j] = Fraction(0)
    raw = gbc_raw_sum(riemann_in_frame(riem, frames))
    assert raw[0] / math.factorial(6) ** 2 == Fraction(-9216, 518400)  # printed -9216/(6!)^2
    k = sectional_from_riemann(riem, frames)
    assert {k[0, i, j] for i in range(6) for j in range(6) if i != j} == {
        Fraction(0),
        Fraction(3),
    }
    # normalized GBC total reproduces chi on the round S^4
    s4 = zoo.round_sphere(4)
    assert abs(_gamma(s4, functional="gbc") - 2.0) <= 1e-3
    # flat metric: density vanishes to round-off
    flat = zoo.flat_torus(4)
    assert abs(_gamma(flat, functional="gbc")) <= 1e-12
    assert abs(_gamma(flat)) <= 1e-12


def test_criterion_05_cp2_permutation_sums_exact():
    eye_rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    K = zoo.cp2_sectional_exact(eye_rows)
    k = np.array([[Fraction(K[i][j]) for j in range(4)] for i in range(4)], dtype=object)
    assert perm_sum(k[None])[0] == Fraction(144)
    rot_rows = [[1, 0, 1, 0], [0, 1, 0, 0], [1, 0, -1, 0], [0, 0, 0, 1]]
    K2 = zoo.cp2_sectional_exact(rot_rows)
    k2 = np.array([[Fraction(K2[i][j]) for j in range(4)] for i in range(4)], dtype=object)
    assert perm_sum(k2[None])[0] == Fraction(108)


def test_criterion_06_su3_exact_table_and_gamma():
    alg = LG.su3()
    K = alg.k_exact
    q, s, t, z = Fraction(1, 4), Fraction(1, 16), Fraction(3, 16), Fraction(0)
    printed = [
        [z, q, q, s, s, s, s, z],
        [q, z, q, s, s, s, s, z],
        [q, q, z, s, s, s, s, z],
        [s, s, s, z, q, s, s, t],
        [s, s, s, q, z, s, s, t],
        [s, s, s, s, s, z, q, t],
        [s, s, s, s, s, q, z, t],
        [z, z, z, t, t, t, t, z],
    ]
    assert all(K[i][j] == printed[i][j] for i in range(8) for j in range(8))
    assert K[0][1] * K[2][3] * K[4][5] * K[6][7] == Fraction(3, 16384)
    ms, ps = matching_sum(K[None])[0], perm_sum(K[None])[0]
    assert ps == Fraction(351, 64)
    # convention check: the quoted sum is the free sum over all 8! permutations
    karr = np.array([[Fraction(K[i][j]) for j in range(8)] for i in range(8)], dtype=object)
    assert brute_force_perm_sum(karr[None])[0] == Fraction(351, 64)
    assert ms == Fraction(117, 8192)
    gamma = _gamma(zoo.manifold_by_name("su3"))  # one node weighted by the volume pi^5
    assert abs(gamma - 117 * math.pi / 2**17) <= 1e-15


def test_criterion_07_so4_vanishes_exactly():
    alg = LG.so4()
    K = alg.k_exact
    karr = np.array([[Fraction(K[i][j]) for j in range(6)] for i in range(6)], dtype=object)
    assert perm_sum(karr[None])[0] == Fraction(0)
    assert _gamma(zoo.manifold_by_name("so4")) == 0.0


def test_criterion_08_ellipsoids_and_projective_plane():
    e2 = zoo.two_ellipsoid(1.0, 2.0, 3.0)
    assert abs(_gamma(e2) - 2.0) <= 1e-5
    exe = zoo.e2xe2()
    assert abs(_gamma(exe) - 4.0) <= 1e-3
    e4 = zoo.ellipsoid_of_revolution(2.0)
    pts = e4.interior_points(20, seed=7)
    k, _, _, _ = curvature_batch(e4.metric, pts)
    oracle = e4.oracles["k_d"](pts)
    assert np.max(np.abs(k_discrete(k) - oracle) / np.abs(oracle)) <= 1e-6
    rp2 = zoo.rp2()
    rpts = rp2.interior_points(20, seed=9)
    rk, _, _, _ = curvature_batch(rp2.metric, rpts)
    assert np.max(np.abs(rk[:, 0, 1] - 0.5)) <= 1e-8
    assert abs(_gamma(rp2, functional="volume") - 4 * math.pi) <= 1e-6
    assert abs(_gamma(rp2) - 1.0) <= 1e-5


def test_criterion_09_independent_oracles():
    rng = np.random.default_rng(20)
    # pairing reduction vs explicit permutation sum, 100 random inputs each
    for n in (4, 6):
        for _ in range(100):
            k = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    k[i, j] = k[j, i] = rng.uniform(-1, 1)
            fast = perm_sum(k[None])[0]
            slow = brute_force_perm_sum(k[None])[0]
            assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow))
    k = np.zeros((8, 8))
    for i in range(8):
        for j in range(i + 1, 8):
            k[i, j] = k[j, i] = rng.uniform(-1, 1)
    assert abs(perm_sum(k[None])[0] - brute_force_perm_sum(k[None])[0]) <= 1e-9
    # hyper-dual Christoffels vs central finite differences
    spec = zoo.taubes_torus()
    for x in spec.interior_points(5, seed=3):
        ad = christoffel_arrays(*general_jets(spec.metric, x[None])[:2])[0][0]
        assert np.max(np.abs(ad - christoffel_fd(spec.metric, x))) <= 1e-5


def test_criterion_10_frame_dependence_is_visible():
    spec = zoo.taubes_torus()
    pt = np.array([[0.9, 1.7, 0.0, 0.0]])
    k, riem, frames, g = curvature_batch(spec.metric, pt)
    kd_coord = k_discrete(k)[0]
    draws = haar_orthogonal(4, point_rng(123, 0), 4000) @ frames[0]
    value, stderr = haar_pair_average(riem, draws[None])
    assert abs(value[0] - kd_coord) > 3 * stderr[0]
    # rotating S^2 x S^2 frames away from the product split lowers gamma_d
    exe = zoo.s2xs2()
    grid = exe.default_grid
    from curvfun.frames import rotate_frame

    values = []
    for angle in np.linspace(0.0, math.pi / 2, 5):
        rot = rotate_frame(np.eye(4), 0, 2, float(angle))
        values.append(
            integrate_functional(
                exe.metric, grid, frame=rot, with_error_estimate=False
            ).value
        )
    assert values[0] == max(values)
    assert abs(values[0] - 4.0) <= 1e-3


def test_criterion_11_discrete_identities_fast_and_exact():
    from curvfun.discrete import (
        counting_determinant,
        euler_characteristic,
        green_sum,
        omega,
        ph_index,
        random_corpus,
        random_energy,
        transported_index,
        whitney_complex,
        random_graph,
    )

    t0 = time.monotonic()
    rng = np.random.default_rng(31)
    for _ in range(100):
        g = whitney_complex(*random_graph(6, 0.5, rng))
        chi = euler_characteristic(g)
        f = {v: float(rng.random()) for v in g.vertices}
        assert sum(ph_index(g, f, v) for v in g.vertices) == chi
        assert sum(transported_index(g, f).values()) == chi
        h = random_energy(g, rng)
        det = counting_determinant(g, h)
        prod = 1
        for s in g.simplices:
            prod *= h[s]
        assert det == prod
        assert green_sum(g, h) == sum(Fraction(1, h[s]) for s in g.simplices)
        hs = random_energy(g, rng, signs_only=True)
        assert green_sum(g, hs) == sum(hs[s] for s in g.simplices)
        hw = {s: omega(s) for s in g.simplices}
        assert green_sum(g, hw) == chi
        assert abs(counting_determinant(g, hw)) == 1
    assert time.monotonic() - t0 < 30.0


def test_criterion_12_byte_identical_output_across_workers(tmp_path):
    blobs = []
    for w in (1, 2, 8):
        out = tmp_path / ("gamma-w%d.json" % w)
        code = cli_main(
            ["compute", "--manifold", "taubes", "--functional", "gamma_d",
             "--workers", str(w), "--no-timing", "--out", str(out)]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    rec = json.loads(blobs[0])
    assert rec["value"] == pytest.approx(2 * math.pi**2, rel=1e-9)

"""Pairing functionals: matching reductions vs brute-force permutation sums."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvfun.errors import BadDimensionError
from curvfun.functionals import (
    _gbc_combos,
    brute_force_perm_sum,
    gbc_raw_sum,
    haar_product_estimate,
    k_discrete,
    k_gbc,
    matching_sum,
    normalization_constant,
    perfect_matchings,
    perm_sum,
    scalar_curvature,
)
from curvfun.frames import point_rng
from curvfun.geometry import riemann_arrays
from curvfun.quadrature import functional_density
from curvfun.zoo import taubes_torus
from oracles import brute_force_gbc_raw_sum


def symmetric_zero_diag(values, n):
    k = np.zeros((n, n))
    it = iter(values)
    for i in range(n):
        for j in range(i + 1, n):
            k[i, j] = k[j, i] = next(it)
    return k


def test_perfect_matching_counts():
    assert len(perfect_matchings(2)) == 1
    assert len(perfect_matchings(4)) == 3
    assert len(perfect_matchings(6)) == 15
    assert len(perfect_matchings(8)) == 105
    # each matching covers every index exactly once
    for m in perfect_matchings(6):
        seen = sorted(i for pair in m for i in pair)
        assert seen == list(range(6))


def test_normalization_constant_values():
    assert normalization_constant(1) == pytest.approx(1 / (4 * math.pi))
    assert normalization_constant(2) == pytest.approx(1 / (2 * (4 * math.pi) ** 2))
    # d = 4 value printed for the 8-dimensional group example
    assert normalization_constant(4) == pytest.approx(1 / (6144 * math.pi**4))


@settings(max_examples=120, deadline=None)
@given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=6, max_size=6))
def test_matching_equals_bruteforce_d2(vals):
    k = symmetric_zero_diag(vals, 4)
    fast = perm_sum(k[None])[0]
    slow = brute_force_perm_sum(k)
    assert fast == pytest.approx(slow, rel=1e-10, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=15, max_size=15))
def test_matching_equals_bruteforce_d3(vals):
    k = symmetric_zero_diag(vals, 6)
    fast = perm_sum(k[None])[0]
    slow = brute_force_perm_sum(k)
    assert fast == pytest.approx(slow, rel=1e-10, abs=1e-10)


def test_matching_equals_bruteforce_d4_spot():
    rng = np.random.default_rng(11)
    k = symmetric_zero_diag(rng.uniform(-1, 1, size=28), 8)
    fast = perm_sum(k[None])[0]
    slow = brute_force_perm_sum(k)
    assert fast == pytest.approx(slow, rel=1e-9)


def test_matching_sum_exact_fractions():
    k = np.empty((1, 4, 4), dtype=object)
    k[...] = Fraction(0)
    pairs = {(0, 1): Fraction(1, 2), (2, 3): Fraction(1, 3),
             (0, 2): Fraction(1, 5), (1, 3): Fraction(1, 7),
             (0, 3): Fraction(2, 3), (1, 2): Fraction(3, 5)}
    for (i, j), v in pairs.items():
        k[0, i, j] = k[0, j, i] = v
    ms = matching_sum(k)[0]
    expected = (
        Fraction(1, 2) * Fraction(1, 3)
        + Fraction(1, 5) * Fraction(1, 7)
        + Fraction(2, 3) * Fraction(3, 5)
    )
    assert ms == expected
    assert perm_sum(k)[0] == 8 * expected  # 2^d d! with d = 2


def test_k_discrete_geometric_normalization():
    # constant curvature 1 on S^4-like pairings: k_d = matching_sum/(2 pi)^2
    k = symmetric_zero_diag(np.ones(6), 4)
    assert k_discrete(k) == pytest.approx(3 / (2 * math.pi) ** 2)
    # "raw" is the bare permutation sum: 2^d d! * matching_sum = 8 * 3
    assert k_discrete(k, normalization="raw") == pytest.approx(24.0)
    with pytest.raises(ValueError):
        k_discrete(k, normalization="bogus")


def test_k_discrete_odd_dimension_rejected():
    with pytest.raises(BadDimensionError):
        k_discrete(np.zeros((3, 3)))


def test_gbc_matches_bruteforce_d2():
    rng = np.random.default_rng(7)
    for _ in range(4):
        # build a curvature-like tensor with the index symmetries
        a = rng.normal(size=(4, 4, 4, 4))
        r = a - a.transpose(1, 0, 2, 3)
        r = r - r.transpose(0, 1, 3, 2)
        r = r + r.transpose(2, 3, 0, 1)
        fast = gbc_raw_sum(r[None])[0]
        slow = brute_force_gbc_raw_sum(r)
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)


def test_gbc_sphere_pattern_value():
    # R_ijkl = delta_ik delta_jl - delta_il delta_jk (unit S^4 in a frame)
    n = 4
    eye = np.eye(n)
    r = np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
    raw = gbc_raw_sum(r[None])[0]
    assert raw == pytest.approx(96.0)
    v = k_gbc(r[None])
    assert v.raw_sum[0] == pytest.approx(96.0)
    assert v.mean_term[0] == pytest.approx(96.0 / math.factorial(4) ** 2)
    # integrating this constant density over |S^4| = 8 pi^2/3 gives 2
    assert v.value[0] * 8 * math.pi**2 / 3 == pytest.approx(2.0)


def test_gbc_exact_fraction_path():
    n = 4
    r = np.empty((1, n, n, n, n), dtype=object)
    r[...] = Fraction(0)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    r[0, i, j, k, l] = Fraction(int(i == k) * int(j == l) - int(i == l) * int(j == k))
    v = k_gbc(r)
    assert v.raw_sum[0] == Fraction(96)
    assert v.mean_term[0] == Fraction(96, 576)


def test_scalar_curvature_sums_ordered_pairs():
    k = symmetric_zero_diag([1, 2, 3, 4, 5, 6], 4)
    assert scalar_curvature(k) == pytest.approx(2 * (1 + 2 + 3 + 4 + 5 + 6))


def test_haar_estimate_consistent_on_isotropic_tensor():
    """On the round-sphere tensor the pair product is frame independent,
    so the Monte Carlo average equals k_d with zero variance."""
    n = 4
    eye = np.eye(n)
    r = np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
    k = symmetric_zero_diag(np.ones(6), n)
    est = haar_product_estimate(r, eye, 200, point_rng(0, 0))
    assert est.value == pytest.approx(k_discrete(k), rel=1e-12)
    assert est.stderr < 1e-14
    assert est.nsamples == 200


def test_haar_estimate_converges_on_anisotropic_tensor():
    """Haar average is a genuine average: reproducible and within stderr
    bands of an independent long run."""
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4, 4, 4))
    r = a - a.transpose(1, 0, 2, 3)
    r = r - r.transpose(0, 1, 3, 2)
    r = r + r.transpose(2, 3, 0, 1)
    e1 = haar_product_estimate(r, np.eye(4), 4000, point_rng(1, 0))
    e2 = haar_product_estimate(r, np.eye(4), 4000, point_rng(2, 0))
    assert abs(e1.value - e2.value) < 4 * math.hypot(e1.stderr, e2.stderr)


def test_gamma_mc_density_is_the_single_point_estimate():
    """The quadrature density at a node is the single-point estimate, seeded
    by that node's stream, times the volume element."""
    metric = taubes_torus().metric
    pts = np.array([[0.9, 0.4, 0.0, 0.0], [1.3, 2.1, 0.5, 0.2]])
    nodes = np.array([3, 17])
    vals, stderrs = functional_density(metric, "gamma_mc", seed=5, nsamples=16)(pts, nodes)
    g, dg, d2g = metric.jets(pts)
    riem = riemann_arrays(g, dg, d2g)
    for row, node in enumerate(nodes):
        est = haar_product_estimate(riem[row], g[row], 16, point_rng(5, node))
        dv = math.sqrt(np.linalg.det(g[row]))
        assert vals[row] == pytest.approx(est.value * dv, rel=1e-12)
        assert stderrs[row] == pytest.approx(est.stderr * dv, rel=1e-12)


def test_gbc_dimension_8_memory_is_bounded():
    """Dimension-8 gbc gathers 264,600 combinations per node; the gather is
    sliced to a fixed byte budget, so 16 nodes peak far below the 203 MB an
    unsliced gather takes.  Unit S^8 in a frame gives 2/|S^8| = 105/(16 pi^4)."""
    import tracemalloc

    n = 8
    eye = np.eye(n)
    r = np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
    batch = np.broadcast_to(r, (16,) + r.shape).copy()
    _gbc_combos(n)  # the cached table is not part of the per-call peak
    tracemalloc.start()
    try:
        values = k_gbc(batch).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == pytest.approx(np.full(16, 105 / (16 * math.pi**4)), rel=1e-12)
    assert peak < 64 * 2**20


def test_gbc_sum_does_not_depend_on_slicing():
    """1036 dimension-6 points span two gather slices; each point's sum is
    bit-equal to the one computed in a batch of two."""
    rng = np.random.default_rng(21)
    a = rng.normal(size=(1036, 6, 6, 6, 6))
    whole = gbc_raw_sum(a)
    pairs = np.concatenate([gbc_raw_sum(a[i : i + 2]) for i in range(0, len(a), 2)])
    assert np.array_equal(whole, pairs)


def test_gbc_density_is_invariant_under_frame_rotation():
    """The signed double-permutation density does not depend on the frame:
    a Haar O(n) rotation of the Gram-Schmidt frames leaves it unchanged."""
    from curvfun.frames import haar_orthogonal
    from curvfun.geometry import curvature_batch, riemann_in_frame
    from curvfun.zoo import klembeck_patch, round_sphere

    for spec in (round_sphere(4), taubes_torus(), klembeck_patch()):
        pts = spec.interior_points(20, seed=11)
        _, riem, frames, _ = curvature_batch(spec.metric, pts)
        rotated = haar_orthogonal(spec.dim, np.random.default_rng(12), 20) @ frames
        base = k_gbc(riemann_in_frame(riem, frames)).value
        turned = k_gbc(riemann_in_frame(riem, rotated)).value
        assert turned == pytest.approx(base, rel=1e-12)

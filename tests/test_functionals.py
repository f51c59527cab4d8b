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
    gbc_raw_sum,
    haar_pair_average,
    k_discrete,
    k_gbc,
    matching_sum,
    normalization_constant,
    perfect_matchings,
    perm_sum,
    scalar_curvature,
)
from curvfun.frames import gram_schmidt_frames, haar_orthogonal, point_rng
from curvfun.quadrature import functional_density
from curvfun.zoo import taubes_torus
from oracles import brute_force_gbc_raw_sum, brute_force_perm_sum, einsum_pair_products


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
    slow = brute_force_perm_sum(k[None])[0]
    assert fast == pytest.approx(slow, rel=1e-10, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=15, max_size=15))
def test_matching_equals_bruteforce_d3(vals):
    k = symmetric_zero_diag(vals, 6)
    fast = perm_sum(k[None])[0]
    slow = brute_force_perm_sum(k[None])[0]
    assert fast == pytest.approx(slow, rel=1e-10, abs=1e-10)


def test_matching_equals_bruteforce_d4_spot():
    rng = np.random.default_rng(11)
    k = symmetric_zero_diag(rng.uniform(-1, 1, size=28), 8)
    fast = perm_sum(k[None])[0]
    slow = brute_force_perm_sum(k[None])[0]
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
    k = symmetric_zero_diag(np.ones(6), 4)[None]
    assert k_discrete(k)[0] == pytest.approx(3 / (2 * math.pi) ** 2)
    # the bare permutation sum: 2^d d! * matching_sum = 8 * 3
    assert perm_sum(k)[0] == pytest.approx(24.0)


def test_k_discrete_odd_dimension_rejected():
    with pytest.raises(BadDimensionError):
        k_discrete(np.zeros((1, 3, 3)))


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
    # integrating this constant density over |S^4| = 8 pi^2/3 gives 2
    assert k_gbc(r[None])[0] * 8 * math.pi**2 / 3 == pytest.approx(2.0)


def test_gbc_exact_fraction_path():
    n = 4
    r = np.empty((1, n, n, n, n), dtype=object)
    r[...] = Fraction(0)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    r[0, i, j, k, l] = Fraction(int(i == k) * int(j == l) - int(i == l) * int(j == k))
    raw = gbc_raw_sum(r)
    assert raw[0] == Fraction(96)
    assert raw[0] / math.factorial(4) ** 2 == Fraction(96, 576)
    # the density is a float array, the exact sum rounded once and scaled
    density = k_gbc(r)
    assert density.dtype == np.float64
    assert density[0] == float(raw[0]) * (normalization_constant(2) / 2**2)


def test_scalar_curvature_sums_ordered_pairs():
    k = symmetric_zero_diag([1, 2, 3, 4, 5, 6], 4)[None]
    assert scalar_curvature(k)[0] == pytest.approx(2 * (1 + 2 + 3 + 4 + 5 + 6))


def test_haar_estimate_consistent_on_isotropic_tensor():
    """On the round-sphere tensor the pair product is frame independent,
    so the Monte Carlo average equals k_d with zero variance."""
    n = 4
    eye = np.eye(n)
    r = np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
    k = symmetric_zero_diag(np.ones(6), n)
    value, stderr = haar_pair_average(r[None], haar_orthogonal(n, point_rng(0, 0), 200)[None])
    assert value[0] == pytest.approx(k_discrete(k[None])[0], rel=1e-12)
    assert stderr[0] < 1e-14


def test_haar_estimate_converges_on_anisotropic_tensor():
    """Haar average is a genuine average: reproducible and within stderr
    bands of an independent long run."""
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4, 4, 4))
    r = a - a.transpose(1, 0, 2, 3)
    r = r - r.transpose(0, 1, 3, 2)
    r = r + r.transpose(2, 3, 0, 1)
    frames = np.stack([haar_orthogonal(4, point_rng(seed, 0), 4000) for seed in (1, 2)])
    (v1, v2), (s1, s2) = haar_pair_average(np.stack([r, r]), frames)
    assert abs(v1 - v2) < 4 * math.hypot(s1, s2)


def _gauss_tensor(rng, n, terms=3):
    """An algebraic curvature tensor whose sectional curvatures are all positive.

    R_abcd = sum over positive-definite S of S_ac S_bd - S_ad S_bc (the Gauss
    equation), so K(u, v) = S(u, u) S(v, v) - S(u, v)^2 > 0 by Cauchy-Schwarz.
    """
    r = np.zeros((n,) * 4)
    for _ in range(terms):
        a = rng.standard_normal((n, n))
        s = a @ a.T + np.eye(n)
        r += np.einsum("ac,bd->abcd", s, s) - np.einsum("ad,bc->abcd", s, s)
    return r


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_haar_pair_average_matches_the_five_operand_einsum(n):
    """The matmul over u (x) v gives the einsum's products to rounding."""
    rng = np.random.default_rng(40 + n)
    riem = np.stack([_gauss_tensor(rng, n) for _ in range(3)])
    frames = haar_orthogonal(n, [point_rng(7, node) for node in range(3)], 50)
    value, stderr = haar_pair_average(riem, frames)
    prods = einsum_pair_products(riem, frames)
    scale = math.factorial(n) * normalization_constant(n // 2)
    assert np.allclose(value, scale * prods.mean(axis=1), rtol=1e-12, atol=0)
    # in dimension 2 every frame gives the same K, so the stderr is rounding alone
    assert np.allclose(stderr, scale * prods.std(axis=1, ddof=1) / math.sqrt(50),
                       rtol=1e-12, atol=1e-12 * value.max())


def test_gamma_mc_density_is_the_single_point_estimate():
    """The quadrature density at a node is the Haar average over that node's
    own draws, a batch of one, times the volume element."""
    metric = taubes_torus().metric
    pts = np.array([[0.9, 0.4, 0.0, 0.0], [1.3, 2.1, 0.5, 0.2]])
    nodes = np.array([3, 17])
    vals, stderrs = functional_density(metric, "gamma_mc", seed=5, nsamples=16)(pts, nodes)
    g, riem = metric.jets(pts)
    base = gram_schmidt_frames(g, np.broadcast_to(np.eye(4), g.shape))
    for row, node in enumerate(nodes):
        frames = haar_orthogonal(4, point_rng(5, node), 16) @ base[row]
        value, stderr = haar_pair_average(riem[row : row + 1], frames[None])
        dv = math.sqrt(np.linalg.det(g[row]))
        assert vals[row] == pytest.approx(value[0] * dv, rel=1e-12)
        assert stderrs[row] == pytest.approx(stderr[0] * dv, rel=1e-12)


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
        values = k_gbc(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == pytest.approx(np.full(16, 105 / (16 * math.pi**4)), rel=1e-12)
    assert peak < 64 * 2**20


def test_gbc_sum_does_not_depend_on_slicing():
    """1036 dimension-6 points span two gather slices; each point's sum is
    bit-equal to the one computed in a batch of two and to the one computed
    alone, as a batch of one."""
    rng = np.random.default_rng(21)
    a = rng.normal(size=(1036, 6, 6, 6, 6))
    whole = gbc_raw_sum(a)
    pairs = np.concatenate([gbc_raw_sum(a[i : i + 2]) for i in range(0, len(a), 2)])
    assert np.array_equal(whole, pairs)
    ones = np.concatenate([gbc_raw_sum(a[i : i + 1]) for i in range(len(a))])
    assert np.array_equal(whole, ones)


def test_gbc_density_is_invariant_under_frame_rotation():
    """The signed double-permutation density does not depend on the frame:
    a Haar O(n) rotation of the Gram-Schmidt frames leaves it unchanged."""
    from curvfun.geometry import curvature_batch, riemann_in_frame
    from curvfun.zoo import klembeck_patch, round_sphere

    for spec in (round_sphere(4), taubes_torus(), klembeck_patch()):
        pts = spec.interior_points(20, seed=11)
        _, riem, frames, _ = curvature_batch(spec.metric, pts)
        rotated = haar_orthogonal(spec.dim, np.random.default_rng(12), 20) @ frames
        base = k_gbc(riemann_in_frame(riem, frames))
        turned = k_gbc(riemann_in_frame(riem, rotated))
        assert turned == pytest.approx(base, rel=1e-12)

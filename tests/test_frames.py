"""Orthonormal frames: Gram-Schmidt, rotations, Haar sampling, RNG streams."""

import numpy as np
import pytest

from curvfun.errors import ConfigError, NonOrthonormalFrameError, RankDeficientError
from curvfun.frames import (
    _orthonormal_columns,
    gram_schmidt_frames,
    haar_orthogonal,
    point_rng,
    rotate_frame,
)
from oracles import check_orthonormal, gram_schmidt_loop, haar_qr


def random_spd(n, rng):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def test_gram_schmidt_orthonormal_wrt_metric():
    rng = np.random.default_rng(0)
    for n in (2, 4, 6):
        g = random_spd(n, rng)
        f = gram_schmidt_frames(g[None])[0]
        gram = f @ g @ f.T
        assert np.max(np.abs(gram - np.eye(n))) < 1e-12
        check_orthonormal(g, f)  # must not raise


def test_gram_schmidt_batched_matches_single():
    rng = np.random.default_rng(1)
    gs = np.stack([random_spd(4, rng) for _ in range(5)])
    frames = gram_schmidt_frames(gs)
    for p in range(5):
        single = gram_schmidt_frames(gs[p : p + 1])[0]
        assert np.max(np.abs(frames[p] - single)) < 1e-12


def test_rank_deficient_basis_rejected():
    # the Gram matrix of a dependent basis is a singular metric
    basis = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]])
    with pytest.raises(RankDeficientError):
        gram_schmidt_frames((basis @ basis.T)[None])


def _spd_batch(n, rng, count=200):
    a = rng.normal(size=(count, n, n))
    return a @ a.swapaxes(1, 2) + n * np.eye(n)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_gram_schmidt_frames_match_the_loop(n):
    """The inverse Cholesky factor is the ascending Gram-Schmidt frame: on
    the chart basis, and on a non-identity basis V of condition number at
    most 2 as the chart frame of V g V^T times V, it agrees with the
    vector-by-vector loop within 1e-14 relative (40 seeds of 200 rows
    measured at most 1.3e-15)."""
    rng = np.random.default_rng(20 + n)
    g = _spd_batch(n, rng)
    ref = gram_schmidt_loop(g, np.broadcast_to(np.eye(n), g.shape))
    assert np.max(np.abs(gram_schmidt_frames(g) - ref)) <= 1e-14 * np.max(np.abs(ref))
    basis = haar_qr(rng.normal(size=g.shape)) * np.linspace(1.0, 2.0, n)
    ref = gram_schmidt_loop(g, basis)
    frames = gram_schmidt_frames(basis @ g @ basis.swapaxes(1, 2)) @ basis
    assert np.max(np.abs(frames - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_gram_schmidt_frame_of_the_chart_basis_is_exactly_lower_triangular(n):
    # as in the loop, where vector i never meets a later vector
    f = gram_schmidt_frames(_spd_batch(n, np.random.default_rng(30 + n)))
    assert np.all(np.triu(f, 1) == 0.0)
    assert np.all(np.diagonal(f, axis1=1, axis2=2) > 0)


@pytest.mark.parametrize("g", [
    [[1.0, 0.0], [0.0, -1.0]],  # indefinite: the factorization fails
    [[1.0, 2.0], [2.0, 1.0]],
    [[1e-30, 0.0], [0.0, 1.0]],  # positive definite, residual norm 1e-15
    [[np.nan, 0.0], [0.0, 1.0]],  # LAPACK's Cholesky passes NaN through
])
def test_gram_schmidt_frames_reject_a_metric_that_is_not_positive_definite(g):
    batch = np.stack([np.eye(2), np.array(g)])
    with pytest.raises(RankDeficientError, match="Gram-Schmidt"):
        gram_schmidt_frames(batch)


def test_check_orthonormal_rejects_skew():
    g = np.eye(2)
    bad = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(NonOrthonormalFrameError):
        check_orthonormal(g, bad)


def test_rotate_frame_preserves_orthonormality():
    rng = np.random.default_rng(2)
    g = random_spd(4, rng)
    f = gram_schmidt_frames(g[None])[0]
    r = rotate_frame(f, 0, 2, 0.7)
    check_orthonormal(g, r)
    # rotating by zero is the identity
    assert np.max(np.abs(rotate_frame(f, 1, 3, 0.0) - f)) == 0.0
    # untouched rows stay put
    assert np.max(np.abs(r[1] - f[1])) == 0.0
    assert np.max(np.abs(r[3] - f[3])) == 0.0
    with pytest.raises(ConfigError, match="two distinct frame indices"):
        rotate_frame(f, 1, 1, 0.7)


def test_haar_orthogonal_is_orthogonal():
    rng = np.random.default_rng(3)
    for n in (2, 4, 8):
        q = haar_orthogonal(n, rng)
        assert np.max(np.abs(q @ q.T - np.eye(n))) < 1e-12


def test_haar_batch_matches_sequential_draws():
    """A batched draw has the bits of as many single draws from the same
    stream, and a node drawn in a stack of 8,192 the bits of its own draw."""
    for n in (2, 4, 6, 8):
        for count in (1, 3, 5):
            batch = haar_orthogonal(n, point_rng(11, n), count)
            rng = point_rng(11, n)
            sequential = np.array([haar_orthogonal(n, rng) for _ in range(count)])
            assert batch.shape == (count, n, n)
            assert np.array_equal(batch, sequential)
        stack = haar_orthogonal(n, [point_rng(11, node) for node in range(8192)])
        assert stack.shape == (8192, n, n)
        for node in (*range(0, 8192, 509), 8191):
            assert np.array_equal(stack[node], haar_orthogonal(n, point_rng(11, node)))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_haar_orthogonal_matches_the_qr_oracle(n):
    """The batched Gram-Schmidt gives the sign-fixed QR's Q up to rounding."""
    normals = point_rng(13, n).standard_normal((500, n, n))
    q = haar_orthogonal(n, point_rng(13, n), 500)
    assert np.max(np.abs(q - haar_qr(normals))) < 1e-12


def test_haar_orthogonal_stays_orthonormal_on_ill_conditioned_columns():
    """Reorthogonalization keeps Q orthonormal at a condition number near 1e8."""
    rng = np.random.default_rng(14)
    n = 6
    u, v = haar_qr(rng.standard_normal((2, 200, n, n)))
    a = (u * np.logspace(0, -8, n)) @ v
    assert np.median(np.linalg.cond(a)) > 1e7
    q = _orthonormal_columns(a)
    assert np.max(np.abs(q @ q.swapaxes(1, 2) - np.eye(n))) < 1e-14
    assert np.max(np.abs(q - haar_qr(a))) < 1e-6


def test_haar_orthogonal_rejects_a_repeated_column():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 4, 4))
    a[1, :, 2] = a[1, :, 0]
    with pytest.raises(RankDeficientError):
        _orthonormal_columns(a)


def test_haar_first_component_second_moment():
    """For Haar-random q, E[(q row . e)^2] = 1/n by symmetry."""
    rng = np.random.default_rng(4)
    n = 4
    samples = haar_orthogonal(n, rng, 4000)[:, 0, 0] ** 2
    assert samples.mean() == pytest.approx(1.0 / n, abs=3 * samples.std() / 63)


def test_haar_orientation_balance():
    """Orthonormalizing the Gaussian columns must not bias the determinant sign."""
    rng = np.random.default_rng(5)
    frac_pos = np.mean(np.linalg.det(haar_orthogonal(3, rng, 2000)) > 0)
    assert abs(frac_pos - 0.5) < 0.04


def test_haar_left_rotation_invariance():
    """The defining property: for fixed R in O(n), R q has the same law as q.

    Compared through the first matrix entry with a two-sample KS test; the
    seed is fixed, so the check is deterministic.
    """
    from scipy import stats

    rng = np.random.default_rng(6)
    n = 3
    r = haar_orthogonal(n, np.random.default_rng(99))
    qs = haar_orthogonal(n, rng, 3000)  # the bits of 3,000 single draws
    plain = qs[:1500, 0, 0]
    rotated = (r @ qs[1500:])[:, 0, 0]
    ks = stats.ks_2samp(plain, rotated)
    assert ks.pvalue > 1e-3


def test_point_rng_streams_are_stable_and_disjoint():
    a1 = point_rng(42, 7).normal(size=4)
    a2 = point_rng(42, 7).normal(size=4)
    b = point_rng(42, 8).normal(size=4)
    c = point_rng(43, 7).normal(size=4)
    assert np.all(a1 == a2)
    assert not np.all(a1 == b)
    assert not np.all(a1 == c)

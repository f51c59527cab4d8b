"""Orthonormal frames: Gram-Schmidt, rotations, Haar sampling, RNG streams."""

import numpy as np
import pytest

from curvfun.errors import NonOrthonormalFrameError, RankDeficientError
from curvfun.frames import (
    gram_schmidt_frame,
    gram_schmidt_frames,
    haar_orthogonal,
    point_rng,
    rotate_frame,
)
from oracles import check_orthonormal


def random_spd(n, rng):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def test_gram_schmidt_orthonormal_wrt_metric():
    rng = np.random.default_rng(0)
    for n in (2, 4, 6):
        g = random_spd(n, rng)
        f = gram_schmidt_frame(g, np.eye(n))
        gram = f @ g @ f.T
        assert np.max(np.abs(gram - np.eye(n))) < 1e-12
        check_orthonormal(g, f)  # must not raise


def test_gram_schmidt_batched_matches_single():
    rng = np.random.default_rng(1)
    gs = np.stack([random_spd(4, rng) for _ in range(5)])
    frames = gram_schmidt_frames(gs, np.broadcast_to(np.eye(4), gs.shape))
    for p in range(5):
        single = gram_schmidt_frame(gs[p], np.eye(4))
        assert np.max(np.abs(frames[p] - single)) < 1e-12


def test_rank_deficient_basis_rejected():
    g = np.eye(3)
    basis = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]])
    with pytest.raises(RankDeficientError):
        gram_schmidt_frame(g, basis)


def test_check_orthonormal_rejects_skew():
    g = np.eye(2)
    bad = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(NonOrthonormalFrameError):
        check_orthonormal(g, bad)


def test_rotate_frame_preserves_orthonormality():
    rng = np.random.default_rng(2)
    g = random_spd(4, rng)
    f = gram_schmidt_frame(g, np.eye(4))
    r = rotate_frame(f, 0, 2, 0.7)
    check_orthonormal(g, r)
    # rotating by zero is the identity
    assert np.max(np.abs(rotate_frame(f, 1, 3, 0.0) - f)) == 0.0
    # untouched rows stay put
    assert np.max(np.abs(r[1] - f[1])) == 0.0
    assert np.max(np.abs(r[3] - f[3])) == 0.0


def test_haar_orthogonal_is_orthogonal():
    rng = np.random.default_rng(3)
    for n in (2, 4, 8):
        q = haar_orthogonal(n, rng)
        assert np.max(np.abs(q @ q.T - np.eye(n))) < 1e-12


def test_haar_batch_matches_sequential_draws():
    """A batched draw has the bits of as many single draws from the same stream."""
    for n in (2, 4, 8):
        batch = haar_orthogonal(n, point_rng(11, n), 5)
        rng = point_rng(11, n)
        sequential = np.array([haar_orthogonal(n, rng) for _ in range(5)])
        assert batch.shape == (5, n, n)
        assert np.array_equal(batch, sequential)


def test_haar_first_component_second_moment():
    """For Haar-random q, E[(q row . e)^2] = 1/n by symmetry."""
    rng = np.random.default_rng(4)
    n = 4
    samples = np.array([haar_orthogonal(n, rng)[0, 0] ** 2 for _ in range(4000)])
    assert samples.mean() == pytest.approx(1.0 / n, abs=3 * samples.std() / 63)


def test_haar_orientation_balance():
    """QR sign-fixing must not bias the determinant sign."""
    rng = np.random.default_rng(5)
    dets = [np.linalg.det(haar_orthogonal(3, rng)) for _ in range(2000)]
    frac_pos = np.mean([d > 0 for d in dets])
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
    plain = np.array([haar_orthogonal(n, rng)[0, 0] for _ in range(1500)])
    rotated = np.array([(r @ haar_orthogonal(n, rng))[0, 0] for _ in range(1500)])
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

"""Grid construction, deterministic reduction, and integral error reporting."""

import math

import numpy as np
import pytest

from curvfun import quadrature
from curvfun.errors import BadDimensionError, ChartSingularityError, ConfigError, CurvfunError
from curvfun.frames import haar_orthogonal, point_rng, rotate_frame
from curvfun.geometry import MetricField
from curvfun.jets import sin
from curvfun.quadrature import (
    Axis,
    Grid,
    _haar_node_frames,
    functional_density,
    integrate,
    integrate_functional,
)
from curvfun.zoo import MANIFOLD_NAMES, manifold_by_name

from oracles import block_density


def test_periodic_axis_integrates_trig_exactly():
    ax = Axis(0.0, 2 * math.pi, 16, periodic=True)
    x, w = ax.nodes_weights()
    assert math.fsum(w) == pytest.approx(2 * math.pi)
    # trapezoid on a periodic smooth function is spectrally accurate
    assert np.sum(np.cos(3 * x) ** 2 * w) == pytest.approx(math.pi, abs=1e-12)
    # offset nodes never touch the endpoints
    assert x[0] > 0 and x[-1] < 2 * math.pi


def test_gauss_axis_exact_for_polynomials():
    ax = Axis(-1.0, 3.0, 6, periodic=False)
    x, w = ax.nodes_weights()
    # degree <= 2*6-1 integrated exactly
    val = np.sum(x**9 * w)
    exact = (3.0**10 - (-1.0) ** 10) / 10
    assert val == pytest.approx(exact, rel=1e-13)
    assert x.min() > -1 and x.max() < 3  # interior nodes only


def test_grid_point_count_and_weights():
    grid = Grid((Axis(0, 1, 3), Axis(0, 2, 4, periodic=True)))
    pts, w = grid.points_weights()
    assert grid.n_points == 12 == len(pts) == len(w)
    assert math.fsum(w.tolist()) == pytest.approx(2.0)
    halved = grid.halved()
    assert halved.axes[0].n == 2 and halved.axes[1].n == 2


def test_integrate_worker_count_is_bit_identical(monkeypatch):
    # a budget of 64 two-dimensional rows: the 420 nodes span seven chunks
    monkeypatch.setattr(quadrature, "CHUNK_BYTES", 64 * 8 * 2**4)
    grid = Grid((Axis(0, math.pi, 21), Axis(0, 2 * math.pi, 20, periodic=True)))
    assert quadrature._chunk_rows(grid.dim) == 64

    def density(p, idx):
        return np.sin(p[:, 0]) * (1 + 0.3 * np.cos(p[:, 1])), None

    vals = [integrate(density, grid, workers=w)[0] for w in (1, 2, 8)]
    assert vals[0] == vals[1] == vals[2]
    # int_0^pi sin = 2 times int_0^2pi (1 + 0.3 cos) = 2 pi
    assert vals[0] == pytest.approx(4 * math.pi)


def test_integrate_propagates_mc_stderr():
    grid = Grid((Axis(0, 1, 4),))

    def density(p, idx):
        return np.ones(len(p)), 0.5 * np.ones(len(p))

    value, stderr = integrate(density, grid)
    assert value == pytest.approx(1.0)
    # independent per-node errors add in quadrature with the weights
    _, w = grid.points_weights()
    assert stderr == pytest.approx(0.5 * math.sqrt(np.sum(w**2)))


def test_chart_singularity_names_the_point():
    grid = Grid((Axis(-1, 1, 5), Axis(0, 1, 2)))
    boom = np.array([0.0, 0.0])

    def density(p, idx):
        from curvfun.errors import NonFiniteError

        if np.any(np.abs(p[:, 0] - boom[0]) < 0.2):
            raise NonFiniteError("synthetic failure")
        return np.ones(len(p)), None

    with pytest.raises(ChartSingularityError) as info:
        integrate(density, grid)
    assert abs(info.value.point[0]) < 0.2


def sphere_metric():
    def entries(v):
        s = sin(v[0])
        return [[1, 0], [0, s * s]]

    return MetricField.from_entries(2, entries)


def test_volume_and_error_estimate():
    m = sphere_metric()
    grid = Grid((Axis(0, math.pi, 24), Axis(0, 2 * math.pi, 24, periodic=True)))
    res = integrate_functional(m, grid, "volume")
    assert res.value == pytest.approx(4 * math.pi, rel=1e-10)
    assert res.error_estimate is not None and res.error_estimate < 1e-6
    assert res.n_points == 24 * 24


def test_one_node_grid_has_no_error_estimate(monkeypatch):
    # a one-node grid halves to itself, so a second pass would report 0.0
    import curvfun.quadrature as Q

    passes = []
    real = Q.integrate
    monkeypatch.setattr(Q, "integrate", lambda *a, **k: passes.append(a[1]) or real(*a, **k))
    grid = Grid((Axis(0, math.pi, 1), Axis(0, 2 * math.pi, 1, periodic=True)))
    assert grid.halved() == grid
    res = integrate_functional(sphere_metric(), grid)
    assert res.error_estimate is None
    assert passes == [grid]
    two = Grid((Axis(0, math.pi, 2), Axis(0, 2 * math.pi, 1, periodic=True)))
    assert integrate_functional(sphere_metric(), two).error_estimate is not None


def test_functional_density_rejects_unknown():
    with pytest.raises(ValueError):
        functional_density(sphere_metric(), "nope")
    with pytest.raises(ValueError):
        functional_density(sphere_metric(), "gamma_d", frame="sideways")(
            np.array([[1.0, 1.0]]), np.array([0])
        )


@pytest.mark.parametrize("functional, kwargs, message", [
    ("nope", {}, "unknown functional 'nope'"),
    ("gamma_d", {"frame": "sideways"}, "unknown frame strategy 'sideways'"),
    ("gamma_mc", {"frame": "haar"}, "gamma_mc draws its own Haar frames"),
    ("gamma_mc", {"nsamples": 1}, "gamma_mc needs at least 2 samples, got 1"),
])
def test_functional_density_argument_errors_are_config_errors(functional, kwargs, message):
    with pytest.raises(ConfigError, match=message) as err:
        functional_density(sphere_metric(), functional, **kwargs)
    # still a ValueError for callers that catch that, and a domain error
    assert isinstance(err.value, ValueError) and isinstance(err.value, CurvfunError)


def test_gamma_d_frame_choices_agree_for_isotropic_metric():
    """On the round sphere every orthonormal frame gives the same density."""
    m = sphere_metric()
    grid = Grid((Axis(0, math.pi, 12), Axis(0, 2 * math.pi, 12, periodic=True)))
    a = integrate_functional(m, grid, frame="coordinate", with_error_estimate=False)
    b = integrate_functional(m, grid, frame="haar", seed=3, with_error_estimate=False)
    rot = np.array([[math.cos(0.4), math.sin(0.4)], [-math.sin(0.4), math.cos(0.4)]])
    c = integrate_functional(m, grid, frame=rot, with_error_estimate=False)
    assert a.value == pytest.approx(2.0, abs=1e-9)
    assert b.value == pytest.approx(a.value, rel=1e-12)
    assert c.value == pytest.approx(a.value, rel=1e-12)


def test_gamma_mc_tracks_gamma_d_on_sphere():
    m = sphere_metric()
    grid = Grid((Axis(0, math.pi, 8), Axis(0, 2 * math.pi, 8, periodic=True)))
    mc = integrate_functional(
        m, grid, functional="gamma_mc", nsamples=16, seed=1, with_error_estimate=False
    )
    assert mc.value == pytest.approx(2.0, abs=1e-6)
    assert mc.stderr is not None


def zoo_grid(name, ns):
    """A zoo chart's metric and its default grid with the node counts ``ns``."""
    spec = manifold_by_name(name)
    axes = tuple(Axis(a.lo, a.hi, n, a.periodic) for a, n in zip(spec.default_grid.axes, ns))
    return spec.metric, Grid(axes)


def test_collapse_keeps_dependent_axes_and_cuts_the_rest_to_their_midpoint():
    grid = Grid((Axis(0, 1, 3), Axis(0, 2, 4, periodic=True), Axis(1, 4, 5)))
    collapsed = grid.collapse((0,))
    assert collapsed.axes[0] == grid.axes[0]
    assert [a.n for a in collapsed.axes] == [3, 1, 1]
    pts, w = collapsed.points_weights()
    assert np.all(pts[:, 1:] == [1.0, 2.5])
    assert math.fsum(w.tolist()) == pytest.approx(math.fsum(grid.points_weights()[1].tolist()))


@pytest.mark.parametrize("name, ns", [("s4", (5, 5, 5, 8)), ("rp2", (8, 9)),
                                      ("s2xs2", (5, 8, 5, 8))])
@pytest.mark.parametrize("functional, angle", [("gamma_d", None), ("gbc", None),
                                               ("hilbert", None), ("volume", None),
                                               ("gamma_d", 0.3)])
def test_collapsed_grid_integral_matches_the_full_grid(name, ns, functional, angle):
    metric, grid = zoo_grid(name, ns)
    assert grid.collapse(metric.depends_on).n_points < grid.n_points
    frame = "coordinate"
    if angle is not None:  # the last plane of s2xs2 mixes its two factors
        frame = rotate_frame(np.eye(metric.dim), 0, metric.dim - 1, angle)
    full, _ = integrate(functional_density(metric, functional, frame=frame), grid)
    res = integrate_functional(metric, grid, functional, frame=frame, with_error_estimate=False)
    assert res.value == pytest.approx(full, rel=1e-12)
    assert res.n_points == grid.n_points


@pytest.mark.parametrize("functional, frame, collapsed", [
    ("gamma_d", "coordinate", True),
    ("gamma_mc", "coordinate", False),
    ("gamma_d", "haar", False),
    ("volume", "haar", True),
    ("gbc", "haar", True),
    ("hilbert", "haar", True),
])
def test_per_node_haar_densities_integrate_the_requested_grid(monkeypatch, functional, frame,
                                                              collapsed):
    import curvfun.quadrature as Q

    passes = []
    real = Q.integrate
    monkeypatch.setattr(Q, "integrate", lambda *a, **k: passes.append(a[1]) or real(*a, **k))
    metric, grid = zoo_grid("s4", (3, 3, 3, 4))
    evaluated = grid.collapse(metric.depends_on) if collapsed else grid
    res = integrate_functional(metric, grid, functional, frame=frame, seed=2, nsamples=4)
    assert passes == [evaluated, evaluated.halved()]
    assert res.n_points == grid.n_points


@pytest.mark.parametrize("name, ns", [("s4", (5, 5, 5, 5)), ("rp2", (8, 9)),
                                      ("s2xs2", (9, 9, 9, 9)), ("e2xe2", (5, 5, 5, 5))])
def test_volume_reads_the_same_in_the_haar_frame(name, ns):
    # volume, gbc and hilbert read no frame: a Haar or rotated request is the coordinate run
    metric, grid = zoo_grid(name, ns)
    rot = rotate_frame(np.eye(metric.dim), 0, metric.dim - 1, 0.7)
    for functional in ("volume", "gbc", "hilbert"):
        coord = integrate_functional(metric, grid, functional)
        for frame in ("haar", rot):
            res = integrate_functional(metric, grid, functional, frame=frame, seed=3)
            assert (res.value, res.error_estimate) == (coord.value, coord.error_estimate), \
                (functional, frame)


def test_no_error_estimate_when_the_collapsed_grid_does_not_coarsen():
    metric, grid = zoo_grid("s4", (1, 1, 1, 16))
    assert grid.halved() != grid
    res = integrate_functional(metric, grid)
    assert res.error_estimate is None
    assert res.n_points == 16


@pytest.mark.parametrize("name, ns, axis", [
    ("taubes", (33, 33, 1, 1), 0),  # x1 is read by the warp
    ("s4", (9, 9, 9, 8), 3),  # x4 is collapsed
])
def test_shifting_a_periodic_origin_keeps_the_integral(name, ns, axis):
    metric, grid = zoo_grid(name, ns)
    a = grid.axes[axis]
    assert a.periodic
    shifted = list(grid.axes)
    shifted[axis] = Axis(a.lo + 0.37, a.hi + 0.37, a.n, periodic=True)
    base = integrate_functional(metric, grid, with_error_estimate=False).value
    moved = integrate_functional(metric, Grid(tuple(shifted)), with_error_estimate=False).value
    assert moved == pytest.approx(base, rel=1e-12)


def _product_points(name):
    """A product metric and 50 interior points of it; "s2xs2xs2" nests a product."""
    if name != "s2xs2xs2":
        spec = manifold_by_name(name)
        return spec.metric, spec.interior_points(50, seed=17)
    first, second = manifold_by_name("s2xs2"), manifold_by_name("s2")
    pts = np.hstack([first.interior_points(50, seed=17), second.interior_points(50, seed=18)])
    return MetricField.block_diagonal(first.metric, second.metric), pts


@pytest.mark.parametrize("name", [n for n in MANIFOLD_NAMES if manifold_by_name(n).dim % 2 == 0])
@pytest.mark.parametrize("functional", ["gbc", "hilbert"])
def test_chart_basis_density_matches_the_frame_route(name, functional):
    # the chart-basis sums against the same tensor contracted into the Gram-Schmidt frame
    spec = manifold_by_name(name)
    # a group chart reads no axis, so every point has the same tensor
    pts = spec.interior_points(50 if spec.metric.depends_on else 3, seed=5)
    vals, _ = functional_density(spec.metric, functional)(pts, np.arange(len(pts)))
    ref = block_density(spec.metric, functional, pts)
    assert np.max(np.abs(vals - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["s2xs2", "s3xs1", "e2xe2", "s2xs2xs2"])
@pytest.mark.parametrize("functional", ["gamma_d", "gbc", "hilbert", "volume"])
def test_product_density_matches_the_block_route(name, functional):
    metric, pts = _product_points(name)
    vals, stderrs = functional_density(metric, functional)(pts, np.arange(len(pts)))
    assert stderrs is None
    ref = block_density(metric, functional, pts)
    if name == "s3xs1" and functional in ("gamma_d", "gbc"):
        # every pairing of S^3 x S^1 has a plane that mixes the factors
        assert np.all(vals == 0.0)
        assert np.max(np.abs(ref)) < 1e-12
    else:
        assert vals == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("functional", ["gamma_d", "gbc"])
def test_an_odd_dimensional_product_is_rejected_not_zero(functional):
    # an odd factor inside an even product gives zero; an odd whole has no pairing at all
    circle = manifold_by_name("s3xs1").metric.factors[1]
    metric = MetricField.block_diagonal(manifold_by_name("s2").metric, circle)
    with pytest.raises(BadDimensionError):
        functional_density(metric, functional)(np.array([[1.0, 2.0, 3.0]]), np.arange(1))


def test_product_integral_contracts_only_its_factors_grids(monkeypatch):
    import curvfun.quadrature as Q

    spec = manifold_by_name("e2xe2")  # each factor reads both of its axes
    grid = Grid(tuple(Axis(a.lo, a.hi, 3, a.periodic) for a in spec.default_grid.axes))
    batches, grids = [], []
    real_sectional = Q.sectional_from_riemann

    def spy(riem, frames):
        batches.append(riem.shape)
        return real_sectional(riem, frames)

    monkeypatch.setattr(Q, "sectional_from_riemann", spy)
    real_integrate = Q.integrate
    monkeypatch.setattr(Q, "integrate", lambda *a, **k: grids.append(a[1]) or real_integrate(*a, **k))
    for functional in ("gamma_d", "gbc", "hilbert", "volume"):
        batches.clear()
        grids.clear()
        integrate_functional(spec.metric, grid, functional)
        # each factor's 3 x 3 grid, then its halved 2 x 2 grid; never the 81 product nodes
        want = [(9,) + (2,) * 4] * 2 + [(4,) + (2,) * 4] * 2 if functional == "gamma_d" else []
        assert batches == want, functional
        assert {g.n_points for g in grids} == {9, 4}, functional
    # a Haar frame mixes the factors' planes, so it contracts the assembled tensors
    batches.clear()
    integrate_functional(spec.metric, grid, "gamma_d", frame="haar", with_error_estimate=False)
    assert batches == [(81, 4, 4, 4, 4)]


def _product_grid(name, n):
    """A product metric and its grid with ``n`` nodes per axis; "s2xs2xs2" nests a product."""
    if name == "s2xs2xs2":
        first, second = manifold_by_name("s2xs2"), manifold_by_name("s2")
        metric = MetricField.block_diagonal(first.metric, second.metric)
        axes = first.default_grid.axes + second.default_grid.axes
    else:
        spec = manifold_by_name(name)
        metric, axes = spec.metric, spec.default_grid.axes
    return metric, Grid(tuple(Axis(a.lo, a.hi, n, a.periodic) for a in axes))


@pytest.mark.parametrize("name", ["s2xs2", "s3xs1", "e2xe2", "s2xs2xs2"])
@pytest.mark.parametrize("functional", ["gamma_d", "gbc", "hilbert", "volume"])
def test_product_integral_matches_the_per_node_integral(name, functional):
    metric, grid = _product_grid(name, 4)
    res = integrate_functional(metric, grid, functional)
    full, _ = integrate(functional_density(metric, functional), grid)
    if name == "s3xs1" and functional in ("gamma_d", "gbc"):
        # every pairing of S^3 x S^1 has a plane that mixes the factors
        assert (res.value, res.error_estimate) == (0.0, 0.0)
        assert abs(full) < 1e-12
    else:
        assert res.value == pytest.approx(full, rel=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_haar_frames_drawn_as_one_block_equal_node_by_node_draws(n):
    """One batched Gram-Schmidt and one matmul give each node the bits of its
    own draw, whether the nodes are drawn as one block or as two."""
    base = np.random.default_rng(n).standard_normal((7, n, n))
    nodes = np.arange(40, 47)
    for count in (1, 3):
        block = _haar_node_frames(base, nodes, 5, count)
        halves = np.concatenate([_haar_node_frames(base[:4], nodes[:4], 5, count),
                                 _haar_node_frames(base[4:], nodes[4:], 5, count)])
        for row, node in enumerate(nodes):
            expected = haar_orthogonal(n, point_rng(5, int(node)), count) @ base[row]
            assert np.array_equal(block[row], expected)
            assert np.array_equal(halves[row], expected)


def test_gamma_mc_values_do_not_depend_on_the_block_size(monkeypatch):
    """Ten rows drawn and contracted three at a time keep every bit of one block."""
    spec = manifold_by_name("taubes")
    pts, nodes = spec.interior_points(10, 4), np.arange(60, 70)
    density = functional_density(spec.metric, "gamma_mc", seed=3, nsamples=8)
    whole = density(pts, nodes)
    monkeypatch.setattr(quadrature, "HAAR_BLOCK_BYTES", 3 * 8 * 4 * 4 * 8)
    blocked = density(pts, nodes)
    assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))


def test_gamma_mc_names_the_node_whose_haar_draw_is_rank_deficient(monkeypatch):
    """All-zero normals have no Haar rotation; the failure names that node's point."""

    class Zeros:
        def standard_normal(self, shape, out):
            out[...] = 0.0

    real = quadrature.point_rng
    monkeypatch.setattr(quadrature, "point_rng",
                        lambda seed, node: Zeros() if node == 40 else real(seed, node))
    spec = manifold_by_name("taubes")
    grid = Grid(tuple(Axis(0, 2 * math.pi, 3, periodic=True) for _ in range(4)))
    with pytest.raises(ChartSingularityError, match="Gram-Schmidt") as info:
        integrate_functional(spec.metric, grid, "gamma_mc", nsamples=4, with_error_estimate=False)
    assert np.array_equal(info.value.point, grid.points_weights()[0][40])


def test_gamma_mc_chunk_memory_is_bounded():
    """A 4,096-row taubes chunk at 64 samples peaks where its curvature does,
    about 39 MB; drawn as one (4096, 64, 4, 4) stack, the frames, their
    normals and QR factors took it to 145 MB."""
    import tracemalloc

    spec = manifold_by_name("taubes")
    pts = spec.interior_points(4096, 1)
    density = functional_density(spec.metric, "gamma_mc", nsamples=64)
    tracemalloc.start()
    try:
        values, stderrs = density(pts, np.arange(4096))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(values)) and np.all(stderrs > 0)
    assert peak < 48 * 2**20


@pytest.mark.parametrize("n, rows", [(2, 16384), (4, 1024), (6, 202), (8, 64)])
def test_chunk_rows_keep_one_riemann_array_within_the_budget(n, rows):
    assert quadrature._chunk_rows(n) == rows
    assert rows >= 1 and rows * 8 * n**4 <= quadrature.CHUNK_BYTES


def test_dimension_8_integral_memory_is_bounded():
    """256 dimension-8 nodes are four 64-row chunks and peak near 9 MB; as one
    chunk, which a fixed 4,096-row chunk made them, they took 35 MB."""
    import tracemalloc

    n = 8
    # diagonal, each g_ii reading the next axis, so the chart is curved
    metric = MetricField.from_entries(
        n, lambda v: [[1 + 0.25 * sin(v[(i + 1) % n]) if i == j else 0.0 for j in range(n)]
                      for i in range(n)])
    grid = Grid((Axis(0.0, 1.0, 2),) * n)
    # warm the per-dimension caches, which are not part of the per-call peak
    integrate_functional(metric, Grid((Axis(0.0, 1.0, 1),) * n), "gamma_d")
    tracemalloc.start()
    try:
        value = integrate_functional(metric, grid, "gamma_d", with_error_estimate=False).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(value) and value != 0.0
    assert peak < 16 * 2**20


def test_large_grid_memory_is_bounded():
    """A constant density on 32^4 = 2^20 nodes peaks near 0.2 MB, one chunk's
    points and contributions; with a per-node contribution array and its fsum
    list it took 48 MB, and with every node's point and weight made up front
    112 MB."""
    import tracemalloc

    grid = Grid((Axis(0.0, 1.0, 32, periodic=True),) * 4)
    tracemalloc.start()
    try:
        value, _ = integrate(lambda p, idx: (np.ones(len(p)), None), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 1.0
    assert peak < 64 * 2**20


def _integrate_peak(grid, workers=1, stderr=False):
    """``integrate``'s value, stderr and ``tracemalloc`` peak for a constant
    density, with a constant stderr when ``stderr``."""
    import tracemalloc

    def density(p, idx):
        return np.ones(len(p)), (np.full(len(p), 0.5) if stderr else None)

    tracemalloc.start()
    try:
        value, err = integrate(density, grid, workers=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return value, err, peak


def _cube(n):
    return Grid((Axis(0.0, 1.0, n, periodic=True),) * 4)


def test_integral_memory_does_not_grow_with_the_grid():
    """2^16 and 2^20 nodes peak within 1 MB of each other: chunks hand their
    contributions to a streamed fsum, and no per-node array is kept (one took
    the peak from 3 MB to 48 MB)."""
    small, _, small_peak = _integrate_peak(_cube(16))
    large, _, large_peak = _integrate_peak(_cube(32))
    assert small == large == 1.0
    assert abs(large_peak - small_peak) < 2**20


def test_threaded_integral_memory_is_bounded():
    """Two workers on 2^20 nodes hold at most the chunks done but not yet
    summed, about 2 MB; a per-node contribution array took 48 MB."""
    value, _, peak = _integrate_peak(_cube(32), workers=2)
    assert value == 1.0
    assert peak < 8 * 2**20


def test_stderr_integral_memory_is_bounded():
    """With a stderr only its squares are kept, one array per chunk, about 8 MB
    at 2^20 nodes; per-node value and stderr arrays took 48 MB."""
    value, stderr, peak = _integrate_peak(_cube(32), stderr=True)
    assert value == 1.0
    assert stderr == pytest.approx(0.5 * 32.0**-2)  # 0.5 * sqrt(2^20 * (32^-4)^2)
    assert peak < 16 * 2**20


def test_threaded_failure_in_a_later_chunk_names_the_node(monkeypatch):
    """A node failing in the fourth of seven chunks, on two worker threads,
    raises through the streamed fsum naming that node."""
    monkeypatch.setattr(quadrature, "CHUNK_BYTES", 64 * 8 * 2**4)
    grid = Grid((Axis(0, math.pi, 21), Axis(0, 2 * math.pi, 20, periodic=True)))
    bad = 200  # rows 192..255 are the fourth chunk

    def density(p, idx):
        from curvfun.errors import NonFiniteError

        if bad in idx:
            raise NonFiniteError("synthetic failure")
        return np.ones(len(p)), None

    with pytest.raises(ChartSingularityError, match="synthetic failure") as info:
        integrate(density, grid, workers=2)
    assert np.array_equal(info.value.point, grid.points_weights()[0][bad])


@pytest.mark.parametrize("name, functional, seed", [
    ("s4", "gamma_d", 0),
    ("taubes", "gamma_mc", 1),
])
def test_integral_does_not_depend_on_the_chunk_budget(monkeypatch, name, functional, seed):
    """37-row chunks cut the grids at other nodes than the default's; every
    record field keeps its bits."""
    spec = manifold_by_name(name)

    def fields():
        res = integrate_functional(spec.metric, spec.default_grid, functional, seed=seed)
        return res.value, res.error_estimate, res.stderr

    whole = fields()
    monkeypatch.setattr(quadrature, "CHUNK_BYTES", 37 * 8 * 4**4)
    assert quadrature._chunk_rows(4) == 37
    assert fields() == whole

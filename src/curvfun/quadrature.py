"""Tensor-product quadrature of curvature densities over chart domains.

Grids are per-axis: periodic axes get the midpoint-offset trapezoid rule
(spectrally accurate for smooth periodic integrands, and the half-step
offset keeps nodes away from chart seams); non-periodic axes get
Gauss-Legendre nodes, which are interior, so open chart domains like
(0, pi) never get evaluated at their singular endpoints.

Chunks: :func:`integrate` evaluates the nodes in chunks of rows sized by
bytes, not by count: one (rows, n, n, n, n) Riemann array stays within
``CHUNK_BYTES``, so a chunk's memory is bounded whatever the dimension n
(16,384 rows at n = 2, 1,024 at n = 4, 202 at n = 6, 64 at n = 8).  The
row count depends on the grid's dimension alone, not on the worker count.

Determinism: each chunk returns its nodes' weighted contributions and one
``math.fsum`` reduces them as a stream, keeping no array or list of every
node.  fsum is exactly rounded whatever the order of its inputs, so the
result is byte-identical however the nodes were chunked and however many
worker threads ran the chunks.

Frames: only ``gamma_d`` reads one.  ``gbc`` and ``hilbert`` are O(n)
invariants summed from ``g`` and the chart-basis Riemann tensor, so, like
``volume``, they are integrated in the coordinate frame whatever is asked.

Independent axes: a density built from a metric is constant along every
axis outside ``metric.depends_on``, so :func:`integrate_functional`
evaluates it on the grid with each such axis collapsed to one node, its
midpoint, weighted by the axis length (the sum of its weights).  The
half-resolution estimate grid is collapsed the same way.  A compact group's
bi-invariant metric reads no axis, so it is integrated on one node weighted
by the box's volume, which the catalog sets to the group's volume.  Only the
densities that draw Haar frames per node (``gamma_mc``, and ``gamma_d`` in
the ``"haar"`` frame) keep the requested grid; their curvature is still
computed once per distinct row of the metric's ``depends_on`` columns in a
chunk (see :func:`curvfun.geometry.curvature_chunk`), and only the Haar
draws and the contraction run per node.  The result's ``n_points`` is still
the requested grid's, and a failing node's coordinate on a collapsed axis
reads that axis's midpoint.

Haar frames: every node draws its normals from its own ``point_rng(seed,
node)`` stream, and a batch of nodes is orthonormalized by one batched
Gram-Schmidt (:func:`curvfun.frames.haar_orthogonal`) and rotated onto the
base frames by one matmul.  ``gamma_mc`` draws and contracts a chunk in
blocks of rows whose (rows, samples, n, n) frame stack stays within
``HAAR_BLOCK_BYTES``, so its memory per chunk does not grow with the sample
count.  Each node's frames and value come from its own row,
so neither the block size, the chunk nor the worker count changes a bit.

Products: a product's grid is the tensor product of its factors' axes and
its coordinate frame is aligned with them, so there its integral on a grid,
or on the halved grid, is built from its factors' integrals on their own
sub-grids.  Only ``gamma_d`` in rotated and Haar frames and ``gamma_mc``
contract the assembled product chunk.

The error estimate is the difference against a re-run on a half-resolution
grid; Monte Carlo functionals additionally carry a propagated standard
error.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ChartSingularityError,
    ConfigError,
    NonFiniteError,
    RankDeficientError,
    SingularMetricError,
)
from .frames import haar_orthogonal, point_rng
from .functionals import _check_even, haar_pair_average, k_discrete, k_gbc
from .geometry import curvature_chunk, sectional_from_riemann

# Not called here: perfbench's tracer test wraps and restores
# ``quadrature.riemann_arrays``, so the name stays bound in this module.
from .geometry import riemann_arrays  # noqa: F401

__all__ = [
    "Axis",
    "Grid",
    "IntegralResult",
    "integrate",
    "functional_density",
    "integrate_functional",
    "FUNCTIONALS",
]

FUNCTIONALS = ("gamma_d", "gamma_mc", "gbc", "hilbert", "volume")

# The functionals that read every frame as the coordinate frame.
FRAME_FREE = ("gbc", "hilbert", "volume")

# Byte budget of one chunk's (rows, n, n, n, n) Riemann array (see _chunk_rows).
CHUNK_BYTES = 2**21

# Haar frame samples per node of ``gamma_mc`` unless the caller gives a count.
DEFAULT_SAMPLES = 64

# Byte budget of one block of ``gamma_mc`` Haar frames, (rows, samples, n, n)
# floats: a chunk is drawn and contracted a block at a time.
HAAR_BLOCK_BYTES = 2**20

# Ceilings on what a run may ask for, so that an oversized request is a
# configuration error before anything is allocated: Gauss-Legendre nodes per
# axis (leggauss's n x n companion matrix stays within 8 MiB), Monte Carlo
# samples per node, the nodes of an evaluated grid (after the collapse),
# worker threads (the pool starts one per queued chunk, up to this many), and
# a spec file's axes (gbc's Pfaffian takes about 0.1 s for one node at n = 12
# and 52 s at n = 16).
MAX_AXIS_NODES = 1024
MAX_SAMPLES = 65536
MAX_NODES = 2**22
MAX_WORKERS = 256
MAX_DIM = 12

# A density raising one of these fails at a node, which the integrator locates.
_NODE_FAILURES = (NonFiniteError, SingularMetricError, RankDeficientError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class Axis:
    """One coordinate axis of a tensor-product grid."""

    lo: float
    hi: float
    n: int
    periodic: bool = False

    def nodes_weights(self):
        if self.n < 1:
            raise ValueError("axis needs at least one node")
        if self.periodic:
            h = (self.hi - self.lo) / self.n
            x = self.lo + (np.arange(self.n) + 0.5) * h
            w = np.full(self.n, h)
            return x, w
        x, w = np.polynomial.legendre.leggauss(self.n)
        half = (self.hi - self.lo) / 2
        mid = (self.hi + self.lo) / 2
        return mid + half * x, half * w

    def halved(self):
        return Axis(self.lo, self.hi, max(1, (self.n + 1) // 2), self.periodic)


@dataclass(frozen=True)
class Grid:
    """Tensor product of axes, flattened in C order (last axis fastest)."""

    axes: tuple

    @property
    def dim(self):
        return len(self.axes)

    @property
    def n_points(self):
        n = 1
        for a in self.axes:
            n *= a.n
        return n

    def points_weights(self):
        """Every node's point and weight; see :func:`_grid_block`."""
        return _grid_block([a.nodes_weights() for a in self.axes], 0, self.n_points)

    def checked(self):
        """This grid, or ``ConfigError`` when it has more than ``MAX_NODES`` nodes."""
        if self.n_points > MAX_NODES:
            raise ConfigError('%d grid nodes to evaluate, more than the ceiling of %d '
                              '(lower --grid or the spec file\'s "n")' % (self.n_points, MAX_NODES))
        return self

    def halved(self):
        return Grid(tuple(a.halved() for a in self.axes))

    def collapse(self, depends_on):
        """This grid with every axis outside ``depends_on`` cut to one node.

        A one-node axis puts its node at the midpoint with weight ``hi - lo``,
        what its n weights sum to, so the rule integrates a function that is
        constant along that axis as the full axis does.
        """
        return Grid(tuple(a if k in depends_on else Axis(a.lo, a.hi, 1, a.periodic)
                          for k, a in enumerate(self.axes)))

    def describe(self):
        return [
            {"lo": a.lo, "hi": a.hi, "n": a.n, "periodic": a.periodic}
            for a in self.axes
        ]


def _grid_block(per_axis, start, stop):
    """Points and weights of the flat nodes ``start:stop`` of a tensor grid.

    ``per_axis`` holds each axis's ``nodes_weights()``.  Nodes are numbered
    in C order (last axis fastest), and a node's weight is the product of
    its axis weights taken in axis order, so a block is bit-equal to the
    same rows of the whole grid's arrays.
    """
    idx = np.unravel_index(np.arange(start, stop), [len(x) for x, _ in per_axis])
    pts = np.stack([x[i] for (x, _), i in zip(per_axis, idx)], axis=1)
    w = np.ones(stop - start)
    for (_, wa), i in zip(per_axis, idx):
        w = w * wa[i]
    return pts, w


@dataclass
class IntegralResult:
    """Value of an integral with its grid-refinement error estimate."""

    value: float
    error_estimate: Optional[float]
    n_points: int
    stderr: Optional[float] = None


def _evaluate(density, pts, idx):
    """Evaluate a density on a batch, raising NonFiniteError on NaN or infinity."""
    with np.errstate(all="ignore"):  # a non-finite result is raised below instead
        vals, stderrs = density(pts, idx)
    if not (np.all(np.isfinite(vals)) and (stderrs is None or np.all(np.isfinite(stderrs)))):
        raise NonFiniteError("density value is not finite")
    return vals, stderrs


def _node_failure(point, reason):
    """``ChartSingularityError`` naming the failing chart ``point`` and the ``reason``."""
    return ChartSingularityError("density evaluation failed at chart point %s: %s"
                                 % (point.tolist(), reason), point=point)


def _locate_failure(density, pts, idx, cause):
    """Re-run a failed chunk point by point to name the offending node."""
    for row in range(len(pts)):
        try:
            _evaluate(density, pts[row : row + 1], idx[row : row + 1])
        except _NODE_FAILURES as exc:
            raise _node_failure(pts[row].copy(), exc) from exc
    raise cause


def _chunk_rows(dim):
    """Rows per chunk of a ``dim``-dimensional grid: one (rows, n, n, n, n)
    float Riemann array within ``CHUNK_BYTES``, and at least one row."""
    return max(1, CHUNK_BYTES // (8 * dim**4))


def integrate(density, grid, workers=1):
    """Drive a density over a grid; returns (value, mc_stderr_or_None).

    ``density(points, node_indices)`` maps a batch of chart points (and
    their global node indices, for per-point RNG streams) to a pair
    ``(values, stderrs_or_None)``.  The nodes are evaluated in chunks of
    :func:`_chunk_rows` rows, a byte budget over the grid's dimension that
    does not depend on ``workers``.  Each chunk returns its weighted values
    and squared weighted stderrs, which ``math.fsum`` reduces as a stream;
    fsum is exactly rounded, so neither chunking nor worker count changes a
    bit.  A non-finite value or a node failure (singular or asymmetric
    metric, rank-deficient frame) raises ``ChartSingularityError`` naming the
    node.  Points, weights and values are built per chunk (:func:`_grid_block`),
    so no (nodes,) array is made.
    """
    per_axis = [a.nodes_weights() for a in grid.checked().axes]
    npts = grid.n_points
    squares = []  # each chunk's squared weighted stderrs, when the density has them

    def work(rng_):
        s, e = rng_
        pts, w = _grid_block(per_axis, s, e)
        idx = np.arange(s, e)
        try:
            vals, stderrs = _evaluate(density, pts, idx)
        except _NODE_FAILURES as exc:
            _locate_failure(density, pts, idx, exc)
        sq = None if stderrs is None else (np.asarray(stderrs, dtype=float) * w) ** 2
        return np.asarray(vals, dtype=float) * w, sq

    def contributions(results):
        for vals, sq in results:
            if sq is not None:
                squares.append(sq)
            yield from vals.tolist()

    chunk = _chunk_rows(grid.dim)
    ranges = [(s, min(s + chunk, npts)) for s in range(0, npts, chunk)]
    if workers <= 1:
        value = math.fsum(contributions(map(work, ranges)))
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            value = math.fsum(contributions(ex.map(work, ranges)))
    stderr = math.sqrt(math.fsum(x for sq in squares for x in sq.tolist())) if squares else None
    return value, stderr


def _haar_node_frames(base, node_idx, seed, count):
    """Haar rotations of each node's base frame, (P, count, n, n).

    Node ``node_idx[row]`` draws from its own ``point_rng(seed, node)``
    stream, so the frames do not depend on chunking or worker count; one
    batched Gram-Schmidt and one matmul serve the whole batch.
    """
    rngs = (point_rng(seed, int(ni)) for ni in node_idx)
    return haar_orthogonal(base.shape[1], rngs, count) @ base[:, None]


def _haar_pair_density(riem, base, node_idx, seed, nsamples):
    """``gamma_mc`` values and standard errors of a chunk, a block of rows at a time.

    A block's (rows, nsamples, n, n) frame stack stays within
    ``HAAR_BLOCK_BYTES``; each node's value comes from its own row, so it
    does not depend on the block size.
    """
    rows = max(1, HAAR_BLOCK_BYTES // (nsamples * base[0].nbytes))
    parts = [haar_pair_average(riem[s : s + rows],
                               _haar_node_frames(base[s : s + rows], node_idx[s : s + rows],
                                                 seed, nsamples))
             for s in range(0, len(base), rows)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _factored_integral(metric, functional, grid, workers):
    """Coordinate-frame integral over ``grid``; a product's from its factors' integrals.

    A product's grid is the tensor product of its factors' sub-grids and its
    coordinate frame is aligned with them, so no plane mixing them is curved:
    ``gamma_d`` and ``gbc`` multiply (every pairing, and every Pfaffian term,
    splits into one term of each factor), exactly 0.0 when a factor has odd
    dimension (every pairing then has a mixed plane); ``hilbert`` is
    H1 V2 + V1 H2.  A failing factor node is named with the other's first node.
    """
    if metric.factors is None:
        density = functional_density(metric, functional)
        return integrate(density, grid, workers=workers)[0]
    if functional in ("gamma_d", "gbc") and any(f.dim % 2 for f in metric.factors):
        return 0.0
    n1 = metric.factors[0].dim
    grids = (Grid(grid.axes[:n1]), Grid(grid.axes[n1:]))

    def part(k, name):
        try:
            return _factored_integral(metric.factors[k], name, grids[k], workers)
        except ChartSingularityError as exc:
            parts = [[a.nodes_weights()[0][0] for a in g.axes] for g in grids]
            parts[k] = exc.point
            raise _node_failure(np.concatenate(parts), exc.__cause__) from exc.__cause__

    if functional == "hilbert":
        return part(0, "hilbert") * part(1, "volume") + part(0, "volume") * part(1, "hilbert")
    return part(0, functional) * part(1, functional)


def functional_density(metric, functional, frame="coordinate", seed=0, nsamples=DEFAULT_SAMPLES):
    """Build the pointwise density (including the volume element) to integrate.

    Only ``gamma_d`` reads ``frame``: "coordinate" (metric Gram-Schmidt of
    the chart basis), "haar" (one Haar rotation per node, seeded by the node
    index), or an explicit (n, n) array of rotation coefficients applied on
    top of the Gram-Schmidt base frame; ``gbc`` and ``hilbert`` are summed
    in the chart basis.  ``gamma_mc`` averages ``nsamples`` Haar rotations
    of the Gram-Schmidt frame per node, so it takes only the "coordinate"
    frame and at least two samples.  Every density comes from
    :func:`curvature_chunk`.
    """
    if functional not in FUNCTIONALS:
        raise ConfigError("unknown functional %r" % (functional,))
    if isinstance(frame, str) and frame not in ("coordinate", "haar"):
        raise ConfigError("unknown frame strategy %r" % (frame,))
    if functional == "gamma_mc":
        if not (isinstance(frame, str) and frame == "coordinate"):
            raise ConfigError("gamma_mc draws its own Haar frames; use the coordinate frame")
        if nsamples < 2:
            raise ConfigError("gamma_mc needs at least 2 samples, got %d" % nsamples)
    if functional in ("gamma_d", "gamma_mc", "gbc"):
        _check_even(metric.dim)  # odd factors of a product give zero, an odd whole no pairing

    def density(pts, node_idx):
        g, riem, base = curvature_chunk(metric, pts)
        vol = np.sqrt(np.linalg.det(g))
        if functional == "volume":
            return vol, None
        if functional == "gbc":  # an orthonormal frame has det(F)^2 = 1 / det g
            return k_gbc(riem) / vol, None
        if functional == "hilbert":  # S = g^ac g^bd R_abcd
            ginv = np.linalg.inv(g)
            return np.einsum("pac,pbd,pabcd->p", ginv, ginv, riem) * vol, None
        if functional == "gamma_mc":
            vals, stderrs = _haar_pair_density(riem, base, node_idx, seed, nsamples)
            return vals * vol, stderrs * vol
        if isinstance(frame, str):
            frames = (base if frame == "coordinate"
                      else _haar_node_frames(base, node_idx, seed, 1)[:, 0])
        else:
            frames = np.einsum("ia,pab->pib", np.asarray(frame, dtype=float), base)
        return k_discrete(sectional_from_riemann(riem, frames)) * vol, None

    return density


def integrate_functional(
    metric,
    grid,
    functional="gamma_d",
    frame="coordinate",
    seed=0,
    nsamples=DEFAULT_SAMPLES,
    workers=1,
    with_error_estimate=True,
):
    """Integrate a curvature functional over a chart grid.

    The density is evaluated on ``grid`` with the axes outside
    ``metric.depends_on`` collapsed to one node each, unless it draws Haar
    frames per node (``gamma_mc``, ``gamma_d`` in the ``"haar"`` frame);
    ``volume``, ``gbc`` and ``hilbert`` read any ``frame`` as the coordinate
    frame, and a product's coordinate-frame integrals come from its factors'
    (:func:`_factored_integral`).  ``n_points`` is the requested grid's, and
    ``error_estimate`` the difference against the half-resolution grid, or
    ``None`` when not asked for or the evaluated grid does not coarsen.
    """
    density = functional_density(metric, functional, frame=frame, seed=seed, nsamples=nsamples)
    if functional in FRAME_FREE:
        frame = "coordinate"
    per_node = functional == "gamma_mc" or (isinstance(frame, str) and frame == "haar")
    evaluated = grid if per_node else grid.collapse(metric.depends_on)
    # a string frame that is not per node is the coordinate frame, aligned with the factors
    factored = metric.factors is not None and isinstance(frame, str) and not per_node

    def run(g):
        if factored:
            return _factored_integral(metric, functional, g, workers), None
        return integrate(density, g, workers=workers)

    value, stderr = run(evaluated)
    err = None
    coarse_grid = evaluated.halved() if with_error_estimate else evaluated
    if coarse_grid != evaluated:
        err = abs(value - run(coarse_grid)[0])
    return IntegralResult(value=value, error_estimate=err, n_points=grid.n_points, stderr=stderr)


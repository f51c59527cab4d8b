"""Tensor-product quadrature of curvature densities over chart domains.

Grids are per-axis: periodic axes get the midpoint-offset trapezoid rule
(spectrally accurate for smooth periodic integrands, and the half-step
offset keeps nodes away from chart seams); non-periodic axes get
Gauss-Legendre nodes, which are interior, so open chart domains like
(0, pi) never get evaluated at their singular endpoints.

Determinism: every node's contribution is written into a preallocated
slot indexed by the node's global index, and the final reduction is
``math.fsum`` over that array in index order.  fsum is exactly rounded,
so the result is byte-identical no matter how the nodes were chunked or
how many worker threads ran the chunks.

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

from .errors import ChartSingularityError, NonFiniteError, RankDeficientError, SingularMetricError
from .frames import haar_orthogonal, point_rng
from .functionals import haar_pair_average, k_discrete, k_gbc, scalar_curvature
from .geometry import checked_jets, curvature_chunk, riemann_in_frame, sectional_from_riemann

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
    "volume",
    "FUNCTIONALS",
]

FUNCTIONALS = ("gamma_d", "gamma_mc", "gbc", "hilbert", "volume")

DEFAULT_CHUNK = 4096

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
        per_axis = [a.nodes_weights() for a in self.axes]
        mesh = np.meshgrid(*[x for x, _ in per_axis], indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        wmesh = np.meshgrid(*[w for _, w in per_axis], indexing="ij")
        w = np.ones(len(pts))
        for wm in wmesh:
            w = w * wm.reshape(-1)
        return pts, w

    def halved(self):
        return Grid(tuple(a.halved() for a in self.axes))

    def describe(self):
        return [
            {"lo": a.lo, "hi": a.hi, "n": a.n, "periodic": a.periodic}
            for a in self.axes
        ]


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


def _locate_failure(density, pts, idx, cause):
    """Re-run a failed chunk point by point to name the offending node."""
    for row in range(len(pts)):
        try:
            _evaluate(density, pts[row : row + 1], idx[row : row + 1])
        except _NODE_FAILURES as exc:
            raise ChartSingularityError(
                "density evaluation failed at chart point %s: %s" % (pts[row].tolist(), exc),
                point=pts[row].copy(),
            ) from cause
    raise cause


def integrate(density, grid, workers=1, chunk=DEFAULT_CHUNK):
    """Drive a density over a grid; returns (value, mc_stderr_or_None).

    ``density(points, node_indices)`` maps a batch of chart points (and
    their global node indices, for per-point RNG streams) to a pair
    ``(values, stderrs_or_None)``.  The chunk size is fixed independently
    of ``workers`` so each node sees an identical evaluation context.
    A non-finite value or a node failure (singular or asymmetric metric,
    rank-deficient frame) raises ``ChartSingularityError`` naming the node.
    """
    pts, w = grid.points_weights()
    npts = len(pts)
    contrib = np.zeros(npts)
    erracc = np.zeros(npts)
    has_stderr = False

    def work(rng_):
        nonlocal has_stderr
        s, e = rng_
        idx = np.arange(s, e)
        try:
            vals, stderrs = _evaluate(density, pts[s:e], idx)
        except _NODE_FAILURES as exc:
            _locate_failure(density, pts[s:e], idx, exc)
        contrib[s:e] = np.asarray(vals, dtype=float) * w[s:e]
        if stderrs is not None:
            has_stderr = True
            erracc[s:e] = (np.asarray(stderrs, dtype=float) * w[s:e]) ** 2

    ranges = [(s, min(s + chunk, npts)) for s in range(0, npts, chunk)]
    if workers <= 1:
        for r in ranges:
            work(r)
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            for _ in ex.map(work, ranges):
                pass
    value = math.fsum(contrib.tolist())
    stderr = math.sqrt(math.fsum(erracc.tolist())) if has_stderr else None
    return value, stderr


def _haar_node_frames(base, node_idx, seed, count):
    """``count`` Haar rotations of each node's base frame, (P, count, n, n).

    Node ``node_idx[row]`` draws from its own ``point_rng(seed, node)``
    stream, so the frames do not depend on chunking or worker count.
    """
    npts, n = base.shape[0], base.shape[1]
    out = np.empty((npts, count, n, n))
    for row, ni in enumerate(node_idx):
        out[row] = haar_orthogonal(n, point_rng(seed, int(ni)), count) @ base[row]
    return out


def functional_density(metric, functional, frame="coordinate", seed=0, nsamples=64):
    """Build the pointwise density (including the volume element) to integrate.

    ``frame`` is "coordinate" (metric Gram-Schmidt of the chart basis),
    "haar" (one Haar rotation per node, seeded by the node index), or an
    explicit (n, n) frame-shaped array of rotation coefficients applied on
    top of the Gram-Schmidt base frame.  ``gamma_mc`` averages over
    ``nsamples`` Haar rotations of the Gram-Schmidt frame per node instead,
    so it accepts only the "coordinate" frame, and needs at least two
    samples for its standard error.
    """
    if functional not in FUNCTIONALS:
        raise ValueError("unknown functional %r" % (functional,))
    if isinstance(frame, str) and frame not in ("coordinate", "haar"):
        raise ValueError("unknown frame strategy %r" % (frame,))
    if functional == "gamma_mc":
        if not (isinstance(frame, str) and frame == "coordinate"):
            raise ValueError("gamma_mc draws its own Haar frames; use the coordinate frame")
        if nsamples < 2:
            raise ValueError("gamma_mc needs at least 2 samples, got %d" % nsamples)

    def density(pts, node_idx):
        if functional == "volume":
            return np.sqrt(np.linalg.det(checked_jets(metric, pts)[0])), None
        g, riem, base = curvature_chunk(metric, pts)
        vol = np.sqrt(np.linalg.det(g))
        if functional == "gamma_mc":
            sframes = _haar_node_frames(base, node_idx, seed, nsamples)
            vals, stderrs = haar_pair_average(riem, sframes)
            return vals * vol, stderrs * vol
        if isinstance(frame, str) and frame == "coordinate":
            frames = base
        elif isinstance(frame, str):
            frames = _haar_node_frames(base, node_idx, seed, 1)[:, 0]
        else:
            frames = np.einsum("ia,pab->pib", np.asarray(frame, dtype=float), base)
        if functional == "gamma_d":
            vals = k_discrete(sectional_from_riemann(riem, frames))
        elif functional == "gbc":
            vals = k_gbc(riemann_in_frame(riem, frames)).value
        else:
            vals = scalar_curvature(sectional_from_riemann(riem, frames))
        return vals * vol, None

    return density


def integrate_functional(
    metric,
    grid,
    functional="gamma_d",
    frame="coordinate",
    seed=0,
    nsamples=64,
    workers=1,
    chunk=DEFAULT_CHUNK,
    with_error_estimate=True,
):
    """Integrate a curvature functional over a chart grid.

    ``error_estimate`` is the difference against the half-resolution grid,
    or ``None`` when it was not asked for or the grid does not coarsen
    (every axis has one node).
    """
    density = functional_density(metric, functional, frame=frame, seed=seed, nsamples=nsamples)
    value, stderr = integrate(density, grid, workers=workers, chunk=chunk)
    err = None
    coarse_grid = grid.halved() if with_error_estimate else grid
    if coarse_grid != grid:
        coarse, _ = integrate(density, coarse_grid, workers=workers, chunk=chunk)
        err = abs(value - coarse)
    return IntegralResult(value=value, error_estimate=err, n_points=grid.n_points, stderr=stderr)


def volume(metric, grid, workers=1, chunk=DEFAULT_CHUNK, with_error_estimate=True):
    """Riemannian volume of the chart domain."""
    return integrate_functional(
        metric,
        grid,
        functional="volume",
        workers=workers,
        chunk=chunk,
        with_error_estimate=with_error_estimate,
    )

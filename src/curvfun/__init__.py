"""Curvature functionals for even-dimensional Riemannian manifolds.

The package computes the normalized sectional-curvature pairing densities
whose integrals generalize the Gauss-Bonnet total curvature: a discrete
perfect-matching form, a Monte Carlo Haar-frame form, and the signed
double-permutation (Gauss-Bonnet-Chern) form, plus exact discrete energy
identities on simplicial complexes.  Metrics can be given by closed-form
entries, induced from embeddings, assembled as products, or taken from
bi-invariant structures on compact Lie groups.
"""

import os

# One BLAS thread unless the caller chose a count.  Every BLAS/LAPACK call here
# is on stacks of n <= 8 matrices or per-point (S, n^2) @ (n^2, n^2) products,
# too small to split, and ``--workers`` is the package's only parallelism; an
# OpenBLAS pool would only spin at start-up.  Read when numpy first loads
# (through ``.frames`` below), so it has no effect if the host loaded it first.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import (
    BadDimensionError,
    ChartSingularityError,
    ConfigError,
    CurvfunError,
    NonFiniteError,
    NonOrthonormalFrameError,
    NotBiInvariantError,
    NotClosedError,
    NotLocallyInjectiveError,
    RankDeficientError,
    SingularCountingMatrixError,
    SingularMetricError,
)
from .frames import (
    gram_schmidt_frames,
    haar_orthogonal,
    point_rng,
    rotate_frame,
)
from .functionals import (
    gbc_raw_sum,
    k_discrete,
    k_gbc,
    matching_sum,
    normalization_constant,
    perfect_matchings,
    perm_sum,
    scalar_curvature,
)
from .geometry import (
    EmbeddingMap,
    MetricField,
    curvature_batch,
    riemann_arrays,
    sectional_from_riemann,
)
from .quadrature import (
    FUNCTIONALS,
    Axis,
    Grid,
    IntegralResult,
    integrate,
    integrate_functional,
)
from .zoo import MANIFOLD_NAMES, ManifoldSpec, manifold_by_name

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CurvfunError",
    "ConfigError",
    "NonFiniteError",
    "SingularMetricError",
    "RankDeficientError",
    "BadDimensionError",
    "NotClosedError",
    "NotBiInvariantError",
    "NonOrthonormalFrameError",
    "NotLocallyInjectiveError",
    "SingularCountingMatrixError",
    "ChartSingularityError",
    # geometry
    "MetricField",
    "EmbeddingMap",
    "riemann_arrays",
    "sectional_from_riemann",
    "curvature_batch",
    # frames
    "gram_schmidt_frames",
    "rotate_frame",
    "haar_orthogonal",
    "point_rng",
    # functionals
    "normalization_constant",
    "perfect_matchings",
    "matching_sum",
    "perm_sum",
    "k_discrete",
    "gbc_raw_sum",
    "k_gbc",
    "scalar_curvature",
    # quadrature
    "Axis",
    "Grid",
    "IntegralResult",
    "integrate",
    "integrate_functional",
    "FUNCTIONALS",
    # catalog
    "ManifoldSpec",
    "manifold_by_name",
    "MANIFOLD_NAMES",
]

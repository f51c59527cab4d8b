"""Curvature functionals for even-dimensional Riemannian manifolds.

The package computes the normalized sectional-curvature pairing densities
whose integrals generalize the Gauss-Bonnet total curvature: a discrete
perfect-matching form, a Monte Carlo Haar-frame form, and the signed
double-permutation (Gauss-Bonnet-Chern) form, plus exact discrete energy
identities on simplicial complexes.  Metrics can be given by closed-form
entries, induced from embeddings, assembled as products, or taken from
bi-invariant structures on compact Lie groups.
"""

from .errors import (
    BadDimensionError,
    ChartSingularityError,
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
    gram_schmidt_frame,
    gram_schmidt_frames,
    haar_orthogonal,
    point_rng,
    rotate_frame,
)
from .functionals import (
    GBCValue,
    HaarEstimate,
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
from .geometry import (
    EmbeddingMap,
    MetricField,
    curvature_batch,
    riemann_arrays,
    riemann_in_frame,
    sectional_from_riemann,
)
from .quadrature import (
    FUNCTIONALS,
    Axis,
    Grid,
    IntegralResult,
    integrate,
    integrate_functional,
    volume,
)
from .zoo import MANIFOLD_NAMES, ManifoldSpec, manifold_by_name

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CurvfunError",
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
    "riemann_in_frame",
    "sectional_from_riemann",
    "curvature_batch",
    # frames
    "gram_schmidt_frame",
    "gram_schmidt_frames",
    "rotate_frame",
    "haar_orthogonal",
    "point_rng",
    # functionals
    "normalization_constant",
    "perfect_matchings",
    "matching_sum",
    "perm_sum",
    "brute_force_perm_sum",
    "k_discrete",
    "gbc_raw_sum",
    "k_gbc",
    "GBCValue",
    "scalar_curvature",
    "haar_product_estimate",
    "HaarEstimate",
    # quadrature
    "Axis",
    "Grid",
    "IntegralResult",
    "integrate",
    "integrate_functional",
    "volume",
    "FUNCTIONALS",
    # catalog
    "ManifoldSpec",
    "manifold_by_name",
    "MANIFOLD_NAMES",
]

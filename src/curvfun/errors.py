"""Exception types shared across the package.

Every failure mode that callers are expected to distinguish gets its own
class; everything derives from :class:`CurvfunError` so ``except
CurvfunError`` catches any domain error while letting genuine bugs
(TypeError and friends) propagate.
"""


class CurvfunError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CurvfunError, ValueError):
    """A bad flag, name or argument; also a ``ValueError`` for older callers."""


class NonFiniteError(CurvfunError):
    """A value or derivative evaluated to NaN or infinity."""


class SingularMetricError(CurvfunError):
    """Metric value is not symmetric positive definite / not invertible."""


class RankDeficientError(CurvfunError):
    """Gram-Schmidt inputs are (numerically) dependent, or g is not positive definite."""


class BadDimensionError(CurvfunError):
    """Dimension is odd, too small, or otherwise unsupported."""


class NotClosedError(CurvfunError):
    """Commutators leave the span of the given Lie algebra basis."""


class NotBiInvariantError(CurvfunError):
    """Structure constants are not totally antisymmetric."""


class NonOrthonormalFrameError(CurvfunError):
    """A frame that must be orthonormal (or orthogonal) is not."""


class NotLocallyInjectiveError(CurvfunError):
    """A vertex function repeats a value on the neighborhood of a vertex."""


class SingularCountingMatrixError(CurvfunError):
    """Counting matrix is singular (some energy value h(x) is zero)."""


class ChartSingularityError(CurvfunError):
    """A quadrature node hit a degenerate point of the chart.

    Carries the offending chart coordinates in ``point`` when known.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point

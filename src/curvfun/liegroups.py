"""Bi-invariant curvature of compact Lie groups from structure constants.

Given an orthonormal basis e_1..e_n of a Lie algebra with a bi-invariant
inner product, the structure constants alpha[i, j, k] = <[e_i, e_j], e_k>
are totally antisymmetric and the curvature tensor in that basis is
R_ijkl = sum_m alpha[i, j, m] alpha[k, l, m] / 4, the same at every point
of the group; the sectional curvature of the (e_i, e_j) plane is
K_ij = |[e_i, e_j]|^2 / 4 = sum_k alpha[i, j, k]^2 / 4.

:func:`biinvariant_metric` hands g = I and that tensor to the chart
pipeline through ``MetricField.constant``, the constructor of flat tori
too, so it reads no chart axis; the catalog (:mod:`curvfun.zoo`)
integrates it over a one-node chart weighted by ``VOLUMES``: so4's Haar
volume, and su3's paper convention pi^5.

Built-ins:

* ``su3()``  -- su(3) in the Gell-Mann basis e_a = i lambda_a / 2,
  orthonormal under <A, B> = -2 Re tr(AB).
* ``so4()``  -- so(4) in the product-aligned basis splitting it into two
  commuting so(3) factors, orthonormal under <X, Y> = -tr(XY).

Each built-in starts from pairwise orthogonal integer matrices, positive
multiples of its basis; su(3) is realified, a complex M becoming the real
[[Re M, -Im M], [Im M, Re M]], so -2 Re tr(AB) is -tr(XY) of the blocks.
Integer brackets give each alpha_ijk^2 as a rational, so the sectional
matrix is exact even where alpha itself involves sqrt(3).

The inner-product normalizations are chosen so the published sectional
values (entries 0, 1/16, 3/16, 1/4 for su(3); 1/4-blocks for so(4)) come
out exactly; each built-in records its scaling relative to the negative
Killing form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import NonOrthonormalFrameError, NotBiInvariantError, NotClosedError
from .geometry import MetricField

__all__ = [
    "LieAlgebra",
    "biinvariant_metric",
    "su3",
    "so4",
    "VOLUMES",
]

TOL = 1e-10

# Weights of the built-in groups' one-node charts.  SO(4): its Haar volume,
# 16 pi^4 under -tr(XY)/2 (vol S^3 vol SO(3)), times 2^3 under -tr(XY); also
# Spin(4) = S^3(2) x S^3(2) has volume (16 pi^2)^2 = 2x.  SU(3): the paper's
# pi^5, not its volume under -2 Re tr, which is 2^4 times Macdonald's
# 16 sqrt(3) pi^5 under -tr(XY).  WEIGHTS says so in each record's notes.
VOLUMES = {"su3": math.pi**5, "so4": 128 * math.pi**4}
WEIGHTS = {"su3": "the paper's pi^5 (axis 1's length), not by the metric's volume "
           "256 sqrt(3) pi^5 ~ 135,690.66", "so4": "the group volume (axis 1's length)"}


@dataclass
class LieAlgebra:
    """Structure constants of a metric Lie algebra in an orthonormal basis.

    ``alpha[i, j, k] = <[e_i, e_j], e_k>``.  ``k_exact`` holds the exact
    rational sectional matrix when the built-in construction provides one.
    """

    name: str
    alpha: np.ndarray
    k_exact: np.ndarray = field(default=None, repr=False)
    metric_note: str = ""

    @property
    def dim(self):
        return self.alpha.shape[0]

    def jacobi_residual(self):
        a = self.alpha
        r = (
            np.einsum("ijm,mkl->ijkl", a, a)
            + np.einsum("jkm,mil->ijkl", a, a)
            + np.einsum("kim,mjl->ijkl", a, a)
        )
        return float(np.max(np.abs(r)))


def _brackets(basis):
    """Gram matrix, bracket coefficients and closure residual of a matrix basis.

    Under the inner product -tr(XY), ``c[i, j, k] = -tr([b_i, b_j] b_k)``.
    ``resid[i, j]`` is the largest entry of [b_i, b_j] minus its projection
    sum_k c[i, j, k] b_k / gram[k, k] onto the span, which assumes the b_k
    pairwise orthogonal (a zero b_k makes it NaN).
    """
    gram = np.array([[-np.trace(a @ b) for b in basis] for a in basis])
    brackets = np.array([[a @ b - b @ a for b in basis] for a in basis])
    c = np.array([[[-np.trace(br @ e) for e in basis] for br in row] for row in brackets])
    with np.errstate(divide="ignore", invalid="ignore"):
        proj = np.einsum("ijk,kab->ijab", c / np.diag(gram), np.asarray(basis))
    resid = np.max(np.abs(brackets - proj), axis=(2, 3))
    return gram, c, resid


def biinvariant_metric(algebra):
    """The bi-invariant metric of ``algebra`` as a constant :class:`MetricField`.

    Its ``jets`` are g = I and R_ijkl = sum_m alpha_ijm alpha_klm / 4 at
    every point, and it reads no chart axis.  Raises
    :class:`NotBiInvariantError` unless alpha is totally antisymmetric.
    """
    alpha = algebra.alpha
    if np.max(np.abs(alpha + np.swapaxes(alpha, 1, 2))) > TOL:
        raise NotBiInvariantError(
            "structure constants are not totally antisymmetric; metric is not bi-invariant"
        )
    riem = np.einsum("ijm,klm->ijkl", alpha, alpha) / 4.0
    return MetricField.constant(np.eye(algebra.dim), riem)


# -- built-ins ----------------------------------------------------------------


def _exact_algebra(name, mats, scale, note):
    """A built-in from integer matrices b_i that are pairwise orthogonal.

    The inner product is ``-tr(XY) / scale``.  With c and the squared norms
    N_i taken under -tr(XY), alpha_ijk^2 = scale c_ijk^2 / (N_i N_j N_k)
    exactly, and alpha_ijk has the sign of c_ijk.
    """
    gram, c, resid = _brackets(mats)
    norms = np.diag(gram)
    if np.any(gram != np.diag(norms)) or np.any(norms <= 0):
        raise NonOrthonormalFrameError("%s basis is not pairwise orthogonal" % name)
    if np.max(resid) > TOL:
        raise NotClosedError("%s basis is not closed under commutators" % name)
    num = scale * c.astype(object) ** 2
    den = np.einsum("i,j,k->ijk", norms, norms, norms).astype(object)
    alpha2 = np.vectorize(Fraction, otypes=[object])(num, den)
    return LieAlgebra(
        name=name,
        alpha=np.sign(c) * np.sqrt(alpha2.astype(float)),
        k_exact=alpha2.sum(axis=2) / 4,
        metric_note=note,
    )


def _rotation(i, j, n):
    """The integer generator E_ij - E_ji of so(n), 1-based."""
    m = np.zeros((n, n), dtype=np.int64)
    m[i - 1, j - 1], m[j - 1, i - 1] = 1, -1
    return m


@lru_cache(maxsize=None)
def so4():
    """so(4) in the basis aligned with its so(3) x so(3) splitting.

    A_i span one commuting so(3) factor and B_i the other; mixed brackets
    vanish, so mixed-plane sectional curvature is identically zero.
    Orthonormal under <X, Y> = -tr(XY) (which is -Killing/2 for so(4)).
    The integer matrices passed on are 2 A_i and 2 B_i.
    """

    def L(i, j):
        return _rotation(i, j, 4)

    mats = [
        -(L(1, 4) + L(2, 3)),
        L(1, 3) - L(2, 4),
        -(L(1, 2) + L(3, 4)),
        L(1, 4) - L(2, 3),
        L(1, 3) + L(2, 4),
        L(3, 4) - L(1, 2),
    ]
    return _exact_algebra("so4", mats, 1, "inner product -tr(XY) = -Killing/2 for so(4)")


def _realify(m):
    """The real 2n x 2n matrix of a complex n x n one, as integers."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]]).astype(np.int64)


@lru_cache(maxsize=None)
def su3():
    """su(3) in the basis e_a = i lambda_a / 2 (Gell-Mann matrices).

    Orthonormal under <A, B> = -2 Re tr(AB); this is 2/3 of -Killing/2
    (the Killing form of su(3) is 6 tr(XY) on anti-Hermitian matrices).
    Structure constants live in {0, +-1, +-1/2, +-sqrt(3)/2}.  The integer
    matrices passed on are the realified i lambda_a, with lambda_8 scaled by
    sqrt(3) to diag(1, 1, -2); the exact sectional matrix is rational.
    """
    lam = [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, -2]],
    ]
    return _exact_algebra(
        "su3",
        [_realify(1j * np.array(m)) for m in lam],
        1,
        "inner product -2 Re tr(AB) = (2/3) * (-Killing/2) for su(3)",
    )

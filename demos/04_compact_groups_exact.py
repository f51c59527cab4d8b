"""Exact curvature pairing sums for bi-invariant metrics on compact groups.

For a bi-invariant metric, sectional curvatures of orthonormal-basis planes
are K_ij = (1/4) sum_k alpha_ijk^2 in terms of the structure constants, so
every pairing sum is a finite rational computation.  The same groups are
catalog charts: one node, integrated by the pipeline every other manifold
goes through.  SO(4)'s node is weighted by its volume 128 pi^4, SU(3)'s by
the paper's pi^5, not by the volume 256 sqrt(3) pi^5 of the metric su3()
builds.
"""

import math

import numpy as np

from curvfun.frames import haar_orthogonal
from curvfun.functionals import matching_sum, normalization_constant, perm_sum
from curvfun.liegroups import so4, su3
from curvfun.quadrature import integrate_functional
from curvfun.zoo import manifold_by_name

table = su3().k_exact
print("su(3), orthonormal basis for -2 Re tr(XY):")
print("exact sectional curvature table:")
width = max(len(str(v)) for row in table for v in row)
for row in table:
    print("   ", "  ".join(str(v).rjust(width) for v in row))

msum, psum = matching_sum(table[None])[0], perm_sum(table[None])[0]
print("\nmatching sum    =", msum, " (over the 105 perfect matchings of 8 indices)")
print("permutation sum =", psum, "   (free sum over all 8! index orderings)")
assert psum == msum * 2**4 * math.factorial(4)

spec = manifold_by_name("su3")  # one node on [0, pi^5] x [0, 1]^7: the paper's weight


def gamma(functional="gamma_d", **kwargs):
    return integrate_functional(spec.metric, spec.default_grid, functional, **kwargs)


g = gamma().value
print("\nsu(3)'s node is weighted by the paper's pi^5; under -2 Re tr the metric")
print("su3() builds gives SU(3) the volume 256 sqrt(3) pi^5 ~ %.2f (Macdonald)"
      % (256 * math.sqrt(3) * math.pi**5))
print("gamma(SU(3)) = pi^5 * C_4 * permutation sum")
print("             = pi^5 * %s * %s = 117 pi / 2^17 ~ %.16f"
      % (normalization_constant(4), psum, g))
assert abs(g - 117 * math.pi / 2**17) < 1e-15

mc = gamma("gamma_mc", nsamples=4096)
print("frame average over 4,096 Haar frames: %.7f +- %.7f" % (mc.value, mc.stderr))
print("gbc (chi(SU(3)) = 0): %.3g   scalar curvature * pi^5: %.6f = 6 pi^5"
      % (gamma("gbc").value, gamma("hilbert").value))

msum4 = matching_sum(so4().k_exact[None])[0]
print("\nso(4): matching sum =", msum4)
print("so(4) = su(2) + su(2); every perfect matching of 6 indices pairs at")
print("least one generator from each commuting factor (K = 0), so the density")
print("-- and hence gamma -- vanishes identically, whatever the volume is.")

# The pairing density is a basis-dependent quantity, even on a group: an
# explicit frame rotates the orthonormal basis before the contraction.
rotated = gamma(frame=haar_orthogonal(8, np.random.default_rng(7))).value
print("\nsu(3) after one random orthogonal change of basis:")
print("  gamma_d drifts from %.8f to %.8f" % (g, rotated))

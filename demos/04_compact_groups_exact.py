"""Exact curvature pairing sums for bi-invariant metrics on compact groups.

For a bi-invariant metric, sectional curvatures of orthonormal-basis planes
are K_ij = (1/4) sum_k alpha_ijk^2 in terms of the structure constants, so
every pairing sum is a finite rational computation -- no quadrature, and no
floats until the very end.
"""

import math

import numpy as np

from curvfun.frames import haar_orthogonal
from curvfun.functionals import matching_sum, normalization_constant, perm_sum
from curvfun.liegroups import biinvariant_sectional, gamma_d_group, rotate_algebra, so4, su3

alg = su3()
table = alg.k_exact
print("su(3), orthonormal basis for -2 Re tr(XY):")
print("exact sectional curvature table:")
width = max(len(str(v)) for row in table for v in row)
for row in table:
    print("   ", "  ".join(str(v).rjust(width) for v in row))

msum, psum = matching_sum(table[None])[0], perm_sum(table[None])[0]
print("\nmatching sum    =", msum, " (over the 105 perfect matchings of 8 indices)")
print("permutation sum =", psum, "   (free sum over all 8! index orderings)")
assert psum == msum * 2**4 * math.factorial(4)

volume = math.pi**5  # Haar volume of SU(3) in this normalization
gamma = gamma_d_group(alg, volume)
print("\ngamma(SU(3)) = volume * C_4 * permutation sum")
print("             = pi^5 * %s * %s = 117 pi / 2^17 ~ %.16f"
      % (normalization_constant(4), psum, gamma))
assert abs(gamma - 117 * math.pi / 2**17) < 1e-15

alg4 = so4()
msum4 = matching_sum(alg4.k_exact[None])[0]
print("\nso(4): matching sum =", msum4)
print("so(4) = su(2) + su(2); every perfect matching of 6 indices pairs at")
print("least one generator from each commuting factor (K = 0), so the density")
print("-- and hence gamma -- vanishes identically, whatever the volume is.")

# Rotating the basis keeps the algebra closed but the pairing density is a
# basis-dependent quantity, even on a group.
rotated = rotate_algebra(su3(), haar_orthogonal(8, np.random.default_rng(7)))
drift = matching_sum(biinvariant_sectional(rotated)[None])[0]
print("\nsu(3) after one random orthogonal change of basis:")
print("  matching sum drifts from %s = %.8f to %.8f"
      % (msum, float(msum), float(drift)))

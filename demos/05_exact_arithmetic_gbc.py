"""Running the whole curvature pipeline in exact rational arithmetic.

Metric jets, Riemann tensors, and the signed double-permutation sum all go
through numpy einsum, which works as happily on object arrays of Fractions
as on float64.  On a polynomial metric at a rational point this turns the
Gauss-Bonnet-Chern integrand into a single exact rational number -- the
classical 6-dimensional value that is awkward to trust through floats.
"""

import math
from fractions import Fraction

import numpy as np

from curvfun.functionals import gbc_raw_sum, k_discrete, k_gbc
from curvfun.geometry import sectional_from_riemann
from curvfun.rationals import exact_det
from curvfun.zoo import klembeck_patch

kb = klembeck_patch()
print(kb.notes, "\n")

origin = np.full((1, 6), Fraction(0), dtype=object)
g, riem = kb.metric.jets(origin)  # the metric and its chart-basis Riemann tensor

# g = I at the origin, so the chart basis is an orthonormal frame there
frame = np.full((1, 6, 6), Fraction(0), dtype=object)
for i in range(6):
    frame[0, i, i] = Fraction(1)
assert (g == frame).all()

raw = gbc_raw_sum(riem)[0]
print("signed double-permutation sum at the origin:", raw)
print("mean term raw/(6!)^2 = -9216/518400 =        ", raw / math.factorial(6) ** 2)
assert raw / math.factorial(6) ** 2 == Fraction(-9216, 518400)
# the chart-basis density, as the integrator reads it: k_gbc(riem) / sqrt(det g)
gbc = k_gbc(riem)[0] / math.sqrt(exact_det(g[0].tolist()))
print("GBC density (the sum, normalized, as a float):", gbc)

k = sectional_from_riemann(riem, frame)
vals = sorted({k[0, i, j] for i in range(6) for j in range(6) if i != j})
print("distinct off-diagonal sectional curvatures: ", vals)
print("(two orthogonal 3-planes of curvature 3, flat across them)")

print("\nmatching density at the same point:", k_discrete(k)[0])
print("The pairing functional is blind to this metric at the origin even")
print("though the signed sum is not: every perfect matching must pair the")
print("two flat blocks somewhere, but signed permutations need not.")

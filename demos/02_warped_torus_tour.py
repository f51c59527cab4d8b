"""Warped product metrics on the four-torus.

The metric diag(1, 1, e^{2u}, e^{-2u}) with u a function of the first two
angles is flat in most planes: the only sectional curvature that survives is
the one mixing the two warped directions.  That single curvature is enough to
make gamma nonzero even though chi(T^4) = 0 -- the matching density and the
Gauss-Bonnet-Chern density genuinely disagree here, which is the whole point
of keeping both functionals around.
"""

import math

import numpy as np

from curvfun import curvature_batch, integrate_functional, k_discrete, k_gbc
from curvfun.geometry import riemann_in_frame
from curvfun.zoo import taubes_torus

for label, u in (("cos t + cos s", "cos(x1) + cos(x2)"),
                 ("cos(t + s)", "cos(x1 + x2)")):
    spec = taubes_torus(u)
    point = np.array([[0.9, 0.4, 0.0, 0.0]])
    kmat, riem, frames, g = curvature_batch(spec.metric, point)

    print("u =", label)
    print("  sectional curvature matrix at (0.9, 0.4, 0, 0):")
    print(np.array_str(kmat[0], precision=6, suppress_small=True))
    print("  k_d   = % .6e" % k_discrete(kmat)[0])
    print("  k_gbc = % .6e" % k_gbc(riemann_in_frame(riem, frames))[0])

    gd = integrate_functional(spec.metric, spec.default_grid, functional="gamma_d")
    gb = integrate_functional(spec.metric, spec.default_grid, functional="gbc")
    print("  gamma_d   = % .12f" % gd.value)
    print("  gbc total = % .2e   (chi(T^4) = 0, so this one must vanish)" % gb.value)
    print()

# The two warps have gamma 2 pi^2 and -pi^2: the sign of the total flips with
# the correlation between the warped directions, and the ratio is exactly -2.
a = integrate_functional(taubes_torus("cos(x1) + cos(x2)").metric,
                         taubes_torus("cos(x1) + cos(x2)").default_grid).value
b = integrate_functional(taubes_torus("cos(x1 + x2)").metric,
                         taubes_torus("cos(x1 + x2)").default_grid).value
print("gamma ratio (cos+cos)/(cos(t+s)) = %.9f   2 pi^2 = %.6f, -pi^2 = %.6f"
      % (a / b, 2 * math.pi**2, -math.pi**2))

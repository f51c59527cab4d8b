"""Total normalized curvature of round spheres and ellipsoids.

The headline identity: integrating the matching-pairing curvature density
k_d = (sum over perfect matchings of products of sectional curvatures) / (2 pi)^d
over a closed even-dimensional manifold returns its Euler characteristic.
Spheres make the cleanest demonstration because chi(S^2d) = 2 and every
quantity has a closed form to compare against.
"""

import math

import numpy as np

from curvfun import curvature_batch, integrate_functional, k_discrete
from curvfun.zoo import ellipsoid_of_revolution, round_sphere, two_ellipsoid

for dim in (2, 4):
    spec = round_sphere(dim)
    res = integrate_functional(spec.metric, spec.default_grid)
    print("gamma(S^%d) = %.12f   (chi = 2, grid error estimate %.1e)"
          % (dim, res.value, res.error_estimate))

s4 = round_sphere(4)
vol = integrate_functional(s4.metric, s4.default_grid, functional="volume").value
print("\n|S^4| = %.12f   vs 8 pi^2/3 = %.12f" % (vol, 8 * math.pi**2 / 3))

# The total scalar curvature comes from the same machinery (sum of ordered
# sectional pairs); on the unit S^4 the scalar curvature is 12 everywhere.
hil = integrate_functional(s4.metric, s4.default_grid, functional="hilbert")
print("total scalar curvature of S^4 = %.9f   vs 12 |S^4| = %.9f"
      % (hil.value, 12 * vol))

pts = s4.interior_points(3, seed=1)
k, _, _, _ = curvature_batch(s4.metric, pts)
print("pointwise k_d on S^4:", k_discrete(k), " = 3/(4 pi^2) =", 3 / (4 * math.pi**2))

# Squashing the sphere moves curvature around but cannot change the total.
print("\nellipsoids of revolution (one stretched axis a):")
for a in (0.5, 1.0, 2.0):
    spec = ellipsoid_of_revolution(a)
    res = integrate_functional(spec.metric, spec.default_grid)
    print("  a = %.1f   gamma = %.9f" % (a, res.value))

# The classical d = 1 case against the Gauss curvature of a triaxial ellipsoid.
e2 = two_ellipsoid(1.0, 2.0, 3.0)
res = integrate_functional(e2.metric, e2.default_grid)
print("\ngamma(E(1,2,3)) = %.10f  (Gauss-Bonnet: chi(S^2) = 2)" % res.value)
pts = e2.interior_points(4, seed=2)
k, _, _, _ = curvature_batch(e2.metric, pts)
gauss = e2.oracles["k_d"](pts) * 2 * math.pi
print("spot Gauss curvatures along the chart:", np.round(k[:, 0, 1], 6))
print("closed-form oracle:                   ", np.round(gauss, 6))

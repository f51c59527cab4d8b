"""The pairing density depends on the frame; the totals mostly don't care.

k_d is built from sectional curvatures of coordinate-aligned planes, so
rotating the frame changes the pointwise density.  Two experiments:

1. On S^2 x S^2, rotate the frame inside the (t_1, t_3) plane, mixing the two
   factors.  The total drops from 4 (= chi) through 3 to 2 at 45 degrees and
   climbs back -- a clean, symmetric fingerprint of frame dependence.

2. At one point of a warped torus, compare the coordinate-frame density with
   the Haar-averaged one; they differ by hundreds of standard errors.
"""

import numpy as np

from curvfun import curvature_batch, integrate_functional, k_discrete
from curvfun.frames import haar_orthogonal, point_rng, rotate_frame
from curvfun.functionals import haar_pair_average
from curvfun.zoo import s2xs2, taubes_torus

spec = s2xs2()
angles = np.linspace(0.0, np.pi / 2, 9)
print("S^2 x S^2, frame rotated by theta in the (1,3) plane:")
for theta in angles:
    frame = rotate_frame(np.eye(4), 0, 2, theta)
    res = integrate_functional(spec.metric, spec.default_grid, frame=frame,
                               with_error_estimate=False)
    bar = "#" * int(round(res.value * 10))
    print("  theta = %5.2f   gamma = %8.4f  %s" % (theta, res.value, bar))

print("\n(chi(S^2 x S^2) = 4 is recovered only for factor-aligned frames.)")

spec = taubes_torus("cos(x1) + cos(x2)")
point = np.array([[0.9, 0.4, 0.0, 0.0]])
k, riem, frames, _ = curvature_batch(spec.metric, point)
coord = k_discrete(k)[0]
# 4000 Haar rotations of the point's coordinate frame, averaged as a batch of one
draws = haar_orthogonal(4, point_rng(123, 0), 4000) @ frames[0]
values, stderrs = haar_pair_average(riem, draws[None])
value, stderr = values[0], stderrs[0]
print("\nwarped torus at (0.9, 0.4, 0, 0):")
print("  coordinate-frame k_d : % .6e" % coord)
print("  Haar-averaged k_d    : % .6e +/- %.1e" % (value, stderr))
print("  separation           : %.0f standard errors" % (abs(value - coord) / stderr))

# On an isotropic space no frame is special, so the Monte Carlo functional
# (Haar-averaged density at every node) reproduces the coordinate answer
# with essentially zero variance.
from curvfun.zoo import round_sphere

s2 = round_sphere(2)
res = integrate_functional(s2.metric, s2.default_grid, functional="gamma_mc",
                           nsamples=32, seed=5)
print("\ngamma_mc(S^2) = %.9f +/- %.1e   (isotropy: zero-variance estimator)"
      % (res.value, res.stderr))

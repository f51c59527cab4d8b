"""Independent reference implementations used only by the tests.

Each oracle computes a quantity the package also computes, by a separate
route: central finite differences instead of hyper-dual jets, the literal
double-permutation sum instead of its matching reduction, and a direct
Gram-matrix check of a frame.
"""

import itertools

import numpy as np

from curvfun.errors import NonOrthonormalFrameError
from curvfun.functionals import _word_sign


def finite_difference_jet(f, x, h=1e-5):
    """Central finite-difference (value, gradient, Hessian) of ``f`` at ``x``.

    ``f`` maps a plain coordinate vector to a float.  Used as an oracle
    against the hyper-dual path; shares no code with it.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    value = f(x)
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2 * h)
        hess[i, i] = (f(x + e) - 2 * value + f(x - e)) / h**2
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            hess[i, j] = hess[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4 * h**2)
    return value, grad, hess


def christoffel_fd(metric, x, h=1e-5):
    """Finite-difference Christoffel symbols; independent oracle path."""
    x = np.asarray(x, dtype=float)
    n = metric.dim

    def gval(y):
        return metric.jets(y[None])[0][0].astype(float)

    g = gval(x)
    dg = np.zeros((n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        dg[:, :, k] = (gval(x + e) - gval(x - e)) / (2 * h)
    ginv = np.linalg.inv(g)
    gamma = np.zeros((n, n, n))
    for kk in range(n):
        for i in range(n):
            for j in range(n):
                s = 0.0
                for l in range(n):
                    s += ginv[kk, l] * (dg[j, l, i] + dg[i, l, j] - dg[i, j, l])
                gamma[kk, i, j] = s / 2
    return gamma


def brute_force_gbc_raw_sum(riem_frame):
    """Literal signed sum over all ((2d)!)^2 permutation pairs; reference."""
    r = np.asarray(riem_frame)
    single = r.ndim == 4
    if single:
        r = r[None]
    n = r.shape[1]
    d = n // 2
    perms = [(s, _word_sign(s)) for s in itertools.permutations(range(n))]
    total = np.array([0] * len(r), dtype=object) if r.dtype == object else np.zeros(len(r))
    for pi, sign_pi in perms:
        for sg, sign_sg in perms:
            term = r[:, pi[0], pi[1], sg[0], sg[1]]
            for kk in range(1, d):
                term = term * r[:, pi[2 * kk], pi[2 * kk + 1], sg[2 * kk], sg[2 * kk + 1]]
            total = total + sign_pi * sign_sg * term
    return total[0] if single else total


def check_orthonormal(g, frame, tol=1e-8):
    """Validate frame @ g @ frame.T = I; raises NonOrthonormalFrameError."""
    gram = frame @ g @ frame.T
    err = np.max(np.abs(gram - np.eye(len(frame))))
    if not err < tol:
        raise NonOrthonormalFrameError(
            "frame Gram matrix deviates from identity by %.3e" % err
        )
    return float(err)

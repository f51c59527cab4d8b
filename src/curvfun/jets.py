"""Forward-mode automatic differentiation to second order.

A :class:`Jet2` carries the value, gradient and Hessian of a scalar quantity
with respect to ``n`` chart variables.  Second order is all the curvature
pipeline needs: the Riemann formula reads closed-form metric entries to
their second derivatives, and the Gauss equation reads an embedding to its
second derivatives (its Jacobian and Hessians).  Jets are batched: every
component has a leading axis of ``npoints`` so that whole quadrature grids
are differentiated with numpy arithmetic instead of per-point Python loops.

The arithmetic is dtype-generic.  With ``float64`` arrays it is the fast
path; with ``object`` arrays of :class:`fractions.Fraction` the same code
produces exact rational derivatives (used for the polynomial metrics where
reference values are exact).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import NonFiniteError

__all__ = [
    "Jet2",
    "variables",
    "sin",
    "cos",
    "exp",
    "sqrt",
    "log",
]


def _outer(a, b):
    # batched outer product: (N,n) x (N,n) -> (N,n,n)
    return a[:, :, None] * b[:, None, :]


class Jet2:
    """Value, gradient and Hessian of a scalar, batched over points.

    Parameters
    ----------
    value : ndarray, shape (npoints,)
    grad : ndarray, shape (npoints, nvars)
    hess : ndarray, shape (npoints, nvars, nvars), symmetric
    """

    __array_priority__ = 100  # our dunders win over ndarray's

    def __init__(self, value, grad, hess):
        self.value = value
        self.grad = grad
        self.hess = hess

    @property
    def nvars(self):
        return self.grad.shape[1]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value + other.value, self.grad + other.grad, self.hess + other.hess)
        return Jet2(self.value + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet2):
            a, b = self, other
            value = a.value * b.value
            grad = a.value[:, None] * b.grad + b.value[:, None] * a.grad
            hess = (
                a.value[:, None, None] * b.hess
                + b.value[:, None, None] * a.hess
                + _outer(a.grad, b.grad)
                + _outer(b.grad, a.grad)
            )
            return Jet2(value, grad, hess)
        return Jet2(self.value * other, self.grad * other, self.hess * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other._reciprocal()
        return self * _invert_scalar(other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, int) and not isinstance(p, bool):
            if p == 0:
                return 1 + (self * 0)  # jet of the constant 1
            if p < 0:
                return (self ** (-p))._reciprocal()
            result = self
            for _ in range(p - 1):
                result = result * self
            return result
        return exp(log(self) * p)

    # -- composition with scalar functions ---------------------------------

    def _compose(self, d0, d1, d2):
        """Chain rule for a scalar function with derivative values d0..d2."""
        grad = d1[:, None] * self.grad
        hess = d1[:, None, None] * self.hess + d2[:, None, None] * _outer(self.grad, self.grad)
        return Jet2(d0, grad, hess)

    def _reciprocal(self):
        inv = _invert_array(self.value)
        inv2 = inv * inv
        return self._compose(inv, -inv2, 2 * inv2 * inv)

    def __repr__(self):
        return "%s(npoints=%d, nvars=%d)" % (type(self).__name__, len(self.value), self.nvars)


def _invert_scalar(c):
    if isinstance(c, (int, Fraction)):
        return Fraction(1, 1) / c
    return 1.0 / c


def _invert_array(v):
    if v.dtype == object:
        return np.array([Fraction(1, 1) / x for x in v.ravel()], dtype=object).reshape(v.shape)
    return 1.0 / v


def variables(x):
    """Seed independent variables from chart points.

    Parameters
    ----------
    x : array_like, shape (npoints, nvars)
        Chart coordinates; a single point is a batch of one.  dtype may be
        float or object (Fraction).

    Returns
    -------
    list of Jet2, one per chart variable.
    """
    x = np.asarray(x)
    npts, n = x.shape
    dtype = x.dtype
    out = []
    for k in range(n):
        grad = np.zeros((npts, n), dtype=dtype)
        grad[:, k] = 1
        out.append(Jet2(x[:, k].copy(), grad, np.zeros((npts, n, n), dtype=dtype)))
    return out


# -- scalar functions usable on jets, arrays and floats ---------------------


def _dispatch(x, fn, derivs):
    if isinstance(x, Jet2):
        v = fn(x.value)
        out = x._compose(v, *derivs(x.value))
        if out.value.dtype != object and not np.all(np.isfinite(out.value)):
            raise NonFiniteError("non-finite value in %s" % fn.__name__)
        return out
    return fn(x)


def sin(x):
    return _dispatch(x, np.sin, lambda v: (np.cos(v), -np.sin(v)))


def cos(x):
    return _dispatch(x, np.cos, lambda v: (-np.sin(v), -np.cos(v)))


def exp(x):
    return _dispatch(x, np.exp, lambda v: (np.exp(v), np.exp(v)))


def sqrt(x):
    def derivs(v):
        r = np.sqrt(v)
        return (0.5 / r, -0.25 / (r * v))

    return _dispatch(x, np.sqrt, derivs)


def log(x):
    return _dispatch(x, np.log, lambda v: (1.0 / v, -1.0 / v**2))

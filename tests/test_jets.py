"""Forward-mode jet arithmetic against finite differences and exact inputs."""

import math
from fractions import Fraction

import numpy as np
import pytest

from curvfun.jets import (
    Jet2,
    cos,
    exp,
    log,
    sin,
    sqrt,
    variables,
)
from oracles import finite_difference_jet


def f_scalar(x, y):
    return sin(x) * exp(y) + x * x * y


def test_jet2_matches_finite_differences():
    pts = np.array([[0.4, -0.3], [1.1, 0.7], [-0.2, 0.05]])
    xs, ys = variables(pts)
    out = f_scalar(xs, ys)
    for row, (x0, y0) in enumerate(pts):
        val, grad, hess = finite_difference_jet(
            lambda v: math.sin(v[0]) * math.exp(v[1]) + v[0] ** 2 * v[1], (x0, y0)
        )
        assert out.value[row] == pytest.approx(val, abs=1e-10)
        assert out.grad[row] == pytest.approx(grad, abs=1e-6)
        assert out.hess[row] == pytest.approx(hess, abs=1e-4)


def test_division_and_sqrt_chain():
    pts = np.array([[1.3, 0.4]])
    x, y = variables(pts)
    out = sqrt(x / (x + y * y))
    g = lambda v: math.sqrt(v[0] / (v[0] + v[1] ** 2))
    val, grad, hess = finite_difference_jet(g, pts[0])
    assert out.value[0] == pytest.approx(val, rel=1e-12)
    assert out.grad[0] == pytest.approx(grad, rel=1e-6)
    assert out.hess[0] == pytest.approx(hess, rel=1e-4, abs=1e-5)


def test_log_derivative():
    pts = np.array([[2.0]])
    (x,) = variables(pts)
    out = log(x)
    assert out.grad[0, 0] == pytest.approx(0.5)
    assert out.hess[0, 0, 0] == pytest.approx(-0.25)


def test_exact_fraction_polynomials_stay_rational():
    pts = np.empty((1, 2), dtype=object)
    pts[0, 0] = Fraction(1, 3)
    pts[0, 1] = Fraction(2, 5)
    x, y = variables(pts)
    out = x * x * y + y * y
    assert out.value[0] == Fraction(1, 3) ** 2 * Fraction(2, 5) + Fraction(2, 5) ** 2
    assert isinstance(out.value[0], Fraction)
    assert out.hess[0, 0, 0] == Fraction(4, 5)  # d2/dx2 (x^2 y) = 2y
    assert out.hess[0, 0, 1] == Fraction(2, 3)  # mixed = 2x


def test_trig_identity_along_jet():
    pts = np.array([[0.9]])
    (x,) = variables(pts)
    out = sin(x) * sin(x) + cos(x) * cos(x)
    assert out.value[0] == pytest.approx(1.0)
    assert abs(out.grad[0, 0]) < 1e-14
    assert abs(out.hess[0, 0, 0]) < 1e-13


def test_constant_and_second_jet_helpers():
    pts = np.array([[0.1, 0.2], [0.3, 0.4]])
    x, _ = variables(pts)
    c = x * 0 + 7.0
    assert np.all(c.value == 7.0)
    assert np.all(c.grad == 0.0)
    jet = (lambda v: v[0] * v[1])(variables(np.array([[0.1, 0.2]])))
    val, grad, hess = jet.value[0], jet.grad[0], jet.hess[0]
    assert val == pytest.approx(0.02)
    assert grad == pytest.approx([0.2, 0.1])
    assert hess[0, 1] == pytest.approx(1.0)


def test_jet2_scalar_mixing_with_plain_numbers():
    pts = np.array([[0.5]])
    (x,) = variables(pts)
    out = 2.0 * x + 3 - x / 2 + (1 - x)
    assert out.value[0] == pytest.approx(2.0 * 0.5 + 3 - 0.25 + 0.5)
    assert out.grad[0, 0] == pytest.approx(2.0 - 0.5 - 1.0)


def test_pow_integer_exponent():
    pts = np.array([[1.7]])
    (x,) = variables(pts)
    out = x**5
    assert out.value[0] == pytest.approx(1.7**5)
    assert out.grad[0, 0] == pytest.approx(5 * 1.7**4)
    assert out.hess[0, 0, 0] == pytest.approx(20 * 1.7**3)

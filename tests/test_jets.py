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


def test_large_integral_power_takes_logarithmically_many_products(monkeypatch):
    p = 1_000_003
    bound = 2 * math.ceil(math.log2(p))
    products = []
    multiply = Jet2.__mul__

    def counted(a, b):
        products.append(1)
        if len(products) > bound:  # fail at once rather than run p - 1 products
            raise AssertionError("more than %d jet products for x ** %d" % (bound, p))
        return multiply(a, b)

    (x,) = variables(np.array([[0.9999999]]))
    monkeypatch.setattr(Jet2, "__mul__", counted)
    out = x**p
    assert len(products) <= bound
    assert out.value[0] == pytest.approx(0.9999999**p, rel=1e-9)


def _left_to_right(x, p):
    result = x
    for _ in range(p - 1):
        result = result * x
    return result


def _bits(jet):
    return jet.value.tobytes() + jet.grad.tobytes() + jet.hess.tobytes()


@pytest.mark.parametrize("p", [2, 3, 7, 64, 2.0, 7.0, -3])
def test_integral_power_matches_its_derivatives(p):
    pts = np.array([[0.7, 1.2], [1.3, -0.4]])
    x, y = variables(pts)
    base = x + 0.5 * y * y
    b = base.value
    out = base**p
    assert np.allclose(out.value, b**p, rtol=1e-13, atol=0)
    assert np.allclose(out.grad, (p * b ** (p - 1))[:, None] * base.grad, rtol=1e-13, atol=0)
    hess = ((p * (p - 1) * b ** (p - 2))[:, None, None]
            * base.grad[:, :, None] * base.grad[:, None, :]
            + (p * b ** (p - 1))[:, None, None] * base.hess)
    assert np.allclose(out.hess, hess, rtol=1e-12, atol=1e-12)
    if p == -3:
        assert _bits(out) == _bits(_left_to_right(base, 3)._reciprocal())
    elif p <= 3:
        assert _bits(out) == _bits(_left_to_right(base, int(p)))


def test_constant_base_with_a_jet_exponent():
    # 2 ** x used to raise TypeError: float has no power of a Jet2
    pts = np.array([[0.3, -1.2], [1.7, 0.4]])
    x, y = variables(pts)
    out = 2.0 ** (x * y)
    ref = exp(x * y * math.log(2.0))
    assert np.allclose(out.value, ref.value, rtol=1e-15, atol=0)
    assert np.allclose(out.grad, ref.grad, rtol=1e-15, atol=0)
    assert np.allclose(out.hess, ref.hess, rtol=1e-15, atol=0)
    assert out.grad[0] == pytest.approx(math.log(2.0) * 2.0 ** (0.3 * -1.2) * np.array([-1.2, 0.3]))

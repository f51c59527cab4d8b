"""The small expression grammar used for user-supplied metric entries."""

import math
import re

import numpy as np
import pytest

from curvfun.errors import ConfigError
from curvfun.expressions import QUOTE_CHARS, Expression, parse_expression
from curvfun.jets import variables


def ev(text, **env):
    return parse_expression(text)(env)


def test_arithmetic_and_precedence():
    assert ev("2 + 3*4") == 14
    assert ev("(2 + 3)*4") == 20
    assert ev("2^3^2") == 512  # right associative
    assert ev("-x^2", x=3.0) == -9.0  # minus binds looser than the power
    assert ev("2^-2") == 0.25
    assert ev("2**3") == 8  # python-style alias
    assert ev("7/2") == 3.5


def test_functions_and_pi():
    assert ev("sin(pi/2)") == pytest.approx(1.0)
    assert ev("cos(0) + exp(0)") == pytest.approx(2.0)
    assert ev("sqrt(x)", x=9.0) == pytest.approx(3.0)
    assert ev("log(exp(2))") == pytest.approx(2.0)


def test_variables_reported():
    e = Expression("sin(x1) * cos(x2) + a")
    assert e.variables == frozenset({"x1", "x2", "a"})


def test_unknown_variable_and_function_rejected():
    with pytest.raises(ConfigError, match=re.escape("expression 'x1 + x2': unbound")):
        ev("x1 + x2", x1=1.0)  # x2 missing from the environment
    for text in ("frobnicate(x)", "1 + ", "1 2", "x $ 2", "sin(x"):
        with pytest.raises(ConfigError, match=re.escape("expression %r:" % text)):
            parse_expression(text)({"x": 1.0})


@pytest.mark.parametrize("text", ["1/0", "10^1000", "2 + (-4)^0.5", "x1 * exp(1000)",
                                  "x1^(0^-1)"])
def test_constant_part_that_is_not_finite_and_real_is_rejected_at_parse(text):
    with pytest.raises(ConfigError, match=re.escape("expression %r has a constant part" % text)):
        parse_expression(text)


def test_constant_parts_fold_to_the_values_they_evaluate_to():
    e = parse_expression("x1 * (2*pi) + sin(1)^2")
    assert e._ast == ("+", ("*", ("var", "x1"), ("const", 2 * math.pi)),
                      ("const", math.sin(1.0) ** 2))
    assert e.variables == frozenset({"x1"})
    with np.errstate(divide="ignore"):
        assert ev("x1/0", x1=np.array([1.0]))[0] == math.inf  # a node-dependent failure


def test_evaluates_on_jets():
    pts = np.array([[0.3, 1.1]])
    x1, x2 = variables(pts)
    out = parse_expression("cos(x2) + cos(x1)")({"x1": x1, "x2": x2})
    assert out.value[0] == pytest.approx(math.cos(1.1) + math.cos(0.3))
    assert out.grad[0, 0] == pytest.approx(-math.sin(0.3))
    assert out.hess[0, 1, 1] == pytest.approx(-math.cos(1.1))


def test_integer_float_exponents_on_jets():
    pts = np.array([[1.4]])
    (x,) = variables(pts)
    out = parse_expression("x^2.0")({"x": x})
    assert out.value[0] == pytest.approx(1.4**2)
    assert out.grad[0, 0] == pytest.approx(2 * 1.4)


@pytest.mark.parametrize("text", ["(" * 200 + "x1" + ")" * 200, "0*x1+" * 600 + "cos(x1)",
                                  "x1 + " * 40 + "1/0"],
                         ids=["nested", "deep", "constant-part"])
def test_error_message_names_a_long_expression_by_its_ends(text):
    with pytest.raises(ConfigError) as info:
        parse_expression(text)
    message = str(info.value)
    assert len(message) < 200
    half = QUOTE_CHARS // 2
    assert text[:half] in message and text[-half:] in message
    assert "(%d characters)" % len(text) in message

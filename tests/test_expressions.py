"""The small expression grammar used for user-supplied metric entries."""

import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("text", ["1e400", "x1^1e400", "-1e400", "x1 * 1" + "0" * 400],
                         ids=["bare", "exponent", "signed", "integer"])
def test_literal_that_is_not_finite_is_rejected_at_parse(text):
    # a bare 1e400 used to parse as infinity, and x1^1e400 to raise OverflowError at evaluation
    with pytest.raises(ConfigError, match="has a constant part that is not a finite real"):
        parse_expression(text)


@pytest.mark.parametrize("text", ["if", "True", "x1 if x2 else 1", "not x1", "1_000", "0x1",
                                  "1j", "x1 // 2", "(sin)(x1)", "sin(x1,)", "sin()"])
def test_python_syntax_outside_the_grammar_is_rejected_at_parse(text):
    with pytest.raises(ConfigError, match=re.escape("expression %r:" % text)):
        parse_expression(text)


def test_signs_and_exponents_are_bounded_by_the_tree_height_not_the_brackets():
    assert ev("-" * 300 + "x1", x1=2.0) == 2.0
    assert ev("x1" + "^x1" * 300, x1=1.0) == 1.0
    assert ev("007 + 1e-07", x1=1.0) == 7 + 1e-7
    with pytest.raises(ConfigError, match="more than 400 operations deep"):
        parse_expression("-" * 400 + "x1")


# -- property tests: random trees of the grammar, and arbitrary text ----------

_LEAVES = st.one_of(
    st.sampled_from(["x1", "x2", "pi"]).map(lambda name: ("name", name)),
    st.integers(0, 12).map(lambda k: ("num", float(k))),
    st.sampled_from([0.5, 2.5, 0.125, 1e-3, 150.0]).map(lambda v: ("num", v)),
)
_TREES = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.tuples(st.sampled_from("+-*/^"), kids, kids),
    st.tuples(st.just("neg"), kids),
    st.tuples(st.just("call"), st.sampled_from(["sin", "cos", "exp", "sqrt", "log"]), kids),
), max_leaves=10)

# binding power of each rendered form: atoms, ^, signs, * and /, + and -
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_SPACES = st.sampled_from(["", "", " ", "  ", "\t", "\n"])


def _spellings(v):
    """Texts that the grammar reads as the literal ``v``."""
    if v == int(v):
        k = int(v)
        return [str(k), "00%d" % k, "%d." % k, "%d.0" % k, "%de0" % k]
    return [repr(v), repr(v).lstrip("0"), "%.3e" % v]


def _render(node, draw):
    """``(text, binding power)`` of a generated tree, brackets only where needed or drawn."""
    sp = lambda: draw(_SPACES)  # noqa: E731

    def operand(child, min_prec):
        text, prec = _render(child, draw)
        return text if prec >= min_prec else "(" + sp() + text + sp() + ")"

    kind = node[0]
    if kind == "name":
        text, prec = node[1], 5
    elif kind == "num":
        text, prec = draw(st.sampled_from(_spellings(node[1]))), 5
    elif kind == "call":
        text, prec = node[1] + sp() + "(" + sp() + _render(node[2], draw)[0] + sp() + ")", 5
    elif kind == "neg":
        text, prec = "-" + sp() + operand(node[1], 3), 3
    elif kind == "^":  # the base is an atom; the exponent may carry a sign
        power = draw(st.sampled_from(["^", "**"]))
        text, prec = operand(node[1], 5) + sp() + power + sp() + operand(node[2], 3), 4
    else:
        prec = _PREC[kind]
        text = operand(node[1], prec) + sp() + kind + sp() + operand(node[2], prec + 1)
    if draw(st.integers(0, 5)) == 0:
        text, prec = "(" + sp() + text + sp() + ")", 5
    if draw(st.integers(0, 7)) == 0:
        text, prec = "+" + sp() + (text if prec >= 3 else "(" + text + ")"), 3
    return text, prec


_REFERENCE_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt,
                    "log": np.log}
_REFERENCE_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                  "/": operator.truediv}


def _reference(node, env):
    """The value of a generated tree, or None when any part is not a finite real."""
    kind = node[0]
    if kind == "name":
        return math.pi if node[1] == "pi" else env[node[1]]
    if kind == "num":
        return node[1]
    parts = [_reference(c, env) for c in node[1:] if isinstance(c, tuple)]
    if None in parts:
        return None
    try:
        if kind == "neg":
            value = -parts[0]
        elif kind == "call":
            value = _REFERENCE_CALLS[node[1]](parts[0])
        elif kind == "^":
            a, b = parts
            value = a ** int(b) if b == int(b) else a**b
        else:
            value = _REFERENCE_OPS[kind](*parts)
    except (ZeroDivisionError, OverflowError):
        return None
    return value if not isinstance(value, complex) and math.isfinite(value) else None


def _names(node):
    if node[0] == "name":
        return set() if node[1] == "pi" else {node[1]}
    return set().union(*(_names(c) for c in node[1:] if isinstance(c, tuple)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_TREES, st.data(), st.floats(-3, 3), st.floats(-3, 3))
def test_rendered_trees_parse_to_their_value_and_variables(tree, data, x1, x2):
    text = _render(tree, data.draw)[0]
    env = {"x1": x1, "x2": x2}
    with np.errstate(all="ignore"):
        expected = _reference(tree, env)
        try:
            expr = parse_expression(text)
        except ConfigError:
            assert expected is None, text  # only a part that is not finite is refused
            return
        assert expr.variables == _names(tree), text
        if expected is not None:
            assert expr(env) == pytest.approx(expected, rel=1e-12, abs=1e-300), text


_TOKENS = ["x1", "x2", "pi", "sin", "cos", "exp", "sqrt", "log", "foo", "1", "007", "2.5",
           ".5", "1e3", "1e400", "+", "-", "*", "/", "^", "**", "(", ")", " ", "\n",
           "if", "True", "lambda", "_", ".", "1_0", "0x1", "1j", ",", "$", "[", "#", "'", "="]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
                 st.text("0123456789x1.e+-*/^() \n_sincoexplgqrtpi,$[#'=", max_size=30)))
def test_any_text_parses_or_is_a_config_error(text):
    try:
        parse_expression(text)
    except ConfigError as exc:
        assert str(exc).startswith("expression ")

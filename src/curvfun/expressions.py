"""A small arithmetic-expression language for user-supplied metrics.

Supports ``+ - * / ^`` (``^`` or ``**``, right-associative), unary signs,
parenthesized grouping, numeric literals, the constant ``pi``, the
functions ``sin cos exp sqrt log`` of one argument, and free variables
(typically ``x1 .. xn`` for chart coordinates).  Python's own parser reads
the text, with ``^`` read as ``**``, so precedence is Python's; the node
types of this grammar are translated into a tuple tree and any other node,
a Python keyword included, is rejected at parse.

Expressions evaluate over anything with arithmetic dunders -- floats,
numpy arrays, or jets -- so a parsed metric entry can be differentiated by
the same hyper-dual machinery as the built-in ones; on jets an integral
exponent (``x^3`` or ``x^3.0``) is an exact product by repeated squaring,
whatever its size, and any other is ``exp(p*log(x))``.  Text that does not
parse, an unknown function and, at evaluation, an unbound variable are
``ConfigError`` naming the expression (a long one by its two ends, see
``QUOTE_CHARS``).  Variable-free parts are evaluated once, at parse time;
a literal or a constant part that divides by zero, overflows or is not a
finite real number is a ``ConfigError`` too.  So is an expression whose
brackets, function calls included, nest more than ``MAX_NESTING`` deep, or
whose operator tree, signs included, is more than ``MAX_DEPTH`` levels
deep: a parsed expression never runs out of Python's recursion limit later.
"""

from __future__ import annotations

import ast
import itertools
import math
import operator
import re
import warnings

import numpy as np

from . import jets as J
from .errors import ConfigError

__all__ = ["parse_expression", "Expression"]

# The grammar's characters.  There is no comma, as every function takes one
# argument; comments, strings, other brackets and comparisons never reach
# Python's parser.
_CHARACTERS = re.compile(r"[0-9A-Za-z_.\s+\-*/^()]*")
# Leading zeros of an integer literal, which Python rejects: 007 reads as 7.
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")
# The numeric literals of the grammar (Python's 0x1, 1_000 and 1j are not).
_DECIMAL = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")

_FUNCTIONS = {"sin": J.sin, "cos": J.cos, "exp": J.exp, "sqrt": J.sqrt, "log": J.log}

_CONSTANTS = {"pi": math.pi}

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "^": operator.pow}

_OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}

# Nesting bounds: brackets at most ``MAX_NESTING`` deep, below the 200 of
# Python's parser, and an operator tree at most ``MAX_DEPTH`` levels high.
# Translation, folding and evaluation take one frame per tree level, so an
# accepted expression stays far inside Python's limit of 1000 frames
# wherever it is evaluated.
MAX_NESTING = 150
MAX_DEPTH = 400

# Longest expression text an error message quotes whole; a longer one is cut
# to its first and last ``QUOTE_CHARS // 2`` characters.
QUOTE_CHARS = 60


def _parse(text):
    """The tuple tree of ``text``, read by ``ast.parse`` with ``^`` as ``**``."""
    allowed = _CHARACTERS.match(text).end()
    if allowed < len(text):
        raise ConfigError("expression %s: unsupported character %r" % (_quote(text), text[allowed]))
    if max(itertools.accumulate((c == "(") - (c == ")") for c in text), default=0) > MAX_NESTING:
        raise ConfigError("expression %s is nested more than %d levels deep"
                          % (_quote(text), MAX_NESTING))
    # one line, so that a newline inside a JSON string still parses
    source = _LEADING_ZEROS.sub("", " ".join(text.split()).replace("^", "**"))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "1if x": a SyntaxError, not a line on stderr
            body = ast.parse(source, mode="eval").body
    except SyntaxError as exc:
        raise ConfigError("expression %s: %s" % (_quote(text), exc.msg)) from None
    except (RecursionError, MemoryError):  # Python's parser gives up near 10^4 levels
        height = MAX_DEPTH + 1
    else:
        height, level = 0, [body]
        while level:  # level by level, without recursion
            height += 1
            level = [c for n in level for c in ast.iter_child_nodes(n) if isinstance(c, ast.expr)]
    if height > MAX_DEPTH:
        raise ConfigError("expression %s is more than %d operations deep"
                          % (_quote(text), MAX_DEPTH))
    return _translate(body, source, text)


def _translate(node, source, text):
    """The tuple tree of the ``ast`` node ``node`` of ``source``, parsed from ``text``."""
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        return (_OPERATORS[type(node.op)], _translate(node.left, source, text),
                _translate(node.right, source, text))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        operand = _translate(node.operand, source, text)
        return ("neg", operand) if isinstance(node.op, ast.USub) else operand
    segment = source[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.Constant) and _DECIMAL.fullmatch(segment):
        return ("const", float(segment))  # folded, so 1e400 is refused as inf
    if isinstance(node, ast.Name):
        return ("const", _CONSTANTS[node.id]) if node.id in _CONSTANTS else ("var", node.id)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and len(node.args) == 1 and not node.keywords
            and source.startswith(("(", " ("), node.func.end_col_offset)):  # not (sin)(x)
        if node.func.id not in _FUNCTIONS:
            raise ConfigError("expression %s: unknown function %r" % (_quote(text), node.func.id))
        return ("call", node.func.id, _translate(node.args[0], source, text))
    raise ConfigError("expression %s: unsupported syntax %r" % (_quote(text), segment[:20]))


def _eval(node, env):
    tag = node[0]
    if tag == "const":
        return node[1]
    if tag == "var":
        return env[node[1]]
    if tag == "neg":
        return -_eval(node[1], env)
    if tag == "call":
        return _FUNCTIONS[node[1]](_eval(node[2], env))
    return _BINARY[tag](_eval(node[1], env), _eval(node[2], env))


def _quote(text):
    """``text`` as an error message names it: whole up to ``QUOTE_CHARS``, else its two ends."""
    if len(text) <= QUOTE_CHARS:
        return repr(text)
    half = QUOTE_CHARS // 2
    return "%r (%d characters)" % (text[:half] + " ... " + text[-half:], len(text))


def _fold(node, text):
    """``node`` with every variable-free subtree replaced by its value.

    A constant part, a literal included, that divides by zero, overflows, or
    is not a finite real number raises ``ConfigError`` naming the expression
    ``text``.
    """
    if node[0] == "var":
        return node
    parts = []  # a loop, not a generator, so each tree level costs one frame
    for c in node:
        parts.append(_fold(c, text) if isinstance(c, tuple) else c)
    node = tuple(parts)
    if any(isinstance(c, tuple) and c[0] != "const" for c in node):
        return node
    try:
        with np.errstate(all="ignore"):  # a non-finite value is raised below instead
            value = _eval(node, {})
    except (ZeroDivisionError, OverflowError):
        value = math.nan
    if isinstance(value, complex) or not math.isfinite(value):
        raise ConfigError("expression %s has a constant part that is not a finite real "
                          "number" % _quote(text))
    return ("const", value)


class Expression:
    """A parsed expression; call it with an environment dict."""

    def __init__(self, text):
        self.text = text
        tree = _parse(text)
        level, names = [tree], set()
        while level:
            names.update(n[1] for n in level if n[0] == "var")
            level = [c for n in level for c in n[1:] if isinstance(c, tuple)]
        self._ast = _fold(tree, text)  # folding keeps every variable
        self.variables = frozenset(names)

    def __call__(self, env):
        unbound = self.variables - env.keys()
        if unbound:
            raise ConfigError("expression %s: unbound variables %s"
                              % (_quote(self.text), sorted(unbound)))
        return _eval(self._ast, env)

    def __repr__(self):
        return "Expression(%r)" % self.text


def parse_expression(text):
    return Expression(text)

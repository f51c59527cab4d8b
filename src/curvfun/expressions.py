"""A small arithmetic-expression language for user-supplied metrics.

Supports ``+ - * / ^`` (with ``^`` right-associative), unary minus,
parenthesized grouping, numeric literals, the constant ``pi``, the
functions ``sin cos exp sqrt log``, and free variables (typically
``x1 .. xn`` for chart coordinates).

Expressions evaluate over anything with arithmetic dunders -- floats,
numpy arrays, or jets -- so a parsed metric entry can be differentiated
by the same hyper-dual machinery as the built-in ones.  Text that does not
parse, an unknown function and, at evaluation, an unbound variable are
``ConfigError`` naming the expression (a long one by its two ends, see
``QUOTE_CHARS``).  Variable-free parts are evaluated once, at parse time;
one that divides by zero, overflows or is not a finite real number is a
``ConfigError`` too.  So is an expression nested deeper than ``MAX_NESTING``
or ``MAX_DEPTH``: a parsed expression never runs out of Python's recursion
limit later.
"""

from __future__ import annotations

import math
import operator
import re

import numpy as np

from . import jets as J
from .errors import ConfigError

__all__ = ["parse_expression", "Expression"]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^(),]))"
)

_FUNCTIONS = {
    "sin": J.sin,
    "cos": J.cos,
    "exp": J.exp,
    "sqrt": J.sqrt,
    "log": J.log,
}

_CONSTANTS = {"pi": math.pi}

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

# Binding power of each binary operator; ``^`` groups to the right.  A sign
# binds below ``^`` and above ``*`` and ``/``: -x^2 == -(x^2).
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_SIGN = 3

# Nesting bounds: the parser takes two frames per level of ``_Parser.depth``,
# folding and evaluation one per level of the tree, so an accepted expression
# stays far inside Python's limit of 1000 frames wherever it is evaluated.
MAX_NESTING = 150
MAX_DEPTH = 400

# Longest expression text an error message quotes whole; a longer one is cut
# to its first and last ``QUOTE_CHARS // 2`` characters.
QUOTE_CHARS = 60


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ConfigError("expression %s: cannot tokenize at %r" % (_quote(text), rest[:20]))
        pos = m.end()
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op))
    tokens.append(("end", None))
    return tokens


class _Parser:
    """Precedence climbing over the tokens of ``text``.

    ``depth`` counts the ``expr`` calls in progress: one for the whole text
    and one more for each bracket, function argument, signed operand or
    right-hand operand inside another.
    """

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def error(self, problem):
        return ConfigError("expression %s: %s" % (_quote(self.text), problem))

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise self.error("expected %r, found %r" % (op, val))

    def parse(self):
        node = self.expr(0)
        kind, val = self.peek()
        if kind != "end":
            raise self.error("unexpected trailing input near %r" % (val,))
        return node

    def expr(self, min_prec):
        """Operands joined by the operators that bind at least as tightly as ``min_prec``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ConfigError("expression %s is nested more than %d levels deep"
                              % (_quote(self.text), MAX_NESTING))
        node = self.operand()
        while True:
            kind, val = self.peek()
            prec = _PRECEDENCE.get(val, -1) if kind == "op" else -1
            if prec < min_prec:
                break
            self.next()
            node = (val, node, self.expr(prec if val == "^" else prec + 1))
        self.depth -= 1
        return node

    def operand(self):
        kind, val = self.next()
        if kind == "op" and val in ("-", "+"):
            node = self.expr(_SIGN)
            return ("neg", node) if val == "-" else node
        if kind == "num":
            return ("const", val)
        if kind == "name":
            k2, v2 = self.peek()
            if k2 == "op" and v2 == "(":
                if val not in _FUNCTIONS:
                    raise self.error("unknown function %r" % val)
                self.next()
                arg = self.expr(0)
                self.expect(")")  # every function takes one argument
                return ("call", val, arg)
            if val in _CONSTANTS:
                return ("const", _CONSTANTS[val])
            return ("var", val)
        if kind == "op" and val == "(":
            node = self.expr(0)
            self.expect(")")
            return node
        raise self.error("unexpected end" if kind == "end" else "unexpected token %r" % (val,))


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
    a = _eval(node[1], env)
    b = _eval(node[2], env)
    if tag != "^":
        return _BINARY[tag](a, b)
    if isinstance(b, float) and b == int(b):
        return a ** int(b)
    return a**b


def _quote(text):
    """``text`` as an error message names it: whole up to ``QUOTE_CHARS``, else its two ends."""
    if len(text) <= QUOTE_CHARS:
        return repr(text)
    half = QUOTE_CHARS // 2
    return "%r (%d characters)" % (text[:half] + " ... " + text[-half:], len(text))


def _fold(node, text):
    """``node`` with every variable-free subtree replaced by its value.

    A constant part that divides by zero, overflows, or is not a finite real
    number raises ``ConfigError`` naming the expression ``text``.
    """
    if node[0] in ("const", "var"):
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
        tree = _Parser(text).parse()
        height, level, names = 0, [tree], set()
        while level:  # level by level, without recursion
            height += 1
            names.update(n[1] for n in level if n[0] == "var")
            level = [c for n in level for c in n[1:] if isinstance(c, tuple)]
        if height > MAX_DEPTH:
            raise ConfigError("expression %s is more than %d operations deep"
                              % (_quote(text), MAX_DEPTH))
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

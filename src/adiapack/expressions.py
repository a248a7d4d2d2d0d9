"""Tiny arithmetic expression language for potential-matrix entries.

Grammar (recursive descent, '^' binds right):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' factor)?
    base   := number | 'x' | 'pi' | 'e' | func '(' expr ')' | '(' expr ')' | '-' base
    func   := sin | cos | tan | tanh | exp | sqrt | abs | jb

`jb(x)` is the japanese bracket sqrt(1 + x²).  Expressions evaluate on scalars
or numpy arrays, print back to parseable text, and support analytic
differentiation in x (constant exponents only, which covers every potential
shipped here).  `Expr.scalar_function` compiles a tree once into a function
of one Python float, for callers that evaluate at one point many times.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import AdiapackError

__all__ = ["Expr", "ParseError", "parse_expr"]

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "tanh": np.tanh,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "jb": lambda x: np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2),
}

_CONSTANTS = {"pi": np.pi, "e": np.e}


def _scalar_pow(a, b):
    """a^b on floats; a square is a·a, which is what numpy's `power` returns."""
    return a * a if b == 2.0 else math.pow(a, b)


_SCALAR_NAMES = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "tanh": math.tanh,
    "exp": math.exp,
    "sqrt": math.sqrt,
    "abs": abs,
    "jb": lambda u: math.sqrt(1.0 + u * u),
    "pow": _scalar_pow,
    "inf": math.inf,
}


class ParseError(AdiapackError):
    def __init__(self, offset: int, expected):
        self.offset = offset
        self.expected = set(expected)
        listed = ", ".join(sorted(self.expected))
        super().__init__(f"syntax error at offset {offset}: expected {listed}")


class Expr:
    """Base class for parsed expression nodes."""

    def __call__(self, x):
        return self.evaluate(x)

    def __str__(self):
        return self._print(1)

    def diff(self) -> "Expr":
        raise NotImplementedError

    def scalar_function(self):
        """This expression as a function of one Python float, returning a float.

        The tree is compiled once to the source of one Python expression, so a
        call does no per-node dispatch.  The arithmetic is numpy's scalar
        arithmetic (x^2 is x·x, as in numpy's `power`); powers and functions
        come from `math`, within about 1e-16 relative of numpy's.  Where
        numpy returns inf or NaN with a warning, this raises ValueError,
        ZeroDivisionError or OverflowError.
        """
        return eval(f"lambda x: {self._source()}", dict(_SCALAR_NAMES))

    # precedence levels: 1 = additive, 2 = multiplicative, 3 = power, 4 = base
    _LEVEL = 4

    def _print(self, context: int) -> str:
        text = self._print_inner()
        if self._LEVEL < context:
            return f"({text})"
        return text


@dataclass(frozen=True)
class Num(Expr):
    value: float
    _LEVEL = 4

    def evaluate(self, x):
        return self.value if np.isscalar(x) else np.full(np.shape(x), self.value)

    def _source(self):
        return repr(float(self.value))

    def _print_inner(self):
        return repr(self.value) if self.value != int(self.value) else str(int(self.value))

    def diff(self):
        return Num(0.0)


@dataclass(frozen=True)
class Var(Expr):
    _LEVEL = 4

    def evaluate(self, x):
        return x

    def _source(self):
        return "x"

    def _print_inner(self):
        return "x"

    def diff(self):
        return Num(1.0)


@dataclass(frozen=True)
class Const(Expr):
    name: str
    _LEVEL = 4

    def evaluate(self, x):
        v = _CONSTANTS[self.name]
        return v if np.isscalar(x) else np.full(np.shape(x), v)

    def _source(self):
        return repr(float(_CONSTANTS[self.name]))

    def _print_inner(self):
        return self.name

    def diff(self):
        return Num(0.0)


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr
    _LEVEL = 4

    def evaluate(self, x):
        return -self.arg.evaluate(x)

    def _source(self):
        return f"(-{self.arg._source()})"

    def _print_inner(self):
        return "-" + self.arg._print(4)

    def diff(self):
        return Neg(self.arg.diff())


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr

    @property
    def _LEVEL(self):
        return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}[self.op]

    def evaluate(self, x):
        a = self.left.evaluate(x)
        b = self.right.evaluate(x)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        return np.power(a, b)

    def _source(self):
        a, b = self.left._source(), self.right._source()
        if self.op == "^":
            return f"pow({a}, {b})"
        return f"({a} {self.op} {b})"

    def _print_inner(self):
        lvl = self._LEVEL
        if self.op == "^":  # right-associative, base on the left
            return self.left._print(4) + "^" + self.right._print(3)
        return self.left._print(lvl) + self.op + self.right._print(lvl + 1)

    def diff(self):
        da, db = self.left.diff(), self.right.diff()
        if self.op in "+-":
            return Bin(self.op, da, db)
        if self.op == "*":
            return Bin("+", Bin("*", da, self.right), Bin("*", self.left, db))
        if self.op == "/":
            num = Bin("-", Bin("*", da, self.right), Bin("*", self.left, db))
            return Bin("/", num, Bin("^", self.right, Num(2.0)))
        if _contains_var(self.right):
            raise ValueError("cannot differentiate an expression with x in an exponent")
        down = Bin("^", self.left, Bin("-", self.right, Num(1.0)))
        return Bin("*", Bin("*", self.right, down), da)


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr
    _LEVEL = 4

    def evaluate(self, x):
        return _FUNCTIONS[self.fn](self.arg.evaluate(x))

    def _source(self):
        return f"{self.fn}({self.arg._source()})"

    def _print_inner(self):
        return f"{self.fn}({self.arg._print(1)})"

    def diff(self):
        u, du = self.arg, self.arg.diff()
        fn = self.fn
        if fn == "sin":
            outer = Call("cos", u)
        elif fn == "cos":
            outer = Neg(Call("sin", u))
        elif fn == "tan":
            outer = Bin("+", Num(1.0), Bin("^", Call("tan", u), Num(2.0)))
        elif fn == "tanh":
            outer = Bin("-", Num(1.0), Bin("^", Call("tanh", u), Num(2.0)))
        elif fn == "exp":
            outer = Call("exp", u)
        elif fn == "sqrt":
            return Bin("/", du, Bin("*", Num(2.0), Call("sqrt", u)))
        elif fn == "abs":
            outer = Bin("/", u, Call("abs", u))
        else:  # jb
            return Bin("/", Bin("*", u, du), Call("jb", u))
        return Bin("*", outer, du)


def _contains_var(e: Expr) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, (Num, Const)):
        return False
    if isinstance(e, Neg):
        return _contains_var(e.arg)
    if isinstance(e, Call):
        return _contains_var(e.arg)
    return _contains_var(e.left) or _contains_var(e.right)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []  # (kind, value, offset)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = pos + len(text[pos:]) - len(text[pos:].lstrip())
                if stripped >= len(text):
                    break
                raise ParseError(stripped, {"a number, name, operator, or '('"})
            if m.group("num") is not None:
                self.tokens.append(("num", float(m.group("num")), m.start("num")))
            elif m.group("name") is not None:
                self.tokens.append(("name", m.group("name"), m.start("name")))
            else:
                self.tokens.append(("op", m.group("op"), m.start("op")))
            pos = m.end()
        self.tokens.append(("end", None, len(text)))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(offset, {f"'{op}'"})
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, _, offset = self.peek()
        if kind != "end":
            raise ParseError(offset, {"an operator", "end of input"})
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                e = Bin(value, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                e = Bin(value, e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        e = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Bin("^", e, self.factor())
        return e

    def base(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "name":
            if value == "x":
                return Var()
            if value in _CONSTANTS:
                return Const(value)
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            raise ParseError(offset, {"'x'", "'pi'", "'e'", "a function name"})
        if kind == "op":
            if value == "-":
                return Neg(self.base())
            if value == "(":
                e = self.expr()
                self.expect_op(")")
                return e
        raise ParseError(offset, {"a number", "'x'", "'('", "'-'", "a function name"})


def parse_expr(text: str) -> Expr:
    """Parse an expression in the grammar above; raises ParseError with the
    byte offset and the expected-token set on malformed input."""
    return _Parser(text).parse()

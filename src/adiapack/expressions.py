"""Tiny arithmetic expression language for potential-matrix entries.

Grammar (recursive descent, '^' binds right):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' factor)?
    base   := number | 'x' | 'pi' | 'e' | func '(' expr ')' | '(' expr ')' | '-' base
    func   := sin | cos | tan | tanh | exp | sqrt | abs | jb

`jb(x)` is the japanese bracket sqrt(1 + x²), and `pi` and `e` parse to
their numbers.  Expressions support analytic differentiation in x (constant
exponents only, which covers every potential shipped here).  `expr(x, nu)`
is the nu-th derivative (nu = 0, 1 or 2) at x, the call of
`grids.UniformCubicSpline`, so an expression and a spline serve alike as an
eigenvalue branch.  A tree is rendered once as the source of one Python
function and compiled from it twice: an array form in numpy's arithmetic,
for numpy scalars and arrays, and a float form in `math`, for a Python
float.  A node builds each, and its derivative, on first use without
recursion and keeps it.  The parser refuses input past `MAX_NESTING` levels
of nesting or `MAX_NODES` nodes.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AdiapackError

__all__ = ["Expr", "MAX_NESTING", "MAX_NODES", "ParseError", "parse_expr"]

# levels of '(', call, unary '-' and exponent: far below where parsing
# exhausts Python's default recursion limit (248 levels of '(' or calls)
MAX_NESTING = 32
# nodes, one per number, name and operator: a bound on the derivative trees
# and their compiled source; past _INLINE_PARENS '(' a node's source goes to
# a local, so the source nests below Python's limit of 200 parentheses
MAX_NODES, _INLINE_PARENS = 256, 64

_NAMES = ("sin", "cos", "tan", "tanh", "exp", "sqrt")
_FUNCTIONS = {name: getattr(np, name) for name in _NAMES + ("abs",)}
_FUNCTIONS["jb"] = lambda x: np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2)

_CONSTANTS = {"pi": np.pi, "e": np.e}


def _full(x, value):
    """A constant at x: an array of x's shape (against a bare float numpy
    takes its scalar-operand loops, which round differently), or a bare
    float for scalar x."""
    return value if np.isscalar(x) else np.full(np.shape(x), value)


_ARRAY_NAMES = {**_FUNCTIONS, "pow": np.power, "full": _full, "inf": math.inf}


def _scalar_pow(a, b):
    """a^b on floats; a square is a·a, which is what numpy's `power` returns."""
    return a * a if b == 2.0 else math.pow(a, b)


_SCALAR_NAMES = {name: getattr(math, name) for name in _NAMES + ("inf",)}
_SCALAR_NAMES.update(abs=abs, jb=lambda u: math.sqrt(1.0 + u * u),
                     pow=_scalar_pow)


def _literal(value: float, arrays: bool) -> str:
    return f"full(x, {float(value)!r})" if arrays else repr(float(value))


class ParseError(AdiapackError):
    def __init__(self, offset: int, expected):
        self.offset = offset
        self.expected = set(expected)
        listed = ", ".join(sorted(self.expected))
        super().__init__(f"syntax error at offset {offset}: expected {listed}")


class Expr:
    """Base class for parsed expression nodes."""

    def __call__(self, x, nu: int = 0):
        """The nu-th derivative (nu = 0, 1 or 2) at x.  A Python float takes
        the float form and gets a float (`math`, within about 1e-16 relative
        of numpy; x^2 is x·x, as in numpy's `power`), or, where `math`
        raises, the array form's answer on x as a 0-d array (numpy's inf or
        NaN, its warning silenced: the caller's guard refuses it).  Any other
        x takes the array form: numpy's arithmetic, a constant an array of
        x's shape."""
        if nu not in (0, 1, 2):
            raise ValueError("nu must be 0, 1 or 2")
        tree = self._derivative._derivative if nu == 2 else \
            self._derivative if nu else self
        array_form, float_form = tree._compiled
        if type(x) is float:
            try:
                return float_form(x)
            except (ArithmeticError, ValueError):
                with np.errstate(all="ignore"):
                    return float(array_form(np.asarray(x)))
        return array_form(x)

    def slope_and_value(self, x: float) -> tuple:
        """(self(x, 1), self(x)) for a Python float x, bit for bit, from one
        compiled float form that computes their shared nodes once."""
        try:
            return self._fused(x)
        except (ArithmeticError, ValueError):
            return self(x, 1), self(x)

    @cached_property
    def _fused(self):
        return _Pair(self._derivative, self)._compiled[1]

    def diff(self) -> "Expr":
        """d/dx of the expression, built once per node."""
        return self._derivative

    @cached_property
    def _derivative(self) -> "Expr":
        # the derivatives below first, so that no `_diff` recurses
        for e in _post_order(self, lambda e: "_derivative" in vars(e))[:-1]:
            e._derivative
        return self._diff()

    @cached_property
    def _compiled(self) -> tuple:   # (array form, Python-float form)
        scopes = dict(_ARRAY_NAMES), dict(_SCALAR_NAMES)
        for arrays, scope in zip((True, False), scopes):
            exec(self._program(arrays), scope)
        return tuple(scope["f"] for scope in scopes)

    def _program(self, arrays: bool) -> str:
        """`def f(x)`: a node used twice (a derivative shares its operand's
        subtrees) is computed once into a local, bit for bit, others inline."""
        order = _post_order(self)
        uses = Counter(id(c) for e in order for c in _children(e))
        text, lines = {}, []   # id(node) -> its source, or its local's name
        for e in order:
            source = e._source(arrays, text)
            if _children(e) and (uses[id(e)] > 1 or source.count("(") > _INLINE_PARENS):
                lines.append(f"    t{len(lines)} = {source}\n")
                source = f"t{len(lines) - 1}"
            text[id(e)] = source
        return "def f(x):\n" + "".join(lines) + f"    return {text[id(self)]}\n"


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def _source(self, arrays, text):
        return _literal(self.value, arrays)

    def _diff(self):
        return Num(0.0)


@dataclass(frozen=True)
class Var(Expr):
    def _source(self, arrays, text):
        return "x"

    def _diff(self):
        return Num(1.0)


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def _source(self, arrays, text):
        return f"(-({text[id(self.arg)]}))"

    def _diff(self):
        return Neg(self.arg.diff())


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr

    def _source(self, arrays, text):
        a, b = text[id(self.left)], text[id(self.right)]
        return f"pow({a}, {b})" if self.op == "^" else f"({a}) {self.op} ({b})"

    def _diff(self):
        da, db = self.left.diff(), self.right.diff()
        if self.op in "+-":
            return Bin(self.op, da, db)
        if self.op == "*":
            return Bin("+", Bin("*", da, self.right), Bin("*", self.left, db))
        if self.op == "/":
            num = Bin("-", Bin("*", da, self.right), Bin("*", self.left, db))
            return Bin("/", num, Bin("^", self.right, Num(2.0)))
        if any(isinstance(e, Var) for e in _post_order(self.right)):
            raise ValueError("cannot differentiate an expression with x in an exponent")
        down = Bin("^", self.left, Bin("-", self.right, Num(1.0)))
        return Bin("*", Bin("*", self.right, down), da)


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr

    def _source(self, arrays, text):
        return f"{self.fn}({text[id(self.arg)]})"

    def _diff(self):
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


@dataclass(frozen=True)
class _Pair(Expr):   # two trees as one function's tuple: the fused float form
    left: Expr
    right: Expr

    def _source(self, arrays, text):
        return f"({text[id(self.left)]}, {text[id(self.right)]})"


def _children(e: Expr) -> tuple:
    return tuple(getattr(e, f) for f in ("arg", "left", "right") if hasattr(e, f))


def _post_order(root: Expr, done=lambda e: False) -> list:
    """Each node at or below `root` once, children first, without recursion;
    a node for which `done` holds is left out with its subtree."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        e, expanded = stack.pop()
        if expanded:
            order.append(e)
        elif id(e) not in seen and not done(e):
            seen.add(id(e))
            stack += [(e, True)] + [(c, False) for c in _children(e)[::-1]]
    return order


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
        nodes = [t for t in self.tokens if t[0] != "op" or t[1] not in "()"]
        if len(nodes) > MAX_NODES:
            raise ParseError(nodes[MAX_NODES][2], {
                f"at most {MAX_NODES} numbers, names and operators"})
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
        e = self.expr(0)
        kind, _, offset = self.peek()
        if kind != "end":
            raise ParseError(offset, {"an operator", "end of input"})
        return e

    def expr(self, depth: int, ops: str = "+-") -> Expr:
        """expr, or term with ops "*/": its operands joined left to right."""
        e = op = None
        while True:
            right = self.expr(depth, "*/") if ops == "+-" else self.factor(depth)
            e = right if op is None else Bin(op, e, right)
            kind, op, _ = self.peek()
            if kind != "op" or op not in ops:
                return e
            self.advance()

    def factor(self, depth: int) -> Expr:
        e = self.base(depth)
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Bin("^", e, self.factor(depth + 1))
        return e

    def base(self, depth: int) -> Expr:
        kind, value, offset = self.advance()
        if depth > MAX_NESTING:
            raise ParseError(offset, {f"at most {MAX_NESTING} levels of nesting"})
        if kind == "num":
            return Num(value)
        if kind == "name":
            if value == "x":
                return Var()
            if value in _CONSTANTS:
                return Num(_CONSTANTS[value])
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr(depth + 1)
                self.expect_op(")")
                return Call(value, arg)
            raise ParseError(offset, {"'x'", "'pi'", "'e'", "a function name"})
        if kind == "op":
            if value == "-":
                return Neg(self.base(depth + 1))
            if value == "(":
                e = self.expr(depth + 1)
                self.expect_op(")")
                return e
        raise ParseError(offset, {"a number", "'x'", "'('", "'-'", "a function name"})


def parse_expr(text: str) -> Expr:
    """Parse an expression in the grammar above; raises ParseError with the
    byte offset and the expected-token set on malformed input, and on input
    past `MAX_NESTING` or `MAX_NODES`."""
    if not isinstance(text, str):
        raise ParseError(0, {"an expression string"})
    return _Parser(text).parse()

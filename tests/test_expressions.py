import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiapack.expressions import (_FUNCTIONS, MAX_NESTING, MAX_NODES, Call,
                                  Neg, Num, ParseError, Var, parse_expr)
from adiapack.grids import make_grid


def test_basic_evaluation():
    assert parse_expr("x^2/2")(3.0) == pytest.approx(4.5)
    assert parse_expr("(1+x^2)^(-1/2)")(0.0) == pytest.approx(1.0)
    assert parse_expr("jb(x)")(0.0) == pytest.approx(1.0)
    assert parse_expr("jb(x)")(1.0) == pytest.approx(np.sqrt(2.0))
    assert parse_expr("pi")(0.0) == pytest.approx(np.pi)
    assert parse_expr("2*e")(0.0) == pytest.approx(2.0 * np.e)


def test_unclosed_call_reports_offset_and_expected():
    with pytest.raises(ParseError) as exc:
        parse_expr("cos(x")
    assert exc.value.offset == 5
    assert "')'" in exc.value.expected


def test_trailing_operator_reports_offset():
    with pytest.raises(ParseError) as exc:
        parse_expr("1+")
    assert exc.value.offset == 2


def test_unknown_name_rejected():
    with pytest.raises(ParseError):
        parse_expr("foo(x)")


def test_dangling_token_rejected():
    with pytest.raises(ParseError) as exc:
        parse_expr("2 x")
    assert exc.value.offset == 2


NESTINGS = {"call": lambda k: "sin(" * k + "x" + ")" * k,
            "minus": lambda k: "-" * k + "x",
            "power": lambda k: "x" + "^1" * k,
            "parentheses": lambda k: "(" * k + "x" + ")" * k}


@pytest.mark.parametrize("kind", NESTINGS)
def test_nesting_is_bounded_below_the_compiler_limits(kind):
    # one level more is a ParseError; the deepest accepted tree compiles
    # and evaluates in both forms (under Python's default recursion limit
    # the parser fails at 248 levels of calls or parentheses and 990 of
    # unary minus or exponents; the compiled source, its long nodes in
    # locals, compiles at every depth the parser reaches, for nu = 0, 1, 2)
    deepest = parse_expr(NESTINGS[kind](MAX_NESTING))
    x = np.linspace(-1.0, 1.0, 5)
    on_floats = [deepest(float(v)) for v in x]
    assert all(type(v) is float for v in on_floats)
    assert np.allclose(deepest(x), on_floats, rtol=1e-14, atol=0.0)
    with pytest.raises(ParseError, match="levels of nesting"):
        parse_expr(NESTINGS[kind](MAX_NESTING + 1))


def test_vectorized_evaluation():
    xs = np.linspace(-3.0, 3.0, 7)
    e = parse_expr("sin(x)*x^2 - tanh(x)/2")
    expected = np.sin(xs) * xs**2 - np.tanh(xs) / 2.0
    assert np.allclose(e(xs), expected, atol=1e-14)


def test_precedence_and_associativity():
    assert parse_expr("2+3*4")(0.0) == pytest.approx(14.0)
    assert parse_expr("2^3^2")(0.0) == pytest.approx(512.0)  # right-assoc
    assert parse_expr("8/4/2")(0.0) == pytest.approx(1.0)    # left-assoc
    # unary minus binds inside the power base
    assert parse_expr("-x^2")(3.0) == pytest.approx(9.0)
    assert parse_expr("-(x^2)")(3.0) == pytest.approx(-9.0)
    # the compiled source keeps the tree's grouping
    assert parse_expr("-(x+1)")(2.0) == -3.0
    assert parse_expr("1-(x-1)")(2.0) == 0.0
    assert parse_expr("2-(x-1)*3/(4/x)")(2.0) == 0.5
    # (text, x, its value worked out by hand)
    for text, x, value in (
            ("x^2/2", 3.0, 4.5),
            ("(1+x^2)^(-1/2)", 0.75, 0.8),         # 1/sqrt(1.5625)
            ("(x^2/2)*1 + -3", 2.0, -1.0),
            ("cos(x)*sin(x) - tanh(x^2)", 0.5,   # sin(1)/2 - tanh(1/4)
             0.42073549240394825 - 0.24491866240370913),
            ("jb(x)^(-3)", 0.75, 0.512),           # 1.25^-3
            ("1 - 2 - 3", 0.0, -4.0),
            ("2^-x", 2.0, 0.25),                    # 2^(-x)
            ("-(x+1)*(x-1)", 3.0, -8.0),            # (-(x+1))*(x-1)
            ("sqrt(abs(x))+exp(-x^2)", -1.0, 1.0 + math.e)):   # (-x)^2
        assert parse_expr(text)(x) == pytest.approx(value, rel=1e-15), text


def test_pi_and_e_are_numbers():
    # the numbers themselves: equal nodes, and the same compiled source as
    # their literals
    for name, value in (("pi", math.pi), ("e", math.e)):
        tree, literal = parse_expr(name), parse_expr(repr(value))
        assert tree == Num(value) == literal
        for arrays in (True, False):
            assert tree._program(arrays) == literal._program(arrays)


def _chain(k, op="/"):
    return "x" + f"{op}x" * k


# the longest chains of each operator (one level per two nodes), and one
# inside 31 calls, whose derivatives nest a parenthesis per node
LONGEST = {op: "-" + _chain((MAX_NODES - 2) // 2, op) for op in "+-*/"}
LONGEST["calls"] = "jb(" * 31 + _chain((MAX_NODES - 32) // 2) + ")" * 31


@pytest.mark.parametrize("kind", LONGEST)
def test_node_budget_is_below_the_walks_limits(kind):
    # the largest accepted trees compile their second derivatives in both
    # forms; one node more is a ParseError (a derivative was a
    # RecursionError past about 300 terms of a sum, 100 of a quotient)
    tree = parse_expr(LONGEST[kind])
    x = np.linspace(0.5, 1.5, 5)
    with np.errstate(all="ignore"):
        for nu in (0, 1, 2):
            assert tree(x, nu).shape == x.shape
            assert type(tree(0.7, nu)) is float
    with pytest.raises(ParseError, match=f"at most {MAX_NODES} numbers"):
        parse_expr("-" + LONGEST[kind])


def _nested(levels):
    text = "x"
    for _ in range(levels):
        text = f"sin(x/({text}+2))"
    return text


def test_a_shared_subtree_is_computed_once():
    # a derivative shares its operand's subtrees: written out once per use,
    # the 16-level λ'' source was 400,860 characters and its first
    # evaluation took 0.9 s
    tree = parse_expr(_nested(16))
    x = make_grid(-4.0, 4.0, 4096).points
    start = time.perf_counter()
    with np.errstate(all="ignore"):   # x/(x + 2) at x = -2
        values = tree(x, 2)
    assert time.perf_counter() - start < 0.1
    assert len(tree.diff().diff()._program(True)) < 20_000
    with np.errstate(all="ignore"):
        walked = _walk(tree.diff().diff(), x[::512])
    assert np.array_equal(values[::512], walked, equal_nan=True)


_leaf = st.one_of(
    st.sampled_from(["x", "pi", "e", "2", "0.5", "3", "1.25e-2"]),
)


def _wrap(children):
    ops = st.sampled_from(["+", "-", "*", "/", "^"])
    fns = st.sampled_from(["sin", "cos", "tan", "tanh", "exp", "sqrt", "abs", "jb"])
    return st.one_of(
        st.tuples(children, ops, children).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(fns, children).map(lambda t: f"{t[0]}({t[1]})"),
        children.map(lambda c: f"-({c})"),
    )


def _walk(e, x):
    """Reference evaluation of a tree node by node, in numpy, constants as
    arrays of x's shape."""
    if isinstance(e, Var):
        return x
    if isinstance(e, Num):
        return np.full(np.shape(x), e.value)
    if isinstance(e, Neg):
        return -_walk(e.arg, x)
    if isinstance(e, Call):
        return _FUNCTIONS[e.fn](_walk(e.arg, x))
    a, b = _walk(e.left, x), _walk(e.right, x)
    return {"+": np.add, "-": np.subtract, "*": np.multiply,
            "/": np.divide, "^": np.power}[e.op](a, b)


@given(st.recursive(_leaf, _wrap, max_leaves=12))
@settings(max_examples=200, deadline=None)
def test_compiled_array_form_matches_a_tree_walk(text):
    # the compiled source must keep the tree's grouping and numpy's loops:
    # the same bits as a node-by-node evaluation, NaN where it has NaN; a
    # derivative's shared nodes are computed once, with the bits of each use
    x = np.linspace(-2.3, 2.7, 11)
    tree = parse_expr(text)
    try:
        trees = [tree, tree.diff(), tree.diff().diff()]
    except ValueError:   # x in an exponent
        trees = [tree]
    for nu, walked in enumerate(trees):
        with np.errstate(all="ignore"):
            got, want = tree(x, nu), _walk(walked, x)
        assert got.shape == x.shape
        assert np.array_equal(got, want, equal_nan=True), (nu, text)


@given(st.recursive(_leaf, _wrap, max_leaves=12),
       st.sampled_from([0.0, -0.0, 1e-300, 0.5, -1.5, 2.0, 2.7]))
@settings(max_examples=300, deadline=None)
def test_a_float_call_returns_a_float(text, x):
    # where `math` raises, the array form on x was given the Python float,
    # so a division by zero raised again inside the fallback
    tree = parse_expr(text)
    for nu in (0, 1, 2):
        try:
            value = tree(x, nu)
        except ValueError as exc:
            assert nu and "x in an exponent" in str(exc)
            break
        assert type(value) is float, (nu, text)


def test_a_float_call_where_math_raises_reads_numpys_inf_or_nan():
    pole = parse_expr("1/(x-0.3)")
    assert pole(0.3) == math.inf and pole(0.3, 1) == -math.inf
    assert math.isnan(pole(0.3, 2))
    assert math.isnan(parse_expr("x/x")(0.0))


DIFF_CASES = [
    "x^2/2",
    "(1+x^2)^(-1/2)",
    "sin(x)*cos(x)",
    "tanh(x)",
    "exp(-x^2/2)",
    "jb(x)",
    "sqrt(1+x^2)",
    "x*tan(x/4)",
]


@pytest.mark.parametrize("text", DIFF_CASES)
def test_analytic_derivative_matches_finite_differences(text):
    e = parse_expr(text)
    de = e.diff()
    h = 1e-6
    for x in (-1.3, 0.2, 0.9):
        fd = (e(x + h) - e(x - h)) / (2.0 * h)
        assert de(x) == pytest.approx(fd, rel=2e-8, abs=2e-8)


def test_scalar_function_of_harmonic_branch_is_bit_identical():
    e = parse_expr("x^2/2")
    x = np.random.default_rng(2).uniform(-5.0, 5.0, 2000)
    for tree in (e, e.diff()):
        assert all(tree(float(xi)) == float(tree(np.float64(xi))) for xi in x)


@pytest.mark.parametrize("text", DIFF_CASES + ["x^2/2+cos(x)/(1+x^2)",
                                               "cos(x)*(1+x^2)^(-1/2)",
                                               "pi*abs(x)-e*exp(-x^2)"])
def test_scalar_function_matches_tree_walk(text):
    e = parse_expr(text)
    x = np.linspace(-2.3, 2.7, 101)
    for tree in (e, e.diff()):
        got = np.array([tree(float(xi)) for xi in x])
        want = np.array([float(tree(np.float64(xi))) for xi in x])
        assert all(type(tree(float(xi))) is float for xi in x[:3])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_derivative_rejects_variable_exponent():
    with pytest.raises(ValueError):
        parse_expr("2^x").diff()


def test_second_derivative_of_harmonic():
    e = parse_expr("x^2/2")
    assert e.diff().diff()(17.3) == pytest.approx(1.0)


def test_constant_trees_keep_the_shape_of_x():
    x = np.linspace(-1.0, 1.0, 5)
    for text, value in (("2", 2.0), ("pi", np.pi), ("-e", -np.e)):
        got = parse_expr(text)(x)
        assert got.shape == (5,) and np.all(got == value), text

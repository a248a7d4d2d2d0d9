import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiapack.expressions import ParseError, parse_expr


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


ROUND_TRIP_CASES = [
    "x^2/2",
    "(1+x^2)^(-1/2)",
    "(x^2/2)*1 + -3",
    "cos(x)*sin(x) - tanh(x^2)",
    "jb(x)^(-3)",
    "1 - 2 - 3",
    "2^-x",
    "-(x+1)*(x-1)",
    "sqrt(abs(x))+exp(-x^2)",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_parse_print_parse_identity(text):
    ast = parse_expr(text)
    assert parse_expr(str(ast)) == ast


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


@given(st.recursive(_leaf, _wrap, max_leaves=12))
@settings(max_examples=200, deadline=None)
def test_round_trip_random(text):
    ast = parse_expr(text)
    assert parse_expr(str(ast)) == ast


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
        fast = tree.scalar_function()
        assert all(fast(float(xi)) == float(tree(float(xi))) for xi in x)


@pytest.mark.parametrize("text", DIFF_CASES + ["x^2/2+cos(x)/(1+x^2)",
                                               "cos(x)*(1+x^2)^(-1/2)",
                                               "pi*abs(x)-e*exp(-x^2)"])
def test_scalar_function_matches_tree_walk(text):
    e = parse_expr(text)
    x = np.linspace(-2.3, 2.7, 101)
    for tree in (e, e.diff()):
        fast = tree.scalar_function()
        got = np.array([fast(float(xi)) for xi in x])
        want = np.array([float(tree(float(xi))) for xi in x])
        assert all(type(fast(float(xi))) is float for xi in x[:3])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_derivative_rejects_variable_exponent():
    with pytest.raises(ValueError):
        parse_expr("2^x").diff()


def test_second_derivative_of_harmonic():
    e = parse_expr("x^2/2")
    assert e.diff().diff()(17.3) == pytest.approx(1.0)

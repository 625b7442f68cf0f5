"""Closed arithmetic grammar for profiles and nonlinearities."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracwave import Expression, parse_expression

X = np.linspace(-3.0, 3.0, 13)


def _check(text, fn, pts=X, tol=1e-14):
    expr = parse_expression(text, "x")
    got = expr.evaluate(pts)
    want = fn(pts)
    scale = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(got - want) / scale) <= tol


def test_arithmetic_and_precedence():
    _check("1+2*x", lambda x: 1 + 2 * x)
    _check("(1+x)*(1-x)", lambda x: 1 - x**2)
    _check("x/2-3", lambda x: x / 2 - 3)
    _check("2*3^2+x", lambda x: 18 + x)  # power binds tighter than *
    _check("x^3", lambda x: x**3)
    with pytest.raises(ValueError, match="column"):
        parse_expression("x^2^2", "x")  # exponent chains are not part of the grammar


def test_unary_minus_binds_looser_than_power():
    expr = parse_expression("-x^2", "x")
    assert expr.evaluate(np.array([3.0]))[0] == -9.0
    assert parse_expression("2*-x^2", "x").evaluate(np.array([3.0]))[0] == -18.0
    # negative exponents are signed numbers, not unary minus
    _check("x^-2", lambda x: x**-2.0, pts=np.array([0.5, 1.5, 2.0]))


def test_function_table():
    _check("sin(x)", np.sin)
    _check("cos(x)+exp(x)", lambda x: np.cos(x) + np.exp(x), tol=1e-13)
    _check("tanh(x)*abs(x)", lambda x: np.tanh(x) * np.abs(x))
    _check("sech(x)", lambda x: 1.0 / np.cosh(x))


def test_complex_states_stay_complex():
    expr = parse_expression("0.1*sin(u)", "u")
    z = np.array([1.0 + 2.0j, -0.5j])
    out = expr.evaluate(z)
    assert np.iscomplexobj(out)
    assert np.max(np.abs(out - 0.1 * np.sin(z))) <= 1e-14


def test_constants_combine_exactly_as_grid_arrays():
    rng = np.random.Generator(np.random.Philox(key=0x5C))
    z = rng.standard_normal((7, 9)) + 1j * rng.standard_normal((7, 9))
    out = parse_expression("0.5*sin(u)", "u").evaluate(z)
    old = np.full(z.shape, 0.5) * np.sin(z)
    assert np.array_equal(out.view(float), old.view(float))


@pytest.mark.parametrize("pts", [X, X.reshape(13, 1), X + 0j, np.float64(0.5)])
def test_constant_expression_keeps_grid_shape(pts):
    for text, value in (("2", 2.0), ("-3*2^2", -12.0), ("1/0", np.inf)):
        out = parse_expression(text, "x").evaluate(pts)
        assert out.shape == np.shape(pts) and out.dtype == np.float64
        assert np.all(out == value)


def test_nonfinite_values_pass_through_silently():
    expr = parse_expression("exp(x)", "x")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = expr.evaluate(np.array([1000.0]))
    assert np.isinf(out[0])


def test_parse_errors_carry_positions():
    for text in ("2**x", "sinh(x)", "x+y", "x^y"):
        with pytest.raises(ValueError, match="column"):
            parse_expression(text, "x")
    # truncated input has no offending column to point at
    for text in ("sin(x", "x+", ""):
        with pytest.raises(ValueError):
            parse_expression(text, "x")


def test_expression_record():
    expr = parse_expression("x^2", "x")
    assert isinstance(expr, Expression)
    assert expr.source == "x^2" and expr.variable == "x"


def test_hundred_random_points():
    rng = np.random.Generator(np.random.Philox(key=0xE1))
    pts = rng.uniform(-4.0, 4.0, 100)
    cases = [
        ("0.5*(1+tanh(x))", lambda x: 0.5 * (1 + np.tanh(x))),
        ("exp(-x^2/8)", lambda x: np.exp(-(x**2) / 8)),
        ("sin(x)*cos(x)-x/3", lambda x: np.sin(x) * np.cos(x) - x / 3),
    ]
    for text, fn in cases:
        _check(text, fn, pts=pts)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=5))
def test_polynomials_round_trip(coeffs):
    text = "+".join(f"({c!r})*x^{k}" for k, c in enumerate(coeffs)) or "0"
    expr = parse_expression(text, "x")
    got = expr.evaluate(X)
    want = sum(c * X**k for k, c in enumerate(coeffs))
    assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


# each node: (text, binding level, independent numpy function); a child whose
# level is below what its parent's slot needs is printed in parentheses
_ATOM, _POWER, _NEG, _PRODUCT, _SUM = 5, 4, 3, 2, 1
_NUMPY_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "abs": np.abs,
    "sech": lambda v: 1.0 / np.cosh(v),
}
_OPERATORS = {
    "+": (_SUM, np.add),
    "-": (_SUM, np.subtract),
    "*": (_PRODUCT, np.multiply),
    "/": (_PRODUCT, np.divide),
}


def _slot(node, level):
    text, own, _ = node
    return text if own >= level else f"({text})"


def _number(value):
    return (repr(value), _ATOM, lambda v: np.float64(value))


def _combine(children):
    def binary(op, left, right):
        level, fn = _OPERATORS[op]
        text = f"{_slot(left, level)} {op} {_slot(right, level + 1)}"
        return (text, level, lambda v: fn(left[2](v), right[2](v)))

    def power(base, exponent):
        return (f"{_slot(base, _ATOM)}^{exponent}", _POWER, lambda v: base[2](v) ** float(exponent))

    def call(name, arg):
        return (f"{name}({arg[0]})", _ATOM, lambda v: _NUMPY_FUNCTIONS[name](arg[2](v)))

    return st.one_of(
        st.builds(binary, st.sampled_from(sorted(_OPERATORS)), children, children),
        st.builds(power, children, st.sampled_from(["2", "3", "-1", "0.5", "-2.5", "1e0"])),
        st.builds(lambda node: ("-" + _slot(node, _NEG), _NEG, lambda v: -node[2](v)), children),
        st.builds(call, st.sampled_from(sorted(_NUMPY_FUNCTIONS)), children),
    )


_GRAMMAR = st.recursive(
    st.one_of(
        st.just(("x", _ATOM, lambda v: v)),
        st.floats(0.0, 1e6, allow_nan=False).map(_number),
    ),
    _combine,
    max_leaves=12,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_GRAMMAR)
def test_grammar_evaluates_bit_for_bit_like_numpy(node):
    text, _, fn = node
    expr = parse_expression(text, "x")
    for pts in (X, X + 0.5j * X[::-1]):
        got = expr.evaluate(pts)
        with np.errstate(all="ignore"):
            want = np.asarray(fn(pts))
        want = np.full(pts.shape, want) if want.shape != pts.shape else want
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), text


def test_parenthesized_exponents_read_as_plain_ones():
    # Python's parser drops the parentheses, so these read as x^2 and x^-2
    assert parse_expression("x^(2)", "x").root == parse_expression("x^2", "x").root
    assert parse_expression("x^(-2)", "x").root == parse_expression("x^-2", "x").root


def test_integers_with_leading_zeros_do_not_parse():
    with pytest.raises(ValueError, match="column 1"):
        parse_expression("007", "x")
    assert parse_expression("0.07", "x").root == ("num", 0.07)


@pytest.mark.parametrize(
    "text",
    ["2**x", "x if x else 1", "x.real", "x<1", "1j", "1_0", "True", "(x)(x)", "sin()", "sin(x, x)", "+x", "(sin)(x)"],
)
def test_rejections_name_a_column(text):
    with pytest.raises(ValueError, match=r"^column \d+: "):
        parse_expression(text, "x")


@pytest.mark.parametrize(
    "text, column",
    [("x^2 + y", 7), ("x^2*x^2*z", 9), ("x^2 + sin(x", 10), ("x^2 + )", 7), ("x^2^x", 5)],
)
def test_columns_after_a_caret_point_at_the_source(text, column):
    with pytest.raises(ValueError, match=rf"^column {column}: "):
        parse_expression(text, "x")

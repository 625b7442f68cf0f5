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

"""Tests for the exact-arithmetic kernel: polynomials and bivariate series."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mzv.kernel import (
    NEG_INFINITY,
    BivariateSeries,
    RationalPolynomial,
    falling_factorial,
    rat,
    series_div_unit,
    series_div_xy_difference,
    series_log_one_plus,
    series_mul,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
polynomials = st.lists(rationals, min_size=0, max_size=6).map(RationalPolynomial)


@st.composite
def series_with_order(draw, min_order=0, max_order=5, unit=False):
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    coeffs = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        i = draw(st.integers(min_value=0, max_value=order))
        j = draw(st.integers(min_value=0, max_value=order - i))
        coeffs[(i, j)] = draw(rationals)
    if unit:
        coeffs[(0, 0)] = draw(
            rationals.filter(lambda c: c != 0)
        )
    return BivariateSeries(order, coeffs)


# ---------------------------------------------------------------------------
# Scalar helpers
# ---------------------------------------------------------------------------


def test_rat_converts_integers_and_fractions():
    assert rat(3) == Fraction(3)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)


def test_falling_factorial_values():
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(0, 2) == 0
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)
    with pytest.raises(ValueError):
        falling_factorial(2, -1)


# ---------------------------------------------------------------------------
# RationalPolynomial
# ---------------------------------------------------------------------------


def test_polynomial_trims_and_degree():
    assert RationalPolynomial((1, 2, 0, 0)).coeffs == (
        Fraction(1),
        Fraction(2),
    )
    assert RationalPolynomial(()).degree == NEG_INFINITY
    assert RationalPolynomial((0, 0)).degree == NEG_INFINITY
    assert RationalPolynomial((7,)).degree == 0
    assert RationalPolynomial((0, 0, 5)).degree == 2


def test_polynomial_constructors():
    assert RationalPolynomial.zero().is_zero()
    assert RationalPolynomial.one() == RationalPolynomial((1,))
    assert RationalPolynomial.variable() == RationalPolynomial((0, 1))
    assert RationalPolynomial.constant(Fraction(2, 3)) == RationalPolynomial(
        (Fraction(2, 3),)
    )
    assert RationalPolynomial.monomial(3) == RationalPolynomial((0, 0, 0, 1))
    assert RationalPolynomial.monomial(2, 5) == RationalPolynomial((0, 0, 5))


def test_polynomial_evaluate():
    p = RationalPolynomial((1, -2, 3))  # 3x^2 - 2x + 1
    assert p.evaluate(0) == 1
    assert p.evaluate(2) == 9
    assert p.evaluate(Fraction(1, 3)) == Fraction(2, 3)
    assert RationalPolynomial.zero().evaluate(5) == 0
    assert RationalPolynomial.monomial(3).evaluate(2) == 8
    assert RationalPolynomial((1, 1)).evaluate(Fraction(1, 2)) == Fraction(3, 2)


def test_polynomial_scalar_interop():
    p = RationalPolynomial((0, 1))
    assert 1 + p == RationalPolynomial((1, 1))
    assert 2 * p == RationalPolynomial((0, 2))
    assert p - 1 == RationalPolynomial((-1, 1))
    assert 1 - p == RationalPolynomial((1, -1))
    assert (1 + p) * (1 + p) == RationalPolynomial((1, 2, 1))


def test_polynomial_to_string():
    P = RationalPolynomial
    assert P((1, 2)).to_string("Y") == "2*Y + 1"
    assert P(()).to_string("Y") == "0"
    assert P((0, -1)).to_string("Y") == "-Y"
    assert P((0, -2, 0, 1)).to_string() == "x^3 - 2*x"
    assert P((Fraction(1, 2),)).to_string("z") == "1/2"
    assert P((1, Fraction(-3, 4), 1)).to_string("x") == "x^2 - 3/4*x + 1"


@given(polynomials, polynomials, polynomials)
def test_polynomial_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RationalPolynomial.zero() == a
    assert a * RationalPolynomial.one() == a
    assert a - a == RationalPolynomial.zero()


@given(polynomials, polynomials, rationals)
def test_polynomial_evaluation_is_ring_homomorphism(a, b, x):
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


@given(polynomials, polynomials, rationals)
def test_polynomial_compose_matches_evaluation(a, b, x):
    assert a.compose(b).evaluate(x) == a.evaluate(b.evaluate(x))


@given(polynomials, polynomials)
def test_polynomial_product_degree(a, b):
    if a.is_zero() or b.is_zero():
        assert (a * b).degree == NEG_INFINITY
    else:
        assert (a * b).degree == a.degree + b.degree


# ---------------------------------------------------------------------------
# BivariateSeries
# ---------------------------------------------------------------------------


def test_series_constructors_and_coefficients():
    s = BivariateSeries(3, {(1, 0): 2, (0, 2): Fraction(1, 3), (2, 2): 9})
    assert s.order == 3
    assert s.coefficient(1, 0) == 2
    assert s.coefficient(0, 2) == Fraction(1, 3)
    assert s.coefficient(0, 0) == 0
    # (2, 2) exceeds the truncation order and is discarded on input
    assert list(s.terms()) == [(1, 0, Fraction(2)), (0, 2, Fraction(1, 3))]
    assert BivariateSeries.zero(2) == BivariateSeries(2)
    assert BivariateSeries.constant(5, 2).coefficient(0, 0) == 5
    assert BivariateSeries.monomial(1, 1, 4, -3).coefficient(1, 1) == -3


def test_series_bounds_checks():
    s = BivariateSeries(2, {(1, 1): 1})
    with pytest.raises(ValueError):
        s.coefficient(2, 1)
    with pytest.raises(ValueError):
        s.coefficient(-1, 0)
    with pytest.raises(ValueError):
        BivariateSeries(-1)
    with pytest.raises(ValueError):
        s.truncate(3)
    assert s.truncate(1) == BivariateSeries(1)


def test_series_equal_order_enforcement():
    a = BivariateSeries.constant(1, 2)
    b = BivariateSeries.constant(1, 3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        series_mul(a, b)
    with pytest.raises(ValueError):
        series_div_unit(a, b)


def test_series_log_prefixes():
    s = series_log_one_plus("x", 4)
    assert s.coefficient(1, 0) == 1
    assert s.coefficient(2, 0) == Fraction(-1, 2)
    assert s.coefficient(3, 0) == Fraction(1, 3)
    assert s.coefficient(4, 0) == Fraction(-1, 4)
    assert s.coefficient(0, 1) == 0
    t = series_log_one_plus("y", 2)
    assert t.coefficient(0, 2) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        series_log_one_plus("z", 3)
    with pytest.raises(ValueError):
        series_log_one_plus("x", 0)


def test_series_geometric_division():
    order = 6
    one = BivariateSeries.constant(1, order)
    den = one - BivariateSeries.monomial(1, 0, order)
    geo = series_div_unit(one, den)
    for k in range(order + 1):
        assert geo.coefficient(k, 0) == 1
    assert geo.coefficient(0, 1) == 0


def test_series_division_requires_unit():
    num = BivariateSeries.constant(1, 3)
    den = BivariateSeries.monomial(1, 0, 3)
    with pytest.raises(ValueError):
        series_div_unit(num, den)


def test_series_xy_difference_example():
    # (x^2 - y^2) / (x - y) == x + y, with the order dropping by one
    s = BivariateSeries(2, {(2, 0): 1, (0, 2): -1})
    q = series_div_xy_difference(s)
    assert q.order == 1
    assert q == BivariateSeries(1, {(1, 0): 1, (0, 1): 1})


def test_series_xy_difference_reports_first_bad_diagonal():
    s = BivariateSeries(3, {(2, 0): 1, (0, 2): 1})
    with pytest.raises(ValueError, match="total degree 2"):
        series_div_xy_difference(s)
    with pytest.raises(ValueError):
        series_div_xy_difference(BivariateSeries.constant(1, 0))


@given(series_with_order(), series_with_order())
def test_series_addition_commutes_on_matching_orders(a, b):
    if a.order != b.order:
        with pytest.raises(ValueError):
            a + b
    else:
        assert a + b == b + a
        assert a - a == BivariateSeries.zero(a.order)


@given(series_with_order(max_order=4), series_with_order(max_order=4))
def test_series_multiplication_commutes_on_matching_orders(a, b):
    if a.order == b.order:
        assert series_mul(a, b) == series_mul(b, a)


@given(series_with_order(max_order=4), series_with_order(max_order=4, unit=True))
def test_series_division_round_trip(a, d):
    if a.order != d.order:
        return
    q = series_div_unit(a, d)
    assert series_mul(q, d) == a


@given(series_with_order(min_order=1, max_order=4))
def test_series_xy_difference_round_trip(q):
    order = q.order
    xy = BivariateSeries(order, {(1, 0): 1, (0, 1): -1})
    product = series_mul(q, xy)
    assert series_div_xy_difference(product) == q.truncate(order - 1)


@given(series_with_order(max_order=4), st.integers(min_value=-5, max_value=5))
def test_series_scalar_multiplication(a, n):
    assert n * a == a * n
    assert 1 * a == a
    assert 0 * a == BivariateSeries.zero(a.order)

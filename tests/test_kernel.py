"""Tests for the exact-arithmetic kernel: polynomials and the bivariate quotient table."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mzv.asymptotic import _gregory_diagonals
from mzv.kernel import (
    NEG_INFINITY,
    BivariateSeries,
    RationalPolynomial,
    horner,
    rat,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
polynomials = st.lists(rationals, min_size=0, max_size=6).map(RationalPolynomial)


def fraction_horner(coeffs, x):
    """Oracle: Horner's rule one Fraction at a time."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def diagonals(coeffs):
    """The diagonal reader of a polynomial given as {(i, j): c}."""
    return lambda t: [Fraction(coeffs.get((i, t - i), 0)) for i in range(t + 1)]


ONE = diagonals({(0, 0): 1})


def quotient(num, den, order=0):
    """The table of num / den, both given as diagonal readers."""
    return BivariateSeries(lambda t: (num(t), den(t)), order)


def div_xy_difference(diagonal):
    """Oracle: divide one homogeneous diagonal by (x - y), certifying divisibility.

    Entry i of a total-degree-D diagonal is the coefficient of x^i y^(D-i).
    It is divisible by (x - y) exactly when its entries sum to zero; the
    quotient is the total-degree-(D-1) diagonal.  Otherwise a ValueError
    reports the total degree and the residue.
    """
    degree = len(diagonal) - 1
    quotient = [Fraction(0)] * degree
    # c_i = q_{i-1} - q_i: walk down from the pure-x end, then the leftover
    # c_0 + q_0 certifies divisibility.
    carry = Fraction(0)
    for i in range(degree, 0, -1):
        carry = quotient[i - 1] = diagonal[i] + carry
    residue = diagonal[0] + carry
    if residue != 0:
        raise ValueError(
            "series is not divisible by (x - y): diagonal sum at total degree "
            f"{degree} leaves residue {residue}"
        )
    return quotient


@st.composite
def polynomials_2d(draw, max_degree=4):
    coeffs = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        i = draw(st.integers(min_value=0, max_value=max_degree))
        j = draw(st.integers(min_value=0, max_value=max_degree - i))
        coeffs[(i, j)] = draw(rationals)
    return coeffs


@st.composite
def graded_units(draw, max_degree=4):
    """A divisor with a nonzero constant and one constant d_s per diagonal s."""
    units = [draw(rationals.filter(lambda c: c != 0))]
    units += [draw(rationals) for _ in range(max_degree)]
    return {(i, s - i): d for s, d in enumerate(units) for i in range(s + 1)}


# ---------------------------------------------------------------------------
# Scalar helpers
# ---------------------------------------------------------------------------


def test_rat_converts_integers_and_fractions():
    assert rat(3) == Fraction(3)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)


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
    assert RationalPolynomial() == RationalPolynomial((0, 0)) == 0
    assert not RationalPolynomial()
    assert RationalPolynomial.monomial(0) == RationalPolynomial((1,))
    assert RationalPolynomial.monomial(3) == RationalPolynomial((0, 0, 0, 1))
    assert RationalPolynomial.monomial(3).degree == 3
    with pytest.raises(ValueError):
        RationalPolynomial.monomial(-1)


def test_polynomial_evaluate():
    p = RationalPolynomial((1, -2, 3))  # 3x^2 - 2x + 1
    assert p.evaluate(0) == 1
    assert p.evaluate(2) == 9
    assert p.evaluate(Fraction(1, 3)) == Fraction(2, 3)
    assert RationalPolynomial().evaluate(5) == 0
    assert RationalPolynomial.monomial(3).evaluate(2) == 8
    assert RationalPolynomial((1, 1)).evaluate(Fraction(1, 2)) == Fraction(3, 2)


def test_polynomial_evaluate_refuses_a_float():
    with pytest.raises(TypeError):
        RationalPolynomial((1, 2)).evaluate(0.5)
    with pytest.raises(TypeError):
        RationalPolynomial().evaluate(1.0)


@given(
    st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=8),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=50),
)
def test_horner_scales_the_value_by_q_to_the_degree(coeffs, p, q):
    value = horner(coeffs, p, q)
    assert type(value) is int
    assert value == fraction_horner(coeffs, Fraction(p, q)) * q ** max(len(coeffs) - 1, 0)
    if q == 1:
        assert horner(coeffs, p) == value


@given(polynomials, st.one_of(rationals, st.integers(min_value=-20, max_value=20)))
def test_polynomial_evaluate_matches_fraction_horner(a, x):
    # Covers the zero polynomial (no coefficients), constants and negative points.
    value = a.evaluate(x)
    assert type(value) is Fraction
    assert value == fraction_horner(a.coeffs, x)
    assert a.evaluate(x) == value  # a second call reads the stored numerators


def test_polynomial_scalar_interop():
    # A scalar equals the constant polynomial; the value type has no arithmetic.
    p = RationalPolynomial((0, 1))
    assert RationalPolynomial((3,)) == 3 and RationalPolynomial((Fraction(2, 3),)) == Fraction(2, 3)
    assert p != 0 and p != 1 and RationalPolynomial.monomial(0) == 1
    for apply in (lambda: 1 + p, lambda: p - 1, lambda: 2 * p, lambda: p * p, lambda: -p, lambda: p(1)):
        with pytest.raises(TypeError):
            apply()


def test_polynomial_to_string():
    P = RationalPolynomial
    assert P((1, 2)).to_string("Y") == "2*Y + 1"
    assert P(()).to_string("Y") == "0"
    assert P((0, -1)).to_string("Y") == "-Y"
    assert P((0, -2, 0, 1)).to_string() == "x^3 - 2*x"
    assert P((Fraction(1, 2),)).to_string("z") == "1/2"
    assert P((1, Fraction(-3, 4), 1)).to_string("x") == "x^2 - 3/4*x + 1"


# ---------------------------------------------------------------------------
# BivariateSeries and the (x - y) division
# ---------------------------------------------------------------------------


def test_series_constructors_and_coefficients():
    s = quotient(diagonals({(1, 0): 2, (0, 2): Fraction(1, 3), (2, 2): 9}), ONE, 3)
    assert s.order == 3
    assert s.coefficient(1, 0) == 2
    assert s.coefficient(0, 2) == Fraction(1, 3)
    assert s.coefficient(0, 0) == 0
    assert quotient(ONE, ONE).order == 0
    # growing appends diagonals; a lower order leaves the table as it is
    s.grow(4)
    assert s.order == 4
    assert s.coefficient(2, 2) == 9
    s.grow(1)
    assert s.order == 4


def test_series_bounds_checks():
    s = quotient(diagonals({(1, 1): 1}), ONE, 2)
    with pytest.raises(ValueError):
        s.coefficient(2, 1)
    with pytest.raises(ValueError):
        s.coefficient(-1, 0)
    with pytest.raises(ValueError):
        quotient(ONE, ONE, -1)
    with pytest.raises(ValueError):
        s.grow(-1)
    s.grow(3)
    assert s.coefficient(2, 1) == 0


def test_series_geometric_division():
    # 1 / (1 - x - y) is the sum of (x + y)^k
    order = 6
    geo = quotient(ONE, diagonals({(0, 0): 1, (1, 0): -1, (0, 1): -1}), order)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            assert geo.coefficient(i, j) == comb(i + j, i)


def test_series_division_requires_unit():
    with pytest.raises(ValueError, match="unit"):
        quotient(ONE, diagonals({(1, 0): 1, (0, 1): 1}))
    # 1 - x is a unit, but not constant on the total-degree-1 diagonal
    table = quotient(ONE, diagonals({(0, 0): 1, (1, 0): -1}))
    with pytest.raises(ValueError, match="total degree 1 is not constant"):
        table.grow(2)
    assert table.order == 0


def test_series_xy_difference_example():
    # (x^2 - y^2) / (x - y) == x + y, one total degree lower
    assert div_xy_difference([Fraction(-1), Fraction(0), Fraction(1)]) == [1, 1]
    s = diagonals({(2, 0): 1, (0, 2): -1})
    q = quotient(lambda t: div_xy_difference(s(t + 1)), ONE, 3)
    assert [q.coefficient(i, t - i) for t in range(4) for i in range(t + 1)] == [
        0, 1, 1, 0, 0, 0, 0, 0, 0, 0,
    ]


def test_series_xy_difference_reports_first_bad_diagonal():
    s = diagonals({(2, 0): 1, (0, 2): 1})
    table = quotient(lambda t: div_xy_difference(s(t + 1)), ONE)
    with pytest.raises(ValueError, match="total degree 2"):
        table.grow(3)
    assert table.order == 0
    with pytest.raises(ValueError, match="total degree 0"):
        div_xy_difference([Fraction(1)])


@given(polynomials_2d(), graded_units())
def test_series_division_round_trip(a, d):
    # quotient times divisor gives the numerator back, term by term
    order = 4
    q = quotient(diagonals(a), diagonals(d), order)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            product = sum(
                q.coefficient(i - u, j - v) * d[(u, v)]
                for u in range(i + 1)
                for v in range(j + 1)
            )
            assert product == a.get((i, j), 0)


@given(st.lists(rationals, min_size=0, max_size=6))
def test_series_xy_difference_round_trip(q):
    # c_i = q_{i-1} - q_i is the diagonal of (x - y) q
    padded = [Fraction(0)] + q + [Fraction(0)]
    product = [padded[i] - padded[i + 1] for i in range(len(q) + 1)]
    assert div_xy_difference(product) == q


def test_gregory_diagonals_are_the_divided_log_series():
    # y log^2(1+x) - x log^2(1+y) and log(1+x) - log(1+y), each divided by
    # (x - y) one diagonal at a time, against the closed forms for t <= 60.
    order = 61
    log = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)]
    log2 = [sum(log[a] * log[k - a] for a in range(k + 1)) for k in range(order + 1)]
    num, den = {}, {}
    for k in range(order + 1):
        num[(k, 1)] = num.get((k, 1), 0) + log2[k]
        num[(1, k)] = num.get((1, k), 0) - log2[k]
        den[(k, 0)] = den.get((k, 0), 0) + log[k]
        den[(0, k)] = den.get((0, k), 0) - log[k]
    for t in range(order):
        assert _gregory_diagonals(t) == (
            div_xy_difference(diagonals(num)(t + 1)),
            div_xy_difference(diagonals(den)(t + 1)),
        )

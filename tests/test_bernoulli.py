"""Tests for Bernoulli numbers/polynomials of arbitrary order and the
depth-one zeta values built from them."""

from fractions import Fraction
from math import comb, factorial, lcm
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzv import bernoulli
from mzv.asymptotic import asym_coeff
from mzv.bernoulli import (
    bernoulli_higher_at,
    bernoulli_higher_order,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_at,
    choi_identity_check,
    choi_value,
    hurwitz_zeta_neg,
    shift_ratios,
    zeta_neg,
    zeta_star_neg,
)
from mzv.kernel import RationalPolynomial

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)
positive_rationals = st.fractions(
    min_value=Fraction(1, 8), max_value=4, max_denominator=8
)


def test_bernoulli_number_examples():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(7) == 0
    assert bernoulli_number(12) == Fraction(-691, 2730)
    with pytest.raises(ValueError):
        bernoulli_number(-1)


def test_bernoulli_polynomial_examples():
    assert bernoulli_poly(0) == RationalPolynomial((1,))
    assert bernoulli_poly(1).to_string("z") == "z - 1/2"
    assert bernoulli_poly(2) == RationalPolynomial((Fraction(1, 6), -1, 1))
    assert bernoulli_poly_at(3, Fraction(1, 2)) == 0
    assert bernoulli_poly_at(2, 1) == Fraction(1, 6)


@given(st.integers(min_value=0, max_value=15))
def test_bernoulli_poly_at_zero_and_one(n):
    assert bernoulli_poly_at(n, 0) == bernoulli_number(n)
    expected_at_one = bernoulli_number(n)
    if n == 1:
        expected_at_one = -expected_at_one
    assert bernoulli_poly_at(n, 1) == expected_at_one


@given(st.integers(min_value=0, max_value=15), rationals)
def test_bernoulli_reflection(n, z):
    poly, sign = bernoulli_poly(n), -1 if n % 2 else 1
    # Both sides have degree n in z, so agreeing at the n + 1 distinct points
    # z, z + 1, ..., z + n makes B_n(1 - z) and (-1)^n B_n(z) one polynomial.
    for x in (z + k for k in range(n + 1)):
        assert poly.evaluate(1 - x) == sign * poly.evaluate(x)
    assert bernoulli_poly_at(n, 1 - z) == sign * bernoulli_poly_at(n, z)


@given(st.integers(min_value=0, max_value=12), rationals)
def test_bernoulli_difference_equation(n, z):
    # B_n(z + 1) - B_n(z) == n z^(n-1)
    diff = bernoulli_poly_at(n, z + 1) - bernoulli_poly_at(n, z)
    assert diff == (n * z ** (n - 1) if n >= 1 else 0)


def test_higher_order_reductions():
    assert bernoulli_higher_order(0, 3) == RationalPolynomial((1,))
    assert bernoulli_higher_order(2, 0) == RationalPolynomial.monomial(2)
    assert bernoulli_higher_order(1, 2).to_string("z") == "z - 1"
    for n in range(8):
        assert bernoulli_higher_order(n, 1) == bernoulli_poly(n)
    with pytest.raises(ValueError):
        bernoulli_higher_order(1, -1)


@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    rationals,
)
def test_higher_order_additivity(n, m1, m2, z):
    # B^(m1+m2)_n(z) == sum_j C(n, j) B^(m1)_j(z) B^(m2)_{n-j}(0)
    total = sum(
        comb(n, j)
        * bernoulli_higher_at(j, m1, z)
        * bernoulli_higher_at(n - j, m2, 0)
        for j in range(n + 1)
    )
    assert total == bernoulli_higher_at(n, m1 + m2, z)


def test_zeta_values():
    assert zeta_neg(0) == Fraction(-1, 2)
    assert zeta_neg(1) == Fraction(-1, 12)
    assert zeta_neg(2) == 0
    assert zeta_neg(3) == Fraction(1, 120)
    assert zeta_neg(4) == 0
    assert zeta_star_neg(0) == Fraction(1, 2)
    assert zeta_star_neg(1) == Fraction(-1, 12)
    with pytest.raises(ValueError):
        zeta_neg(-1)


def test_zeta_neg_matches_bernoulli_polynomial_at_one():
    # zeta_neg reads -B_{l+1}/(l+1) from the numbers, with zeta(0) set apart;
    # the polynomial at one needs no special case, so it is the reference.
    for l in range(201):
        assert zeta_neg(l) == -bernoulli_poly_at(l + 1, 1) / (l + 1), l


@given(st.integers(min_value=0, max_value=15))
def test_zeta_and_star_differ_by_one_at_zero_weight_only(l):
    assert zeta_star_neg(l) - zeta_neg(l) == (1 if l == 0 else 0)


@given(st.integers(min_value=0, max_value=12), rationals)
def test_hurwitz_zeta_neg_is_bernoulli_ratio(l, a):
    assert hurwitz_zeta_neg(l, a) == -bernoulli_poly_at(l + 1, a) / (l + 1)


def test_hurwitz_zeta_specializes_to_zeta():
    for l in range(10):
        assert hurwitz_zeta_neg(l, 1) == zeta_neg(l)


def test_choi_value_examples():
    assert choi_value(1, 0, 1) == Fraction(-1, 2)
    assert choi_value(1, 1, 1) == Fraction(-1, 12)
    assert choi_value(2, 0, 2) == Fraction(5, 12)
    with pytest.raises(ValueError):
        choi_value(0, 1, 1)
    with pytest.raises(ValueError):
        choi_value(2, 0, 0)
    with pytest.raises(ValueError):
        choi_value(2, 0, -1)


def test_choi_identity_examples():
    assert choi_identity_check(2, 0, 1, 1)
    assert choi_identity_check(3, 2, Fraction(3, 2), 1)
    assert choi_identity_check(3, 2, Fraction(3, 2), 2)
    with pytest.raises(ValueError):
        choi_identity_check(3, 2, Fraction(3, 2), 0)
    with pytest.raises(ValueError):
        choi_identity_check(3, 2, Fraction(3, 2), 3)
    with pytest.raises(ValueError):
        choi_identity_check(2, 1, 0, 1)


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=4),
    positive_rationals,
)
def test_choi_identity_random(r, l, z):
    for m in range(1, r):
        assert choi_identity_check(r, l, z, m)


def _choi_by_fractions(r, l, z, m):
    """The contiguous-shift reduction as a sum of Fraction values."""
    rhs = sum((comb(m, k) * choi_value(r - m + k, l, z + k) for k in range(m + 1)), Fraction(0))
    return choi_value(r, l, z) == rhs


@st.composite
def choi_arguments(draw):
    r = draw(st.integers(min_value=2, max_value=7))
    m = draw(st.integers(min_value=1, max_value=r - 1))
    l = draw(st.integers(min_value=0, max_value=8))
    q = draw(st.integers(min_value=2, max_value=40))
    p = draw(st.integers(min_value=1, max_value=200).filter(lambda p: p % q))
    return r, l, Fraction(p, q), m


@settings(max_examples=60, deadline=None)
@given(choi_arguments(), st.integers(min_value=1, max_value=10**6))
def test_integer_choi_check_agrees_with_the_fraction_sum(args, bump):
    r, l, z, m = args
    assert choi_identity_check(r, l, z, m) is _choi_by_fractions(r, l, z, m) is True
    # Perturb B^(r-m)_{r-m+l}, which only the k = 0 term of the right side
    # reads: both forms must then report the reduction as failed.
    honest = bernoulli.bernoulli_higher_order

    def perturbed(n, order):
        poly = honest(n, order)
        if (n, order) != (r - m + l, r - m):
            return poly
        return RationalPolynomial((poly.coefficient(0) + Fraction(1, bump),) + poly.coeffs[1:])

    with patch.object(bernoulli, "bernoulli_higher_order", perturbed):
        assert choi_identity_check(r, l, z, m) is _choi_by_fractions(r, l, z, m) is False


def test_shift_ratios_windows_in_any_order():
    # A shift that no other test reads, so its list starts empty: rows above
    # the list's end grow it, rows below read a prefix of it.
    a = Fraction(-17, 19)
    for top in (9, 2, 30, 40, 12, 41, 0):
        den, nums = shift_ratios(a, top)
        assert den == factorial(top) * 19**top * _bernoulli_lcm(top), top
        expected = [bernoulli_poly(n).evaluate(a) / factorial(n) for n in range(top + 1)]
        assert [Fraction(x, den) for x in nums] == expected, top
        assert shift_ratios(a, top) is shift_ratios(a, top)
    with pytest.raises(ValueError):
        shift_ratios(a, -1)
    with pytest.raises(ValueError):
        bernoulli_poly_at(-1, a)


def test_shift_ratios_row_ignores_earlier_high_reads():
    # B_301(1) is read first, through a depth-one coefficient, yet the row of
    # the shift 1 at top 5 keeps its own denominator 5! L(5) = 120 * 30.
    assert asym_coeff((300,), (), (1,)) == -bernoulli_number(301) / 301
    assert shift_ratios(Fraction(1), 5)[0] == 3600


def _bernoulli_lcm(n):
    return lcm(*(bernoulli_number(k).denominator for k in range(n + 1)))

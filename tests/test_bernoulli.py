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
        den, nums = shift_ratios((-17, 19), top)
        assert den == factorial(top) * 19**top * _bernoulli_lcm(top), top
        expected = [bernoulli_poly(n).evaluate(a) / factorial(n) for n in range(top + 1)]
        assert [Fraction(x, den) for x in nums] == expected, top
        assert shift_ratios((-17, 19), top) is shift_ratios((-17, 19), top)
    with pytest.raises(ValueError):
        shift_ratios((-17, 19), -1)
    with pytest.raises(ValueError):
        bernoulli_poly_at(-1, a)


def test_shift_ratios_row_ignores_earlier_high_reads():
    # B_301(1) is read first, through a depth-one coefficient, yet the row of
    # the shift 1 at top 5 keeps its own denominator 5! L(5) = 120 * 30.
    assert asym_coeff((300,), (), (1,)) == -bernoulli_number(301) / 301
    assert shift_ratios((1, 1), 5)[0] == 3600


def test_shift_rows_past_their_bound_clear_the_table_and_rebuild_the_same_rows(monkeypatch):
    # Rows of top 5 hold 6 entries each, so under a bound of 20 entries the
    # fourth row clears the first three; each built again equals the first build.
    monkeypatch.setattr(bernoulli, "_SHIFT_ROWS", {})
    monkeypatch.setattr(bernoulli, "_SHIFT_ROW_ENTRIES", 0)
    monkeypatch.setattr(bernoulli, "_SHIFT_ROW_BOUND", 20)
    shifts = ((1, 1), (1, 2), (3, 7))
    first = {a: shift_ratios(a, 5) for a in shifts}
    assert bernoulli._SHIFT_ROW_ENTRIES == 18 and list(bernoulli._SHIFT_ROWS) == [
        (a, 5) for a in shifts
    ]
    shift_ratios((2, 5), 5)
    assert bernoulli._SHIFT_ROW_ENTRIES == 6 and list(bernoulli._SHIFT_ROWS) == [((2, 5), 5)]
    for a in shifts:
        assert shift_ratios(a, 5) == first[a], a
        held = sum(len(nums) for _, nums in bernoulli._SHIFT_ROWS.values())
        assert bernoulli._SHIFT_ROW_ENTRIES == held <= 20


def test_point_evaluations_keep_no_per_shift_list(monkeypatch):
    # Each new point once added a list to the per-shift table for good; 2,000
    # points must leave it empty, and each value must still be B_n(z).
    monkeypatch.setattr(bernoulli, "_SHIFT_VALUES", {})
    points = [Fraction(p, q) for q in range(1, 41) for p in range(-25, 25)]
    for i, z in enumerate(points):
        n = i % 12
        assert bernoulli_poly_at(n, z) == bernoulli_poly(n).evaluate(z), (n, z)
        assert hurwitz_zeta_neg(n, abs(z) + 1) == -bernoulli_poly(n + 1).evaluate(abs(z) + 1) / (n + 1)
    assert bernoulli._SHIFT_VALUES == {}


def test_only_shift_ratios_writes_the_per_shift_list(monkeypatch):
    # From empty tables, a higher-order polynomial and a Choi value add no
    # per-shift list (the order-one R(X) series reads the Bernoulli numbers);
    # only shift_ratios adds one, for the shift it is asked for.
    for name, empty in (("_SHIFT_VALUES", {}), ("_SHIFT_ROWS", {}), ("_RATIO_POWERS", [])):
        monkeypatch.setattr(bernoulli, name, empty)
    monkeypatch.setattr(bernoulli, "_SHIFT_ROW_ENTRIES", 0)
    bernoulli_higher_order.cache_clear()
    assert bernoulli_higher_order(12, 3).evaluate(0) == factorial(12) * _ratio_series(3, 12)[12]
    assert choi_value(4, 6, 3) == Fraction(factorial(6), factorial(10)) * bernoulli_higher_at(10, 4, 3)
    assert bernoulli._SHIFT_VALUES == {}
    den, nums = shift_ratios((1, 2), 5)
    assert list(bernoulli._SHIFT_VALUES) == [(1, 2)]
    assert [Fraction(n, den) for n in nums] == [
        bernoulli_poly(n).evaluate(Fraction(1, 2)) / factorial(n) for n in range(6)
    ]


def _ratio_series(m, order):
    """[X^n] R(X)^m for n <= order, R(X) = X / (e^X - 1), as a test-local
    Fraction product: R is the inverse of sum_n X^n / (n + 1)!."""
    e = [Fraction(1, factorial(n + 1)) for n in range(order + 1)]
    r = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        r[n] = -sum(e[k] * r[n - k] for k in range(1, n + 1))
    power = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(m):
        power = [sum(power[i] * r[n - i] for i in range(n + 1)) for n in range(order + 1)]
    return tuple(power)


@pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
def test_ratio_power_reads_in_any_order_match_the_fraction_product(monkeypatch, order):
    # Each read grows the series of its m in place from an empty table; every
    # read, short or long, before or after a longer one, must be the product.
    monkeypatch.setattr(bernoulli, "_RATIO_POWERS", [])
    reads = [(m, n) for m in range(6) for n in range(0, 15, 2)]
    if order == "descending":
        reads.reverse()
    elif order == "interleaved":
        reads = [(m, n) for n in (7, 0, 12, 3, 14, 9) for m in (4, 1, 5, 0, 3, 2)]
    oracle = {m: _ratio_series(m, 14) for m in range(6)}
    for m, n in reads:
        assert bernoulli._ratio_power(m, n) == oracle[m][: n + 1], (m, n)
    assert [len(series) for series in bernoulli._RATIO_POWERS] == [
        max(n for k, n in reads if k == m) + 1 for m in range(6)
    ]


def _bernoulli_lcm(n):
    return lcm(*(bernoulli_number(k).denominator for k in range(n + 1)))

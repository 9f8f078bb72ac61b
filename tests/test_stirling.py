"""Tests for Stirling numbers and their polynomial deformations."""

from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mzv import bernoulli, stirling
from mzv.bernoulli import bernoulli_higher_at
from mzv.kernel import RationalPolynomial, horner
from mzv.stirling import (
    _poly_coeffs,
    _second_kernels,
    stirling_first,
    stirling_kernel_box,
    stirling_poly_first,
    stirling_poly_first_at,
    stirling_poly_second,
    stirling_poly_second_at,
    stirling_second,
    stirling_transform_apply,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8)


def second_at_int(n, m, y):
    """Oracle: S(n, m, y) at an integer y, by the closed-form sum with a power per term."""
    return sum(comb(n, k) * stirling_second(n - k, m) * y**k for k in range(n - m + 1))


def first_at_int(n, m, y):
    """Oracle: s(n, m, y) at an integer y, by the closed-form sum with a power per term."""
    return sum(
        comb(m + k, m) * stirling_first(n, m + k) * (-y) ** k for k in range(n - m + 1)
    )


def test_classical_number_examples():
    assert stirling_first(0, 0) == 1
    assert stirling_first(2, 1) == -1
    assert stirling_first(1, 5) == 0
    assert stirling_first(4, 2) == 11
    assert stirling_second(3, 2) == 3
    assert stirling_second(2, 4) == 0
    assert stirling_second(0, 0) == 1
    assert stirling_second(5, 3) == 25


def test_polynomial_examples():
    assert stirling_poly_first(1, 0).to_string("Y") == "-Y"
    assert stirling_poly_first(2, 1).to_string("Y") == "-2*Y - 1"
    assert stirling_poly_second(1, 0).to_string("Y") == "Y"
    assert stirling_poly_second(2, 1).to_string("Y") == "2*Y + 1"
    assert stirling_poly_second(3, 5) == RationalPolynomial(())
    assert stirling_poly_first(0, 0) == RationalPolynomial((1,))


def test_rejects_negative_indices():
    with pytest.raises(ValueError):
        stirling_first(-1, 0)
    with pytest.raises(ValueError):
        stirling_second(0, -2)
    with pytest.raises(ValueError):
        stirling_poly_first(-3, 1)


@given(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=9),
)
def test_polynomials_specialize_to_numbers_at_zero(n, m):
    assert stirling_poly_first_at(n, m, 0) == stirling_first(n, m)
    assert stirling_poly_second_at(n, m, 0) == stirling_second(n, m)


@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    rationals,
)
def test_poly_at_matches_polynomial_evaluation(n, m, y):
    assert stirling_poly_first_at(n, m, y) == stirling_poly_first(
        n, m
    ).evaluate(y)
    assert stirling_poly_second_at(n, m, y) == stirling_poly_second(
        n, m
    ).evaluate(y)


@given(st.integers(min_value=0, max_value=8), rationals)
def test_polynomial_orthogonality(n, y):
    for k in range(n + 1):
        both = sum(
            stirling_poly_first_at(n, j, y) * stirling_poly_second_at(j, k, y)
            for j in range(k, n + 1)
        )
        assert both == (1 if n == k else 0)


@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    rationals,
)
def test_shifted_recurrence(n, m, y):
    # Y * S(n, m, Y) == S(n+1, m, Y) - S(n, m-1, Y+1)
    lhs = y * stirling_poly_second_at(n, m, y)
    rhs = stirling_poly_second_at(n + 1, m, y)
    if m >= 1:
        rhs -= stirling_poly_second_at(n, m - 1, y + 1)
    assert lhs == rhs


def test_generating_function_small():
    # n! [X^n] (e^X - 1)^k e^{yX} / k!  ==  S(n, k, y), spot-checked by
    # expanding the exponentials with exact rational coefficients.
    y = Fraction(5, 2)
    order = 8

    def exp_coeffs(c, order):
        return [Fraction(c) ** t / _factorial(t) for t in range(order + 1)]

    def _factorial(t):
        out = 1
        for u in range(2, t + 1):
            out *= u
        return out

    for k in range(4):
        # (e^X - 1)^k = sum_i (-1)^(k-i) C(k,i) e^{iX}
        coeffs = [Fraction(0)] * (order + 1)
        for i in range(k + 1):
            sign = (-1) ** (k - i)
            for t, c in enumerate(exp_coeffs(i + y, order)):
                coeffs[t] += sign * comb(k, i) * c
        for n in range(order + 1):
            expected = coeffs[n] * _factorial(n) / _factorial(k)
            assert stirling_poly_second_at(n, k, y) == expected


def test_transform_round_trip_example():
    seq = (1, 2, 5)
    forward = stirling_transform_apply(seq, 3, "first-to-second")
    assert forward == (Fraction(1), Fraction(5), Fraction(28))
    back = stirling_transform_apply(forward, 3, "second-to-first")
    assert back == (Fraction(1), Fraction(2), Fraction(5))


def test_transform_unit_vectors_extract_columns():
    # Applying the forward transform to a unit vector reads off a column of
    # the polynomial triangle evaluated at y.
    y = Fraction(1, 3)
    n = 5
    unit = tuple(1 if t == 2 else 0 for t in range(n + 1))
    image = stirling_transform_apply(unit, y, "first-to-second")
    for t in range(n + 1):
        assert image[t] == stirling_poly_second_at(t, 2, y)


def test_transform_rejects_unknown_direction():
    with pytest.raises(ValueError):
        stirling_transform_apply((1,), 0, "sideways")


@given(
    st.lists(rationals, min_size=1, max_size=7),
    rationals,
)
def test_transform_round_trip(seq, y):
    forward = stirling_transform_apply(seq, y, "first-to-second")
    back = stirling_transform_apply(forward, y, "second-to-first")
    assert back == tuple(Fraction(c) for c in seq)


@given(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
    rationals,
)
def test_convolution(n, m, k, x):
    # S(n, k, x) == sum_i S(m, i, x + k - i) * S(n - m, k - i, x) for m <= n
    if m > n:
        return
    total = sum(
        stirling_poly_second_at(m, i, x + k - i)
        * stirling_poly_second_at(n - m, k - i, x)
        for i in range(min(m, k) + 1)
    )
    assert total == stirling_poly_second_at(n, k, x)


def test_integer_parameter_polynomial_values():
    for n in range(11):
        for m in range(n + 2):
            for y in range(-3, 6):
                for first, oracle in ((False, second_at_int), (True, first_at_int)):
                    expected = oracle(n, m, y)
                    # The box weights read the coefficient tuple at integer y.
                    value = horner(_poly_coeffs(n, m, first), y)
                    assert type(value) is int
                    assert value == expected, (n, m, y, first)
                    at = stirling_poly_first_at if first else stirling_poly_second_at
                    assert at(n, m, y) == expected, (n, m, y, first)


def times_linear(coeffs, c):
    """Coefficients of P(X) (X + c), given those of P lowest degree first."""
    return [c * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]


def test_first_kind_polynomial_expands_the_shifted_falling_factorial():
    # (X - Y)_n = sum_m s(n, m, Y) X^m, both sides as polynomials in X at integer Y.
    for y in range(-3, 4):
        falling = [1]
        for n in range(9):
            expanded = RationalPolynomial(stirling_poly_first_at(n, m, y) for m in range(n + 1))
            assert RationalPolynomial(falling) == expanded, (n, y)
            falling = times_linear(falling, -y - n)


def test_point_values_leave_every_cache_unchanged():
    caches = [
        obj
        for module in (stirling, bernoulli)
        for obj in vars(module).values()
        if hasattr(obj, "cache_info")
    ]
    stirling_poly_second_at(7, 3, 0)
    bernoulli_higher_at(6, 2, 0)
    sizes = [c.cache_info().currsize for c in caches]
    for t in range(1, 1001):
        y = Fraction(t * (-1) ** t, 7)
        stirling_poly_second_at(7, 3, y)
        bernoulli_higher_at(6, 2, y)
    assert [c.cache_info().currsize for c in caches] == sizes


@pytest.mark.parametrize("l", [(0,), (3,), (2, 1), (1, 0, 2), (2, 2, 1), (0, 3, 1, 1)])
@pytest.mark.parametrize("shift", [0, 1])
def test_kernel_box_int_weights_match_the_box_points(l, shift):
    # The box summed point by point, with the closed-form sum as the kernel.
    expected = {}
    for k in product(*(range(lj + 1) for lj in l)):
        weight, K = Fraction(1), 0
        for j, (lj, kj) in enumerate(zip(l, k), start=1):
            weight *= (-1) ** (shift * (lj - kj)) * second_at_int(lj, kj, K + j - shift)
            weight *= Fraction(factorial(K + kj + j - 1), factorial(K + j - 1))
            K += kj
        expected[K] = expected.get(K, 0) + weight
    boxed = stirling_kernel_box(l, shift)
    assert all(type(w) is int for w in boxed.values())
    assert boxed == {K: w for K, w in expected.items() if w}


def test_second_kernels_are_the_second_kind_poly_coeffs():
    for n in range(41):
        assert _second_kernels(n) == tuple(_poly_coeffs(n, m, False) for m in range(n + 1)), n

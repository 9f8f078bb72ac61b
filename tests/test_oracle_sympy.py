"""The base layer against sympy, an independent implementation.

sympy is an optional test-time dependency; these checks are skipped when it
is not installed.
"""

from fractions import Fraction

import pytest

from mzv.bernoulli import _ratio_power, bernoulli_number, zeta_neg
from mzv.stirling import stirling_first, stirling_second

sympy = pytest.importorskip("sympy")
stirling = sympy.functions.combinatorial.numbers.stirling


def _fraction(value) -> Fraction:
    rational = sympy.Rational(value)
    return Fraction(int(rational.p), int(rational.q))


def test_bernoulli_numbers_match_sympy():
    # Up to B_400: the benchmark's query workload reads Bernoulli numbers past B_160.
    for n in range(401):
        expected = _fraction(sympy.bernoulli(n))
        if n == 1:
            expected = -expected  # sympy uses B_1 = +1/2
        assert bernoulli_number(n) == expected, n


def test_zeta_at_non_positive_integers_matches_sympy():
    for l in range(201):
        assert zeta_neg(l) == _fraction(sympy.zeta(-l)), l


def test_stirling_numbers_match_sympy():
    for n in range(40):
        for m in range(n + 1):
            assert stirling_first(n, m) == int(stirling(n, m, kind=1, signed=True)), (n, m)
            assert stirling_second(n, m) == int(stirling(n, m)), (n, m)


def test_ratio_power_series_match_sympy():
    # R(X)^m = (X / (e^X - 1))^m, one sympy series per m read at every order n.
    x = sympy.Symbol("x")
    for m in range(4):
        series = sympy.series((x / (sympy.exp(x) - 1)) ** m, x, 0, 11).removeO()
        expected = [_fraction(series.coeff(x, n)) for n in range(11)]
        for n in range(11):
            assert _ratio_power(m, n) == tuple(expected[: n + 1]), (m, n)

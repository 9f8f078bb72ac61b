"""Bernoulli numbers and polynomials (ordinary and higher order), zeta values
at non-positive integers, and iterated Hurwitz-type sums there.

The base objects come from one exponential generating function: with
R(X) = X / (e^X - 1), the coefficients of R(X)^m e^{zX} are
B_n^(m)(z) / n!, the higher-order Bernoulli polynomials.  Order m = 1 gives
the ordinary Bernoulli polynomials, and z = 0 the ordinary numbers (with the
B_1 = -1/2 convention that R(X) itself carries).  The series of R(X)^m is
kept in one list per order m, grown in place on demand: each coefficient is
computed once, as one convolution of the order m - 1 series with R(X), and a
truncation is a prefix of any longer one.

The Bernoulli numbers themselves come from integer tangent numbers (Brent
and Harvey, "Fast computation of Bernoulli, Tangent and Secant numbers",
2011): B_{2k} = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), so the only rational
step is one reduction per number.  They are kept in one list, grown on
demand, which also yields the series coefficients B_n / n! of R(X).  Zeta
values at non-positive integers are read from a second list,
zeta(-l) = -B_{l+1} / (l+1) with zeta(0) = -1/2 (the bare number would give
+1/2 there, as B_1 = -1/2).

With L a multiple of the denominators of B_0..B_n and a = p/q,
q^n L B_n(a) = sum_k C(n,k) (L B_k) p^(n-k) q^k is an integer.  A point
evaluation, :func:`bernoulli_poly_at` and so :func:`hurwitz_zeta_neg`, is
that one integer over q^n L(n) and keeps no state.  Only
:func:`shift_ratios` keeps the values B_n(a)/n! per shift, in one list that
only grows by appending, each value computed once.  It reads that list as
one row per (shift, top), the shift given as the int pair (p, q), integer
numerators over top! q^top L(top), so a sum over the row can be added up as
integers.  The rows are kept up to a bound on their total entries, and past
it dropped all at once: a row depends on (shift, top) alone, so one built
again is the same row.

The iterated Hurwitz-type sum of depth r at argument -l with shift z > 0 has
the exact value

    (-1)^r * l! / (r+l)! * B_{r+l}^(r)(z),

exposed as :func:`choi_value`, together with the contiguous-shift identity
check :func:`choi_identity_check`.  No value is cached per point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, perm
from typing import Dict, List, Tuple

from .kernel import RationalLike, RationalPolynomial, horner, rat

# B_0, B_1, ... and zeta(0), zeta(-1), ...: grown on demand by _grow.
_BERNOULLI: List[Fraction] = []
_ZETA_NEG: List[Fraction] = []
# Per shift a = p/q, keyed by (p, q): B_0(a)/0!, B_1(a)/1!, ... in order.
_SHIFT_VALUES: Dict[Tuple[int, int], List[Fraction]] = {}
# Keyed by ((p, q), top): the row (den, nums) that shift_ratios returns.
# _SHIFT_ROW_ENTRIES counts the entries of its rows; a row that would take
# the count past _SHIFT_ROW_BOUND clears the table first.
_SHIFT_ROWS: Dict[Tuple[Tuple[int, int], int], Tuple[int, Tuple[int, ...]]] = {}
_SHIFT_ROW_ENTRIES = 0
_SHIFT_ROW_BOUND = 16384
# _RATIO_POWERS[m][n] = [X^n] R(X)^m, each series grown in place by _ratio_power.
_RATIO_POWERS: List[List[Fraction]] = []


def _tangent_numbers(k: int) -> List[int]:
    """Tangent numbers T_1..T_k at indices 1..k: tan x = sum_j T_j x^(2j-1)/(2j-1)!.

    Brent and Harvey's in-place triangle: O(k^2) integer additions and
    small multiplications, no division.
    """
    t = [0] * (k + 1)
    if k:
        t[1] = 1
    for j in range(2, k + 1):
        t[j] = (j - 1) * t[j - 1]
    for i in range(2, k + 1):
        for j in range(i, k + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return t


def _grow(n: int) -> None:
    """Make _BERNOULLI hold B_0..B_n and _ZETA_NEG hold zeta(0)..zeta(-(n-1))."""
    have = len(_BERNOULLI)
    if n < have and n <= len(_ZETA_NEG):
        return
    # The triangle cannot be extended in place, so rebuild it at least
    # doubled: every number is then built a bounded number of times.
    top = max(n, 2 * have)
    tangent = _tangent_numbers(top // 2)
    new = []
    for m in range(have, top + 1):
        if m < 2:
            new.append(Fraction(1) if m == 0 else Fraction(-1, 2))
        elif m % 2:
            new.append(Fraction(0))
        else:
            k = m // 2
            sign = 1 if k % 2 else -1
            new.append(Fraction(sign * m * tangent[k], 4**k * (4**k - 1)))
    _BERNOULLI[have : top + 1] = new
    low = len(_ZETA_NEG)
    _ZETA_NEG[low:top] = [
        Fraction(-1, 2) if l == 0 else -_BERNOULLI[l + 1] / (l + 1) for l in range(low, top)
    ]


def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n, with the B_1 = -1/2 convention."""
    if n < 0:
        raise ValueError(f"Bernoulli index must be >= 0, got {n}")
    if n >= len(_BERNOULLI):
        _grow(n)
    return _BERNOULLI[n]


def bernoulli_poly(n: int) -> RationalPolynomial:
    """Bernoulli polynomial B_n(z) = sum_k binom(n, k) B_k z^{n-k}."""
    if n < 0:
        raise ValueError(f"Bernoulli index must be >= 0, got {n}")
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = comb(n, k) * bernoulli_number(k)
    return RationalPolynomial(coeffs)


def _denominator_lcm(n: int) -> int:
    """L(n), the lcm of the denominators of B_0..B_n."""
    _grow(n)
    return lcm(*(b.denominator for b in _BERNOULLI[: n + 1]))


def _scaled_bernoulli_poly(a: Tuple[int, int], n: int, big_l: int) -> int:
    """q^n L B_n(a) for a = p/q given as (p, q), L a multiple of the
    denominators of B_0..B_n."""
    p, q = a
    # Horner in p over the terms C(n,k) (L B_k) q^k p^(n-k).
    acc, c, qk = 0, 1, 1
    for k in range(n + 1):
        b = _BERNOULLI[k]
        acc = acc * p + (c * qk * (big_l // b.denominator) * b.numerator if b else 0)
        c = c * (n - k) // (k + 1)
        qk *= q
    return acc


def _shift_values(a: Tuple[int, int], n: int) -> List[Fraction]:
    """The list [B_0(a)/0!, B_1(a)/1!, ...] of shift a = p/q, given as (p, q)
    in lowest terms, grown to hold index n."""
    values = _SHIFT_VALUES.setdefault(a, [])
    have = len(values)
    if n >= have:
        big_l, q = _denominator_lcm(n), a[1]
        values.extend(
            Fraction(_scaled_bernoulli_poly(a, m, big_l), q**m * big_l * factorial(m))
            for m in range(have, n + 1)
        )
    return values


def shift_ratios(a: Tuple[int, int], top: int) -> Tuple[int, Tuple[int, ...]]:
    """(den, nums) with B_n(a)/n! = nums[n] / den for 0 <= n <= top.

    ``a`` is the shift p/q as the int pair (p, q) in lowest terms, q > 0,
    which hashes faster than a Fraction.  den = top! q^top L(top), so the row
    depends on (a, top) alone and a sum over it is a sum of integers.  A
    row is built by one integer division per entry, and kept until the
    table's entries would pass _SHIFT_ROW_BOUND.
    """
    global _SHIFT_ROW_ENTRIES
    key = (a, top)
    row = _SHIFT_ROWS.get(key)
    if row is None:
        if top < 0:
            raise ValueError(f"need top >= 0, got {top}")
        if _SHIFT_ROW_ENTRIES + top + 1 > _SHIFT_ROW_BOUND:
            _SHIFT_ROWS.clear()
            _SHIFT_ROW_ENTRIES = 0
        _SHIFT_ROW_ENTRIES += top + 1
        den = factorial(top) * a[1] ** top * _denominator_lcm(top)
        values = _shift_values(a, top)[: top + 1]
        row = _SHIFT_ROWS[key] = (den, tuple(v.numerator * (den // v.denominator) for v in values))
    return row


def bernoulli_poly_at(n: int, z: RationalLike) -> Fraction:
    """B_n(z) at a rational point z = p/q, as q^n L B_n(z) over q^n L; keeps no state."""
    if n < 0:
        raise ValueError(f"Bernoulli index must be >= 0, got {n}")
    zv, big_l = rat(z), _denominator_lcm(n)
    p, q = zv.numerator, zv.denominator
    return Fraction(_scaled_bernoulli_poly((p, q), n, big_l), q**n * big_l)


def _ratio_power(m: int, order: int) -> Tuple[Fraction, ...]:
    """Series coefficients of R(X)^m up to X^order, read from _RATIO_POWERS.

    The series of order m grows in place, each coefficient computed once as
    the convolution [X^n] R^m = sum_i [X^i] R^(m-1) [X^(n-i)] R: a truncation
    is a prefix of any longer one, so every order shares one list per m.
    """
    while len(_RATIO_POWERS) <= m:
        _RATIO_POWERS.append([])
    series = _RATIO_POWERS[m]
    have = len(series)
    if order >= have:
        if m == 0:
            series.extend(Fraction(int(n == 0)) for n in range(have, order + 1))
        elif m == 1:
            # B_n(0)/n! = B_n/n!, with the B_1 = -1/2 of R(X) itself.
            series.extend(_shift_values((0, 1), order)[have : order + 1])
        else:
            lower, base = _ratio_power(m - 1, order), _ratio_power(1, order)
            nonzero = [(j, b) for j, b in enumerate(base) if b]
            for n in range(have, order + 1):
                terms = (lower[n - j] * b for j, b in nonzero if j <= n and lower[n - j])
                series.append(sum(terms, Fraction(0)))
    return tuple(series[: order + 1])


@lru_cache(maxsize=1024)  # the suites at (6, 9, 9) hold 122
def bernoulli_higher_order(n: int, m: int) -> RationalPolynomial:
    """Higher-order Bernoulli polynomial B_n^(m)(z).

    Defined by R(X)^m e^{zX} = sum_n B_n^(m)(z) X^n / n!; order m = 1 gives
    the ordinary Bernoulli polynomials and m = 0 gives plain powers z^n.
    """
    if n < 0 or m < 0:
        raise ValueError(f"indices must be >= 0, got (n, m) = ({n}, {m})")
    power = _ratio_power(m, n)
    # B_n^(m)(z)/n! = sum_v (z^v / v!) * power[n - v]
    coeffs = [factorial(n) // factorial(v) * power[n - v] for v in range(n + 1)]
    return RationalPolynomial(coeffs)


def bernoulli_higher_at(n: int, m: int, z: RationalLike) -> Fraction:
    """B_n^(m)(z) at a rational point, from the cached polynomial."""
    return bernoulli_higher_order(n, m).evaluate(z)


# ---------------------------------------------------------------------------
# Zeta values at non-positive integers
# ---------------------------------------------------------------------------


def zeta_neg(l: int) -> Fraction:
    """zeta(-l) for integer l >= 0: -B_{l+1} / (l+1), and -1/2 at l = 0.

    zeta(0) = -1/2, zeta(-1) = -1/12, zeta(-2k) = 0 for k >= 1.  Read from a
    table grown with the Bernoulli numbers, so repeated calls are list
    lookups.
    """
    if l < 0:
        raise ValueError(f"zeta_neg expects l >= 0 (the value zeta(-l)), got l={l}")
    if l >= len(_ZETA_NEG):
        _grow(l + 1)
    return _ZETA_NEG[l]


def zeta_star_neg(l: int) -> Fraction:
    """Depth-one star-weight value: 1/2 at l = 0, zeta(-l) otherwise.

    This is the weight that replaces zeta(-l) in the star-side recurrences;
    the lone difference from :func:`zeta_neg` is the value 1/2 at zero.
    """
    if l < 0:
        raise ValueError(f"zeta_star_neg expects l >= 0, got l={l}")
    return Fraction(1, 2) if l == 0 else zeta_neg(l)


def hurwitz_zeta_neg(l: int, a: RationalLike) -> Fraction:
    """Hurwitz-type value at -l with shift a: -B_{l+1}(a) / (l+1)."""
    if l < 0:
        raise ValueError(f"hurwitz_zeta_neg expects l >= 0, got l={l}")
    return -bernoulli_poly_at(l + 1, rat(a)) / (l + 1)


# ---------------------------------------------------------------------------
# Iterated Hurwitz-type sums at non-positive integer arguments
# ---------------------------------------------------------------------------


def _choi_shift(r: int, l: int, z: RationalLike) -> Fraction:
    """The shift z of a depth-r sum at -l as a Fraction, after checking r, l, z."""
    if r < 1:
        raise ValueError(f"depth must be >= 1, got r={r}")
    if l < 0:
        raise ValueError(f"argument index must satisfy l >= 0, got l={l}")
    zv = rat(z)
    if zv <= 0:
        raise ValueError(f"shift must be a positive rational, got {zv}")
    return zv


def choi_value(r: int, l: int, z: RationalLike) -> Fraction:
    """Depth-r iterated Hurwitz-type sum at argument -l with shift z > 0.

    Exact value (-1)^r * l!/(r+l)! * B_{r+l}^(r)(z).  The shift must be a
    positive rational; the depth r >= 1 and l >= 0.
    """
    zv = _choi_shift(r, l, z)
    sign = -1 if r % 2 else 1
    return sign * Fraction(factorial(l), factorial(r + l)) * bernoulli_higher_at(r + l, r, zv)


def choi_identity_check(r: int, l: int, z: RationalLike, m: int) -> bool:
    """Check the contiguous-shift reduction of the depth-r sum.

    For 1 <= m < r the depth-r value at shift z is a binomial combination of
    lower-depth values at shifted arguments:

        value(r, -l, z) = sum_{k=0}^{m} binom(m, k) value(r-m+k, -l, z+k).

    Returns True when both sides agree exactly.  With z = p/q, nums_s / den_s
    the coefficients of B_{s+l}^(s) (degree d_s) and H = horner(nums_s, p + kq, q),
    value(s, -l, z+k) = (-1)^s l!/(s+l)! H / (den_s q^d_s); times
    (-1)^r (r+l)!/l! q^d D for d >= every d_s and D a common multiple of the
    den_s, every term is an integer, so the check is one integer equality.
    """
    if not 1 <= m < r:
        raise ValueError(f"need 1 <= m < r, got m={m}, r={r}")
    zv = _choi_shift(r, l, z)
    p, q = zv.numerator, zv.denominator
    rows = {s: bernoulli_higher_order(s + l, s).scaled() for s in range(r - m, r + 1)}
    big_d = lcm(*(den for den, _ in rows.values()))
    top = max(len(nums) for _, nums in rows.values())

    def term(s: int, k: int) -> int:
        den, nums = rows[s]
        scale = perm(r + l, r - s) * q ** (top - len(nums)) * (big_d // den)
        return (-1) ** (r - s) * scale * horner(nums, p + k * q, q)

    return term(r, 0) == sum(comb(m, k) * term(r - m + k, k) for k in range(m + 1))

"""Stirling numbers, their one-parameter polynomial deformations, and the
matching sequence transforms.

The classical numbers expand falling factorials into powers and back:

    (X)_n = sum_m s(n, m) X^m          (first kind, signed)
    X^n   = sum_m S(n, m) (X)_m        (second kind)

The polynomial deformations move the expansion point by a parameter Y:

    (X - Y)_n = sum_m s(n, m, Y) X^m
    (X + Y)^n = sum_m S(n, m, Y) (X)_m

so s(n, m, 0) and S(n, m, 0) recover the plain numbers.  Both deformations
are cached once as integer coefficients, in closed form from one pass over
the triangle of plain numbers, and every value is read by
:func:`mzv.kernel.horner`:

    s(n, m, Y) = sum_k  binom(m + k, m) s(n, m + k) (-Y)^k
    S(n, m, Y) = sum_k  binom(n, k) S(n - k, m) Y^k

The two kernels are mutually inverse as lower-triangular transforms, which is
what :func:`stirling_transform_apply` exposes.  :func:`stirling_kernel_box`
sums the second-kind kernel over the box that the closed forms for reverse
values run over, one slot at a time, reading every kernel of one entry from
one pass over the triangle (:func:`_second_kernels`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, List, Sequence, Tuple

from .kernel import RationalLike, RationalPolynomial, horner, rat

_FIRST_TO_SECOND = "first-to-second"
_SECOND_TO_FIRST = "second-to-first"


def _check_pair(n: int, m: int) -> None:
    if n < 0 or m < 0:
        raise ValueError(f"Stirling indices must be >= 0, got (n, m) = ({n}, {m})")


def _triangle(n: int, m: int, first: bool) -> Tuple[List[int], List[int]]:
    # Rows of the triangle T(i, j) = T(i-1, j-1) + c T(i-1, j), with
    # c = -(i-1) for the first kind and c = j for the second, updated in
    # place over the columns 0..m only.  Returns row n and column m.
    row = [1] + [0] * m
    column = [row[m]]
    for i in range(n):
        for j in range(min(i + 1, m), 0, -1):
            row[j] = row[j - 1] + (-i if first else j) * row[j]
        row[0] = 0
        column.append(row[m])
    return row, column


def stirling_first(n: int, m: int) -> int:
    """Signed Stirling number of the first kind s(n, m)."""
    _check_pair(n, m)
    return _triangle(n, m, True)[0][m] if m <= n else 0


def stirling_second(n: int, m: int) -> int:
    """Stirling number of the second kind S(n, m)."""
    _check_pair(n, m)
    return _triangle(n, m, False)[0][m] if m <= n else 0


@lru_cache(maxsize=2048)  # the suites at (6, 9, 9) hold 350
def _poly_coeffs(n: int, m: int, first: bool) -> Tuple[int, ...]:
    """Integer coefficients of s(n, m, Y) (``first``) or S(n, m, Y), lowest
    degree first: from row n of the first-kind triangle or column m of the
    second-kind one."""
    _check_pair(n, m)
    if m > n:
        return ()
    if first:
        row = _triangle(n, n, True)[0]  # s(n, j) for j = 0..n
        return tuple(comb(m + k, m) * (-1) ** k * row[m + k] for k in range(n - m + 1))
    column = _triangle(n, m, False)[1]  # S(i, m) for i = 0..n
    return tuple(comb(n, k) * column[n - k] for k in range(n - m + 1))


def _poly_at(n: int, m: int, y: RationalLike, first: bool) -> Fraction:
    y = rat(y)
    coeffs, q = _poly_coeffs(n, m, first), y.denominator
    return Fraction(horner(coeffs, y.numerator, q), q ** max(len(coeffs) - 1, 0))


def stirling_poly_first(n: int, m: int) -> RationalPolynomial:
    """First-kind Stirling polynomial s(n, m, Y) as a polynomial in Y."""
    return RationalPolynomial(_poly_coeffs(n, m, True))


def stirling_poly_second(n: int, m: int) -> RationalPolynomial:
    """Second-kind Stirling polynomial S(n, m, Y) as a polynomial in Y."""
    return RationalPolynomial(_poly_coeffs(n, m, False))


def stirling_poly_first_at(n: int, m: int, y: RationalLike) -> Fraction:
    """s(n, m, y) at a rational parameter."""
    return _poly_at(n, m, y, True)


def stirling_poly_second_at(n: int, m: int, y: RationalLike) -> Fraction:
    """S(n, m, y) at a rational parameter."""
    return _poly_at(n, m, y, False)


def _second_kernels(n: int) -> Tuple[Tuple[int, ...], ...]:
    """(_poly_coeffs(n, m, False) for m in 0..n), every column from one pass.

    Row i of the second-kind triangle gives coefficient k = n - i of every
    S(n, m, Y), namely binom(n, i) S(i, m), so one walk down the triangle,
    holding one row, fills all n + 1 kernels.
    """
    kernels = [[0] * (n - m + 1) for m in range(n + 1)]
    row = [1]  # S(i, j) for j = 0..i
    for i in range(n + 1):
        weight = comb(n, i)
        for m, s in enumerate(row):
            kernels[m][n - i] = weight * s
        row = [0] + [row[j - 1] + j * row[j] for j in range(1, i + 1)] + [1]
    return tuple(map(tuple, kernels))


def _box_step(
    totals: Dict[int, int], lj: int, j: int, shift: int, factors: Dict[Tuple[int, int], tuple]
) -> Dict[int, int]:
    """Carry the box totals over l_1..l_{j-1} through slot j (see
    :func:`stirling_kernel_box`).

    ``factors`` maps (l_j, x) to the row of S(l_j, k_j, x) for k_j = 0..l_j,
    the kernels of :func:`_second_kernels` at the parameter x = K_{j-1} + j -
    shift.  A row does not depend on the shift, which only sets the signs, so
    the caller may share one map over every step and box of both shifts; it
    owns the map and drops it with its boxes.
    """
    grown = [0] * (max(totals) + lj + 1)
    flip = -1 if shift else 1
    kernels = None  # _second_kernels(lj), built at the step's first missing row
    for prev, weight in totals.items():
        x = prev + j - shift
        row = factors.get((lj, x))
        if row is None:
            kernels = kernels or _second_kernels(lj)
            row = factors[lj, x] = tuple(horner(coeffs, x) for coeffs in kernels)
        # c is (-1)^(shift (l_j - k_j)) weight (K_j + j - 1)! / (K_{j-1} + j - 1)!
        # at K_j = k, each k_j's c one product from the one before.
        c = -weight if shift and lj % 2 else weight
        for k, factor in enumerate(row, prev):
            grown[k] += c * factor
            c *= flip * (k + j)
    return {k: w for k, w in enumerate(grown) if w}


def stirling_kernel_box(l: Sequence[int], shift: int) -> Dict[int, int]:
    """The second-kind Stirling kernel summed over the box 0 <= k_j <= l_j.

    A box point k = (k_1, ..., k_r) carries the weight

        prod_j (-1)^(shift (l_j - k_j)) S(l_j, k_j, K_{j-1} + j - shift)
               * (K_j + j - 1)! / (K_{j-1} + j - 1)!

    with K_j = k_1 + ... + k_j: shift 0 is the kernel of the plain reverse
    values, shift 1 the signed kernel of the star ones.  The weight depends
    on k only through the running sums, so the box is summed one slot at a
    time, each slot one step (:func:`_box_step`) from the totals of the
    slots before it; a grid of boxes can share the totals of a common
    prefix.  Every parameter K_{j-1} + j - shift is an integer, so every
    factor and total is an integer.  Returns {K_r: total weight of the box
    points with that sum}, as ints, leaving out zero totals.  Each call
    starts from an empty map of factor rows.
    """
    totals: Dict[int, int] = {0: 1}
    factors: Dict[Tuple[int, int], tuple] = {}
    for j, lj in enumerate(l, start=1):
        totals = _box_step(totals, lj, j, shift, factors)
    return totals


def stirling_transform_apply(
    seq: Sequence[RationalLike], y: RationalLike, direction: str
) -> Tuple[Fraction, ...]:
    """Apply one of the two mutually inverse Stirling-kernel transforms.

    ``direction="first-to-second"`` sends a sequence b to
    a_n = sum_k S(n, k, y) b_k; ``direction="second-to-first"`` sends a to
    b_n = sum_k s(n, k, y) a_k.  Applying one after the other (same y)
    returns the original sequence, truncated to its own length.
    """
    yv = rat(y)
    values = tuple(rat(c) for c in seq)
    if direction not in (_FIRST_TO_SECOND, _SECOND_TO_FIRST):
        raise ValueError(
            f"direction must be {_FIRST_TO_SECOND!r} or {_SECOND_TO_FIRST!r}, got {direction!r}"
        )
    first = direction == _SECOND_TO_FIRST
    return tuple(
        sum((_poly_at(n, k, yv, first) * values[k] for k in range(n + 1)), Fraction(0))
        for n in range(len(values))
    )

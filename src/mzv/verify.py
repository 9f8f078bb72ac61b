"""Runnable verification suites covering every identity the library exposes.

Each suite re-checks one family of exact identities over a bounded grid and
reports the number of checks performed together with any counterexamples.
A failed equality between two computed values is recorded with its inputs
and both sides; a failed check that only yields True or False (zero
padding, the Gregory origin, partition, decomposition and bundling checks,
the basis-shift relation, parity and the choi reduction) is recorded with
its description, which names its inputs.  Everything is exact rational
arithmetic; a single failure anywhere is a bug, never numerical noise.
The fixed-grid checks of the stirling, bernoulli and choi suites compare
integer numerators over a known common denominator, and the checks of the
``asym`` suite compare two routes' values, each an unreduced numerator over a
positive denominator, by cross-multiplication; both rebuild the failure text
as reduced Fractions: the text a Fraction computation of the two sides would
give.  The grid checks decide on the reduced pairs of :func:`mzv.values._grid`,
all but the zero-padding ones, which read :func:`mzv.values.value_grid`.

The suites and what they cover:

* ``stirling``  — orthogonality of the two polynomial Stirling kernels, the
  generating-function description of the second kind, the shifted recurrence
  and convolution identities, specialization to the classical numbers, and
  transform round-trips.
* ``bernoulli`` — reflection of Bernoulli polynomials, the product rule for
  higher-order Bernoulli polynomials, reductions at order 0 and 1, and the
  vanishing/values of zeta at non-positive integers.
* ``choi``      — the contiguous-shift reduction of depth-r iterated
  Hurwitz-type sums on a grid of depths, shifts, and rational arguments.
* ``values``    — the Stirling closed forms against the recurrence oracles,
  the single-nonzero-entry formulas, and the zero-padding transform.
* ``sign``      — star = (-1)^(r+|l|) * plain for leading entry >= 1, plus
  the documented failure family at (0, odd).
* ``asym``      — definition / recurrence / explicit-formula agreement for
  staircase asymptotic coefficients, the basis-shift relation at every
  position, complement-shift parity, and the coefficient<->value bridges.
* ``gregory``   — generalized Gregory coefficients: known low-order values,
  the origin identity, direction-vector partition, origin product
  decomposition, bundling, and reverse values via Gregory sums.

Each suite runs as work units: ``asym`` as its three sections in check
order (the worked values and the staircases, the basis-shift and parity
checks, the bridges), every other suite as one.  ``run_suite`` runs one
suite's units in order in this process; ``run_suites`` runs the units of
several suites on up to one process per usable CPU, each pulling the next
unit from one queue, and returns results sorted by suite name.  A suite's
result joins its units' results in order, which is the result the checks
give in one run.  Each ``asym`` unit builds a memo for each route it runs
and drops it when it returns; the units share only pure caches, and each
starts its suite's generator afresh, the relations unit replaying the
staircases' draws, so where a unit runs, and after which others, changes no
check and no result.
"""

from __future__ import annotations

import marshal
import os
import random
from fractions import Fraction
from itertools import groupby, zip_longest
from math import comb, factorial, lcm
from typing import (
    BinaryIO, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union
)

from .asymptotic import (
    Pairs,
    Ratio,
    _asym_run,
    _asym_sum,
    _c_explicit_run,
    _c_rec_run,
    _origin_rev_table,
    _pairs,
    _parity_holds,
    _rev_via_gregory,
    _star_relation_holds,
    asym_coeff,
    direction_partition_check,
    gregory,
    gregory_bundling_check,
    gregory_origin_check,
    origin_decomposition_check,
    origin_rev_gregory,
    staircase_direction,
)
from .bernoulli import (
    bernoulli_higher_order,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_at,
    choi_identity_check,
    choi_value,
    hurwitz_zeta_neg,
    zeta_neg,
    zeta_star_neg,
)
from .kernel import RationalPolynomial, horner
from .stirling import _poly_coeffs, stirling_transform_apply
from .values import (
    ValueKind,
    _as_ints,
    _box_grid,
    _grid,
    _origin_values,
    _rev_stirling,
    _sign_holds,
    _zero_padding_holds,
    akiyama_tanigawa_reg,
    akiyama_tanigawa_rev,
    iter_index_tuples,
    mzf_reg,
    mzf_rev,
    mzsf_reg,
    value_grid,
)

class Bounds(NamedTuple):
    """Grid limits for the suites.

    ``max_depth``/``max_weight`` bound index tuples (depth r, total |l|),
    ``max_r`` bounds pure-depth grids (Gregory, iterated Hurwitz sums), and
    ``seed`` drives the randomized spot checks layered on top of the
    deterministic grids.
    """

    max_depth: int = 3
    max_weight: int = 4
    max_r: int = 5
    seed: int = 0


class SuiteResult(NamedTuple):
    suite: str
    checked: int
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


# A check's description: a string, or a function that builds it.
Description = Union[str, Callable[[], str]]


def _text(description: Description) -> str:
    return description if isinstance(description, str) else description()


class _Recorder:
    """Counts checks and keeps each failure's description (with both sides
    for an equality).  A description that is a function is called only when
    its check fails, so passing checks format nothing; it runs at once, while
    the loop variables it reads still hold the failing check's inputs."""

    def __init__(self) -> None:
        self.checked = 0
        self.failures: List[str] = []

    def equal(self, description: Description, lhs, rhs) -> None:
        self.checked += 1
        if lhs != rhs:
            self.failures.append(f"{_text(description)}: {lhs} != {rhs}")

    def same(self, description: Description, ok: bool, sides: Callable[[], tuple]) -> None:
        """An equality already decided (on integers): ``sides()`` builds its
        two sides for the failure text, and only runs when it failed."""
        self.checked += 1
        if not ok:
            lhs, rhs = sides()
            self.failures.append(f"{_text(description)}: {lhs} != {rhs}")

    def ratios(self, description: Description, lhs: Ratio, rhs: Ratio) -> None:
        """Two values as (numerator, positive denominator), compared by
        cross-multiplication; a failure shows both reduced."""
        (a, b), (c, d) = lhs, rhs
        self.same(description, a * d == c * b, lambda: (Fraction(a, b), Fraction(c, d)))

    def true(self, description: Description, ok: bool) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(_text(description))

    def result(self, suite: str) -> SuiteResult:
        return SuiteResult(suite, self.checked, tuple(self.failures))


def _grids(bounds: Bounds, *kinds: str) -> Iterator[tuple]:
    """The recurrence grids of ``kinds`` at the bounds, zipped: (l, then each
    kind's value at l as a reduced pair (numerator, denominator))."""
    for rows in zip(*(_grid(kind, bounds.max_depth, bounds.max_weight) for kind in kinds)):
        yield (rows[0][0],) + tuple((n, d) for _, n, d in rows)


def _rng_for(suite: str, bounds: Bounds) -> random.Random:
    return random.Random(f"{bounds.seed}:{suite}")


def _random_rational(rng: random.Random, positive: bool = False) -> Fraction:
    num = rng.randint(1, 8) if positive else rng.randint(-8, 8)
    return Fraction(num, rng.randint(1, 8))


def _positive_shift(rng: random.Random, r: int) -> Tuple[Fraction, ...]:
    return tuple(_random_rational(rng, positive=True) for _ in range(r))


def _unit_interval_shift(rng: random.Random, r: int) -> Tuple[Fraction, ...]:
    entries = []
    for _ in range(r):
        den = rng.randint(1, 6)
        entries.append(Fraction(rng.randint(0, den), den))
    return tuple(entries)


# ---------------------------------------------------------------------------
# stirling
# ---------------------------------------------------------------------------


def _exp_minus_one_pow_series(k: int, y: Fraction, order: int) -> List[int]:
    """q^n n! [X^n] (e^X - 1)^k e^{yX} at y = p/q, for n <= order, as ints.

    An exponential series sum_n c_n X^n / n! is kept as its list c, so a
    product is the binomial convolution c_n = sum_j C(n, j) a_j b_(n-j); the
    coefficients of (e^X - 1)^k are integers, and those of e^{yX} times q^n
    are the powers of p.
    """
    p, q = y.numerator, y.denominator
    acc = [1] + [0] * order
    for _ in range(k):
        acc = [sum(comb(n, j) * acc[n - j] for j in range(1, n + 1)) for n in range(order + 1)]
    return [
        sum(comb(n, j) * acc[n - j] * q ** (n - j) * p**j for j in range(n + 1))
        for n in range(order + 1)
    ]


def _kernel_values(top: int, y: Fraction, first: bool) -> List[List[int]]:
    """Row a, entry b: q^(a-b) s(a,b,y) (``first``) or q^(a-b) S(a,b,y) at
    y = p/q as an int, for a, b <= top (0 where b > a)."""
    p, q = y.numerator, y.denominator
    return [
        [horner(_poly_coeffs(a, b, first), p, q) if b <= a else 0 for b in range(top + 1)]
        for a in range(top + 1)
    ]


def _shift_by_one(coeffs: Sequence[int]) -> List[int]:
    """Coefficients of P(Y + 1) from those of P, lowest degree first."""
    return [
        sum(comb(i, j) * coeffs[i] for i in range(j, len(coeffs))) for j in range(len(coeffs))
    ]


def _classical_triangle(top: int, first: bool) -> List[List[int]]:
    """Row n, entry m: s(n, m) (``first``) or S(n, m), for n, m <= top, by
    one walk of T(n + 1, m) = T(n, m - 1) + c T(n, m), with c = -n for the
    first kind and c = m for the second."""
    rows = [[1] + [0] * top]
    for n in range(top):
        row = rows[-1]
        rows.append([0] + [row[m - 1] + (-n if first else m) * row[m] for m in range(1, top + 1)])
    return rows


def _same_coeffs(a: Sequence[int], b: Sequence[int]) -> bool:
    """Equal coefficient lists, up to trailing zeros."""
    return all(x == y for x, y in zip_longest(a, b, fillvalue=0))


def _suite_stirling(bounds: Bounds, rng: random.Random, section: int) -> SuiteResult:
    rec = _Recorder()
    y_values = [Fraction(0), Fraction(1), Fraction(-2), Fraction(7, 3)]
    # Orthogonality of the two kernels, both compositions, n <= 12.  At
    # y = p/q, horner gives q^(n-k) S(n,k,y) and q^(k-m) s(k,m,y) as ints,
    # so each sum times q^(n-m) is an integer.
    for y in y_values:
        second = _kernel_values(12, y, False)
        first = _kernel_values(12, y, True)
        for n in range(13):
            for m in range(n + 1):
                want = 1 if n == m else 0
                for outer, inner, name in ((second, first, "S(n,k,y) s(k,m,y)"),
                                           (first, second, "s(n,k,y) S(k,m,y)")):
                    lhs = sum(outer[n][k] * inner[k][m] for k in range(m, n + 1))
                    rec.same(
                        lambda: f"orthogonality sum_k {name}, n={n}, m={m}, y={y}",
                        lhs == want,
                        lambda: (Fraction(lhs, y.denominator ** (n - m)), want),
                    )
    # Generating function: n! * [X^n] (e^X-1)^k e^{yX} / k! = S(n, k, y).  At
    # y = p/q the left side is series[n] / (k! q^n) and the right side
    # kernel[n][k] / q^d, d = max(n - k, 0).
    for y in (Fraction(0), Fraction(1), Fraction(5, 2)):
        q = y.denominator
        kernel = _kernel_values(10, y, False)
        for k in range(7):
            series = _exp_minus_one_pow_series(k, y, 10)
            for n in range(11):
                lhs, rhs, d = series[n], kernel[n][k], max(n - k, 0)
                rec.same(
                    lambda: f"generating function n={n}, k={k}, y={y}",
                    lhs * q**d == rhs * factorial(k) * q**n,
                    lambda: (Fraction(lhs, factorial(k) * q**n), Fraction(rhs, q**d)),
                )
    # Shifted recurrence: Y*S(n,m,Y) = S(n+1,m,Y) - S(n,m-1,Y+1), polynomials,
    # on their integer coefficients.
    for n in range(13):
        for m in range(13):
            lhs = (0,) + _poly_coeffs(n, m, False)
            rhs = _poly_coeffs(n + 1, m, False)
            if m >= 1:
                shifted = _shift_by_one(_poly_coeffs(n, m - 1, False))
                rhs = [a - b for a, b in zip_longest(rhs, shifted, fillvalue=0)]
            rec.same(
                lambda: f"shifted recurrence Y*S(n,m,Y) = S(n+1,m,Y) - S(n,m-1,Y+1), "
                f"n={n}, m={m}",
                _same_coeffs(lhs, rhs),
                lambda: (RationalPolynomial(lhs), RationalPolynomial(rhs)),
            )
    # Convolution at sample points:
    # S(n,k,x) = sum_i S(m,i,x+k-i) S(n-m,k-i,x).  Both sides times q^(n-k)
    # are integers at x = p/q: at[t][a][b] is q^(a-b) S(a,b,x+t).
    for x in (Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 4)):
        at = [_kernel_values(10, x + t, False) for t in range(11)]
        for n in range(11):
            for m in range(n + 1):
                for k in range(n + 1):
                    lhs = at[0][n][k]
                    rhs = sum(
                        at[k - i][m][i] * at[0][n - m][k - i] for i in range(min(m, k) + 1)
                    )
                    rec.same(
                        lambda: f"convolution n={n}, m={m}, k={k}, x={x}",
                        lhs == rhs,
                        lambda: (Fraction(lhs, x.denominator ** (n - k)),
                                 Fraction(rhs, x.denominator ** (n - k))),
                    )
    # Specialization at Y=0 recovers the classical numbers, n,m <= 15.
    first, second = (_kernel_values(15, Fraction(0), kind) for kind in (True, False))
    classical_first, classical_second = (_classical_triangle(15, kind) for kind in (True, False))
    for n in range(16):
        for m in range(16):
            rec.equal(
                lambda: f"first-kind specialization n={n}, m={m}",
                first[n][m],
                classical_first[n][m],
            )
            rec.equal(
                lambda: f"second-kind specialization n={n}, m={m}",
                second[n][m],
                classical_second[n][m],
            )
    # Transform round-trips on random sequences and parameters.
    for _ in range(8):
        seq = tuple(_random_rational(rng) for _ in range(rng.randint(1, 8)))
        y = _random_rational(rng)
        once = stirling_transform_apply(seq, y, "first-to-second")
        back = stirling_transform_apply(once, y, "second-to-first")
        rec.equal(lambda: f"transform round-trip seq={seq}, y={y}", back, seq)
    return rec.result("stirling")


# ---------------------------------------------------------------------------
# bernoulli
# ---------------------------------------------------------------------------


def _poly_over(nums: Sequence[int], den: int) -> RationalPolynomial:
    """The polynomial with coefficients nums[k] / den."""
    return RationalPolynomial(Fraction(c, den) for c in nums)


def _suite_bernoulli(bounds: Bounds, rng: random.Random, section: int) -> SuiteResult:
    rec = _Recorder()
    # Reflection on the integer numerators of B_n over their common
    # denominator: P(1 - z) has coefficients (-1)^j [z^j] P(z + 1).
    for n in range(21):
        den, nums = bernoulli_poly(n).scaled()
        reflected = [(-1) ** j * c for j, c in enumerate(_shift_by_one(nums))]
        expected = [c if n % 2 == 0 else -c for c in nums]
        rec.same(
            lambda: f"reflection B_{n}(1-z) = (-1)^{n} B_{n}(z)",
            _same_coeffs(reflected, expected),
            lambda: (_poly_over(reflected, den), _poly_over(expected, den)),
        )
    # Order additivity via the generating-function product rule with the
    # polynomial argument kept on the first factor:
    # B_n^(m1+m2)(z) = sum_j C(n,j) B_j^(m1)(z) B_{n-j}^(m2)(0), every term over
    # one common denominator.
    for m1 in range(4):
        for m2 in range(4):
            for n in range(11):
                den, nums = bernoulli_higher_order(n, m1 + m2).scaled()
                terms = []  # (den, nums) of C(n,j) B_j^(m1)(z) B_{n-j}^(m2)(0)
                for j in range(n + 1):
                    den_j, nums_j = bernoulli_higher_order(j, m1).scaled()
                    den_0, nums_0 = bernoulli_higher_order(n - j, m2).scaled()
                    at_0 = comb(n, j) * nums_0[0] if nums_0 else 0
                    terms.append((den_j * den_0, [at_0 * c for c in nums_j]))
                common = lcm(den, *(d for d, _ in terms))
                lhs = [c * (common // den) for c in nums]
                rhs = [0] * max((len(t) for _, t in terms), default=0)
                for d, t in terms:
                    for i, c in enumerate(t):
                        rhs[i] += c * (common // d)
                rec.same(
                    lambda: f"order additivity n={n}, m1={m1}, m2={m2}",
                    _same_coeffs(lhs, rhs),
                    lambda: (_poly_over(lhs, common), _poly_over(rhs, common)),
                )
    # Order 0 and order 1 reductions.
    for n in range(11):
        rec.equal(
            lambda: f"order-1 reduction n={n}",
            bernoulli_higher_order(n, 1),
            bernoulli_poly(n),
        )
        rec.equal(
            lambda: f"order-0 reduction n={n}",
            bernoulli_higher_order(n, 0),
            RationalPolynomial.monomial(n),
        )
        rec.equal(lambda: f"B_n(0) = B_n, n={n}", bernoulli_poly_at(n, 0), bernoulli_number(n))
    # Zeta values at non-positive integers.
    for k in range(1, 11):
        rec.equal(lambda: f"zeta(-2k) = 0, k={k}", zeta_neg(2 * k), Fraction(0))
    rec.equal("zeta(0)", zeta_neg(0), Fraction(-1, 2))
    rec.equal("zeta*(0) weight", zeta_star_neg(0), Fraction(1, 2))
    for l in range(1, 13):
        rec.equal(lambda: f"zeta*(-l) = zeta(-l), l={l}", zeta_star_neg(l), zeta_neg(l))
        rec.equal(
            lambda: f"depth-1 base mzf vs zeta, l={l}", mzf_reg((l,)), zeta_neg(l)
        )
    for _ in range(6):
        n = rng.randint(0, 14)
        z = _random_rational(rng)
        rec.equal(
            lambda: f"poly evaluation consistency n={n}, z={z}",
            bernoulli_poly_at(n, z),
            bernoulli_poly(n).evaluate(z),
        )
    for l in range(0, 7):
        a = _random_rational(rng, positive=True)
        rec.equal(
            lambda: f"depth-1 shifted value l={l}, a={a}",
            hurwitz_zeta_neg(l, a),
            choi_value(1, l, a),
        )
    return rec.result("bernoulli")


# ---------------------------------------------------------------------------
# choi
# ---------------------------------------------------------------------------


def _suite_choi(bounds: Bounds, rng: random.Random, section: int) -> SuiteResult:
    rec = _Recorder()
    z_values = [Fraction(1), Fraction(1, 2), Fraction(3), Fraction(7, 5)]
    z_values.append(_random_rational(rng, positive=True))
    for l in range(0, 7):
        rec.equal(
            lambda: f"depth-1 reduction l={l}", choi_value(1, l, Fraction(1)), zeta_neg(l)
        )
    for r in range(2, bounds.max_r + 1):
        for m in range(1, r):
            for l in range(0, bounds.max_weight + 1):
                for z in z_values:
                    rec.true(
                        lambda: f"contiguous-shift reduction r={r}, m={m}, l={l}, z={z} "
                        f"(depth-{r} value {choi_value(r, l, z)})",
                        choi_identity_check(r, l, z, m),
                    )
    return rec.result("choi")


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


def _suite_values(bounds: Bounds, rng: random.Random, section: int) -> SuiteResult:
    rec = _Recorder()
    # One origin list per reverse kind serves every closed form, and each
    # kernel box is one slot step from its parent's (_box_grid); the boxes of
    # both shifts read one map of Stirling factor rows.
    size = bounds.max_depth + bounds.max_weight
    kinds = (ValueKind.MZF_REV, ValueKind.MZSF_REV)
    origins = [_as_ints(_origin_values(kind, size)) for kind in kinds]
    factors: dict = {}
    boxes = zip(
        *(_box_grid(bounds.max_depth, bounds.max_weight, shift, factors) for shift in (0, 1))
    )
    for (l, *values), shifted in zip(_grids(bounds, *kinds), boxes):
        for name, value, (_, box), origin in zip(("plain", "star"), values, shifted, origins):
            closed = _rev_stirling(len(l), box, origin)
            rec.ratios(lambda: f"{name} reverse closed form l={l}", closed, value)
    for r in range(1, bounds.max_r + 1):
        for l in range(0, bounds.max_weight + 3):
            rec.equal(
                lambda: f"single-entry regular formula r={r}, l={l}",
                akiyama_tanigawa_reg(r, l),
                mzf_reg((l,) + (0,) * (r - 1)),
            )
            rec.equal(
                lambda: f"single-entry reverse formula r={r}, l={l}",
                akiyama_tanigawa_rev(r, l),
                mzf_rev((0,) * (r - 1) + (l,)),
            )
    # The zero-padding checks read their reverse values from two grids: the
    # left sides (a box point of l, its last entry raised by -s_int <= 2)
    # and the right sides (0, ..., 0, -s_int), of depth r + |l|.
    depth, weight = min(bounds.max_depth, 3), min(bounds.max_weight, 3)
    rev = dict(value_grid("mzf-rev", depth, weight + 2))
    rev.update(value_grid("mzf-rev", depth + weight, 2))
    for l in iter_index_tuples(depth, weight):
        for s_int in (0, -1, -2):
            rec.true(
                lambda: f"zero-padding transform l={l}, s={s_int}",
                _zero_padding_holds(l, s_int, rev),
            )
    return rec.result("values")


# ---------------------------------------------------------------------------
# sign
# ---------------------------------------------------------------------------


def _suite_sign(bounds: Bounds, rng: random.Random, section: int) -> SuiteResult:
    rec = _Recorder()
    grids = _grids(bounds, "mzf-reg", "mzsf-reg", "mzf-rev", "mzsf-rev")
    for l, plain_reg, star_reg, plain_rev, star_rev in grids:
        if l[0] < 1:
            continue
        for order, plain, star in (
            ("regular", plain_reg, star_reg),
            ("reverse", plain_rev, star_rev),
        ):
            rec.true(
                lambda: f"sign relation {order} l={l}: "
                f"plain={Fraction(*plain)}, star={Fraction(*star)}",
                _sign_holds(l, plain, star),
            )
    for l2 in (1, 3, 5, 7, 9):
        star = mzsf_reg((0, l2))
        plain = mzf_reg((0, l2))
        rec.true(
            lambda: f"documented failure at (0,{l2}): star={star}, plain={plain}, "
            f"-zeta(-{l2})={-zeta_neg(l2)}",
            star == 0 and plain == -zeta_neg(l2) and plain != 0,
        )
    return rec.result("sign")


# ---------------------------------------------------------------------------
# asym
# ---------------------------------------------------------------------------

def _staircase_shifts(bounds: Bounds, rng: random.Random) -> List[List[Pairs]]:
    """The three shifts of the staircase at each r = 1..max_r, as int pairs:
    all ones, (1, 0, ..., 0) and one random draw, the suite's first draws.
    The relations unit makes them too, so that its generator then stands
    where the whole suite's would.  The shifts and the grid tuples are valid
    by construction, so the three paths are called on their validated entry
    points."""
    max_r = max(2, min(4, bounds.max_depth + 1))
    return [
        [((1, 1),) * r, ((1, 1),) + ((0, 1),) * (r - 1), _pairs(_positive_shift(rng, r))]
        for r in range(1, max_r + 1)
    ]


def _fractions(a: Pairs) -> Tuple[Fraction, ...]:
    """A shift of int pairs as the Fractions a failure text shows."""
    return tuple(Fraction(p, q) for p, q in a)


def _staircase(rec: _Recorder, bounds: Bounds, r: int, shifts: Sequence[Pairs]) -> None:
    """Definition / recurrence / explicit agreement of C_{i,r}(-l; a) for each
    l of depth r up to the weight bound, each i and each shift."""
    # The tuples are walked once, as runs of siblings (l[:-1], [l[-1], ...]),
    # consecutive in iter_index_tuples order.  For each run, each case (i, a)
    # runs each route with its own memo: the definition memo keeps one path
    # of prefix rows per stream (top, d, a_1..a_{r-1}), so with one top, r +
    # max_weight, each step of l_r costs one dot product; the chain memo
    # serves every case, and each case keeps its recurrence memo over all the
    # runs.  The run's checks are then recorded l-major, in the order of (l,
    # i, a, path), and each is decided by cross-multiplying; only a failed
    # one goes to rec.ratios for its text.
    definition: dict = {}
    chains: dict = {}
    top = r + bounds.max_weight
    cases = [(i, staircase_direction(i, r), a, {}) for i in range(1, r + 1) for a in shifts]
    tuples = iter_index_tuples(r, bounds.max_weight, min_depth=r)
    for p, group in groupby(tuples, key=lambda l: l[:-1]):
        run = list(group)
        xs = [l[-1] for l in run]
        values = [
            (
                i, a,
                _asym_run(p, xs, d, a, definition, top),
                _c_rec_run(i, r, p, xs, a, recurrence),
                _c_explicit_run(i, r, p, xs, a, chains),
            )
            for i, d, a, recurrence in cases
        ]
        for n, l in enumerate(run):
            for i, a, references, recurrences, explicits in values:
                reference = u, v = references[n]
                for path, value in (("recurrence", recurrences[n]), ("explicit", explicits[n])):
                    x, y = value
                    if x * v == u * y:
                        rec.checked += 1
                    else:
                        rec.ratios(
                            lambda: f"{path} path i={i}, r={r}, l={l}, a={_fractions(a)}",
                            value,
                            reference,
                        )


def _suite_asym(bounds: Bounds, rng: random.Random, section: int) -> SuiteResult:
    """One section of the suite, in check order: 0, the worked values and the
    staircases at every r <= max_r; 1, the basis-shift and parity checks; 2,
    the bridges."""
    rec = _Recorder()
    if section == 0:
        rec.equal("worked value C^(0)(0,-1)", asym_coeff((0, 1), (0,), (1, 1)), Fraction(1, 12))
        rec.equal("worked value C^(1)(0,-1)", asym_coeff((0, 1), (1,), (1, 1)), Fraction(0))
        rec.equal(
            "worked value C^(0)(-1,-1)", asym_coeff((1, 1), (0,), (1, 1)), Fraction(1, 360)
        )
        rec.equal(
            "worked value C^(1)(-1,-1)", asym_coeff((1, 1), (1,), (1, 1)), Fraction(1, 720)
        )
        for r, shifts in enumerate(_staircase_shifts(bounds, rng), start=1):
            _staircase(rec, bounds, r, shifts)
    elif section == 1:
        _asym_relations(rec, bounds, rng)
    else:
        _asym_bridges(rec, bounds)
    return rec.result("asym")


def _asym_relations(rec: _Recorder, bounds: Bounds, rng: random.Random) -> None:
    """The basis-shift relation and complement-shift parity."""
    # The staircases' draws are replayed first, so the parity shifts are the
    # draws that follow them.
    max_r = len(_staircase_shifts(bounds, rng))
    # Both read the definition sum, from one memo, at one top per depth, r +
    # their weight bound (the merged tuple of a basis-shift check at top - 1),
    # so its streams serve whole runs of siblings.
    definition: dict = {}
    weight = min(bounds.max_weight, 3)
    for r in range(2, max_r + 1):
        for l in iter_index_tuples(r, weight, min_depth=r):
            for i in range(2, r + 1):
                for p in range(1, r + 1):
                    rec.true(
                        lambda: f"basis-shift relation i={i}, r={r}, p={p}, l={l}",
                        _star_relation_holds(i, r, p, l, definition, r + weight),
                    )
    for r in range(1, min(3, max_r) + 1):
        for l in iter_index_tuples(r, weight, min_depth=r):
            for i in range(1, r + 1):
                for a in (((1, 1),) * r, _pairs(_unit_interval_shift(rng, r))):
                    rec.true(
                        lambda: f"complement parity i={i}, r={r}, l={l}, a={_fractions(a)}",
                        _parity_holds(i, r, l, a, definition, r + weight),
                    )


def _asym_bridges(rec: _Recorder, bounds: Bounds) -> None:
    """The coefficient<->value bridges: the definition sum against the
    recurrence values."""
    definition: dict = {}
    for l, rev, reg, star_reg in _grids(bounds, "mzf-rev", "mzf-reg", "mzsf-reg"):
        r = len(l)
        ones, flat = ((1, 1),) * r, (0,) * (r - 1)
        star_shift = ((1, 1),) + ((0, 1),) * (r - 1)
        # d=None: the reverse bridge sums all 2^(r-1) directions in one pass.
        for kind, d, a, value in (
            ("reverse", None, ones, rev),
            ("regular", flat, ones, reg),
            ("star", flat, star_shift, star_reg),
        ):
            rec.ratios(
                lambda: f"{kind} bridge l={l}",
                _asym_sum(l, d, a, definition, r + bounds.max_weight),
                value,
            )


# ---------------------------------------------------------------------------
# gregory
# ---------------------------------------------------------------------------


def _suite_gregory(bounds: Bounds, rng: random.Random, section: int) -> SuiteResult:
    rec = _Recorder()
    rec.equal("G(1,1)", gregory(1, 1), Fraction(1))
    rec.equal("G(1,2)", gregory(1, 2), Fraction(-1, 2))
    rec.equal("G(1,3)", gregory(1, 3), Fraction(1, 3))
    rec.equal("G(2,2)", gregory(2, 2), Fraction(1, 12))
    rev_origin = _origin_values(ValueKind.MZF_REV, bounds.max_r)
    for r in range(1, bounds.max_r + 1):
        rec.true(lambda: f"origin identity C_(i,{r})(0) = G(i,{r}-i+2)", gregory_origin_check(r))
        rec.true(lambda: f"direction partition r={r}", direction_partition_check(r))
        rec.equal(
            lambda: f"origin reverse value via Gregory sums r={r}",
            origin_rev_gregory(r),
            Fraction(*rev_origin[r - 1]),
        )
    for r in range(1, min(bounds.max_r, 5) + 1):
        rec.true(lambda: f"origin product decomposition r={r}", origin_decomposition_check(r))
        rec.true(lambda: f"Gregory bundling r={r}", gregory_bundling_check(r))
    # One origin table serves every reverse value: a table is a prefix of
    # any larger one, and depth r, weight |l| reads it up to r + |l|.
    # Each kernel box is one slot step from its parent's (_box_grid).
    depth = min(bounds.max_depth, 3)
    origin = _origin_rev_table(depth + bounds.max_weight)
    grid = _grid("mzf-rev", depth, bounds.max_weight)
    for (l, n, d), (_, box) in zip(grid, _box_grid(depth, bounds.max_weight, 0)):
        rec.ratios(
            lambda: f"reverse value via Gregory l={l}",
            _rev_via_gregory(len(l), box, origin).as_integer_ratio(),
            (n, d),
        )
    return rec.result("gregory")


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


# A suite runs as work units: the calls fn(bounds, rng, section) for section
# 0 up to _SECTIONS[name] - 1 (only 0 for a suite not listed there), each
# with a fresh generator seeded for the suite.  The sections are contiguous
# runs of the suite's checks, so their results joined in section order are
# the suite's.  The dict's order is the order in which the units are pulled:
# asym's three sections, the staircases first, then the other suites from
# the longest to the shortest at the benchmark bounds, so that the last units
# to start are short.  Measured in one process, each unit after those before
# it, medians of 20 fresh processes on a 2-core Xeon at (4, 6, 7): the asym
# staircases 73, relations 12 and bridges 13, values 18, gregory 16, stirling
# 14, choi 12, bernoulli 6 and sign 6 ms of CPU.
_SUITES: Dict[str, Callable[[Bounds, random.Random, int], SuiteResult]] = {
    "asym": _suite_asym,
    "values": _suite_values,
    "gregory": _suite_gregory,
    "stirling": _suite_stirling,
    "choi": _suite_choi,
    "bernoulli": _suite_bernoulli,
    "sign": _suite_sign,
}
SUITE_NAMES: Tuple[str, ...] = tuple(sorted(_SUITES))
_SECTIONS = {"asym": 3}  # the staircases, the relations, the bridges

# A work unit: (suite name, section).
Unit = Tuple[str, int]


def _known(name: str) -> str:
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; expected one of {', '.join(SUITE_NAMES)} or 'all'"
        )
    return name


def _units(names: Iterable[str]) -> List[Unit]:
    """The work units of the suites ``names``, in pull order."""
    wanted = set(names)
    return [(name, s) for name in _SUITES if name in wanted for s in range(_SECTIONS.get(name, 1))]


def _run_unit(unit: Unit, bounds: Bounds) -> SuiteResult:
    name, section = unit
    return _SUITES[name](bounds, _rng_for(name, bounds), section)


def _joined(name: str, parts: Iterable[SuiteResult]) -> SuiteResult:
    """A suite's result from its units' results, in section order."""
    checked, failures = 0, []
    for part in parts:
        checked += part.checked
        failures.extend(part.failures)
    return SuiteResult(name, checked, tuple(failures))


def run_suite(name: str, bounds: Bounds = Bounds()) -> SuiteResult:
    """Run one named suite, its units in order in this process, and return
    its result."""
    return _joined(name, (_run_unit(unit, bounds) for unit in _units([_known(name)])))


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say or cannot fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _run_pulled(
    units: Sequence[Unit], bounds: Bounds, pull: Callable[[], bytes], index: bytes
) -> Iterator[Tuple[int, SuiteResult]]:
    """Run the unit at ``index``, then each next one ``pull`` gives (one byte
    per unit index) until it gives none; yield (index, result) for each."""
    while index:
        yield index[0], _run_unit(units[index[0]], bounds)
        index = pull()


def _work(units: Sequence[Unit], bounds: Bounds, queue: int, sent: int, caller: int) -> None:
    """The life of a forked worker: run the units it pulls from ``queue`` and
    write (indexed results as plain tuples, pickled exception or None) to
    ``sent``, then leave through ``os._exit``, never returning into the
    caller's frames.  It leaves at once if its parent is no longer
    ``caller``, which it checks before each pull and, from a timer, every
    0.05 s inside a unit: a killed caller's worker starts no other unit and
    cuts the one it runs short."""
    import signal

    def orphaned(*_) -> None:
        if os.getppid() != caller:
            os._exit(1)

    def pull() -> bytes:
        orphaned()
        return os.read(queue, 1)

    signal.signal(signal.SIGALRM, orphaned)
    signal.setitimer(signal.ITIMER_REAL, 0.05, 0.05)
    status = 1
    try:
        try:
            ran = [(index, tuple(res)) for index, res in _run_pulled(units, bounds, pull, pull())]
            payload = (ran, None)
        except Exception as exc:
            import pickle

            payload = ([], pickle.dumps(exc))
        with os.fdopen(sent, "wb") as pipe:
            pipe.write(marshal.dumps(payload))
        status = 0
    finally:
        os._exit(status)


def run_suites(names: Sequence[str], bounds: Bounds = Bounds()) -> List[SuiteResult]:
    """Run several suites; results sorted by name.

    The suites' work units run on ``min(units, usable CPUs)`` processes: the
    calling process and ``os.fork``ed workers, each pulling the next unit
    from one shared queue, in the order of ``_SUITES``.  ``asym`` runs as
    three units, its sections in check order: the staircases, the
    relations, the bridges; every other suite is one.  A route's memo lives
    no longer than the unit that built it.  A suite's result joins its
    units' results in section order, so it is the same wherever each unit
    ran.  The caller takes the first unit before it forks.  With one usable
    CPU (``taskset -c 0``) or one unit nothing forks.  A worker's exception
    is re-raised here, with its type and message, once every worker is
    reaped; a worker that dies without a result raises ``RuntimeError``.  An
    exception in the caller kills and reaps the workers first.  A caller
    killed by a signal leaves each worker to exit about 0.05 s later, in the
    middle of its unit or at its next pull.  A failed fork leaves its units
    to the processes already running.
    """
    wanted = set(SUITE_NAMES) if "all" in names else set()
    wanted.update(_known(name) for name in names if name != "all")
    units = _units(wanted)
    queue, fill = os.pipe()
    os.write(fill, bytes(range(len(units))))
    os.close(fill)
    workers: Dict[int, BinaryIO] = {}  # pid -> read end of the worker's result pipe
    try:
        first, caller = os.read(queue, 1), os.getpid()
        for _ in range(min(len(units), _usable_cpus()) - 1):
            done, sent = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(done)
                os.close(sent)
                break
            if pid == 0:
                _work(units, bounds, queue, sent, caller)
            os.close(sent)
            workers[pid] = os.fdopen(done, "rb")
        results = dict(_run_pulled(units, bounds, lambda: os.read(queue, 1), first))
        error: Optional[BaseException] = None
        for pid, pipe in list(workers.items()):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            if not data or status:
                error = error or RuntimeError(
                    f"suite worker {pid} ended without a result "
                    f"(exit status {os.waitstatus_to_exitcode(status)})"
                )
                continue
            ran, pickled = marshal.loads(data)
            results.update((index, SuiteResult(*res)) for index, res in ran)
            if pickled is not None and error is None:
                import pickle

                error = pickle.loads(pickled)
    except BaseException:
        import signal

        for pid, pipe in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        os.close(queue)
    if error is not None:
        raise error
    return [
        _joined(name, (results[i] for i, (suite, _) in enumerate(units) if suite == name))
        for name in sorted(wanted)
    ]

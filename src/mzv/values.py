"""Special values of multiple zeta and zeta-star functions at non-positive
integer arguments.

At non-positive integers the defining iterated limits do not commute, so two
distinct values exist for every index tuple (l_1, ..., l_r), all l_j >= 0:

* the *regular* value resolves the innermost (last) argument first;
* the *reverse* value resolves the outermost (first) argument first.

Both satisfy depth-reducing recurrences with ordinary zeta values at
non-positive integers as weights; the star variants satisfy the same shaped
recurrences with the star weight (1/2 at zero) in the inner sum.  Each
recurrence replaces the pair of entries it peels by one entry, so
:func:`value` evaluates all four families without recursion: it fills one
row of values per depth, from depth one up, each row from the one below.
:func:`value_grid` evaluates a whole grid in one pass (:func:`_grid`), each
row shared by all the tuples that read it and dropped after the last of them.
A step adds its terms as integers: it reads its row as integer numerators
over one row denominator (formed once per row, and only for a row a step
reads) and the weights as integer numerators over one denominator per
(c, star), and reduces once, by one gcd, to the (numerator, denominator) pair
it returns.  Rows are lists of such pairs; a Fraction is built only where a
caller asks for one: ``mzv table`` writes its text and the suites decide straight
from the pairs, and :func:`value_grid` is their public Fraction view.
On top of the recurrences this module carries:

* closed forms for the reverse values as Stirling-kernel transforms of
  origin values at larger depth (:func:`mzf_rev_stirling`,
  :func:`mzsf_rev_stirling`): an integer kernel box dotted with the origin
  values as integer numerators over one denominator;
* single-nonzero-entry evaluations through signed sums of ordinary zeta
  values (:func:`akiyama_tanigawa_reg`, :func:`akiyama_tanigawa_rev`);
* the sign relation between plain and star values when the leading entry is
  positive (:func:`sign_theorem_check`), together with the regime where it
  genuinely fails (leading entry zero);
* the zero-padding transform that trades depth against a Stirling kernel
  (:func:`prop_zero_padding_check`).

Every public result is an exact Fraction, and no value is kept between calls: a
walk holds only the row it builds and the one below it.  The closed forms
read all their origin values off one walk (:func:`_origin_values`).  Grids
share work the same way on each route: :func:`_grid` builds each row
from its parent's, and :func:`_box_grid` each kernel box from its parent's
box, one slot step.  The zero-padding check reads the reverse values of its
left side from a mapping, one grid for a whole grid of checks.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd, lcm, perm
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .bernoulli import zeta_neg, zeta_star_neg
from .kernel import horner
from .stirling import _box_step, _poly_coeffs, _triangle, stirling_kernel_box

IndexTuple = Tuple[int, ...]
# A reduced rational (numerator, denominator), the denominator positive.
Pair = Tuple[int, int]


class ValueKind(str, Enum):
    """Which of the four value families an index tuple is evaluated in."""

    MZF_REG = "mzf-reg"
    MZF_REV = "mzf-rev"
    MZSF_REG = "mzsf-reg"
    MZSF_REV = "mzsf-rev"

    def __str__(self) -> str:  # keep CLI rendering stable
        return self.value


def as_index_tuple(l: Sequence[int]) -> IndexTuple:
    """Validate and normalize an index tuple: depth >= 1, entries >= 0."""
    t = tuple(l)
    if not t:
        raise ValueError("index tuple must have depth >= 1")
    for e in t:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"index entries must be integers >= 0, got {e!r}")
    return t


# ---------------------------------------------------------------------------
# The four depth-reducing recurrences
# ---------------------------------------------------------------------------


# _WEIGHTS[star][c] is (den, edge, pairs): the inner-sum weights
# comb(c, k) * w(k) for k in 0..c, w = zeta_star_neg if star else zeta_neg,
# as pairs (c - k, numerator) over the one denominator den, zero weights left
# out.  den is a multiple of c + 1, and edge = den / (c + 1) carries the
# recurrences' 1/(c + 1) term.  Grown on demand.
_WEIGHTS: Tuple[Dict[int, tuple], Dict[int, tuple]] = ({}, {})


def _weights(c: int, star: bool) -> tuple:
    table = _WEIGHTS[star]
    entry = table.get(c)
    if entry is None:
        weight = zeta_star_neg if star else zeta_neg
        ws = [(c - k, comb(c, k) * weight(k)) for k in range(c + 1)]
        den = lcm(c + 1, *(w.denominator for _, w in ws))
        pairs = tuple((i, w.numerator * (den // w.denominator)) for i, w in ws if w)
        entry = table[c] = (den, den // (c + 1), pairs)
    return entry


def _as_ints(row: Sequence[Pair]) -> Tuple[List[int], int]:
    # (nums, den) with row[i] = nums[i] / den: the form the steps read.
    den = lcm(*[d for _, d in row])
    return [n * (den // d) for n, d in row], den


def _zeta_row(lo: int, hi: int) -> List[Pair]:
    # Row one of every walk: zeta(-x) for x in lo..hi as reduced pairs.
    return [(z.numerator, z.denominator) for z in map(zeta_neg, range(lo, hi + 1))]


def _reg_step(c: int, weights: tuple, nums: Sequence[int], den: int, star: bool) -> Pair:
    # l = head + (b, c); nums[i] / den is the value at head + (b + i,), and
    # weights is _weights(c, star): the plain and star recurrences differ
    # only in the inner weight.
    wden, edge, pairs = weights
    total = -edge * nums[c + 1]
    for i, w in pairs:
        total += w * nums[i]
    den *= wden
    g = gcd(total, den)
    return total // g, den // g


def _rev_step(a: int, weights: tuple, nums: Sequence[int], den: int, star: bool) -> Pair:
    # l = (a, b) + rest; nums[i] / den is the value at (b + i,) + rest, and
    # weights is _weights(a, False).  The star-composition split on the first
    # slot cancels the stray depth-(r-1) term, so the star recurrence keeps
    # plain zeta weights and lacks only the final -V((a + b,) + rest).  The
    # recurrence's + zeta(-a) V((b,) + rest) cancels the k = a weight pair
    # (0, zeta(-a)), so both are left out.
    wden, edge, pairs = weights
    total = edge * nums[a + 1]
    for i, w in pairs:
        if i:
            total -= w * nums[i]
    if not star:
        total -= wden * nums[a]
    den *= wden
    g = gcd(total, den)
    return total // g, den // g


def _recurrence(kind: ValueKind) -> Tuple[bool, bool, Callable[..., Pair], bool]:
    """(regular, star, step, the star flag of the step's _weights) for a kind:
    the regular recurrences weight their inner sum by the family's own depth-one
    values, the reverse ones by plain zeta values."""
    regular = kind in (ValueKind.MZF_REG, ValueKind.MZSF_REG)
    star = kind in (ValueKind.MZSF_REG, ValueKind.MZSF_REV)
    return regular, star, _reg_step if regular else _rev_step, star and regular


def _rows(kind: ValueKind, lt: IndexTuple) -> Iterator[List[Pair]]:
    """Yield the rows of the recurrence walk from a validated l, depth 1 first.

    Each recurrence replaces the pair it peels (the last two entries for
    regular values, the first two for reverse ones) by one entry x.  With o
    the tuple in peeling order, row d holds the values at depth d whose other
    entries are o_1, ..., o_{d-1}, as a list of reduced (numerator,
    denominator) pairs over x from o_d, and is computed from row d - 1 alone.
    Row d needs x in [o_d, hi_d] with hi_r = o_r and hi_d = o_d + hi_{d+1} +
    1: exactly the tuples the recurrence reaches from l.  Only the row being
    built and the one below it are held.
    """
    regular, star, step, wstar = _recurrence(kind)
    order = lt if regular else lt[::-1]
    hi = list(order)
    for d in range(len(lt) - 2, -1, -1):
        hi[d] += hi[d + 1] + 1
    row = _zeta_row(order[0], hi[0])
    yield row
    for d in range(1, len(lt)):
        nums, den = _as_ints(row)
        row = [step(x, _weights(x, wstar), nums, den, star) for x in range(order[d], hi[d] + 1)]
        yield row


def value(kind: ValueKind | str, l: Sequence[int]) -> Fraction:
    """Evaluate any of the four value families by kind: the last row's entry."""
    for row in _rows(ValueKind(kind), as_index_tuple(l)):
        pass
    return Fraction(*row[0])


def _origin_values(kind: ValueKind, n: int) -> List[Pair]:
    """The depth-k origin values value(kind, (0,) * k) for k in 1..n as reduced
    pairs: the first entries of the walk at (0,) * n."""
    return [row[0] for row in _rows(kind, (0,) * n)] if n >= 1 else []


def _grid(
    kind: ValueKind | str, max_depth: int, max_weight: int, text: bool = False
) -> Iterator[Tuple[IndexTuple | str, int, int]]:
    """Yield (l, n, d) with n / d = value(kind, l) reduced, d > 0, for l in
    iter_index_tuples(max_depth, max_weight).  With ``text``, l is given as
    its index text "l_1,...,l_r", built from its parent's text.

    Each parent p, the empty tuple or a grid tuple of depth k < max_depth, has
    one row of :func:`value`: the values at p + (x,) (regular) or (x,) + p
    (reverse) for x up to max_weight - |p| + max_depth - 1 - k, the most any
    grid tuple asks.  The walk follows :func:`iter_index_tuples`, depth by
    depth, so each grid tuple is read from its parent's row, built one depth
    earlier, and then builds its own row from that row's tail: every step
    runs once, and the steps at one c share one read of their weights.  A
    parent's last child is the one at full weight, which drops the parent's
    row, so the grid holds only the rows of live parents.
    """
    kind = ValueKind(kind)
    if max_depth < 1 or max_weight < 0:
        return
    regular, star, step, wstar = _recurrence(kind)
    top = max_weight + max_depth
    weights = [_weights(c, wstar) for c in range(top - 1)]
    row = _zeta_row(0, top - 1)
    # parent -> (its row, the row's (nums, den) if a step reads it, its key)
    rows = {(): (row, _as_ints(row) if max_depth > 1 else None, "")}
    for l in iter_index_tuples(max_depth, max_weight):
        p, x = (l[:-1], l[-1]) if regular else (l[1:], l[0])
        rest = max_weight - sum(l)
        row, ints, key = rows[p] if rest else rows.pop(p)
        if not text:
            key = l
        elif not key:
            key = str(x)
        else:
            key = f"{key},{x}" if regular else f"{x},{key}"
        n, d = row[x]
        yield key, n, d
        depth = len(l)
        if depth < max_depth:
            nums, den = ints
            prev = nums[x:]
            new = [step(c, weights[c], prev, den, star) for c in range(rest + max_depth - depth)]
            rows[l] = new, _as_ints(new) if depth + 1 < max_depth else None, key


def value_grid(
    kind: ValueKind | str, max_depth: int, max_weight: int
) -> Iterator[Tuple[IndexTuple, Fraction]]:
    """Yield (l, value(kind, l)) for l in iter_index_tuples(max_depth, max_weight):
    the public Fraction view of one pass of :func:`_grid`."""
    for l, n, d in _grid(kind, max_depth, max_weight):
        yield l, Fraction(n, d)


def mzf_reg(l: Sequence[int]) -> Fraction:
    """Regular (innermost-first) multiple zeta value at -l."""
    return value(ValueKind.MZF_REG, l)


def mzf_rev(l: Sequence[int]) -> Fraction:
    """Reverse (outermost-first) multiple zeta value at -l."""
    return value(ValueKind.MZF_REV, l)


def mzsf_reg(l: Sequence[int]) -> Fraction:
    """Regular (innermost-first) multiple zeta-star value at -l."""
    return value(ValueKind.MZSF_REG, l)


def mzsf_rev(l: Sequence[int]) -> Fraction:
    """Reverse (outermost-first) multiple zeta-star value at -l."""
    return value(ValueKind.MZSF_REV, l)


# ---------------------------------------------------------------------------
# Closed forms: reverse values as Stirling transforms of origin values
# ---------------------------------------------------------------------------


def _box_grid(
    max_depth: int, max_weight: int, shift: int,
    factors: Optional[Dict[Tuple[int, int], tuple]] = None,
) -> Iterator[Tuple[IndexTuple, Dict[int, int]]]:
    """Yield (l, stirling_kernel_box(l, shift)) for l in
    iter_index_tuples(max_depth, max_weight).

    The box of l is one slot step (:func:`mzv.stirling._box_step`) from the
    box of its parent l[:-1], built one depth earlier; as in
    :func:`_grid`, a parent's full-weight child is its last and drops it.
    Every step reads its Stirling factor rows from ``factors``, a fresh map
    unless the caller passes one; the caller owns it, so one map may serve
    all the grids of one suite call, of either shift, and goes with the call.
    """
    factors = {} if factors is None else factors
    boxes: Dict[IndexTuple, Dict[int, int]] = {(): {0: 1}}
    for l in iter_index_tuples(max_depth, max_weight):
        p = l[:-1]
        parent = boxes[p] if sum(l) < max_weight else boxes.pop(p)
        box = _box_step(parent, l[-1], len(l), shift, factors)
        yield l, box
        if len(l) < max_depth:
            boxes[l] = box


def _rev_stirling(r: int, box: Dict[int, int], origin: Tuple[List[int], int]) -> Tuple[int, int]:
    """The Stirling closed form at a depth-r tuple from its kernel box
    (:func:`mzv.stirling.stirling_kernel_box`), with origin = (nums, den) and
    nums[k - 1] / den the depth-k origin value for k <= r + |l|
    (:func:`_origin_values` through :func:`_as_ints`): one integer sum over den."""
    nums, den = origin
    return sum(w * nums[r + k - 1] for k, w in box.items()), den


def _rev_stirling_at(l: Sequence[int], kind: ValueKind, shift: int) -> Fraction:
    """The closed form at any l: its kernel box and one origin walk."""
    lt = as_index_tuple(l)
    r = len(lt)
    origin = _as_ints(_origin_values(kind, r + sum(lt)))
    return Fraction(*_rev_stirling(r, stirling_kernel_box(lt, shift), origin))


def mzf_rev_stirling(l: Sequence[int]) -> Fraction:
    """Reverse value by the second-kind Stirling closed form.

    The reverse value at -l is a finite combination of reverse origin values
    at larger depth: summing over boxes 0 <= k_j <= l_j, each term carries
    the kernel product

        prod_j  S(l_j, k_j, K_{j-1} + j) * (K_j + j - 1)! / (K_{j-1} + j - 1)!

    with K_j = k_1 + ... + k_j, times the reverse origin value of depth
    r + K_r.  Must agree exactly with :func:`mzf_rev`.
    """
    return _rev_stirling_at(l, ValueKind.MZF_REV, 0)


def mzsf_rev_stirling(l: Sequence[int]) -> Fraction:
    """Reverse star value by the signed second-kind Stirling closed form.

    Same shape as :func:`mzf_rev_stirling` with two changes: the kernel
    parameter drops by one and each factor carries the sign (-1)^(l_j - k_j):

        prod_j (-1)^(l_j - k_j) S(l_j, k_j, K_{j-1} + j - 1)
               * (K_j + j - 1)! / (K_{j-1} + j - 1)!

    against reverse star origin values of depth r + K_r.  Must agree exactly
    with :func:`mzsf_rev`.
    """
    return _rev_stirling_at(l, ValueKind.MZSF_REV, 1)


# ---------------------------------------------------------------------------
# Single-nonzero-entry evaluations via signed Stirling sums
# ---------------------------------------------------------------------------


def akiyama_tanigawa_reg(r: int, l: int) -> Fraction:
    """Regular value at (-l, 0, ..., 0) (depth r) from ordinary zeta values.

    Equals -(1/r!) sum_{k=1}^{r} (-1)^k k s(r, k) zeta(-(l + k - 1)).
    """
    if r < 1:
        raise ValueError(f"depth must be >= 1, got r={r}")
    if l < 0:
        raise ValueError(f"need l >= 0, got l={l}")
    acc = Fraction(0)
    for k, s_rk in enumerate(_triangle(r, r, True)[0][1:], start=1):  # s(r, k), one row
        sign = -1 if k % 2 else 1
        acc += sign * k * s_rk * zeta_neg(l + k - 1)
    return -acc / factorial(r)


def akiyama_tanigawa_rev(r: int, l: int) -> Fraction:
    """Reverse value at (0, ..., 0, -l) (depth r) from ordinary zeta values.

    Equals (1/(r-1)!) sum_{k=1}^{r} s(r, k) zeta(-(l + k - 1)).
    """
    if r < 1:
        raise ValueError(f"depth must be >= 1, got r={r}")
    if l < 0:
        raise ValueError(f"need l >= 0, got l={l}")
    acc = Fraction(0)
    for k, s_rk in enumerate(_triangle(r, r, True)[0][1:], start=1):  # s(r, k), one row
        acc += s_rk * zeta_neg(l + k - 1)
    return acc / factorial(r - 1)


# ---------------------------------------------------------------------------
# Sign relation between plain and star values
# ---------------------------------------------------------------------------


def sign_theorem_check(order: str, l: Sequence[int]) -> bool:
    """Check star = (-1)^(r + |l|) * plain for tuples with leading entry >= 1.

    ``order`` selects "regular" or "reverse" evaluation.  The relation is
    only claimed when l_1 >= 1; tuples with l_1 = 0 are rejected here (and
    genuinely violate it: e.g. regular star values at (0, -odd) vanish while
    the plain ones do not).
    """
    lt = as_index_tuple(l)
    if lt[0] < 1:
        raise ValueError("sign relation needs leading entry >= 1")
    if order == "regular":
        plain, star = mzf_reg(lt), mzsf_reg(lt)
    elif order == "reverse":
        plain, star = mzf_rev(lt), mzsf_rev(lt)
    else:
        raise ValueError(f"order must be 'regular' or 'reverse', got {order!r}")
    return _sign_holds(lt, plain.as_integer_ratio(), star.as_integer_ratio())


def _sign_holds(lt: IndexTuple, plain: Pair, star: Pair) -> bool:
    """The sign relation star = (-1)^(r + |l|) * plain at l, on reduced pairs."""
    sign = -1 if (len(lt) + sum(lt)) % 2 else 1
    return star == (sign * plain[0], plain[1])


# ---------------------------------------------------------------------------
# Zero-padding transform
# ---------------------------------------------------------------------------


def prop_zero_padding_check(l: Sequence[int], s_int: int) -> bool:
    """Check the depth-for-kernel trade on reverse values.

    For an index tuple l = (l_1, ..., l_r) (entries >= 0) and an integer
    argument s_int <= 0 placed in the last slot, the first-kind kernel sum

        sum_{0 <= k_j <= l_j} prod_j s(l_j, k_j, L_{j-1} + j)
            * reverse value at (k_1, ..., k_{r-1}, k_r - s_int)

    (L_j = l_1 + ... + l_j) equals

        prod_j (L_j + j - 1)! / (L_{j-1} + j - 1)!
            * reverse value at (0, ..., 0, -s_int)  of depth r + L_r.

    Returns True on exact agreement.
    """
    lt = as_index_tuple(l)
    if s_int > 0:
        raise ValueError(f"the padded argument must satisfy s_int <= 0, got {s_int}")
    rev = dict(value_grid(ValueKind.MZF_REV, len(lt), sum(lt) - s_int))
    padded = (0,) * (len(lt) + sum(lt) - 1) + (-s_int,)
    rev[padded] = mzf_rev(padded)
    return _zero_padding_holds(lt, s_int, rev)


def _zero_padding_holds(lt: IndexTuple, s_int: int, rev: Mapping[IndexTuple, Fraction]) -> bool:
    """:func:`prop_zero_padding_check` on validated inputs, reading every
    reverse value from ``rev``.  The first-kind weights are integers: every
    parameter L_{j-1} + j is one."""
    lhs = Fraction(0)
    for ks in product(*(range(e + 1) for e in lt)):
        weight = 1
        running = 0  # L_{j-1}
        for j, (lj, kj) in enumerate(zip(lt, ks), start=1):
            weight *= horner(_poly_coeffs(lj, kj, True), running + j)
            running += lj
        if weight:
            lhs += weight * rev[ks[:-1] + (ks[-1] - s_int,)]
    scale = 1
    running = 0
    for j, lj in enumerate(lt, start=1):
        scale *= perm(running + lj + j - 1, lj)
        running += lj
    return lhs == scale * rev[(0,) * (len(lt) + running - 1) + (-s_int,)]


# ---------------------------------------------------------------------------
# Enumeration helper shared by grids (verification suites, tests)
# ---------------------------------------------------------------------------


def iter_index_tuples(max_depth: int, max_weight: int, min_depth: int = 1) -> Iterator[IndexTuple]:
    """All index tuples with min_depth <= depth <= max_depth, sum <= max_weight.

    Depth by depth, each in lexicographic order.  The walk visits only these
    tuples, in one frame whatever the depth: below the budget the last entry
    steps up; at the budget the last nonzero entry is cleared and the one
    before it steps up.
    """
    if min_depth < 1:
        raise ValueError(f"min_depth must be >= 1, got {min_depth}")
    if max_weight < 0:
        return
    for depth in range(min_depth, max_depth + 1):
        t = [0] * depth
        total = 0
        while True:
            yield tuple(t)
            if total < max_weight:
                t[-1] += 1
                total += 1
                continue
            j = depth - 1
            while j and not t[j]:
                j -= 1
            if not j:
                break
            total -= t[j] - 1
            t[j] = 0
            t[j - 1] += 1

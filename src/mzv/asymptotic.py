"""Asymptotic coefficients of shifted multiple zeta functions at non-positive
integer points, and their Gregory-coefficient combinatorics.

A depth-r point is indexed by a tuple l of non-negative integers (the point is
(-l_1, ..., -l_r)), a direction vector d in {0,1}^(r-1), and a shift vector a
of rationals.  The coefficient C^(d)(-l; a) is a finite sum of products of
Bernoulli polynomial values B_n(a_j)/n! and falling factorials, taken over an
admissible set of exponent tuples n cut out by d, one window per partial sum
of n.  Each d_j only picks one of two disjoint windows for its partial sum, so
the sum over all 2^(r-1) directions, which gives the reverse values at the
all-ones shift, is one definition-sum pass over the union of the windows.

Three independent computation paths are provided for the staircase directions
d = (1,...,1,0,...,0):

* :func:`c_ir` — the definition sum itself, over the same admissible set and
  with the same terms, carried slot by slot over the partial sums of n from
  the first slot to the last (:func:`_asym_sum`);
* :func:`c_ir_recurrence` — depth reduction: one recurrence peels the last
  index slot, a second peels the first slot, with a closed depth-2 base case;
* :func:`c_ir_explicit` — the fully expanded nested sum obtained by unrolling
  both recurrences down to the depth-2 closed form.

The three paths share only the base table of B_n(a)/n!, read as rows of
integer numerators over one denominator per (shift, top)
(:func:`mzv.bernoulli.shift_ratios`).  Each path keeps its own formula and
adds its terms as integers, building one Fraction per sum.  Each path also
keeps its own memo, passed in by the caller and never held by the module:
the definition sum keeps one path of prefix rows per stream (top, d,
a_1..a_{r-1}), the rows of the last prefix l_1..l_{r-1} that stream
computed, each row kept up to the stream's largest partial sum ``top``; the
explicit path keeps its chains under their links, and the recurrence one
row of sub-values per parent, as integer numerators over one denominator,
per (i, r, shift).  A grid of calls can share one memo per path (the
``asym`` suite does, for one run, with one top per depth, so each step of
the last index entry costs the definition sum one dot product); a single
public call starts from an empty one.

The module also computes generalized Gregory coefficients G_{m,n} as
coefficients of the bivariate series
(y log^2(1+x) - x log^2(1+y)) / (log(1+x) - log(1+y)),
read from one dense table of diagonals that grows in place
(:class:`mzv.kernel.BivariateSeries`, fed from closed-form diagonals,
:func:`_gregory_diagonals`); it classifies direction vectors into blocks
(:func:`classify_direction`, :func:`enumerate_I`, :func:`enumerate_J`); and
it assembles reverse values of multiple zeta functions from Gregory
coefficients alone (:func:`origin_rev_gregory`, :func:`rev_via_gregory`): a
prefix sum over block sizes gives the origin values in O(r^2) Gregory reads,
while :func:`gregory_bundling_check` still lists the composition pairs one by
one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _product
from math import factorial, lcm, perm, prod
from operator import mul
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from .bernoulli import shift_ratios
from .kernel import BivariateSeries, RationalLike, rat
from .stirling import stirling_kernel_box
from .values import IndexTuple, as_index_tuple

Direction = Tuple[int, ...]
Shift = Tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------


def as_direction(d: Sequence[int], depth: int) -> Direction:
    """Validate a direction vector: bits in {0,1}, one per adjacent pair.

    A depth-r index tuple pairs with a direction vector of length r-1 (empty
    at depth 1).
    """
    bits = tuple(int(b) for b in d)
    if len(bits) != depth - 1:
        raise ValueError(
            f"direction vector has length {len(bits)}, expected {depth - 1} "
            f"for depth {depth}"
        )
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"direction entries must be 0 or 1, got {b}")
    return bits


def as_shift(a: Sequence[RationalLike], depth: int) -> Shift:
    """Validate a shift vector of exact rationals.

    The partial sums a_1 + ... + a_j must all be positive.
    """
    entries = tuple(rat(c) for c in a)
    if len(entries) != depth:
        raise ValueError(
            f"shift vector has length {len(entries)}, expected {depth}"
        )
    running = Fraction(0)
    for j, c in enumerate(entries, start=1):
        running += c
        if running <= 0:
            raise ValueError(
                f"shift partial sum a_1+...+a_{j} = {running} is not positive"
            )
    return entries


def staircase_direction(i: int, r: int) -> Direction:
    """The direction vector with i-1 leading ones followed by zeros."""
    if not 1 <= i <= r:
        raise ValueError(f"need 1 <= i <= r, got i={i}, r={r}")
    return (1,) * (i - 1) + (0,) * (r - i)


def _ones_shift(r: int) -> Shift:
    return (Fraction(1),) * r


# ---------------------------------------------------------------------------
# The definition sum
# ---------------------------------------------------------------------------


def _asym_sum(
    l: IndexTuple, d: "Direction | None", a: Shift, memo: dict, top: "int | None" = None
) -> Fraction:
    """Definition sum, assuming validated inputs; ``d=None`` sums C^(d)(-l; a)
    over all 2^(r-1) directions d in the same single pass.

    The coefficient is (-1)^(r+|l|) times the sum over the admissible n of
    prod_j B_{n_j}(a_j)/n_j! * (H_j - u_j + j - 1)_{l_j}, with (x)_k the
    falling factorial, u_j = n_1 + ... + n_j (u_0 = 0, u_r = r + |l|) and
    H_j = l_1 + ... + l_j.  Slot j's Bernoulli factor depends on
    n_j = u_j - u_{j-1} and admissibility is one window per u_j: u_j >= H_j + j
    when d_j = 0, u_j <= H_{j-1} + j - 1 when d_j = 1.  The two are disjoint
    (the falling factorial vanishes between them), so ``d=None`` lets u_j
    range over both.

    So the sum runs from the first slot to the last.  Row j maps each u_j to
    (H_j - u_j + j - 1)_{l_j} times the sum over u_{j-1} <= u_j of row j-1 at
    u_{j-1} times B_{u_j - u_{j-1}}(a_j)/(u_j - u_{j-1})!, from row 0 = {0: 1}.
    At u_r = r + |l| the falling factorial is (-1)^{l_r} l_r!, so the value is
    (-1)^(r+|l|+l_r) l_r! times the sum over u of row r-1 at u times
    B_{r+|l|-u}(a_r)/(r+|l|-u)!.  Row j depends only on the prefix
    (l_1..l_j, d_1..d_j, a_1..a_j), on d_{j+1} (a one there caps u_j at
    H_j + j) and on ``top`` (at least r + |l|), the largest u a row keeps.
    Each row is integers over one denominator, the product of its slots'
    B_n(a)/n! table denominators, each read at the span its row needs.

    ``memo`` keeps, per stream (top, d, a_1..a_{r-1}), the r - 1 rows along
    the last prefix l_1..l_{r-1} the stream computed; a call rebuilds rows
    from the first slot where its prefix differs.  Calls that share a top
    and differ only in l_r, such as siblings in :func:`iter_index_tuples`
    order, then cost one dot product each.  Each kept path is a function of
    its stream and prefix alone, so any calls may share a memo and no value
    depends on which calls came first, while the memo holds at most r - 1
    rows per stream.
    """
    r, total = len(l), len(l) + sum(l)
    top = total if top is None else top
    dirs = (None,) * (r - 1) if d is None else d
    # The shift entries as ints, which hash faster than Fractions.
    stream = (top, d, *[(c.numerator, c.denominator) for c in a[:-1]])
    prefix = l[:-1]
    kept_prefix, rows = memo.get(stream, ((), []))
    k = 0
    while k < len(kept_prefix) and kept_prefix[k] == prefix[k]:
        k += 1
    rows = rows[:k]
    den, low, row = rows[-1] if rows else (1, 0, [1])
    head = sum(prefix[:k])
    for j in range(k + 1, r):
        lj, bit = l[j - 1], dirs[j - 1]
        one_hi = head + j - 1  # d_j = 1: u_j <= H_{j-1} + j - 1
        head += lj
        # d_{j+1} = 1 bounds u_j <= u_{j+1} <= H_j + j.
        cap = min(top, head + j) if j < r - 1 and dirs[j] == 1 else top
        us = [] if bit == 0 else list(range(low, min(cap, one_hi) + 1))
        if bit != 1:
            us += range(max(low, head + j), cap + 1)  # d_j = 0: u_j >= H_j + j
        if row and us:
            slot_den, bern = shift_ratios(a[j - 1], us[-1] - low)
            nxt = [0] * (us[-1] - us[0] + 1)
            for u in us:
                x = head - u + j - 1
                ff = prod(range(x, x - lj, -1))
                nxt[u - us[0]] = ff * sum(map(mul, row, bern[u - low :: -1]))
            den, low, row = den * slot_den, us[0], nxt
        else:
            den, low, row = 1, 0, []
        rows.append((den, low, row))
    memo[stream] = prefix, rows
    if not row:
        return Fraction(0)
    slot_den, bern = shift_ratios(a[-1], total - low)
    acc = factorial(l[-1]) * sum(map(mul, row, bern[total - low :: -1]))
    return Fraction(-acc if (total + l[-1]) % 2 else acc, den * slot_den)


def asym_coeff(
    l: Sequence[int], d: Sequence[int], a: Sequence[RationalLike]
) -> Fraction:
    """Asymptotic coefficient C^(d)(-l; a), straight from the definition."""
    lt = as_index_tuple(l)
    dt = as_direction(d, len(lt))
    at = as_shift(a, len(lt))
    return _asym_sum(lt, dt, at, {})


# ---------------------------------------------------------------------------
# Staircase coefficients: three computation paths
# ---------------------------------------------------------------------------


def _validated_staircase_args(
    i: int, r: int, l: Sequence[int], a: Sequence[RationalLike]
) -> Tuple[IndexTuple, Shift]:
    lt = as_index_tuple(l)
    if r != len(lt):
        raise ValueError(f"r={r} does not match the index depth {len(lt)}")
    if not 1 <= i <= r:
        raise ValueError(f"need 1 <= i <= r, got i={i}, r={r}")
    at = as_shift(a, r)
    return lt, at


def c_ir(i: int, r: int, l: Sequence[int], a: Sequence[RationalLike]) -> Fraction:
    """Staircase coefficient C_{i,r}(-l; a): direction (1,...,1,0,...,0)
    with i-1 ones, evaluated by the definition sum."""
    lt, at = _validated_staircase_args(i, r, l, a)
    return _asym_sum(lt, staircase_direction(i, r), at, {})


def _c22_closed(l1: int, l2: int, a2: Fraction) -> Fraction:
    """Depth-2 all-ones staircase coefficient in closed form.

    C_{2,2}(-(l1,l2); a) collapses to a single admissible exponent tuple,
    giving (-1)^{l1} l1! l2! B_{l1+l2+2}(a2) / (l1+l2+2)!; it does not depend
    on the first shift entry.
    """
    s = l1 + l2 + 2
    den, bern = shift_ratios(a2, s)
    sign = -1 if l1 % 2 else 1
    return Fraction(sign * factorial(l1) * factorial(l2) * bern[s], den)


def _peel(sign: int, row: Tuple[Sequence[int], int], l: int, a: Fraction) -> Fraction:
    """sign * sum_k C(l+1, k) B_{l+1-k}(a) subs[k] / (l+1), reduced once, with
    row = (nums, den) and subs[k] = nums[k] / den for k <= l + 1.

    C(l+1, k) B_m(a) = (l+1)!/k! * B_m(a)/m! with m = l+1-k, an integer times
    a table numerator, so the sum is one integer sum, by Horner's rule in k.
    """
    nums, den = row
    bden, bern = shift_ratios(a, l + 1)
    total = 0
    for k in range(l + 2):  # Horner in k: term k gathers the factors k+1..l+1
        total = total * k + bern[l + 1 - k] * nums[k]
    return Fraction(sign * total, den * bden * (l + 1))


def _rec_row(
    memo: dict, key: tuple, lo: int, count: int, entry: Callable[[int], Fraction]
) -> Tuple[List[int], int]:
    """Entries y = lo..lo+count-1 of the recurrence row under ``key``, the
    row's entry at y being ``entry(y)``, as (nums, den) over the row's one
    denominator.

    The memo keeps each row as (y0, nums, den), its entries from y0 up as
    integer numerators over den.  A row starts at the smallest y asked of it
    and grows to the largest; an entry is computed once, and a growth that
    brings a larger denominator rescales the numerators already kept.
    """
    y0, nums, den = memo.get(key) or (lo, [], 1)
    if lo < y0 or lo + count > y0 + len(nums):
        below = [entry(y) for y in range(lo, y0)]
        above = [entry(y) for y in range(y0 + len(nums), lo + count)]
        grown = lcm(den, *(v.denominator for v in below + above))
        scale = grown // den
        nums = (
            [v.numerator * (grown // v.denominator) for v in below]
            + [n * scale for n in nums]
            + [v.numerator * (grown // v.denominator) for v in above]
        )
        y0, den = min(y0, lo), grown
        memo[key] = y0, nums, den
    return nums[lo - y0 : lo - y0 + count], den


def _c_rec(i: int, r: int, l: IndexTuple, a: Shift, memo: dict) -> Fraction:
    """Depth reduction; memo maps a parent to its row of sub-values.

    A last-slot peel of (i, r, head + (x, l_r)) reads C(i, r-1, head + (y,))
    for y = x..x+l_r+1, a run of the row under (i, r-1, head); a first-slot
    peel of (r, r, (l_1, x) + tail) reads C(r-1, r-1, (y,) + tail), a run of
    the row under (r-1, r-1, tail) (:func:`_rec_row`).  The two kinds never
    share a key: last-slot rows sit at levels (i, r') with r' >= i, first-slot
    rows at (r', r') with r' < i.  The key leaves out the shift, which the
    top-level (i, r, a) fixes at each level: a[:r'] at (i, r') while i < r',
    the last r' entries of a[:i] at (r', r') once the first slot is peeled.
    So a memo may be shared by top-level calls with the same i, r and a,
    whatever their l, and by no others: top-level calls with different i
    reach one (r', r') with different shifts.
    """
    if r == 1:
        # -B_{l+1}(a)/(l+1) = -l! * B_{l+1}(a)/(l+1)!
        den, bern = shift_ratios(a[0], l[0] + 1)
        return Fraction(-factorial(l[0]) * bern[l[0] + 1], den)
    if i < r:
        # Peel the last slot: the tail exponent is confined to a window of
        # width l_r + 2, and each choice shifts the next-to-last index.
        head = l[:-2]
        row = _rec_row(
            memo, (i, r - 1, head), l[-2], l[-1] + 2,
            lambda y: _c_rec(i, r - 1, head + (y,), a[:-1], memo),
        )
        return _peel(-1, row, l[-1], a[-1])
    if r == 2:
        # i == r: all-ones staircase.
        return _c22_closed(l[0], l[1], a[1])
    # Peel the first slot: its exponent is forced to zero, the second slot's
    # exponent is summed out against the complement shift 1 - a_2, and the
    # remainder is the depth-(r-1) all-ones staircase.  The leading shift
    # entry of the sub-call is irrelevant (its exponent is again forced to
    # zero), so the shift tail is passed unchanged.
    tail = l[2:]
    row = _rec_row(
        memo, (r - 1, r - 1, tail), l[1], l[0] + 2,
        lambda y: _c_rec(r - 1, r - 1, (y,) + tail, a[1:], memo),
    )
    return _peel(1, row, l[0], 1 - a[1])


def c_ir_recurrence(
    i: int, r: int, l: Sequence[int], a: Sequence[RationalLike]
) -> Fraction:
    """Staircase coefficient via the two depth-reduction recurrences."""
    lt, at = _validated_staircase_args(i, r, l, a)
    return _c_rec(i, r, lt, at, {})


def _chain(
    weights: "dict[int, int]", lj: int, aj: Fraction
) -> "Tuple[dict[int, int], int]":
    """One link of a c_ir_explicit chain, in integers over a new denominator.

    With weights[k'] = k'! w(k') (w the summed weight product so far) and
    top = k' + l_j + 1, the link adds w(k') comb(top, k) B_{top-k}(a_j) / top
    at each k.  That is (top-1)!/k! B_{top-k}(a_j)/(top-k)!, so, rescaled by
    k!, it is the integer weights[k'] (k' + l_j)!/k'! N_{top-k} over the
    denominator of the B_n(a_j)/n! table, which is returned alongside.
    """
    den, bern = shift_ratios(aj, max(weights) + lj + 1)
    bucket: "dict[int, int]" = {}
    for k_next, w in weights.items():
        if not w:
            continue
        top = k_next + lj + 1
        w *= perm(k_next + lj, lj)
        for k in range(top + 1):
            b = bern[top - k]
            if b:
                bucket[k] = bucket.get(k, 0) + w * b
    return bucket, den


def _chain_links(
    links: "Tuple[Tuple[int, int, int], ...]", memo: dict
) -> "Tuple[dict[int, int], int]":
    """The chain {0: 1} carried through the links (l_j, p, q), the shift
    p/q in lowest terms as two ints that hash faster than a Fraction, in
    order, as (weights, den); ``memo`` keeps the chain of every prefix.

    A chain reads nothing but its links, so the key is the links themselves
    and one memo may serve any calls, the right and the left chains alike.
    """
    k = len(links)
    while k and links[:k] not in memo:
        k -= 1
    weights, den = memo[links[:k]] if k else ({0: 1}, 1)
    for m in range(k, len(links)):
        lj, p, q = links[m]
        weights, link_den = _chain(weights, lj, Fraction(p, q))
        den *= link_den
        memo[links[: m + 1]] = weights, den
    return weights, den


def _c_explicit(i: int, r: int, lt: IndexTuple, at: Shift, memo: dict) -> Fraction:
    """:func:`c_ir_explicit` on validated inputs; ``memo`` keeps the chains
    (:func:`_chain_links`)."""
    # Right chain: variables k_r, ..., k_{i+1}; k_{r+1} = 0.  After it,
    # right[k] is k! times the summed product of the weights
    # comb(k_{j+1}+l_j+1, k_j) * B_{k_{j+1}+l_j+1-k_j}(a_j) / (k_{j+1}+l_j+1)
    # over j = r, ..., i+1 with k_{i+1} = k, as an integer over den.
    links = tuple((lj, aj.numerator, aj.denominator) for lj, aj in zip(lt[i:], at[i:]))
    right, den = _chain_links(links[::-1], memo)

    sign = -1 if (r - i) % 2 else 1

    if i == 1:
        # w(k_2) * (-B_{l_1+k_2+1}(a_1) / (l_1+k_2+1)), with
        # B_{L+1}(a)/(L+1) = L! B_{L+1}(a)/(L+1)!.
        l1 = lt[0]
        core_den, bern = shift_ratios(at[0], l1 + 1 + max(right))
        total = sum(w * perm(l1 + k2, l1) * bern[l1 + k2 + 1] for k2, w in right.items())
        return Fraction(-sign * total, den * core_den)

    # Left chain: variables k_1, ..., k_{i-2}; k_0 = 0; weights use the
    # complement shifts 1 - a_{j+1} = (q - p)/q.  For i == 2 the chain is empty.
    links = tuple(
        (lj, c.denominator - c.numerator, c.denominator) for lj, c in zip(lt, at[1 : i - 1])
    )
    left, left_den = _chain_links(links, memo)
    den *= left_den

    # Depth-2 core on slots (i-1, i): with L1 = l_{i-1} + k_left and
    # L2 = l_i + k_right, (-1)^L1 L1! L2! B_s(a_i)/s!, s = L1 + L2 + 2; the
    # chain rescalings leave the integer (L1!/k_left!)(L2!/k_right!) N_s.
    la, lb = lt[i - 2], lt[i - 1]
    core_den, bern = shift_ratios(at[i - 1], la + lb + 2 + max(left) + max(right))
    total = 0
    for k_right, w_right in right.items():
        w_right *= perm(lb + k_right, lb)
        for k_left, w_left in left.items():
            core = perm(la + k_left, la) * bern[la + lb + 2 + k_left + k_right]
            if (la + k_left) % 2:
                core = -core
            total += w_right * w_left * core
    return Fraction(sign * total, den * core_den)


def c_ir_explicit(
    i: int, r: int, l: Sequence[int], a: Sequence[RationalLike]
) -> Fraction:
    """Staircase coefficient via the fully expanded nested sum.

    The expansion carries a chain of binomially weighted Bernoulli factors
    from the right end down to slot i+1, a complement-shift chain from the
    left end up to slot i-2, and a closed depth-2 core on slots (i-1, i), or
    the depth-1 closed form on slot 1 when i = 1.  It holds for every
    1 <= i <= r: at i = r the right chain is empty and at i <= 2 the left
    one is, so it never hands over to :func:`c_ir_recurrence`.  Each chain
    bucket is kept rescaled by k!, so every piece is an integer over the
    product of the per-link table denominators and the sum is reduced once
    at the end.
    """
    lt, at = _validated_staircase_args(i, r, l, a)
    return _c_explicit(i, r, lt, at, {})


# ---------------------------------------------------------------------------
# Generalized Gregory coefficients
# ---------------------------------------------------------------------------

_GREGORY_SERIES: "list[BivariateSeries | None]" = [None]


def _gregory_diagonals(t: int) -> Tuple[List[Fraction], List[Fraction]]:
    """Diagonal t of the Gregory numerator and denominator, each divided by
    (x - y).

    On total degree t + 1, y log^2(1+x) - x log^2(1+y) is L2_t (x^t y - x y^t)
    and log(1+x) - log(1+y) is L_{t+1} (x^(t+1) - y^(t+1)), with L_k and L2_k
    the coefficients of u^k in log(1+u) and log^2(1+u):
    L_k = (-1)^(k+1) / k and L2_t = sum_{a=1}^{t-1} (-1)^t / (a (t - a)).
    Divided by (x - y), the first is L2_t at every 0 < i < t and 0 at both
    ends, and every entry of the second is L_{t+1} = (-1)^t / (t + 1).
    """
    sign = -1 if t % 2 else 1
    log2 = sum((Fraction(sign, a * (t - a)) for a in range(1, t)), Fraction(0))
    num = [log2 if 0 < i < t else Fraction(0) for i in range(t + 1)]
    return num, [Fraction(sign, t + 1)] * (t + 1)


def gregory(m: int, n: int) -> Fraction:
    """Generalized Gregory coefficient G_{m,n}: the coefficient of x^m y^n in
    (y log^2(1+x) - x log^2(1+y)) / (log(1+x) - log(1+y)).

    Numerator and denominator are both divisible by (x - y), and their
    quotients by it have closed-form diagonals; the divided denominator is
    constant on each diagonal, so the last division runs diagonal by diagonal
    in one dense table.  Every call reads the same table, grown in place to
    total degree m+n: a higher order appends diagonals and never recomputes
    old ones.
    """
    if m < 0 or n < 0:
        raise ValueError(f"Gregory indices must be non-negative, got ({m}, {n})")
    table = _GREGORY_SERIES[0]
    if table is None:
        table = _GREGORY_SERIES[0] = BivariateSeries(_gregory_diagonals)
    table.grow(m + n)
    return table.coefficient(m, n)


def gregory_origin_check(r: int) -> bool:
    """True iff the depth-r staircase coefficients at the origin match the
    Gregory table: C_{i,r}(0; 1) = G_{i, r-i+2} for every 1 <= i <= r."""
    if r < 1:
        raise ValueError(f"depth must be >= 1, got {r}")
    zeros = (0,) * r
    ones = _ones_shift(r)
    memo: dict = {}
    return all(
        _asym_sum(zeros, staircase_direction(i, r), ones, memo) == gregory(i, r - i + 2)
        for i in range(1, r + 1)
    )


# ---------------------------------------------------------------------------
# Direction-vector combinatorics
# ---------------------------------------------------------------------------


def classify_direction(d: Sequence[int]) -> Tuple[int, int]:
    """The block statistics (j, k) of a direction vector.

    j counts adjacent (0,1) patterns; k counts ones whose predecessor is not
    a zero, where the leading position has no predecessor and therefore
    counts whenever it holds a one.
    """
    bits = tuple(int(b) for b in d)
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"direction entries must be 0 or 1, got {b}")
    j = sum(1 for t in range(len(bits) - 1) if bits[t] == 0 and bits[t + 1] == 1)
    k = sum(
        1 for m, b in enumerate(bits) if b == 1 and (m == 0 or bits[m - 1] == 1)
    )
    return j, k


def _check_jk_range(j: int, k: int, r: int) -> None:
    if r < 1:
        raise ValueError(f"depth must be >= 1, got {r}")
    if not 0 <= j <= (r - 1) // 2:
        raise ValueError(f"need 0 <= j <= floor((r-1)/2) = {(r - 1) // 2}, got j={j}")
    if not 0 <= k <= r - 1 - 2 * j:
        raise ValueError(f"need 0 <= k <= r-1-2j = {r - 1 - 2 * j}, got k={k}")


def enumerate_I(j: int, k: int, r: int) -> Tuple[Direction, ...]:
    """All depth-r direction vectors with block statistics (j, k).

    Over all admissible (j, k) these sets partition {0,1}^(r-1).
    """
    _check_jk_range(j, k, r)
    return tuple(
        d
        for d in _product((0, 1), repeat=r - 1)
        if classify_direction(d) == (j, k)
    )


class CompositionPair(NamedTuple):
    """A pair of aligned compositions (m, n) with m_p <= n_p slotwise."""

    m: Tuple[int, ...]
    n: Tuple[int, ...]


def _compositions(total: int, minima: Tuple[int, ...]):
    """Yield tuples t with t_p >= minima_p and sum(t) == total."""
    if len(minima) == 1:
        if total >= minima[0]:
            yield (total,)
        return
    tail_min = sum(minima[1:])
    for first in range(minima[0], total - tail_min + 1):
        for rest in _compositions(total - first, minima[1:]):
            yield (first,) + rest


def enumerate_J(j: int, k: int, r: int) -> Tuple[CompositionPair, ...]:
    """All composition pairs (m, n) of length j+1 with sum(m) = 2j+1+k,
    sum(n) = r, and m_p <= n_p.

    The first block may have m_1 = 1, but every later block needs m_p >= 2:
    blocks after the first always open with a one-bit, so their staircases
    carry at least one leading one.  Composition pairs are exactly the block
    shapes of the direction vectors in :func:`enumerate_I` with the same
    (j, k), and the two enumerations bundle the same coefficients.
    """
    _check_jk_range(j, k, r)
    m_minima = (1,) + (2,) * j
    out = []
    for m in _compositions(2 * j + 1 + k, m_minima):
        for n in _compositions(r, m):
            out.append(CompositionPair(m, n))
    return tuple(sorted(out))


def direction_partition_check(r: int) -> bool:
    """True iff the (j, k) classes partition {0,1}^(r-1) exactly."""
    if r < 1:
        raise ValueError(f"depth must be >= 1, got {r}")
    seen = 0
    all_vectors = set(_product((0, 1), repeat=r - 1))
    covered = set()
    for j in range((r - 1) // 2 + 1):
        for k in range(r - 1 - 2 * j + 1):
            block = set(enumerate_I(j, k, r))
            if block & covered:
                return False
            covered |= block
            seen += len(block)
    return covered == all_vectors and seen == 2 ** (r - 1)


def origin_decomposition_check(r: int) -> bool:
    """True iff every origin coefficient whose direction contains a (0,1)
    pattern factors across that pattern into two origin coefficients."""
    if r < 3:
        return True
    ones = _ones_shift(r)
    memo: dict = {}
    for d in _product((0, 1), repeat=r - 1):
        whole = None
        for t in range(1, r - 1):  # 1-based position of the 0 in the pattern
            if d[t - 1] == 0 and d[t] == 1:
                if whole is None:
                    whole = _asym_sum((0,) * r, d, ones, memo)
                left_d = d[: t - 1]
                right_d = (1,) + d[t + 1 :]
                left = _asym_sum((0,) * t, left_d, _ones_shift(t), memo)
                right = _asym_sum((0,) * (r - t), right_d, _ones_shift(r - t), memo)
                if whole != left * right:
                    return False
    return True


def _gregory_block_product(pair: CompositionPair) -> Fraction:
    out = Fraction(1)
    for m_p, n_p in zip(pair.m, pair.n):
        out *= gregory(m_p, n_p - m_p + 2)
    return out


def gregory_bundling_check(r: int) -> bool:
    """True iff, for every admissible (j, k), the origin coefficients over
    I_r(j,k) sum to the Gregory block products over J(j,k)."""
    if r < 1:
        raise ValueError(f"depth must be >= 1, got {r}")
    ones = _ones_shift(r)
    zeros = (0,) * r
    memo: dict = {}
    for j in range((r - 1) // 2 + 1):
        for k in range(r - 1 - 2 * j + 1):
            lhs = sum(
                (_asym_sum(zeros, d, ones, memo) for d in enumerate_I(j, k, r)),
                Fraction(0),
            )
            rhs = sum(
                (_gregory_block_product(pair) for pair in enumerate_J(j, k, r)),
                Fraction(0),
            )
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# Reverse values from Gregory coefficients
# ---------------------------------------------------------------------------


def _origin_rev_table(top: int) -> List[Fraction]:
    """F[0..top], F[s] the depth-s reverse value at the origin (F[0] = 0).

    Summed over every (j, k), the composition pairs of J(j, k) are all
    compositions n of s into blocks, each block carrying one m_p <= n_p with
    m_1 >= 1 and m_p >= 2 after the first.  The sum over m_p factors per
    block, so with w1(n) = sum_{m>=1} G(m, n-m+2) for the first block and
    w2(n) = sum_{m>=2} G(m, n-m+2) for later ones, the last block splits off:
    F[s] = w1(s) + sum_{1 <= t < s} F[t] w2(s-t).  O(top^2) Gregory reads.
    """
    w1 = [Fraction(0)] * (top + 1)
    w2 = [Fraction(0)] * (top + 1)
    for n in range(1, top + 1):
        w2[n] = sum((gregory(m, n - m + 2) for m in range(2, n + 1)), Fraction(0))
        w1[n] = gregory(1, n + 1) + w2[n]
    table = [Fraction(0)] * (top + 1)
    for s in range(1, top + 1):
        table[s] = w1[s] + sum((table[t] * w2[s - t] for t in range(1, s)), Fraction(0))
    return table


def origin_rev_gregory(r: int) -> Fraction:
    """Depth-r reverse value at the origin, assembled purely from Gregory
    coefficients: the sum over all block statistics (j, k) of the block
    products G_{m_1, n_1-m_1+2} ... over J(j, k), computed by a prefix sum
    over the block sizes in O(r^2) Gregory reads rather than by listing the
    2^(r-1) pairs."""
    if r < 1:
        raise ValueError(f"depth must be >= 1, got {r}")
    return _origin_rev_table(r)[r]


def _rev_via_gregory(r: int, box: Dict[int, int], origin: Sequence[Fraction]) -> Fraction:
    """:func:`rev_via_gregory` at a depth-r tuple from its kernel box
    (:func:`mzv.stirling.stirling_kernel_box`), reading an origin table of
    order at least r + |l| (:func:`_origin_rev_table`)."""
    return sum((w * origin[r + k] for k, w in box.items()), Fraction(0))


def rev_via_gregory(l: Sequence[int]) -> Fraction:
    """Reverse value at (-l_1, ..., -l_r) computed without any zeta
    recurrence: Stirling-polynomial weights move the point to the origin, and
    each origin value (at its padded depth r + k_1 + ... + k_r, at most
    r + |l|) is expanded into Gregory coefficients, all read from one origin
    table built to order r + |l|.  Every table is a prefix of any larger one,
    so a grid of calls can share one (the ``gregory`` suite does, through
    :func:`_rev_via_gregory`)."""
    lt = as_index_tuple(l)
    r = len(lt)
    return _rev_via_gregory(r, stirling_kernel_box(lt, 0), _origin_rev_table(r + sum(lt)))


# ---------------------------------------------------------------------------
# Identity checks on the staircase family
# ---------------------------------------------------------------------------


def star_coeff_relation_check(i: int, r: int, p: int, l: Sequence[int]) -> bool:
    """Check the standard-basis-shift relation for staircase coefficients.

    With e_p the shift putting 1 in slot p and 0 elsewhere and s = (-1)^(r+|l|),
    the relation compares D := C_{i,r}(-l; e_p) - s * C_{i,r}(-l; 1) against a
    depth-(r-1) correction term:

    * p == 1 or p == i: D = 0 (the shift at slot p drops out entirely, so the
      value at e_p equals s times the value at the all-ones shift);
    * 2 <= p <= i-1: D = s * C_{i-1,r-1}(-l'; 1);
    * p >= i+1: D = s * C_{i,r-1}(-l'; 1);

    where in both corrected cases l' replaces the pair (l_{p-1}, l_p) by the
    single entry l_{p-1} + l_p.  The law follows from restricting the defining
    sum to lattice points with n_p = 1 and deleting that slot: for p in
    {1, i} the window constraints make the restricted set empty, and
    otherwise slot deletion is a bijection onto the depth-(r-1) staircase set
    for the merged index.
    """
    lt = as_index_tuple(l)
    if r != len(lt):
        raise ValueError(f"r={r} does not match the index depth {len(lt)}")
    if not 2 <= i <= r:
        raise ValueError(f"need 2 <= i <= r, got i={i}, r={r}")
    if not 1 <= p <= r:
        raise ValueError(f"need 1 <= p <= r, got p={p}")
    return _star_relation_holds(i, r, p, lt, {}, None)


def _star_relation_holds(
    i: int, r: int, p: int, lt: IndexTuple, memo: dict, top: "int | None"
) -> bool:
    """:func:`star_coeff_relation_check` on validated inputs, reading the
    definition sum at ``top`` and the merged depth-(r-1) tuple at top - 1
    (both at their own r + |l| when ``top`` is None)."""
    d = staircase_direction(i, r)
    ones = _ones_shift(r)
    # The basis shift e_p has partial sums 0 before slot p; the definition sum
    # is well defined there, though asym_coeff refuses such a shift.
    e_p = tuple(Fraction(1 if t == p - 1 else 0) for t in range(r))
    sign = -1 if (r + sum(lt)) % 2 else 1
    lhs = _asym_sum(lt, d, e_p, memo, top) - sign * _asym_sum(lt, d, ones, memo, top)
    if p == 1 or p == i:
        return lhs == 0
    merged = lt[: p - 2] + (lt[p - 2] + lt[p - 1],) + lt[p:]
    sub_i = i - 1 if p < i else i
    sub_top = None if top is None else top - 1
    rhs = sign * _asym_sum(
        merged, staircase_direction(sub_i, r - 1), _ones_shift(r - 1), memo, sub_top
    )
    return lhs == rhs


def parity_check(i: int, r: int, l: Sequence[int], a: Sequence[RationalLike]) -> bool:
    """Check the complement-shift parity C_{i,r}(-l; a) =
    (-1)^(r+|l|) C_{i,r}(-l; 1-a) for shifts with entries in [0, 1]."""
    lt = as_index_tuple(l)
    if r != len(lt):
        raise ValueError(f"r={r} does not match the index depth {len(lt)}")
    if not 1 <= i <= r:
        raise ValueError(f"need 1 <= i <= r, got i={i}, r={r}")
    entries = tuple(rat(c) for c in a)
    if len(entries) != r:
        raise ValueError(f"shift vector has length {len(entries)}, expected {r}")
    for c in entries:
        if not 0 <= c <= 1:
            raise ValueError(f"shift entries must lie in [0, 1], got {c}")
    return _parity_holds(i, r, lt, entries, {}, None)


def _parity_holds(
    i: int, r: int, lt: IndexTuple, a: Shift, memo: dict, top: "int | None"
) -> bool:
    """:func:`parity_check` on validated inputs, reading the definition sum
    at ``top`` (at r + |l| when None)."""
    d = staircase_direction(i, r)
    comp = tuple(1 - c for c in a)
    sign = -1 if (r + sum(lt)) % 2 else 1
    return _asym_sum(lt, d, a, memo, top) == sign * _asym_sum(lt, d, comp, memo, top)

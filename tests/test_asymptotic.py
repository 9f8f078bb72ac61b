"""Tests for asymptotic coefficients, staircase paths, Gregory coefficients,
and the direction-vector combinatorics."""

import hashlib
import random
from fractions import Fraction
from itertools import product
from math import factorial, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzv import asymptotic
from mzv.asymptotic import (
    CompositionPair,
    _asym_sum,
    _gregory_block_product,
    _pairs,
    as_direction,
    as_shift,
    asym_coeff,
    c_ir,
    c_ir_explicit,
    c_ir_recurrence,
    classify_direction,
    direction_partition_check,
    enumerate_I,
    enumerate_J,
    gregory,
    gregory_bundling_check,
    gregory_origin_check,
    origin_decomposition_check,
    origin_rev_gregory,
    parity_check,
    rev_via_gregory,
    star_coeff_relation_check,
    staircase_direction,
)
from mzv.bernoulli import bernoulli_poly, bernoulli_poly_at, shift_ratios
from mzv.stirling import stirling_kernel_box
from mzv.values import as_index_tuple, iter_index_tuples, mzf_reg, mzf_rev, mzsf_reg


def test_input_validation():
    with pytest.raises(ValueError):
        as_direction((2,), 2)
    with pytest.raises(ValueError):
        as_direction((0, 0), 2)  # needs depth-1 entries
    with pytest.raises(ValueError):
        as_shift((0, 1), 2)  # partial sums must stay positive
    with pytest.raises(ValueError):
        as_shift((1,), 2)
    assert as_shift((1, Fraction(1, 2)), 2) == (Fraction(1), Fraction(1, 2))
    with pytest.raises(ValueError):
        staircase_direction(0, 2)
    assert staircase_direction(2, 4) == (1, 0, 0)


def _tail_window(l, bit, j):
    """Bounds (lo, hi) of the tail sum t_j = n_{j+1} + ... + n_r when d_j = bit,
    1-based j < r."""
    r = len(l)
    if bit == 0:
        return 0, r - j + sum(l[j:])
    return r - j + 1 + sum(l[j - 1 :]), r + sum(l)


def _forward_asym_sum(l, d, a):
    """The definition sum carried forward from the first slot to the last, one
    dict of integer weights per tail sum t_j, with no memo: an oracle of
    ``_asym_sum``, which runs forward over the partial sums u_j = r + |l| - t_j
    on dense rows.  It reads only ``shift_ratios``."""
    r, total = len(l), len(l) + sum(l)
    row = {total: 1}
    den = 1
    head = 0  # l_1 + ... + l_j
    for j, (lj, aj) in enumerate(zip(l, a), start=1):
        head += lj
        top = max(row)
        if j == r:
            ts = [0]
        else:
            bits = (0, 1) if d is None else (d[j - 1],)
            windows = (_tail_window(l, b, j) for b in bits)
            ts = [t for lo, hi in windows for t in range(lo, min(hi, top) + 1)]
        if not ts:
            return Fraction(0)
        slot_den, bern = shift_ratios((aj.numerator, aj.denominator), top - ts[0])
        nxt = {}
        for t in ts:
            x = head - total + t + j - 1  # prefix_j + j - 1
            ff = prod(range(x, x - lj, -1))
            if ff:
                acc = sum(w * b for tp, w in row.items() if tp >= t and (b := bern[tp - t]))
                if acc:
                    nxt[t] = ff * acc
        if not nxt:
            return Fraction(0)
        row = nxt
        den *= slot_den
    return Fraction(-row[0] if total % 2 else row[0], den)


def _backward_asym_sum(l, d, a):
    """The definition sum carried from the last slot back to the first over
    the tail sums t_j = n_{j+1} + ... + n_r (t_0 = r + |l|, t_r = 0), the
    reverse of the order ``_asym_sum`` runs in, on dense suffix rows; an
    oracle with no memo.  It reads only ``shift_ratios``.

    With S_{>j} = l_{j+1} + ... + l_r, slot j's falling factorial reads
    x = t_j - S_{>j} - (r - j) - 1, the d_j = 0 window is [0, r - j + S_{>j}]
    and the d_j = 1 window starts at r - j + 1 + l_j + S_{>j}.  Row j maps each
    t_j to ff_j(t_j) times the sum over t_{j+1} <= t_j of
    B_{t_j - t_{j+1}}(a_{j+1})/(t_j - t_{j+1})! times row j+1 at t_{j+1}, up to
    its cap, the largest t_j the prefix allows: t_0, lowered to r - k + S_{>k}
    by each d_k = 0 with k <= j.  The result is read from row 1 at t_0.
    """
    r, total = len(l), len(l) + sum(l)
    dirs = (None,) * (r - 1) if d is None else d
    caps, cap, head = [], total, 0
    for j in range(1, r):
        head += l[j - 1]  # r - j + S_{>j} = total - head - j
        if dirs[j - 1] == 0:
            cap = min(cap, total - head - j)
        caps.append(cap)
    den, low, row = 1, 0, [-factorial(l[-1]) if l[-1] % 2 else factorial(l[-1])]
    rest = 0  # S_{>j}
    for j in range(r - 1, 0, -1):
        rest += l[j]
        cap, bit, hi = caps[j - 1], dirs[j - 1], r - j + rest
        ts = [] if bit == 1 else list(range(low, min(cap, hi) + 1))
        if bit != 0:
            ts += range(max(low, hi + 1 + l[j - 1]), cap + 1)
        if not (row and ts):
            return Fraction(0)
        slot_den, bern = shift_ratios((a[j].numerator, a[j].denominator), ts[-1] - low)
        nxt = [0] * (ts[-1] - ts[0] + 1)
        for t in ts:
            ff = prod(range(t - hi - 1, t - hi - 1 - l[j - 1], -1))
            nxt[t - ts[0]] = ff * sum(map(mul, row, bern[t - low :: -1]))
        den, low, row = den * slot_den, ts[0], nxt
    slot_den, bern = shift_ratios((a[0].numerator, a[0].denominator), total - low)
    acc = sum(map(mul, row, bern[total - low :: -1]))
    return Fraction(-acc if total % 2 else acc, den * slot_den)


def _assert_matches_both_oracles(l, d, a, value):
    assert value == _backward_asym_sum(l, d, a), (l, d, a)
    assert value == _forward_asym_sum(l, d, a), (l, d, a)


def admissible_n_set(l, d):
    """All exponent tuples n contributing to the coefficient at (-l, d).

    These are the n in N_0^r with n_1 + ... + n_r = r + |l| whose tail sums
    n_{j+1} + ... + n_r are bounded above by r - j + l_{j+1} + ... + l_r when
    d_j = 0 and below by r - j + 1 + l_j + ... + l_r when d_j = 1: a walk
    over the windows the definition sum uses, checked against the bounds
    themselves by :func:`_admissible_by_definition`.
    """
    lt = as_index_tuple(l)
    dt = as_direction(d, len(lt))
    r = len(lt)
    found = []

    def walk(j, t_prev, head):
        # t_prev is the tail sum n_j + ... + n_r still to distribute.
        if j == r:
            found.append(head + (t_prev,))
            return
        lo, hi = _tail_window(lt, dt[j - 1], j)
        for t in range(lo, min(hi, t_prev) + 1):
            walk(j + 1, t, head + (t_prev - t,))

    walk(1, r + sum(lt), ())
    return tuple(sorted(found))


def test_admissible_sets():
    assert admissible_n_set((0,), ()) == ((1,),)
    assert admissible_n_set((0, 0), (0,)) == ((1, 1), (2, 0))
    assert admissible_n_set((0, 0), (1,)) == ((0, 2),)
    assert admissible_n_set((1, 1), (1,)) == ((0, 4),)


def _compositions(total, r):
    if r == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, r - 1):
            yield (first,) + rest


def _admissible_by_definition(l, d):
    r = len(l)
    return tuple(
        n
        for n in _compositions(r + sum(l), r)
        if all(
            sum(n[j:]) <= r - j + sum(l[j:])
            if d[j - 1] == 0
            else sum(n[j:]) >= r - j + 1 + sum(l[j - 1 :])
            for j in range(1, r)
        )
    )


def _definition_sum_oracle(l, d, a):
    # (-1)^(r+|l|) sum over admissible n of
    # prod_j B_{n_j}(a_j)/n_j! * (prefix_j + j - 1)_{l_j},
    # prefix_j = (l_1 - n_1) + ... + (l_j - n_j), term by term.
    total = Fraction(0)
    for n in admissible_n_set(l, d):
        term = Fraction(1)
        prefix = 0
        for j in range(1, len(l) + 1):
            prefix += l[j - 1] - n[j - 1]
            x = prefix + j - 1
            term *= bernoulli_poly_at(n[j - 1], a[j - 1]) / factorial(n[j - 1])
            term *= prod(x - s for s in range(l[j - 1]))
        total += term
    return -total if (len(l) + sum(l)) % 2 else total


@st.composite
def _definition_points(draw):
    r = draw(st.integers(min_value=1, max_value=5))
    l, budget = [], 6
    for _ in range(r):
        l.append(draw(st.integers(min_value=0, max_value=budget)))
        budget -= l[-1]
    d = tuple(draw(st.integers(min_value=0, max_value=1)) for _ in range(r - 1))
    family = draw(st.sampled_from(["ones", "basis", "signed"]))
    if family == "ones":
        a = (Fraction(1),) * r
    elif family == "basis":
        p = draw(st.integers(min_value=0, max_value=r - 1))
        a = tuple(Fraction(int(t == p)) for t in range(r))
    else:
        # Entries of either sign whose partial sums stay positive.
        sums = [Fraction(0)] + [
            draw(st.fractions(min_value=Fraction(1, 5), max_value=3, max_denominator=5))
            for _ in range(r)
        ]
        a = tuple(sums[t + 1] - sums[t] for t in range(r))
    return tuple(l), d, a


@settings(deadline=None, max_examples=150)
@given(_definition_points())
def test_definition_sum_matches_term_by_term_oracle(point):
    l, d, a = point
    assert admissible_n_set(l, d) == _admissible_by_definition(l, d)
    a = tuple(Fraction(c) for c in a)  # partial sums >= 0, which as_shift refuses
    expected = _definition_sum_oracle(l, d, a)
    assert Fraction(*_asym_sum(l, d, _pairs(a), {})) == expected
    _assert_matches_both_oracles(l, d, a, expected)
    if a[0] > 0:  # every family has positive partial sums once a_1 > 0
        assert asym_coeff(l, d, a) == expected


# A non-unit positive shift; its prefixes serve every depth up to 5.
_UNIT_FREE_SHIFT = (Fraction(3, 7), Fraction(5, 2), Fraction(2), Fraction(1, 3), Fraction(4, 5))
# The three kinds of shift the asym suite uses: all ones, (1, 0, ..., 0), other.
_SUITE_SHIFTS = (
    lambda r: (Fraction(1),) * r,
    lambda r: (Fraction(1),) + (Fraction(0),) * (r - 1),
    lambda r: _UNIT_FREE_SHIFT[:r],
)


def _per_direction_sum(l, a):
    r = len(l)
    return sum(
        (Fraction(*_asym_sum(l, d, _pairs(a), {})) for d in product((0, 1), repeat=r - 1)),
        Fraction(0),
    )


def test_all_directions_pass_matches_per_direction_sums():
    # d=None lets each tail sum range over the union of its two disjoint
    # windows; that must equal the sum of the 2^(r-1) single-direction sums.
    for l in iter_index_tuples(5, 7):
        for make_shift in _SUITE_SHIFTS:
            a = make_shift(len(l))
            value = Fraction(*_asym_sum(l, None, _pairs(a), {}))
            assert value == _per_direction_sum(l, a), (l, a)
        assert Fraction(*_asym_sum(l, None, ((1, 1),) * len(l), {})) == mzf_rev(l), l


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_all_directions_pass_property(data):
    l = tuple(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=5), label="l"))
    positive = st.fractions(min_value=Fraction(1, 5), max_value=3, max_denominator=5)
    a = tuple(data.draw(st.lists(positive, min_size=len(l), max_size=len(l)), label="a"))
    assert Fraction(*_asym_sum(l, None, _pairs(a), {})) == _per_direction_sum(l, a)
    assert Fraction(*_asym_sum(l, None, ((1, 1),) * len(l), {})) == mzf_rev(l)


def test_recurrence_memo_shared_across_the_grid_is_sound():
    # One memo per (i, r, shift), shared by every l as in the asym suite,
    # gives exactly the fresh-memo values.
    for r in range(1, 5):
        for i in range(1, r + 1):
            for make_shift in _SUITE_SHIFTS:
                a = _pairs(as_shift(make_shift(r), r))
                shared = {}
                for l in iter_index_tuples(r, 6, min_depth=r):
                    assert Fraction(*asymptotic._c_rec(i, r, l, a, shared)) == Fraction(
                        *asymptotic._c_rec(i, r, l, a, {})
                    ), (i, r, l, a)


def test_recurrence_memo_shared_in_any_order_is_sound():
    # A shuffled grid asks rows below where they start as well as above
    # where they end; the shared memo still gives the fresh-memo values.
    rng = random.Random(5)
    for r in range(2, 5):
        grid = list(iter_index_tuples(r, 6, min_depth=r))
        rng.shuffle(grid)
        for i in range(1, r + 1):
            a = _pairs(as_shift(_UNIT_FREE_SHIFT[:r], r))
            shared = {}
            for l in grid:
                assert Fraction(*asymptotic._c_rec(i, r, l, a, shared)) == Fraction(
                    *asymptotic._c_rec(i, r, l, a, {})
                ), (i, r, l)


# shift_ratios calls of one c_ir_recurrence call at the all-ones shift, for
# i = 1..r, as the recurrence made them with one memo entry per node.
RECURRENCE_SHIFT_READS = {(0, 50, 3): (62, 6, 3), (7, 0, 40, 2): (96, 50, 41, 20)}


@pytest.mark.parametrize("l", sorted(RECURRENCE_SHIFT_READS))
def test_recurrence_rows_start_at_the_smallest_entry_asked(monkeypatch, l):
    # A row holds the entries from the smallest one asked, so a single deep
    # call computes no node the per-node recurrence did not.
    reads = []
    ratios = asymptotic.shift_ratios

    def counted(a, top):
        reads.append((a, top))
        return ratios(a, top)

    monkeypatch.setattr(asymptotic, "shift_ratios", counted)
    r = len(l)
    for i, pinned in enumerate(RECURRENCE_SHIFT_READS[l], start=1):
        reads.clear()
        c_ir_recurrence(i, r, l, (1,) * r)
        assert len(reads) <= pinned, (i, len(reads))


def _draw_index(draw, max_depth=5, max_weight=8):
    r = draw(st.integers(min_value=1, max_value=max_depth))
    l, budget = [], max_weight
    for _ in range(r):
        l.append(draw(st.integers(min_value=0, max_value=budget)))
        budget -= l[-1]
    return tuple(l)


@st.composite
def _staircase_points(draw):
    """A staircase point (i, l, a): depth at most 5, weight at most 8, and
    the shift all ones, (1, 0, ..., 0) or random positive entries."""
    l = _draw_index(draw)
    r = len(l)
    family = draw(st.sampled_from(["ones", "first", "positive"]))
    if family == "ones":
        a = (Fraction(1),) * r
    elif family == "first":
        a = (Fraction(1),) + (Fraction(0),) * (r - 1)
    else:
        positive = st.fractions(min_value=Fraction(1, 5), max_value=3, max_denominator=5)
        a = tuple(draw(st.lists(positive, min_size=r, max_size=r)))
    return draw(st.integers(min_value=1, max_value=r)), l, a


@settings(deadline=None, max_examples=150)
@given(_staircase_points())
def test_integer_routes_reduce_to_their_public_values(point):
    # Each private route returns an unreduced (numerator, denominator) pair
    # with a positive denominator; reduced, it is its public wrapper's value
    # and the value of both definition-sum oracles.
    i, l, a = point
    r = len(l)
    d = staircase_direction(i, r)
    expected = _forward_asym_sum(l, d, a)
    assert _backward_asym_sum(l, d, a) == expected
    routes = (
        (_asym_sum(l, d, _pairs(a), {}), c_ir(i, r, l, a)),
        (asymptotic._c_rec(i, r, l, _pairs(a), {}), c_ir_recurrence(i, r, l, a)),
        (asymptotic._c_explicit(i, r, l, _pairs(a), {}), c_ir_explicit(i, r, l, a)),
    )
    for (num, den), public in routes:
        assert type(num) is int and type(den) is int and den > 0, (num, den)
        assert Fraction(num, den) == public == expected, (i, l, a)
    assert asym_coeff(l, d, a) == expected


@st.composite
def _shared_suffix_points(draw):
    """Points (l, d, a) in a random order that share suffixes: every suffix of
    a few drawn tuples, with the matching suffix of one depth-5 shift (all
    ones, a basis vector e_p or random positive entries), at d=None, at every
    staircase direction and at one more drawn direction."""
    family = draw(st.sampled_from(["ones", "basis", "positive"]))
    if family == "ones":
        master = (Fraction(1),) * 5
    elif family == "basis":
        p = draw(st.integers(min_value=0, max_value=4))
        master = tuple(Fraction(int(t == p)) for t in range(5))
    else:
        positive = st.fractions(min_value=Fraction(1, 5), max_value=3, max_denominator=5)
        master = tuple(draw(st.lists(positive, min_size=5, max_size=5)))
    points = []
    count = draw(st.integers(min_value=1, max_value=4))
    for l in [_draw_index(draw) for _ in range(count)]:
        for start in range(len(l)):
            sub, r = l[start:], len(l) - start
            bits = st.lists(st.integers(min_value=0, max_value=1), min_size=r - 1, max_size=r - 1)
            dirs = [None, tuple(draw(bits))]
            dirs += [staircase_direction(i, r) for i in range(1, r + 1)]
            points += [(sub, d, master[5 - r :]) for d in dict.fromkeys(dirs)]
    return draw(st.permutations(points))


@settings(deadline=None, max_examples=40)
@given(_shared_suffix_points())
def test_shared_definition_memo_matches_the_forward_oracle(points):
    # One memo, filled in a random order by calls that share suffix rows.
    memo = {}
    for l, d, a in points:
        value = Fraction(*_asym_sum(l, d, _pairs(a), memo))
        assert value == _forward_asym_sum(l, d, a), (l, d, a)


@st.composite
def _shared_prefix_points(draw):
    """Points (l, d, a, top) in a random order that share prefixes: tuples of
    one drawn depth r with entries up to 2, each at d=None, at every staircase
    direction and at one more drawn direction, with the first r entries of
    one depth-5 shift (all ones, a basis vector e_p or random positive
    entries), and one top for all: 3r, which serves every such tuple, or the
    default r + |l|."""
    family = draw(st.sampled_from(["ones", "basis", "positive"]))
    if family == "ones":
        master = (Fraction(1),) * 5
    elif family == "basis":
        p = draw(st.integers(min_value=0, max_value=4))
        master = tuple(Fraction(int(t == p)) for t in range(5))
    else:
        positive = st.fractions(min_value=Fraction(1, 5), max_value=3, max_denominator=5)
        master = tuple(draw(st.lists(positive, min_size=5, max_size=5)))
    r = draw(st.integers(min_value=1, max_value=5))
    top = draw(st.sampled_from([None, 3 * r]))
    entries = st.lists(st.integers(min_value=0, max_value=2), min_size=r, max_size=r)
    bits = st.lists(st.integers(min_value=0, max_value=1), min_size=r - 1, max_size=r - 1)
    points = []
    for l in draw(st.lists(entries, min_size=1, max_size=8)):
        dirs = [None, tuple(draw(bits))] + [staircase_direction(i, r) for i in range(1, r + 1)]
        points += [(tuple(l), d, master[:r], top) for d in dict.fromkeys(dirs)]
    return draw(st.permutations(points))


@settings(deadline=None, max_examples=40)
@given(_shared_prefix_points())
def test_shared_prefix_memo_matches_the_forward_oracle(points):
    # One memo, filled in a random order by calls that share prefix rows.
    memo = {}
    for l, d, a, top in points:
        value = Fraction(*_asym_sum(l, d, _pairs(a), memo, top))
        assert value == _forward_asym_sum(l, d, a), (l, d, a, top)


def test_two_fill_orders_give_equal_values_and_bounded_memos():
    # A memo keeps one path of prefix rows per stream, so the rows it holds
    # depend on the order of the calls; the values must not.  At top = 8,
    # r + 4 or more for every depth, each stream serves every l of its depth.
    grid = [
        (l, d, make_shift(len(l)))
        for l in iter_index_tuples(4, 4)
        for d in (None, *product((0, 1), repeat=len(l) - 1))
        for make_shift in _SUITE_SHIFTS
    ]
    values = [_forward_asym_sum(l, d, a) for l, d, a in grid]
    for (l, d, a), value in zip(grid, values):
        assert _backward_asym_sum(l, d, a) == value, (l, d, a)
    order = list(range(len(grid)))
    random.Random(0).shuffle(order)
    for top in (None, 8):
        in_order, shuffled = {}, {}
        for k in range(len(grid)):
            l, d, a = grid[k]
            value = Fraction(*_asym_sum(l, d, _pairs(a), in_order, top))
            assert value == values[k], (grid[k], top)
        for k in order:
            l, d, a = grid[k]
            value = Fraction(*_asym_sum(l, d, _pairs(a), shuffled, top))
            assert value == values[k], (grid[k], top)
        for memo in (in_order, shuffled):
            assert memo
            for stream, (prefix, rows) in memo.items():
                # (top, d, one pair per shift entry but the last): r - 1 pairs.
                assert len(rows) == len(prefix) == len(stream) - 2, stream


def test_shared_chain_memo_matches_fresh_explicit_path(monkeypatch):
    # The expansion covers every staircase, i == r and r < 3 included, and
    # never hands over to the recurrence.
    def no_recurrence(*args):
        raise AssertionError("the explicit path ran the recurrence")

    monkeypatch.setattr(asymptotic, "_c_rec", no_recurrence)
    grid = [
        (i, r, l, as_shift(make_shift(r), r))
        for r in range(1, 6)
        for l in iter_index_tuples(r, 4, min_depth=r)
        for i in range(1, r + 1)
        for make_shift in _SUITE_SHIFTS
    ]
    random.Random(1).shuffle(grid)
    chains = {}
    for i, r, l, a in grid:
        fresh = Fraction(*asymptotic._c_explicit(i, r, l, _pairs(a), {}))
        assert fresh == _forward_asym_sum(l, staircase_direction(i, r), a), (i, r, l, a)
        shared = Fraction(*asymptotic._c_explicit(i, r, l, _pairs(a), chains))
        assert shared == fresh, (i, r, l, a)
    assert chains


def test_explicit_path_never_reads_the_suite_memo(monkeypatch):
    # Corrupt every shared memo after each recurrence check, raising every
    # kept row entry nums[k] / den by one: later recurrence checks then fail,
    # while every explicit-path check, which never runs the recurrence, still
    # passes.  The staircase runs the recurrence on runs of siblings, so the
    # corrupting run computes one l at a time.
    from mzv import verify

    c_rec_run = verify._c_rec_run

    def corrupting(i, r, prefix, xs, a, memo):
        values = []
        for x in xs:
            values += c_rec_run(i, r, prefix, (x,), a, memo)
            for y0, nums, den in memo.values():
                nums[:] = [n + den for n in nums]
        return values

    monkeypatch.setattr(verify, "_c_rec_run", corrupting)
    result = verify.run_suite("asym", verify.Bounds(max_depth=3, max_weight=4, max_r=4))
    assert result.failures
    assert all(f.startswith("recurrence path") for f in result.failures)


# A signed shift with positive partial sums; its prefixes serve every depth.
_PINNED_SIGNED_SHIFT = (Fraction(3, 2), Fraction(-1, 3), Fraction(5, 4), Fraction(-2, 5))
# SHA-256 of the lines written by test_pinned_coefficients, recorded before the
# definition sum and the recurrence were regrouped.
PINNED_COEFFICIENT_DIGEST = "0b2dcc1b8f442d73c2a7465c036600991da65365f28c8f13dd6ce4bda877f878"


def test_pinned_coefficients():
    digest = hashlib.sha256()
    for l in iter_index_tuples(4, 5):
        r = len(l)
        shifts = [(Fraction(1),) * r, _PINNED_SIGNED_SHIFT[:r]]
        shifts += [tuple(Fraction(int(t == p)) for t in range(r)) for p in range(r)]
        for a in shifts:
            if a[0] == 0:  # basis shifts e_p, p >= 2: only the definition sum
                for d in product((0, 1), repeat=r - 1):
                    value = Fraction(*_asym_sum(l, d, _pairs(a), {}))
                    digest.update(f"_asym_sum {l} {d} {a}={value}\n".encode())
                continue
            for d in product((0, 1), repeat=r - 1):
                digest.update(f"asym_coeff {l} {d} {a}={asym_coeff(l, d, a)}\n".encode())
            for i in range(1, r + 1):
                for name, path in (
                    ("c_ir", c_ir),
                    ("c_ir_recurrence", c_ir_recurrence),
                    ("c_ir_explicit", c_ir_explicit),
                ):
                    digest.update(f"{name} {i} {l} {a}={path(i, r, l, a)}\n".encode())
    assert digest.hexdigest() == PINNED_COEFFICIENT_DIGEST


def test_pinned_grid_matches_both_oracles():
    for l in iter_index_tuples(4, 5):
        r = len(l)
        shifts = [(Fraction(1),) * r, _PINNED_SIGNED_SHIFT[:r]]
        shifts += [tuple(Fraction(int(t == p)) for t in range(r)) for p in range(r)]
        for a in shifts:
            for d in product((0, 1), repeat=r - 1):
                _assert_matches_both_oracles(l, d, a, Fraction(*_asym_sum(l, d, _pairs(a), {})))


# asym_coeff((100, 100, 100), (0, 0), (3/7, 1, 2)), recorded before the
# definition sum moved to integer numerators over per-shift denominators.
WEIGHT_300_COEFFICIENT = Fraction(
    int(
        "-95238198825826031307644077864143192384430961916821464611741579536086882"
        "932999101654128559348381528039706957800716431505985773276273081875540916"
        "694684242900010006508928769920846418722786126312537982852145197711884226"
        "063478708581432663532766670677664566991907041677463121388587682616986043"
        "725661447698199163206562473764637112898096328228538196346309489150831169"
        "274050264309930122777598160096717813392855623588668926711268600975364370"
        "420380341450954092716553209384656247952272596940403824505373987152560305"
        "555233340423123171691801271429235830216843380273906575154800353235874014"
        "793469682740004742839289283097689945640207975137456727435581256538730568"
        "965552983219347687389128086359928098792398974824716459969676983460717446"
        "751231736828654939651257141375023"
    ),
    int(
        "806903265941095621091917518143563464502388587751075626431179478717018254"
        "363778680810071625211927001933200481673200752673714256282572818974854822"
        "084176830014058508852247174433363280662087369002371231492356341563373826"
        "331006802960857516236887575018212825776453683485090790710435564651115068"
        "631541133310005256744973959927940377362754201329184843252304915670772947"
        "368108628180905680"
    ),
)


def test_weight_300_coefficient_is_pinned():
    shift = (Fraction(3, 7), 1, 2)
    assert asym_coeff((100, 100, 100), (0, 0), shift) == WEIGHT_300_COEFFICIENT


@pytest.mark.parametrize("a", [Fraction(1), Fraction(1, 2), Fraction(3, 7)])
def test_depth_one_coefficients_at_high_index(a):
    # Depth one reads a single high Bernoulli index per call, so every l
    # opens a new window at the top of the shift's table.
    for l in range(301):
        assert asym_coeff((l,), (), (a,)) == -bernoulli_poly_at(l + 1, a) / (l + 1), l
    for n in (1, 2, 3, 58, 151, 300, 301):
        assert bernoulli_poly_at(n, a) == bernoulli_poly(n).evaluate(a), n


def test_asym_coeff_worked_examples():
    assert asym_coeff((0, 1), (0,), (1, 1)) == Fraction(1, 12)
    assert asym_coeff((0, 1), (1,), (1, 1)) == 0
    assert asym_coeff((1, 1), (0,), (1, 1)) == Fraction(1, 360)
    assert asym_coeff((1, 1), (1,), (1, 1)) == Fraction(1, 720)


def test_asym_coeff_depth_one_is_hurwitz():
    assert asym_coeff((0,), (), (1,)) == Fraction(-1, 2)
    assert asym_coeff((1,), (), (Fraction(1, 2),)) == Fraction(1, 24)


def test_direction_sum_reconstructs_values():
    # summing the coefficients over all directions gives the reverse value,
    # and the all-zero direction alone gives the regular value
    for l in [(0, 1), (1, 1), (0, 0, 1), (1, 0, 2)]:
        r = len(l)
        ones = (1,) * r
        total = Fraction(0)
        for bits in range(1 << (r - 1)):
            d = tuple((bits >> t) & 1 for t in range(r - 1))
            total += asym_coeff(l, d, ones)
        assert total == mzf_rev(l)
        assert asym_coeff(l, (0,) * (r - 1), ones) == mzf_reg(l)
        shifted = (1,) + (0,) * (r - 1)
        assert asym_coeff(l, (0,) * (r - 1), shifted) == mzsf_reg(l)


def test_staircase_paths_agree_on_examples():
    assert c_ir(1, 2, (1, 1), (1, 1)) == Fraction(1, 360)
    assert c_ir(2, 2, (1, 1), (1, 1)) == Fraction(1, 720)
    assert c_ir(1, 2, (0, 0), (1, 1)) == Fraction(1, 3)
    assert c_ir(2, 2, (0, 0), (1, 1)) == Fraction(1, 12)
    assert c_ir(1, 1, (0,), (1,)) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        c_ir(3, 2, (0, 0), (1, 1))
    with pytest.raises(ValueError):
        c_ir(1, 3, (0, 0), (1, 1))


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_three_staircase_paths_agree(r, data):
    i = data.draw(st.integers(min_value=1, max_value=r))
    l = tuple(
        data.draw(st.integers(min_value=0, max_value=2), label=f"l{t}")
        for t in range(r)
    )
    a = tuple(
        data.draw(
            st.fractions(
                min_value=Fraction(1, 4), max_value=2, max_denominator=4
            ),
            label=f"a{t}",
        )
        for t in range(r)
    )
    reference = c_ir(i, r, l, a)
    assert c_ir_recurrence(i, r, l, a) == reference
    assert c_ir_explicit(i, r, l, a) == reference


def test_star_relation_examples():
    assert star_coeff_relation_check(2, 2, 1, (1, 1))
    assert star_coeff_relation_check(2, 3, 2, (0, 1, 0))
    assert star_coeff_relation_check(3, 3, 1, (2, 0, 0))
    with pytest.raises(ValueError):
        star_coeff_relation_check(1, 2, 1, (0, 0))  # needs 2 <= i
    with pytest.raises(ValueError):
        star_coeff_relation_check(2, 2, 3, (0, 0))  # p out of range
    with pytest.raises(ValueError):
        star_coeff_relation_check(2, 3, 1, (0, 0))  # wrong depth


def test_star_relation_full_small_grid():
    for r in (2, 3):
        for i in range(2, r + 1):
            for p in range(1, r + 1):
                for bits in range(3**r):
                    l, rest = [], bits
                    for _ in range(r):
                        l.append(rest % 3)
                        rest //= 3
                    if sum(l) > 3:
                        continue
                    assert star_coeff_relation_check(i, r, p, tuple(l))


def test_parity_examples():
    assert parity_check(1, 2, (0, 1), (1, 1))
    assert parity_check(2, 3, (1, 0, 2), (1, Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        parity_check(1, 2, (0, 1), (1, 2))  # entries must lie in [0, 1]
    with pytest.raises(ValueError):
        parity_check(0, 2, (0, 1), (1, 1))


def test_gregory_values():
    assert gregory(1, 1) == 1
    assert gregory(1, 2) == Fraction(-1, 2)
    assert gregory(1, 3) == Fraction(1, 3)
    assert gregory(2, 2) == Fraction(1, 12)
    assert gregory(2, 1) == Fraction(-1, 2)
    assert gregory(0, 1) == 0  # the table proper starts at m, n >= 1
    with pytest.raises(ValueError):
        gregory(-1, 1)


def test_gregory_table_pinned():
    # SHA-256 of the lines "m,n=G(m,n)" for m + n <= 40, recorded from the
    # sparse bivariate-series build that the dense table replaced.
    text = "".join(f"{m},{n}={gregory(m, n)}\n" for m in range(41) for n in range(41 - m))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "82905204b0b87efcbc81bd26e80e2f8d413397e44483bcdb83f83d99b4f21cea"
    )


def test_gregory_symmetry():
    for m in range(1, 7):
        for n in range(1, 7):
            assert gregory(m, n) == gregory(n, m)


def test_gregory_origin_agreement():
    for r in range(1, 7):
        assert gregory_origin_check(r)


def test_classify_direction_examples():
    assert classify_direction(()) == (0, 0)
    assert classify_direction((0,)) == (0, 0)
    assert classify_direction((1,)) == (0, 1)
    assert classify_direction((0, 1)) == (1, 0)
    assert classify_direction((1, 0)) == (0, 1)
    assert classify_direction((1, 1, 0, 1)) == (1, 2)
    with pytest.raises(ValueError):
        classify_direction((2,))


def test_enumerate_I_examples():
    assert enumerate_I(0, 0, 2) == ((0,),)
    assert enumerate_I(0, 1, 2) == ((1,),)
    assert set(enumerate_I(1, 0, 3)) == {(0, 1)}
    assert set(enumerate_I(0, 1, 3)) == {(1, 0)}
    with pytest.raises(ValueError):
        enumerate_I(2, 0, 3)


def test_enumerate_J_examples():
    assert enumerate_J(0, 0, 1) == (CompositionPair((1,), (1,)),)
    assert enumerate_J(0, 1, 2) == (CompositionPair((2,), (2,)),)
    assert enumerate_J(0, 0, 2) == (CompositionPair((1,), (2,)),)
    assert CompositionPair((1, 2), (2, 2)) in enumerate_J(1, 0, 4)
    for pair in enumerate_J(1, 1, 5):
        assert len(pair.m) == 2
        assert sum(pair.m) == 4
        assert sum(pair.n) == 5
        assert all(mp <= np for mp, np in zip(pair.m, pair.n))
        assert pair.m[0] >= 1 and pair.m[1] >= 2


def test_direction_partition():
    for r in range(1, 7):
        assert direction_partition_check(r)


def test_origin_decomposition_and_bundling():
    for r in range(1, 6):
        assert origin_decomposition_check(r)
        assert gregory_bundling_check(r)


def test_origin_reverse_values_from_gregory():
    assert origin_rev_gregory(1) == Fraction(-1, 2)
    assert origin_rev_gregory(2) == Fraction(5, 12)
    for r in range(1, 7):
        assert origin_rev_gregory(r) == mzf_rev((0,) * r)


def test_origin_rev_gregory_matches_enumeration():
    # The prefix sum over block sizes against the block products listed
    # pair by pair over every J(j, k): 2^(r-1) pairs at depth r.
    for r in range(1, 15):
        enumerated = sum(
            (
                _gregory_block_product(pair)
                for j in range((r - 1) // 2 + 1)
                for k in range(r - 2 * j)
                for pair in enumerate_J(j, k, r)
            ),
            Fraction(0),
        )
        assert origin_rev_gregory(r) == enumerated, r


def test_rev_via_gregory_builds_the_series_once(monkeypatch):
    # Reading the Gregory table in increasing order computes each diagonal
    # exactly once: a higher order appends diagonals to the same table.
    built = []
    diagonals = asymptotic._gregory_diagonals

    def counted(t):
        built.append(t)
        return diagonals(t)

    monkeypatch.setattr(asymptotic, "_gregory_diagonals", counted)
    monkeypatch.setattr(asymptotic, "_GREGORY_SERIES", [None])
    for total in range(27):
        for m in range(total + 1):
            gregory(m, total - m)
    assert built == list(range(27))
    assert rev_via_gregory((2, 2)) == mzf_rev((2, 2))


def test_origin_tables_are_prefixes_of_larger_ones():
    # What lets one table serve a whole grid of reverse values.
    tables = [asymptotic._origin_rev_table(n) for n in range(21)]
    for n in range(21):
        for m in range(n + 1):
            assert tables[n][: m + 1] == tables[m], (m, n)


def test_rev_via_gregory_reads_one_shared_origin_table():
    origin = asymptotic._origin_rev_table(3 + 6)
    for l in iter_index_tuples(3, 6):
        box = stirling_kernel_box(l, 0)
        assert asymptotic._rev_via_gregory(len(l), box, origin) == rev_via_gregory(l), l


def test_gregory_suite_builds_one_origin_table_for_its_grid(monkeypatch):
    # One table for the reverse-value grid and one per origin_rev_gregory(r)
    # check, r <= max_r = 7: 8 builds, not one per grid tuple.
    from mzv import verify

    built = []
    table = asymptotic._origin_rev_table

    def counted(top):
        built.append(top)
        return table(top)

    monkeypatch.setattr(asymptotic, "_origin_rev_table", counted)
    monkeypatch.setattr(verify, "_origin_rev_table", counted)
    result = verify.run_suite("gregory", verify.Bounds(max_depth=4, max_weight=6, max_r=7))
    assert result.ok
    assert len(built) == 8, built


def test_rev_via_gregory_examples():
    assert rev_via_gregory((0,)) == Fraction(-1, 2)
    assert rev_via_gregory((0, 0)) == Fraction(5, 12)
    assert rev_via_gregory((1, 1)) == Fraction(1, 240)


@settings(deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3)
)
def test_rev_via_gregory_matches_recurrence(l):
    assert rev_via_gregory(tuple(l)) == mzf_rev(tuple(l))


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_rev_via_gregory_matches_recurrence_beyond_depth_three(data):
    r = data.draw(st.integers(min_value=1, max_value=5), label="r")
    l, budget = [], 12
    for t in range(r):
        l.append(data.draw(st.integers(min_value=0, max_value=budget), label=f"l{t}"))
        budget -= l[-1]
    l = tuple(data.draw(st.permutations(l), label="order"))
    value = rev_via_gregory(l)
    assert type(value) is Fraction
    assert value == mzf_rev(l)

"""Tests for the four value families, their closed forms and the value grid."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mzv
from mzv import stirling, values, verify
from mzv.asymptotic import asym_coeff
from mzv.bernoulli import zeta_neg, zeta_star_neg
from mzv.stirling import stirling_kernel_box
from mzv.values import (
    ValueKind,
    _box_grid,
    _grid,
    _origin_values,
    _zero_padding_holds,
    akiyama_tanigawa_reg,
    akiyama_tanigawa_rev,
    as_index_tuple,
    iter_index_tuples,
    mzf_reg,
    mzf_rev,
    mzf_rev_stirling,
    mzsf_reg,
    mzsf_rev,
    mzsf_rev_stirling,
    prop_zero_padding_check,
    sign_theorem_check,
    value,
    value_grid,
)

index_tuples = st.lists(
    st.integers(min_value=0, max_value=4), min_size=1, max_size=3
).map(tuple)


def test_index_tuple_validation():
    assert as_index_tuple([0, 1]) == (0, 1)
    with pytest.raises(ValueError):
        as_index_tuple([])
    with pytest.raises(ValueError):
        as_index_tuple([0, -1])
    with pytest.raises(ValueError):
        as_index_tuple([True])


def test_depth_one_values_are_zeta():
    # includes the star families: at depth one the star value IS the plain
    # value; the shifted weight at zero only enters inside recurrences
    for l in range(8):
        z = zeta_neg(l)
        assert mzf_reg((l,)) == z
        assert mzf_rev((l,)) == z
        assert mzsf_reg((l,)) == z
        assert mzsf_rev((l,)) == z


def test_regular_value_examples():
    assert mzf_reg((0,)) == Fraction(-1, 2)
    assert mzf_reg((0, 1)) == Fraction(1, 12)
    assert mzf_reg((0, 0)) == Fraction(1, 3)
    assert mzsf_reg((0, 1)) == 0
    assert mzsf_reg((0, 3)) == 0


def test_reverse_value_examples():
    assert mzf_rev((0, 0)) == Fraction(5, 12)
    assert mzf_rev((0, 1)) == Fraction(1, 12)
    assert mzf_rev((1, 1)) == Fraction(1, 240)
    assert mzsf_reg((1, 1)) == Fraction(1, 360)
    # the star correction at (1,1) is zeta(-2) = 0, so plain and star agree
    assert mzsf_rev((1, 1)) == Fraction(1, 240)
    assert mzsf_rev((0, 1)) == 0


def test_value_dispatch():
    assert value(ValueKind.MZF_REG, (0, 1)) == Fraction(1, 12)
    assert value("mzf-rev", (1, 1)) == Fraction(1, 240)
    assert value("mzsf-reg", (0, 3)) == 0
    assert value("mzsf-rev", (1, 1)) == Fraction(1, 240)
    assert value("mzsf-reg", (1, 1)) == Fraction(1, 360)
    with pytest.raises(ValueError):
        value("mzf", (1,))


def test_stirling_closed_form_examples():
    assert mzf_rev_stirling((1,)) == Fraction(-1, 12)
    assert mzf_rev_stirling((0, 0)) == Fraction(5, 12)
    assert mzf_rev_stirling((1, 1)) == Fraction(1, 240)
    assert mzsf_rev_stirling((1,)) == Fraction(-1, 12)
    assert mzsf_rev_stirling((1, 1)) == Fraction(1, 240)
    # the all-zero index collapses the kernel to the origin value
    for r in range(1, 5):
        zeros = (0,) * r
        assert mzf_rev_stirling(zeros) == mzf_rev(zeros)
        assert mzsf_rev_stirling(zeros) == mzsf_rev(zeros)


@settings(deadline=None)
@given(index_tuples)
def test_stirling_closed_forms_agree_with_recurrences(l):
    assert mzf_rev_stirling(l) == mzf_rev(l)
    assert mzsf_rev_stirling(l) == mzsf_rev(l)


@st.composite
def _deep_index_tuples(draw, max_depth=5, max_weight=12):
    r = draw(st.integers(min_value=1, max_value=max_depth))
    l, budget = [], max_weight
    for _ in range(r):
        l.append(draw(st.integers(min_value=0, max_value=budget)))
        budget -= l[-1]
    return tuple(draw(st.permutations(l)))


@settings(deadline=None, max_examples=40)
@given(_deep_index_tuples())
def test_stirling_closed_forms_agree_beyond_depth_three(l):
    plain, star = mzf_rev_stirling(l), mzsf_rev_stirling(l)
    assert type(plain) is Fraction and type(star) is Fraction
    assert plain == mzf_rev(l)
    assert star == mzsf_rev(l)


def test_akiyama_tanigawa_examples():
    assert akiyama_tanigawa_reg(1, 0) == Fraction(-1, 2)
    assert akiyama_tanigawa_reg(2, 1) == mzf_reg((1, 0))
    assert akiyama_tanigawa_rev(2, 1) == mzf_rev((0, 1))
    with pytest.raises(ValueError):
        akiyama_tanigawa_reg(0, 1)
    with pytest.raises(ValueError):
        akiyama_tanigawa_rev(1, -1)


def test_akiyama_tanigawa_matches_recurrences():
    for r in range(1, 6):
        for l in range(0, 7):
            head = (l,) + (0,) * (r - 1)
            assert akiyama_tanigawa_reg(r, l) == mzf_reg(head)
            tail = (0,) * (r - 1) + (l,)
            assert akiyama_tanigawa_rev(r, l) == mzf_rev(tail)


def test_sign_theorem_examples():
    assert sign_theorem_check("regular", (1, 1))
    assert sign_theorem_check("reverse", (1, 2, 1))
    assert sign_theorem_check("regular", (3,))
    with pytest.raises(ValueError):
        sign_theorem_check("regular", (0, 1))
    with pytest.raises(ValueError):
        sign_theorem_check("sideways", (1, 1))


def test_sign_theorem_fails_exactly_at_zero_leading_odd_tail():
    # With a leading zero the star value vanishes while the plain value is
    # -zeta(-l2) != 0 for odd l2, so no sign statement can cover l1 = 0.
    for l2 in (1, 3, 5, 7, 9):
        assert mzsf_reg((0, l2)) == 0
        assert mzf_reg((0, l2)) == -zeta_neg(l2)
        assert zeta_neg(l2) != 0


def test_zero_padding_examples():
    assert prop_zero_padding_check((1, 1), 0)
    assert prop_zero_padding_check((2,), -1)
    assert prop_zero_padding_check((0, 1), -2)
    with pytest.raises(ValueError):
        prop_zero_padding_check((1,), 1)


@settings(deadline=None)
@given(index_tuples, st.integers(min_value=-2, max_value=0))
def test_zero_padding_random(l, s):
    assert prop_zero_padding_check(l, s)


# Two reverse grids hold every value the checks below read: the left sides
# at depth <= 3, weight <= 4 - s with s >= -3, and the right sides at depth
# r + |l| <= 7, weight -s <= 3.
_PADDING_GRID = dict(value_grid("mzf-rev", 3, 7))
_PADDING_GRID.update(value_grid("mzf-rev", 7, 3))


@settings(deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3)
    .filter(lambda l: sum(l) <= 4)
    .map(tuple),
    st.integers(min_value=-3, max_value=0),
)
def test_zero_padding_over_a_grid_dict_matches_the_public_check(l, s):
    assert _zero_padding_holds(l, s, _PADDING_GRID) == prop_zero_padding_check(l, s)


@pytest.mark.parametrize("max_depth, max_weight", [(3, 9), (6, 7)])
@pytest.mark.parametrize("shift", [0, 1])
def test_box_grid_matches_the_kernel_box(max_depth, max_weight, shift):
    boxes = list(_box_grid(max_depth, max_weight, shift))
    assert [l for l, _ in boxes] == list(iter_index_tuples(max_depth, max_weight))
    for l, box in boxes:
        assert box == stirling_kernel_box(l, shift), l


@pytest.mark.parametrize("order", ["zipped", "plain first", "star first"])
def test_box_grids_sharing_one_factor_memo_match_fresh_kernel_boxes(order):
    # One map of factor rows serves both shifts, read in any order; every box
    # must equal the box of a single public call, which starts afresh.
    factors = {}
    if order == "zipped":
        grids = zip(*(_box_grid(4, 6, shift, factors) for shift in (0, 1)))
        boxes = [(l, plain, star) for (l, plain), (_, star) in grids]
    else:
        shifts = (0, 1) if order == "plain first" else (1, 0)
        by_shift = {shift: list(_box_grid(4, 6, shift, factors)) for shift in shifts}
        boxes = [(l, plain, star) for (l, plain), (_, star) in zip(by_shift[0], by_shift[1])]
    assert [l for l, _, _ in boxes] == list(iter_index_tuples(4, 6))
    for l, plain, star in boxes:
        assert plain == stirling_kernel_box(l, 0), l
        assert star == stirling_kernel_box(l, 1), l
    # Rows are keyed by (l_j, x): l_j <= 6 and x = K_{j-1} + j - shift <= 6 + 4.
    assert set(factors) <= set(product(range(7), range(11)))


def test_a_kernel_box_call_starts_from_an_empty_factor_memo(monkeypatch):
    seen = []
    step = stirling._box_step

    def counted(totals, lj, j, shift, factors):
        seen.append((j, len(factors)))
        return step(totals, lj, j, shift, factors)

    monkeypatch.setattr(stirling, "_box_step", counted)
    for l in ((2, 1, 3), (2, 1, 3), (3, 0)):
        seen.clear()
        stirling_kernel_box(l, 1)
        assert seen[0] == (1, 0) and [j for j, _ in seen] == list(range(1, len(l) + 1))


def test_values_suite_makes_one_box_step_per_grid_tuple_and_shift(monkeypatch):
    steps, memos = [], set()
    step = stirling._box_step

    def counted(totals, lj, j, shift, factors):
        steps.append(shift)
        memos.add(id(factors))
        return step(totals, lj, j, shift, factors)

    monkeypatch.setattr(stirling, "_box_step", counted)
    monkeypatch.setattr(values, "_box_step", counted)
    result = verify.run_suite("values", verify.Bounds(max_depth=4, max_weight=6, max_r=7))
    assert result.ok
    tuples = sum(1 for _ in iter_index_tuples(4, 6))
    assert (steps.count(0), steps.count(1), len(steps)) == (tuples, tuples, 2 * tuples)
    # Both shifts' grids read one map of factor rows.
    assert len(memos) == 1


def test_iter_index_tuples():
    got = list(iter_index_tuples(2, 2))
    assert got == [
        (0,),
        (1,),
        (2,),
        (0, 0),
        (0, 1),
        (0, 2),
        (1, 0),
        (1, 1),
        (2, 0),
    ]
    assert list(iter_index_tuples(2, 1, min_depth=2)) == [
        (0, 0),
        (0, 1),
        (1, 0),
    ]


def _filtered_product(max_depth, max_weight, min_depth):
    # The enumeration iter_index_tuples replaced, kept as its reference.
    for depth in range(min_depth, max_depth + 1):
        for t in product(range(max_weight + 1), repeat=depth):
            if sum(t) <= max_weight:
                yield t


@pytest.mark.parametrize("max_depth", range(5))
def test_iter_index_tuples_matches_filtered_product(max_depth):
    # Empty grids included: max_depth 0, max_weight -1, min_depth > max_depth.
    for max_weight in range(-1, 6):
        for min_depth in range(1, max_depth + 2):
            got = list(iter_index_tuples(max_depth, max_weight, min_depth=min_depth))
            assert got == list(_filtered_product(max_depth, max_weight, min_depth))


def test_iter_index_tuples_does_not_recurse():
    # One Python frame per depth level would need more than 150 frames here.
    script = (
        "import sys\n"
        "from mzv.values import iter_index_tuples\n"
        "sys.setrecursionlimit(150)\n"
        "assert next(iter_index_tuples(1500, 1, min_depth=1500)) == (0,) * 1500\n"
    )
    src = os.path.dirname(os.path.dirname(mzv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


# SHA-256 of the lines "l_1,...,l_r=value" over iter_index_tuples(5, 6), one
# digest per kind, recorded from the recursive recurrences this engine
# replaced.
PINNED_DIGESTS = {
    "mzf-reg": "0e1ba77242bf2394d03c6c30870d44a61697c03f61328268083068230fb4ba91",
    "mzf-rev": "83ecd771107d5e6747bd58cde1a98f8c937045c759f9f4e8cd849293a2fe279f",
    "mzsf-reg": "f235ec6f94867cb78eeb86110da2741607c5779c823a2f3eec33f83bc49b759d",
    "mzsf-rev": "c35608517484b21d0e56f126a6cbabae294cf936c8e792fcb89ff2f7517f5861",
}


@pytest.mark.parametrize("kind", sorted(PINNED_DIGESTS))
def test_pinned_values(kind):
    digest = hashlib.sha256()
    for t in iter_index_tuples(5, 6):
        digest.update(f"{','.join(map(str, t))}={value(kind, t)}\n".encode())
    assert digest.hexdigest() == PINNED_DIGESTS[kind]


def test_values_do_not_recurse():
    # One Python frame per depth level would need more than 150 frames here.
    script = (
        "import sys\n"
        "from mzv.values import ValueKind, value, value_grid\n"
        "sys.setrecursionlimit(150)\n"
        "for kind in ValueKind:\n"
        "    value(kind, (0,) * 70)\n"
        "    grid = [l for l, _ in value_grid(kind, 70, 0)]\n"
        "    assert grid == [(0,) * r for r in range(1, 71)]\n"
    )
    src = os.path.dirname(os.path.dirname(mzv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("kind", list(ValueKind))
@pytest.mark.parametrize("grid", [(1, 0), (1, 12), (2, 3), (5, 6), (6, 7), (7, 5)])
def test_value_grid_matches_per_tuple_engine(kind, grid):
    expected = [(l, value(kind, l)) for l in iter_index_tuples(*grid)]
    assert list(value_grid(kind, *grid)) == expected


@pytest.mark.parametrize("kind", list(ValueKind))
@pytest.mark.parametrize("grid", [(1, 12), (2, 12), (4, 5), (6, 7)])
def test_integer_grid_gives_reduced_pairs_and_index_texts(kind, grid):
    # The one walk behind value_grid and `mzv table`: each value as a reduced
    # pair over a positive denominator, and with text=True each index as the
    # text its entries join to, built from the parent's text.
    tuples = list(iter_index_tuples(*grid))
    pairs = list(_grid(kind, *grid))
    assert [l for l, _, _ in pairs] == tuples
    assert all(d > 0 and gcd(n, d) == 1 for _, n, d in pairs)
    assert [Fraction(n, d) for _, n, d in pairs] == [v for _, v in value_grid(kind, *grid)]
    texts = list(_grid(kind, *grid, text=True))
    assert texts == [(",".join(map(str, l)), n, d) for l, n, d in pairs]


@pytest.mark.parametrize("kind", list(ValueKind))
@pytest.mark.parametrize("grid", [(3, 9), (6, 7)])
def test_value_grid_leaves_the_memo_per_tuple_calls_leave(kind, grid):
    # No value is kept between calls, so no call order changes a value: a
    # grid read before the per-tuple calls and one read after them both give
    # what the per-tuple calls give.
    before = list(value_grid(kind, *grid))
    per_tuple = [(l, value(kind, l)) for l in iter_index_tuples(*grid)]
    assert before == per_tuple == list(value_grid(kind, *grid))


def test_value_grid_of_an_empty_grid_computes_nothing(monkeypatch):
    def unused(*args):
        raise AssertionError("an empty grid computed a value")

    for name in ("zeta_neg", "_as_ints", "_reg_step", "_rev_step"):
        monkeypatch.setattr(values, name, unused)
    for kind in ValueKind:
        assert list(value_grid(kind, 0, 3)) == list(value_grid(kind, 3, -1)) == []


@pytest.mark.parametrize("kind", list(ValueKind))
def test_origin_values_are_the_origin_values_of_value(kind):
    # Row d of the walk at (0,) * n starts at the depth-d origin value.
    # They come as reduced pairs, the denominator positive.
    origin = _origin_values(kind, 40)
    assert [Fraction(*pair) for pair in origin] == [value(kind, (0,) * k) for k in range(1, 41)]
    assert all(d > 0 and gcd(n, d) == 1 for n, d in origin)
    assert _origin_values(kind, 1) == [(-1, 2)]
    assert value(kind, (0,)) == zeta_neg(0) == Fraction(-1, 2)
    assert _origin_values(kind, 0) == []


small_tuples = st.lists(
    st.integers(min_value=0, max_value=3), min_size=1, max_size=4
).map(tuple)


@settings(deadline=None)
@given(small_tuples)
def test_recurrences_agree_with_definition_sums(l):
    # The asymptotic coefficients come from their defining sums, with no
    # value recurrence involved.
    r = len(l)
    ones = (1,) * r
    flat = (0,) * (r - 1)
    assert asym_coeff(l, flat, ones) == mzf_reg(l)
    assert asym_coeff(l, flat, (1,) + (0,) * (r - 1)) == mzsf_reg(l)
    total = Fraction(0)
    for bits in range(1 << (r - 1)):
        d = tuple((bits >> t) & 1 for t in range(r - 1))
        total += asym_coeff(l, d, ones)
    assert total == mzf_rev(l)


# Within the regular range of the benchmark's query workload: depth <= 3,
# weight <= 160, where the recurrences read zeta(-l) past l = 160.
HIGH_WEIGHT_TUPLES = [
    (160,),
    (0, 160),
    (60, 50),
    (3, 100),
    (159, 1),
    (20, 30, 40),
    (0, 0, 120),
    (80, 0, 80),
]


@pytest.mark.parametrize("l", HIGH_WEIGHT_TUPLES, ids=lambda l: ",".join(map(str, l)))
def test_high_weight_regular_values_agree_with_definition_sums(l):
    r = len(l)
    flat = (0,) * (r - 1)
    assert asym_coeff(l, flat, (1,) * r) == mzf_reg(l)
    assert asym_coeff(l, flat, (1,) + (0,) * (r - 1)) == mzsf_reg(l)


# The recurrence steps as they were written in Fraction arithmetic, one
# product and one sum per term, kept as an oracle for the integer steps of
# the engine; the evaluator recurses on depth and memoizes per call.
def _oracle_weights(c, star):
    weight = zeta_star_neg if star else zeta_neg
    return [(c - k, comb(c, k) * weight(k)) for k in range(c + 1)]


def _oracle_reg_step(c, prev, star):
    total = -prev[c + 1] / (c + 1)
    for i, w in _oracle_weights(c, star):
        total += w * prev[i]
    return total


def _oracle_rev_step(a, prev, star):
    total = prev[a + 1] / (a + 1)
    for i, w in _oracle_weights(a, False):
        if i:
            total -= w * prev[i]
    if not star:
        total -= prev[a]
    return total


def _oracle_value(kind, l, memo):
    if len(l) == 1:
        return zeta_neg(l[0])
    if l not in memo:
        star = kind in (ValueKind.MZSF_REG, ValueKind.MZSF_REV)
        if kind in (ValueKind.MZF_REG, ValueKind.MZSF_REG):
            head, b, c = l[:-2], l[-2], l[-1]
            prev = [_oracle_value(kind, head + (b + i,), memo) for i in range(c + 2)]
            memo[l] = _oracle_reg_step(c, prev, star)
        else:
            a, b, rest = l[0], l[1], l[2:]
            prev = [_oracle_value(kind, (b + i,) + rest, memo) for i in range(a + 2)]
            memo[l] = _oracle_rev_step(a, prev, star)
    return memo[l]


@st.composite
def _oracle_tuples(draw):
    # Depth <= 5 and weight <= 10.
    r = draw(st.integers(min_value=1, max_value=5))
    l, budget = [], 10
    for _ in range(r):
        l.append(draw(st.integers(min_value=0, max_value=budget)))
        budget -= l[-1]
    return tuple(draw(st.permutations(l)))


@settings(deadline=None, max_examples=60)
@given(_oracle_tuples())
def test_integer_steps_match_the_fraction_oracle(l):
    for kind in ValueKind:
        assert value(kind, l) == _oracle_value(kind, l, {})


# SHA-256 of str(value(kind, (0,) * 120)), recorded from the Fraction steps
# the integer steps replaced.
PINNED_DEEP_ZERO_DIGESTS = {
    "mzf-reg": "6322bbc2ec28d89e545f9c6c17f389891c0ea36c2bbf82f0fd8ec976a2e59350",
    "mzf-rev": "edebac8bb698ff3ede2a0406b5f275eda12c53cd0327f327770e71333d3f4344",
    "mzsf-reg": "dcf2dd68cd066809c128311103c9101dbe90df007e639346ccad4707bdd4c115",
    "mzsf-rev": "926a1e66bac0d505ea0635ecf40c1142a8c44d7d0aa35c2ef04f1ef1a7d64d34",
}


@pytest.mark.parametrize("kind", sorted(PINNED_DEEP_ZERO_DIGESTS))
def test_pinned_deep_zero_values(kind):
    digest = hashlib.sha256(str(value(kind, (0,) * 120)).encode()).hexdigest()
    assert digest == PINNED_DEEP_ZERO_DIGESTS[kind]

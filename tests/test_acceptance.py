"""Acceptance tests: ten independently checkable criteria, one test (and one
pass/fail line under ``pytest -v``) per criterion.

Every comparison is exact rational equality — there are no tolerances
anywhere.  Criteria with a runtime budget assert it; the final test asserts
the whole module stayed under two minutes of accumulated wall time.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from mzv.asymptotic import (
    asym_coeff,
    c_ir,
    c_ir_explicit,
    c_ir_recurrence,
    direction_partition_check,
    gregory,
    gregory_bundling_check,
    origin_decomposition_check,
    rev_via_gregory,
)
from mzv.bernoulli import choi_identity_check, zeta_neg
from mzv.values import (
    akiyama_tanigawa_reg,
    akiyama_tanigawa_rev,
    iter_index_tuples,
    mzf_reg,
    mzf_rev,
    mzf_rev_stirling,
    mzsf_reg,
    mzsf_rev,
    mzsf_rev_stirling,
    sign_theorem_check,
)
from mzv.verify import run_suite

_TIMES = {}


@contextmanager
def _clock(name, budget=None):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    _TIMES[name] = elapsed
    assert budget is None or elapsed < budget, (
        f"{name} took {elapsed:.2f}s, over its {budget}s budget"
    )


def test_criterion_01_asymptotic_coefficient_examples():
    """Four worked coefficient values, straight from the defining sum."""
    with _clock("criterion 1", budget=1.0):
        assert asym_coeff((0, 1), (0,), (1, 1)) == Fraction(1, 12)
        assert asym_coeff((0, 1), (1,), (1, 1)) == Fraction(0)
        assert asym_coeff((1, 1), (0,), (1, 1)) == Fraction(1, 360)
        assert asym_coeff((1, 1), (1,), (1, 1)) == Fraction(1, 720)


def test_criterion_02_reverse_stirling_closed_form():
    """Closed form equals the limit recurrence: depth <= 4, weight <= 6."""
    with _clock("criterion 2", budget=30.0):
        for l in iter_index_tuples(4, 6):
            assert mzf_rev_stirling(l) == mzf_rev(l), f"l={l}"


def test_criterion_03_reverse_star_stirling_closed_form():
    """Star closed form equals the star recurrence on the same grid."""
    with _clock("criterion 3", budget=30.0):
        for l in iter_index_tuples(4, 6):
            assert mzsf_rev_stirling(l) == mzsf_rev(l), f"l={l}"


def test_criterion_04_sign_theorem():
    """Strict sign alternation for leading weight >= 1, both orders, and the
    documented breakdown at a leading zero."""
    with _clock("criterion 4"):
        for l in iter_index_tuples(4, 6):
            if l[0] < 1:
                continue
            assert sign_theorem_check("regular", l), f"regular l={l}"
            assert sign_theorem_check("reverse", l), f"reverse l={l}"
        # At l1 = 0 no sign statement is possible: with an odd tail the star
        # value vanishes while the plain value is -zeta(-l2) != 0.
        for l2 in (1, 3, 5, 7, 9):
            assert mzsf_reg((0, l2)) == 0
            assert mzf_reg((0, l2)) == -zeta_neg(l2)
            assert zeta_neg(l2) != 0


def test_criterion_05_zero_padded_depth_reduction():
    """Values with zero padding collapse to weighted ordinary zeta sums."""
    with _clock("criterion 5"):
        for r in range(1, 6):
            for l in range(0, 7):
                head = (l,) + (0,) * (r - 1)
                assert akiyama_tanigawa_reg(r, l) == mzf_reg(head), (
                    f"regular r={r} l={l}"
                )
                tail = (0,) * (r - 1) + (l,)
                assert akiyama_tanigawa_rev(r, l) == mzf_rev(tail), (
                    f"reverse r={r} l={l}"
                )


def test_criterion_06_gregory_bridge():
    """Staircase coefficients at the origin are Gregory coefficients, and
    the Gregory route reproduces reverse values."""
    with _clock("criterion 6"):
        for r in range(1, 7):
            zeros = (0,) * r
            ones = (1,) * r
            for i in range(1, r + 1):
                assert c_ir(i, r, zeros, ones) == gregory(i, r - i + 2), (
                    f"i={i} r={r}"
                )
        for l in iter_index_tuples(3, 4):
            assert rev_via_gregory(l) == mzf_rev(l), f"l={l}"


def test_criterion_07_direction_combinatorics():
    """Block statistics partition the direction vectors; origin coefficients
    factor blockwise and bundle into Gregory products."""
    with _clock("criterion 7"):
        for r in range(1, 7):
            assert direction_partition_check(r), f"partition r={r}"
        for r in range(1, 6):
            assert origin_decomposition_check(r), f"decomposition r={r}"
            assert gregory_bundling_check(r), f"bundling r={r}"


def test_criterion_08_stirling_suite():
    """Orthogonality, generating function, shifted recurrence, and
    convolution for the polynomial Stirling triangles."""
    with _clock("criterion 8"):
        result = run_suite("stirling")
        assert result.failures == ()
        assert result.checked > 3000


def test_criterion_09_choi_identity():
    """Multiple-sum reduction to a single higher-order Bernoulli value."""
    with _clock("criterion 9"):
        for r in range(2, 6):
            for m in range(1, r):
                for l in range(0, 5):
                    for z in (1, Fraction(1, 2), 3, Fraction(7, 5)):
                        assert choi_identity_check(r, l, z, m), (
                            f"r={r} m={m} l={l} z={z}"
                        )


def test_criterion_10_three_path_agreement():
    """Definition, staircase recurrence, and explicit formula agree."""
    with _clock("criterion 10"):
        shifts = {
            "ones": lambda r: (1,) * r,
            "star": lambda r: (1,) + (0,) * (r - 1),
        }
        for r in range(1, 5):
            for l in iter_index_tuples(r, 4, min_depth=r):
                for i in range(1, r + 1):
                    for label, make in shifts.items():
                        a = make(r)
                        reference = c_ir(i, r, l, a)
                        assert c_ir_recurrence(i, r, l, a) == reference, (
                            f"recurrence i={i} r={r} l={l} shift={label}"
                        )
                        assert c_ir_explicit(i, r, l, a) == reference, (
                            f"explicit i={i} r={r} l={l} shift={label}"
                        )


def test_total_runtime_under_two_minutes():
    """Accumulated wall time of all criteria stays under 120 seconds."""
    assert sum(_TIMES.values()) < 120.0, _TIMES

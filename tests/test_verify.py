"""Tests for the verification-suite runner."""

import json
import threading

import pytest

from mzv import verify
from mzv.cli import main
from mzv.verify import SUITE_NAMES, Bounds, run_suite, run_suites


def test_suite_names_are_sorted_and_complete():
    assert SUITE_NAMES == tuple(sorted(SUITE_NAMES))
    assert set(SUITE_NAMES) == {
        "asym",
        "bernoulli",
        "choi",
        "gregory",
        "sign",
        "stirling",
        "values",
    }


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_run_single_suite_small_bounds():
    result = run_suite("values", Bounds(max_depth=2, max_weight=2, max_r=3))
    assert result.suite == "values"
    assert result.ok
    assert result.checked > 0
    assert result.failures == ()


def test_run_all_suites_small_bounds():
    bounds = Bounds(max_depth=2, max_weight=2, max_r=3, seed=7)
    results = run_suites(["all"], bounds)
    assert [res.suite for res in results] == sorted(SUITE_NAMES)
    for res in results:
        assert res.ok, res.failures[:1]
        assert res.checked > 0


def test_run_suites_stays_in_the_calling_thread(monkeypatch):
    threads = {}
    for name, fn in list(verify._SUITES.items()):

        def recorded(bounds, rng, name=name, fn=fn):
            threads[name] = threading.current_thread()
            return fn(bounds, rng)

        monkeypatch.setitem(verify._SUITES, name, recorded)
    results = run_suites(["all"], Bounds(max_depth=2, max_weight=2, max_r=3))
    assert [res.suite for res in results] == sorted(SUITE_NAMES)
    assert all(res.ok for res in results)
    assert threads == {name: threading.current_thread() for name in SUITE_NAMES}


def test_duplicate_suite_requests_collapse():
    results = run_suites(
        ["choi", "choi"], Bounds(max_depth=2, max_weight=1, max_r=2)
    )
    assert len(results) == 1


def test_seed_changes_random_spot_checks_but_not_verdicts():
    a = run_suite("bernoulli", Bounds(seed=1))
    b = run_suite("bernoulli", Bounds(seed=2))
    assert a.ok and b.ok
    assert a.checked == b.checked


DEFAULT_COUNTS = {
    "asym": 3417,
    "bernoulli": 279,
    "choi": 257,
    "gregory": 84,
    "sign": 73,
    "stirling": 3672,
    "values": 282,
}
BENCH_COUNTS = {
    "asym": 8649,
    "bernoulli": 279,
    "choi": 742,
    "gregory": 154,
    "sign": 423,
    "stirling": 3672,
    "values": 886,
}


@pytest.mark.parametrize(
    "bounds, counts",
    [(Bounds(), DEFAULT_COUNTS), (Bounds(max_depth=4, max_weight=6, max_r=7), BENCH_COUNTS)],
    ids=["default", "depth4-weight6-r7"],
)
def test_check_counts_are_pinned(bounds, counts):
    # A restructured suite must keep every check: the counts are exact.
    results = run_suites(["all"], bounds)
    assert {res.suite: res.checked for res in results} == counts
    assert all(res.ok for res in results)


def test_passing_checks_build_no_description():
    def unused():
        raise AssertionError("a passing check built its description")

    rec = verify._Recorder()
    rec.equal(unused, 1, 1)
    rec.true(unused, True)
    rec.equal(lambda: "built on failure", 1, 2)
    rec.true("a plain string", False)
    assert rec.result("demo") == ("demo", 4, ("built on failure: 1 != 2", "a plain string"))


# The failure text of three planted wrong routes, recorded when every
# description was formatted before its check ran.
PLANTED_COUNTEREXAMPLES = {
    "asym": "explicit path i=2, r=3, l=(1, 0, 2), a=(Fraction(1, 1), Fraction(1, 1), "
    "Fraction(1, 1)): 6047/6048 != -1/6048",
    "choi": "contiguous-shift reduction r=3, m=2, l=1, z=1 (depth-3 value 1/240)",
    "sign": "sign relation regular l=(1, 1): plain=1/360, star=1/360",
}


def test_planted_wrong_routes_report_pinned_counterexamples(monkeypatch, capsys):
    c_explicit = verify._c_explicit
    choi_check = verify.choi_identity_check
    sign_check = verify.sign_theorem_check

    def wrong_explicit(i, r, l, a, memo):
        value = c_explicit(i, r, l, a, memo)
        return value + 1 if (i, l) == (2, (1, 0, 2)) else value

    monkeypatch.setattr(verify, "_c_explicit", wrong_explicit)
    monkeypatch.setattr(
        verify,
        "choi_identity_check",
        lambda r, l, z, m: choi_check(r, l, z, m) and (r, m, l) != (3, 2, 1),
    )
    monkeypatch.setattr(
        verify, "sign_theorem_check", lambda order, l: sign_check(order, l) and l != (1, 1)
    )
    argv = ["verify", "--suite", "all", "--json", "--max-depth", "2", "--max-weight", "3"]
    assert main(argv + ["--max-r", "3"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    found = {res["suite"]: res["first_counterexample"] for res in results}
    assert found == {name: PLANTED_COUNTEREXAMPLES.get(name) for name in SUITE_NAMES}

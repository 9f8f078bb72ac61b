"""Tests for the verification-suite runner."""

import contextlib
import errno
import hashlib
import json
import os
import random
import select
import signal
import sys
import threading
import time
from fractions import Fraction
from itertools import product

import pytest

from mzv import asymptotic, bernoulli, stirling, values, verify
from mzv.asymptotic import c_ir
from mzv.cli import main
from mzv.kernel import RationalPolynomial
from mzv.values import iter_index_tuples
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


SMALL = Bounds(max_depth=2, max_weight=2, max_r=3)


def _no_fork():
    raise AssertionError("os.fork was called")


def _read_within(fd, seconds=60):
    """The next bytes on a pipe (b"" at EOF); fails after ``seconds`` with none."""
    assert select.select([fd], [], [], seconds)[0], f"nothing read within {seconds} s"
    return os.read(fd, 4096)


def test_one_cpu_runs_every_suite_in_the_calling_thread(monkeypatch, usable_cpus):
    usable_cpus(1)
    monkeypatch.setattr(os, "fork", _no_fork)
    threads = {}
    for name, fn in list(verify._SUITES.items()):

        def recorded(bounds, rng, section, name=name, fn=fn):
            threads[name, section] = threading.current_thread()
            return fn(bounds, rng, section)

        monkeypatch.setitem(verify._SUITES, name, recorded)
    results = run_suites(["all"], SMALL)
    assert [res.suite for res in results] == sorted(SUITE_NAMES)
    assert all(res.ok for res in results)
    units = verify._units(SUITE_NAMES)
    assert len(units) > len(SUITE_NAMES)
    assert threads == {unit: threading.current_thread() for unit in units}


def test_one_unit_never_forks(monkeypatch, capsys, usable_cpus):
    usable_cpus(2)
    assert verify._units(["sign"]) == [("sign", 0)]
    monkeypatch.setattr(os, "fork", _no_fork)
    assert main(["verify", "--suite", "sign", "--max-depth", "2", "--max-weight", "2"]) == 0
    assert capsys.readouterr().out == "sign: 15 identities verified\n"


def test_asym_alone_runs_on_every_usable_cpu(monkeypatch, capsys, usable_cpus):
    # asym is several units, so it forks like a request for several suites,
    # and prints what it prints on one CPU.
    usable_cpus(2)
    fork, calls = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: calls.append(None) or fork())
    assert main(["verify", "--suite", "asym", "--max-depth", "2", "--max-weight", "2"]) == 0
    assert capsys.readouterr().out == "asym: 463 identities verified\n"
    assert len(calls) == 1


@pytest.mark.parametrize(
    "bounds",
    [Bounds()] + [Bounds(max_depth=4, max_weight=6, max_r=7, seed=seed) for seed in range(4)],
    ids=["default"] + [f"depth4-weight6-r7-seed{seed}" for seed in range(4)],
)
def test_workers_return_what_one_process_returns(usable_cpus, bounds):
    usable_cpus(2)
    assert run_suites(["all"], bounds) == [run_suite(name, bounds) for name in SUITE_NAMES]


def test_more_workers_than_cpus_run_each_suite_once(monkeypatch, usable_cpus):
    # Seven processes on this machine's CPUs pull from one queue: each suite
    # must be taken by exactly one of them.
    usable_cpus(len(SUITE_NAMES))
    ran, log = os.pipe()
    for name, fn in list(verify._SUITES.items()):

        def logged(bounds, rng, section, name=name, fn=fn):
            os.write(log, f"{name}/{section}\n".encode())
            return fn(bounds, rng, section)

        monkeypatch.setitem(verify._SUITES, name, logged)
    try:
        results = run_suites(["all"], SMALL)
        units = sorted(f"{name}/{section}" for name, section in verify._units(SUITE_NAMES))
        assert sorted(os.read(ran, 4096).decode().split()) == units
        assert results == [run_suite(name, SMALL) for name in SUITE_NAMES]
    finally:
        os.close(ran)
        os.close(log)


@pytest.mark.parametrize("error", [RuntimeError, ValueError])
def test_a_worker_exception_is_raised_with_its_type_and_message(
    monkeypatch, usable_cpus, in_worker, error
):
    usable_cpus(2)

    def crash(bounds, rng, section):
        raise error("planted crash")

    monkeypatch.setitem(verify._SUITES, "sign", crash)
    in_worker("sign")
    with pytest.raises(error, match="^planted crash$"):
        run_suites(["all"], SMALL)


def test_a_killed_worker_exits_3(monkeypatch, capsys, usable_cpus, in_worker):
    usable_cpus(2)
    monkeypatch.setitem(
        verify._SUITES,
        "sign",
        lambda bounds, rng, section: os.kill(os.getpid(), signal.SIGKILL),
    )
    in_worker("sign")
    assert main(["verify", "--suite", "all", "--max-depth", "2", "--max-weight", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal error: RuntimeError: suite worker ")
    assert err.endswith(" ended without a result (exit status -9)\n")


def _kill_the_caller_while_its_worker_runs_choi(monkeypatch, in_worker, choi, after_kill=None):
    """Run asym, bernoulli and choi on two processes, the caller in a child of
    this process, and SIGKILL the caller while it holds asym's first unit and
    its worker, having run asym's other units, runs ``choi(report)``.  Return
    what the units wrote to ``report``, the worker's pid and the seconds from
    the kill to the worker's exit; ``after_kill()`` runs once the caller is
    reaped.  The planted choi first writes "choi <pid>"
    to ``report``, and bernoulli writes "bernoulli" there; the last write end
    of ``report`` is the worker's once this process closes its copy and the
    caller is dead, so EOF there means the worker exited."""
    assert verify._units(["bernoulli", "choi"]) == [("choi", 0), ("bernoulli", 0)]
    reported, report = os.pipe()

    def held(bounds, rng, section):
        os.write(report, f"choi {os.getpid()}\n".encode())
        choi(report)
        return verify.SuiteResult("choi", 0, ())

    asym = verify._SUITES["asym"]
    monkeypatch.setitem(
        verify._SUITES,
        "asym",
        lambda bounds, rng, section: (
            time.sleep(120) if section == 0 else asym(bounds, rng, section)
        ),
    )
    monkeypatch.setitem(verify._SUITES, "choi", held)
    monkeypatch.setitem(
        verify._SUITES,
        "bernoulli",
        lambda bounds, rng, section: os.write(report, b"bernoulli\n"),
    )
    in_worker("choi")
    caller = os.fork()
    if caller == 0:
        try:
            run_suites(["asym", "bernoulli", "choi"], SMALL)
        finally:
            os._exit(0)
    os.close(report)
    worker, exited = None, False
    try:
        log = _read_within(reported)  # one short write: "choi <worker pid>"
        worker = int(log.split()[1])
        os.kill(caller, signal.SIGKILL)
        killed = time.monotonic()
        assert os.waitpid(caller, 0)[1] == signal.SIGKILL
        caller = None
        if after_kill:
            after_kill()
        while chunk := _read_within(reported):
            log += chunk
        seconds = time.monotonic() - killed
        exited = True
    finally:
        for pid in (caller, None if exited else worker):
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
        if caller is not None:
            os.waitpid(caller, 0)
        os.close(reported)
    with contextlib.suppress(ChildProcessError):
        os.waitpid(worker, 0)  # reaped here only if this process adopted the orphan
    return log, worker, seconds


def test_a_caller_killed_by_sigkill_leaves_no_worker_that_starts_another_suite(
    monkeypatch, usable_cpus, in_worker
):
    # choi waits until this process releases it after the kill; the worker
    # then either finishes choi or is cut short in it, and must pull no next
    # unit (bernoulli).
    usable_cpus(2)
    released, release = os.pipe()

    try:
        log, worker, _ = _kill_the_caller_while_its_worker_runs_choi(
            monkeypatch,
            in_worker,
            lambda report: os.read(released, 1),
            lambda: os.write(release, b"."),
        )
    finally:
        os.close(released)
        os.close(release)
    assert log == f"choi {worker}\n".encode()


def test_a_caller_killed_by_sigkill_cuts_its_worker_s_unit_short(
    monkeypatch, usable_cpus, in_worker
):
    # choi computes for 120 s and then writes "choi done"; the worker must
    # leave it within a second of the kill.
    usable_cpus(2)

    def computing(report):
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            pass
        os.write(report, b"choi done\n")

    log, worker, seconds = _kill_the_caller_while_its_worker_runs_choi(
        monkeypatch, in_worker, computing
    )
    assert log == f"choi {worker}\n".encode()
    assert seconds < 1


def test_an_interrupt_in_the_caller_kills_and_reaps_the_workers(monkeypatch, usable_cpus, in_worker):
    usable_cpus(2)

    asym = verify._SUITES["asym"]

    def interrupted(bounds, rng, section):
        if section == 0:  # the caller's first unit
            raise KeyboardInterrupt
        return asym(bounds, rng, section)

    monkeypatch.setitem(verify._SUITES, "asym", interrupted)
    monkeypatch.setitem(
        verify._SUITES, "gregory", lambda bounds, rng, section: time.sleep(120)
    )
    in_worker("gregory")
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_suites(["all"], SMALL)
    assert time.monotonic() - start < 60


@pytest.mark.parametrize("forks_before_failing", [0, 1])
def test_a_failed_fork_leaves_its_suites_to_the_running_processes(
    monkeypatch, usable_cpus, forks_before_failing
):
    usable_cpus(4)
    fork, calls = os.fork, []

    def failing_fork():
        calls.append(None)
        if len(calls) > forks_before_failing:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    assert run_suites(["all"], SMALL) == [run_suite(name, SMALL) for name in SUITE_NAMES]
    assert len(calls) == forks_before_failing + 1


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


# At these bounds asym's staircases hold the most tuples.
LARGE_COUNTS = {
    "asym": 46593,
    "bernoulli": 279,
    "choi": 1807,
    "gregory": 326,
    "sign": 10013,
    "stirling": 3672,
    "values": 16332,
}


@pytest.mark.parametrize(
    "bounds, counts",
    [
        (Bounds(), DEFAULT_COUNTS),
        (Bounds(max_depth=4, max_weight=6, max_r=7), BENCH_COUNTS),
        (Bounds(max_depth=6, max_weight=9, max_r=9), LARGE_COUNTS),
    ],
    ids=["default", "depth4-weight6-r7", "depth6-weight9-r9"],
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
# The staircase of the asym suite calls each of its three routes on runs of
# siblings, through the run form of the route.
_RUN_FORMS = {"_c_rec": "_c_rec_run", "_c_explicit": "_c_explicit_run", "_asym_sum": "_asym_run"}


def _plant_route(monkeypatch, name, wrong):
    """Make verify's route ``name`` give ``wrong(*args)`` at each l, args its
    per-tuple arguments, (i, r, l, a, memo) or (l, d, a, memo, top): where
    verify calls it per tuple and where the staircase calls its run form."""
    if name == "_asym_sum":
        monkeypatch.setattr(verify, name, wrong)

        def run(prefix, xs, d, a, memo, top=None):
            return [wrong(prefix + (x,), d, a, memo, top) for x in xs]

    else:

        def run(i, r, prefix, xs, a, memo):
            return [wrong(i, r, prefix + (x,), a, memo) for x in xs]

    monkeypatch.setattr(verify, _RUN_FORMS[name], run)


PLANTED_COUNTEREXAMPLES = {
    "asym": "explicit path i=2, r=3, l=(1, 0, 2), a=(Fraction(1, 1), Fraction(1, 1), "
    "Fraction(1, 1)): 6047/6048 != -1/6048",
    "choi": "contiguous-shift reduction r=3, m=2, l=1, z=1 (depth-3 value 1/240)",
    "sign": "sign relation regular l=(1, 1): plain=1/360, star=1/360",
}


def _plant_wrong_routes(monkeypatch):
    c_explicit = asymptotic._c_explicit
    choi_check = verify.choi_identity_check
    sign_holds = verify._sign_holds

    def wrong_explicit(i, r, l, a, memo):
        value = Fraction(*c_explicit(i, r, l, a, memo))
        value = value + 1 if (i, l) == (2, (1, 0, 2)) else value
        return value.numerator, value.denominator

    _plant_route(monkeypatch, "_c_explicit", wrong_explicit)
    monkeypatch.setattr(
        verify,
        "choi_identity_check",
        lambda r, l, z, m: choi_check(r, l, z, m) and (r, m, l) != (3, 2, 1),
    )
    monkeypatch.setattr(
        verify, "_sign_holds", lambda l, plain, star: sign_holds(l, plain, star) and l != (1, 1)
    )


def _assert_planted_counterexamples(capsys):
    argv = ["verify", "--suite", "all", "--json", "--max-depth", "2", "--max-weight", "3"]
    assert main(argv + ["--max-r", "3"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    found = {res["suite"]: res["first_counterexample"] for res in results}
    assert found == {name: PLANTED_COUNTEREXAMPLES.get(name) for name in SUITE_NAMES}


def test_planted_wrong_routes_report_pinned_counterexamples(monkeypatch, capsys):
    _plant_wrong_routes(monkeypatch)
    _assert_planted_counterexamples(capsys)


def test_planted_wrong_routes_in_a_worker_report_pinned_counterexamples(
    monkeypatch, capsys, usable_cpus, in_worker
):
    # The worker pulls every unit after the caller's first, asym's
    # staircases, so choi and sign run there.
    usable_cpus(2)
    _plant_wrong_routes(monkeypatch)
    in_worker("sign")
    _assert_planted_counterexamples(capsys)


# Faults planted in each of asym's units at depth 3, weight 3, r 3, where its
# staircase at r = 4 has 35 tuples: the recurrence at the second of them and
# the explicit path at the last, a parity check whose second shift is a
# random draw, and the star bridge at (0, 2), which no other suite reads.
# Every suite's result, failures in full, as the whole suite gave it in one
# piece at 6bdad95.
JOIN_BOUNDS = Bounds(max_depth=3, max_weight=3, max_r=3)
JOINED_RESULTS = [
    (
        "asym",
        2178,
        (
            "recurrence path i=4, r=4, l=(0, 0, 0, 1), a=(Fraction(1, 1), Fraction(1, 1), "
            "Fraction(1, 1), Fraction(1, 1)): 719/720 != -1/720",
            "recurrence path i=4, r=4, l=(0, 0, 0, 1), a=(Fraction(1, 1), Fraction(0, 1), "
            "Fraction(0, 1), Fraction(0, 1)): 721/720 != 1/720",
            "recurrence path i=4, r=4, l=(0, 0, 0, 1), a=(Fraction(4, 3), Fraction(1, 1), "
            "Fraction(1, 4), Fraction(3, 4)): 46139/46080 != 59/46080",
            "explicit path i=1, r=4, l=(3, 0, 0, 0), a=(Fraction(1, 1), Fraction(1, 1), "
            "Fraction(1, 1), Fraction(1, 1)): -1119/1120 != 1/1120",
            "explicit path i=1, r=4, l=(3, 0, 0, 0), a=(Fraction(1, 1), Fraction(0, 1), "
            "Fraction(0, 1), Fraction(0, 1)): -1121/1120 != -1/1120",
            "explicit path i=1, r=4, l=(3, 0, 0, 0), a=(Fraction(4, 3), Fraction(1, 1), "
            "Fraction(1, 4), Fraction(3, 4)): -117586519/117573120 != -13399/117573120",
            "complement parity i=2, r=3, l=(0, 1, 1), a=(Fraction(1, 1), Fraction(1, 1), "
            "Fraction(1, 1))",
            "complement parity i=2, r=3, l=(0, 1, 1), a=(Fraction(1, 2), Fraction(0, 1), "
            "Fraction(1, 1))",
            "star bridge l=(0, 2): 1/90 != 91/90",
        ),
    ),
    ("bernoulli", 279, ()),
    ("choi", 67, ()),
    ("gregory", 53, ()),
    ("sign", 43, ()),
    ("stirling", 3672, ()),
    ("values", 206, ()),
]


def _plant_grid_fault(monkeypatch, kind, at):
    """Raise the recurrence value of ``kind`` at the tuple ``at`` by one in
    every grid verify reads: the _grid pairs of the suites' checks, and
    through value_grid, the mapping of the zero-padding checks."""
    grid = values._grid

    def wrong_grid(grid_kind, max_depth, max_weight, text=False):
        for l, n, d in grid(grid_kind, max_depth, max_weight, text):
            yield (l, n + d, d) if (grid_kind, l) == (kind, at) else (l, n, d)

    monkeypatch.setattr(verify, "_grid", wrong_grid)
    monkeypatch.setattr(values, "_grid", wrong_grid)


def _plant_faults_across_asym_units(monkeypatch):
    c_rec, c_explicit, parity = asymptotic._c_rec, asymptotic._c_explicit, verify._parity_holds

    def wrong_rec(i, r, l, a, memo):
        value = Fraction(*c_rec(i, r, l, a, memo))
        value = value + 1 if (i, l) == (4, (0, 0, 0, 1)) else value
        return value.numerator, value.denominator

    def wrong_explicit(i, r, l, a, memo):
        value = Fraction(*c_explicit(i, r, l, a, memo))
        value = value - 1 if (i, l) == (1, (3, 0, 0, 0)) else value
        return value.numerator, value.denominator

    _plant_route(monkeypatch, "_c_rec", wrong_rec)
    _plant_route(monkeypatch, "_c_explicit", wrong_explicit)
    monkeypatch.setattr(
        verify,
        "_parity_holds",
        lambda i, r, l, a, memo, top: parity(i, r, l, a, memo, top) and (i, l) != (2, (0, 1, 1)),
    )
    _plant_grid_fault(monkeypatch, "mzsf-reg", (0, 2))


def test_the_planted_faults_fall_in_all_three_asym_units(monkeypatch):
    # The two staircase faults in the staircases, the parity fault in the
    # basis-shift and parity unit, and the bridge fault in the bridges.
    _plant_faults_across_asym_units(monkeypatch)
    counts = [
        (unit, len(verify._run_unit(unit, JOIN_BOUNDS).failures))
        for unit in verify._units(["asym"])
    ]
    assert counts == [(("asym", 0), 6), (("asym", 1), 2), (("asym", 2), 1)]


@pytest.mark.parametrize("cpus", [1, 2, 7])
def test_units_join_to_the_whole_suite_failures_included(monkeypatch, usable_cpus, cpus):
    usable_cpus(cpus)
    _plant_faults_across_asym_units(monkeypatch)
    assert [tuple(res) for res in run_suites(["all"], JOIN_BOUNDS)] == JOINED_RESULTS
    assert tuple(run_suite("asym", JOIN_BOUNDS)) == JOINED_RESULTS[0]


@pytest.mark.parametrize(
    "bounds",
    [Bounds(max_depth=3, max_weight=4, max_r=5, seed=seed) for seed in range(4)]
    + [Bounds(max_depth=4, max_weight=6, max_r=7, seed=seed) for seed in range(4)],
    ids=[f"depth3-weight4-r5-seed{seed}" for seed in range(4)]
    + [f"depth4-weight6-r7-seed{seed}" for seed in range(4)],
)
def test_asym_units_run_in_any_order_in_one_process_give_the_same_results(bounds):
    # A process runs its units in whatever order it pulls them, after
    # whatever others it ran; each unit must give the same result in every
    # order, and the suite must pass, so that state one unit leaves behind
    # for the next shows.
    units = verify._units(["asym"])
    shuffled = list(units)
    random.Random(bounds.seed).shuffle(shuffled)
    runs = []
    for order in (units, units[::-1], shuffled):
        results = {unit: verify._run_unit(unit, bounds) for unit in order}
        runs.append([results[unit] for unit in units])
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert verify._joined("asym", runs[0]).ok


# The memo store every unit in a process shares: bernoulli's module tables.
# _SHIFT_ROW_ENTRIES is the count of _SHIFT_ROWS' entries that bounds it.
_BERNOULLI_TABLES = (
    "_BERNOULLI", "_SHIFT_VALUES", "_SHIFT_ROWS", "_SHIFT_ROW_ENTRIES", "_RATIO_POWERS",
)


def _empty_bernoulli_tables(monkeypatch):
    for name in _BERNOULLI_TABLES:
        monkeypatch.setattr(bernoulli, name, type(getattr(bernoulli, name))())


@pytest.mark.parametrize(
    "bounds",
    [Bounds(max_depth=3, max_weight=4, max_r=5, seed=seed) for seed in range(4)]
    + [Bounds(max_depth=4, max_weight=6, max_r=7, seed=seed) for seed in range(4)],
    ids=[f"depth3-weight4-r5-seed{seed}" for seed in range(4)]
    + [f"depth4-weight6-r7-seed{seed}" for seed in range(4)],
)
def test_asym_units_sharing_one_memo_store_in_any_order_give_the_fresh_results(
    monkeypatch, bounds
):
    # A process runs its units on one set of bernoulli tables, in whatever
    # order it pulls them; each unit must give what it gives on empty
    # tables, and the suite must pass, so that a table row that depends on
    # who built it shows.
    units = verify._units(["asym"])
    fresh = []
    for unit in units:
        _empty_bernoulli_tables(monkeypatch)
        fresh.append(verify._run_unit(unit, bounds))
    assert verify._joined("asym", fresh).ok
    shuffled = list(units)
    random.Random(bounds.seed).shuffle(shuffled)
    for order in (units, units[::-1], shuffled):
        _empty_bernoulli_tables(monkeypatch)
        results = {unit: verify._run_unit(unit, bounds) for unit in order}
        assert [results[unit] for unit in units] == fresh, order


def test_the_suites_at_6_9_9_fit_in_the_bounded_caches(monkeypatch):
    # From empty caches, the suites at depth 6, weight 9, r 9 keep every
    # entry they cache (122 higher-order Bernoulli polynomials, 350 Stirling
    # coefficient tuples and 28 recurrence weights when this was written) and
    # every shift row they build (965 entries): no cache evicts and the row
    # table never clears.
    caches = (bernoulli.bernoulli_higher_order, stirling._poly_coeffs, values._weights)
    for cache in caches:
        cache.cache_clear()

    class NeverCleared(dict):
        def clear(self):
            raise AssertionError("the shift rows were cleared")

    monkeypatch.setattr(bernoulli, "_SHIFT_ROWS", NeverCleared())
    monkeypatch.setattr(bernoulli, "_SHIFT_ROW_ENTRIES", 0)
    bounds = Bounds(max_depth=6, max_weight=9, max_r=9)
    assert all(run_suite(name, bounds).ok for name in SUITE_NAMES)
    for cache in caches:
        info = cache.cache_info()
        assert 0 < info.currsize == info.misses, info


# One wrong unit in a route's numerator or denominator, at a check whose
# value is not zero: the recurrence and the explicit path at i = 2, l =
# (1, 0, 2) and the all-ones shift, and the definition sum at the reverse
# bridge l = (0, 2), the only one of its calls with d = None, at depth 2,
# weight 3, r 3.
PLANTED_UNIT_BOUNDS = Bounds(max_depth=2, max_weight=3, max_r=3)


@pytest.mark.parametrize("part", ["numerator", "denominator"])
@pytest.mark.parametrize("route", ["_c_rec", "_c_explicit", "_asym_sum"])
def test_a_unit_off_in_one_part_of_a_route_fails_with_the_fraction_text(
    monkeypatch, route, part
):
    honest, planted = getattr(asymptotic, route), []

    def off_by_one(*args):
        num, den = honest(*args)
        if route == "_asym_sum":
            hit = args[0] == (0, 2) and args[1] is None
        else:
            hit = args[0] == 2 and args[2] == (1, 0, 2) and args[3] == ((1, 1),) * 3
        if hit:
            num, den = (num + 1, den) if part == "numerator" else (num, den + 1)
            planted.append(Fraction(num, den))
        return num, den

    _plant_route(monkeypatch, route, off_by_one)
    failures = run_suite("asym", PLANTED_UNIT_BOUNDS).failures
    # The text rec.equal gives for the two sides as Fractions.
    rec = verify._Recorder()
    ones = (Fraction(1),) * 3
    if route == "_asym_sum":
        rec.equal("reverse bridge l=(0, 2)", planted[0], verify.mzf_rev((0, 2)))
    else:
        name = "recurrence" if route == "_c_rec" else "explicit"
        description = f"{name} path i=2, r=3, l=(1, 0, 2), a={ones}"
        rec.equal(description, planted[0], c_ir(2, 3, (1, 0, 2), ones))
    assert len(planted) == 1
    assert failures == tuple(rec.failures) and len(failures) == 1


# Faults in three checks of one staircase section at depth 2, weight 3, r 3,
# each planted as the value minus or plus one: the explicit path at i = 3 on
# (0, 2, 0), and at (1, 0, 2), a later tuple, the explicit path at i = 1 and
# the recurrence at i = 2.  The failures must come in check order, l first,
# then i, then the shift, then the recurrence before the explicit path, as
# one loop over the checks gave them at 7ce90ae; recording them in the order
# the routes run (case by case, or route by route) reorders this list.
STAIRCASE_ORDER_FAILURES = (
    "explicit path i=3, r=3, l=(0, 2, 0), a=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)): "
    "-719/720 != 1/720",
    "explicit path i=3, r=3, l=(0, 2, 0), a=(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)): "
    "-721/720 != -1/720",
    "explicit path i=3, r=3, l=(0, 2, 0), a=(Fraction(1, 3), Fraction(1, 1), Fraction(1, 1)): "
    "-719/720 != 1/720",
    "explicit path i=1, r=3, l=(1, 0, 2), a=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)): "
    "-30173/30240 != 67/30240",
    "explicit path i=1, r=3, l=(1, 0, 2), a=(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)): "
    "-30173/30240 != 67/30240",
    "explicit path i=1, r=3, l=(1, 0, 2), a=(Fraction(1, 3), Fraction(1, 1), Fraction(1, 1)): "
    "-7362167/7348320 != -13847/7348320",
    "recurrence path i=2, r=3, l=(1, 0, 2), a=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)): "
    "6047/6048 != -1/6048",
    "recurrence path i=2, r=3, l=(1, 0, 2), a=(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)): "
    "6047/6048 != -1/6048",
    "recurrence path i=2, r=3, l=(1, 0, 2), a=(Fraction(1, 3), Fraction(1, 1), Fraction(1, 1)): "
    "6047/6048 != -1/6048",
)


def test_staircase_failures_come_in_check_order_whatever_order_the_routes_run(monkeypatch):
    c_rec, c_explicit = asymptotic._c_rec, asymptotic._c_explicit

    def wrong_rec(i, r, l, a, memo):
        num, den = c_rec(i, r, l, a, memo)
        return (num + den, den) if (i, l) == (2, (1, 0, 2)) else (num, den)

    def wrong_explicit(i, r, l, a, memo):
        num, den = c_explicit(i, r, l, a, memo)
        return (num - den, den) if (i, l) in ((1, (1, 0, 2)), (3, (0, 2, 0))) else (num, den)

    _plant_route(monkeypatch, "_c_rec", wrong_rec)
    _plant_route(monkeypatch, "_c_explicit", wrong_explicit)
    result = run_suite("asym", PLANTED_UNIT_BOUNDS)
    assert result.failures == STAIRCASE_ORDER_FAILURES
    assert result.checked == 858


def test_staircase_failures_within_one_run_of_siblings_come_l_first(monkeypatch):
    # (1, 0, 0) and (1, 0, 2) are siblings, in one run of the staircase at
    # r = 3, and the earlier tuple's fault is at the later i: recording a
    # run's checks case by case would put (1, 0, 2) first.
    c_explicit = asymptotic._c_explicit

    def wrong_explicit(i, r, l, a, memo):
        num, den = c_explicit(i, r, l, a, memo)
        return (num - den, den) if (i, l) in ((3, (1, 0, 0)), (1, (1, 0, 2))) else (num, den)

    _plant_route(monkeypatch, "_c_explicit", wrong_explicit)
    failures = run_suite("asym", PLANTED_UNIT_BOUNDS).failures
    assert [failure.split(", a=")[0] for failure in failures] == (
        ["explicit path i=3, r=3, l=(1, 0, 0)"] * 3 + ["explicit path i=1, r=3, l=(1, 0, 2)"] * 3
    )


# The recurrence grids each suite reads, by kind.
GRID_READERS = {
    "mzf-reg": ("asym", "sign"),
    "mzf-rev": ("asym", "gregory", "sign", "values"),
    "mzsf-reg": ("asym", "sign"),
    "mzsf-rev": ("sign", "values"),
}


# The zero-padding checks of the values suite at depth 3, weight 3 whose left
# side reads the reverse value at (1, 1): a box point k of l with
# (k_1, ..., k_{r-1}, k_r - s) = (1, 1).
PADDING_READERS_OF_1_1 = {
    f"zero-padding transform l={l}, s={s}"
    for l in iter_index_tuples(3, 3)
    for s in (0, -1, -2)
    if any(ks[:-1] + (ks[-1] - s,) == (1, 1) for ks in product(*(range(e + 1) for e in l)))
}


@pytest.mark.parametrize("kind", sorted(GRID_READERS))
def test_a_planted_wrong_grid_value_is_reported_at_its_tuple(monkeypatch, kind):
    # One grid value off by one: every suite that reads that grid must fail
    # at that tuple and nowhere else, so each suite reads its grid in step
    # with its own loop over the tuples.  The values suite also reads the
    # reverse grid for the left sides of its zero-padding checks, so those
    # that read (1, 1) fail too.
    _plant_grid_fault(monkeypatch, kind, (1, 1))
    bounds = Bounds(max_depth=3, max_weight=3, max_r=3)
    for suite in ("asym", "gregory", "sign", "values"):
        failures = run_suite(suite, bounds).failures
        if suite in GRID_READERS[kind]:
            at_tuple = {text for text in failures if "l=(1, 1)" in text}
            padding = PADDING_READERS_OF_1_1 if (kind, suite) == ("mzf-rev", "values") else set()
            assert at_tuple and set(failures) == at_tuple | padding, failures
        else:
            assert failures == ()


# Two faults planted in the kernels the fixed grids read: the constant term of
# S(7,3,Y) raised by one, and B_4^(2) raised by one.  For each suite at the
# default bounds: the failure count, the first failure and the SHA-256 of all
# failure texts joined by newlines, recorded when both sides of every check
# were built as Fractions.
PLANTED_KERNEL_FAULTS = {
    "stirling": (
        137,
        "orthogonality sum_k S(n,k,y) s(k,m,y), n=7, m=1, y=0: 2 != 0",
        "b378c20e0d230ecaef0713074c9d671000f43158e9936345e25c3f868b50ba92",
    ),
    "bernoulli": (
        40,
        "order additivity n=5, m1=0, m2=2: x^5 - 5*x^4 + 25/3*x^3 - 5*x^2 + 1/2*x + 1/6 "
        "!= x^5 - 5*x^4 + 25/3*x^3 - 5*x^2 + 11/2*x + 1/6",
        "88f2fd4260aae05ad49de8e8a02fa8699ae6944956fc7be977e0285a72ff6089",
    ),
    "choi": (
        30,
        "contiguous-shift reduction r=3, m=1, l=2, z=1 (depth-3 value 1/240)",
        "5d2762046cf0f7fd2cdabc63d28a8d206b52a75203f07d1fe125d82435e705c7",
    ),
}


def _plant(monkeypatch, original, faulty):
    """Put ``faulty`` under every name an mzv module binds ``original`` to."""
    for name, module in list(sys.modules.items()):
        if name == "mzv" or name.startswith("mzv."):
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, faulty)


def _plant_kernel_fault(monkeypatch, suite):
    if suite == "stirling":
        original = stirling._poly_coeffs
        uncached = original.__wrapped__

        def faulty(n, m, first):
            coeffs = uncached(n, m, first)
            return (coeffs[0] + 1,) + coeffs[1:] if (n, m, first) == (7, 3, False) else coeffs

    else:
        original = bernoulli.bernoulli_higher_order

        def faulty(n, m):
            poly = original(n, m)
            if (n, m) != (4, 2):
                return poly
            return RationalPolynomial((poly.coefficient(0) + 1,) + poly.coeffs[1:])

    _plant(monkeypatch, original, faulty)


def _assert_recorded_failures(suite, failures):
    count, first, digest = PLANTED_KERNEL_FAULTS[suite]
    assert (len(failures), failures[0]) == (count, first)
    assert hashlib.sha256("\n".join(failures).encode()).hexdigest() == digest


@pytest.mark.parametrize("suite", sorted(PLANTED_KERNEL_FAULTS))
def test_planted_kernel_faults_give_the_recorded_failures(monkeypatch, suite):
    _plant_kernel_fault(monkeypatch, suite)
    _assert_recorded_failures(suite, run_suite(suite).failures)


@pytest.mark.parametrize("suite", sorted(PLANTED_KERNEL_FAULTS))
def test_planted_kernel_faults_in_a_worker_give_the_recorded_failures(
    monkeypatch, usable_cpus, in_worker, suite
):
    usable_cpus(2)
    _plant_kernel_fault(monkeypatch, suite)
    in_worker(suite)
    asym, res = run_suites(["asym", suite])
    assert asym.suite == "asym"
    _assert_recorded_failures(suite, res.failures)

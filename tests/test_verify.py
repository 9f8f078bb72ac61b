"""Tests for the verification-suite runner."""

import contextlib
import errno
import hashlib
import json
import os
import select
import signal
import sys
import threading
import time
from itertools import product

import pytest

from mzv import bernoulli, stirling, verify
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

        def recorded(bounds, rng, name=name, fn=fn):
            threads[name] = threading.current_thread()
            return fn(bounds, rng)

        monkeypatch.setitem(verify._SUITES, name, recorded)
    results = run_suites(["all"], SMALL)
    assert [res.suite for res in results] == sorted(SUITE_NAMES)
    assert all(res.ok for res in results)
    assert threads == {name: threading.current_thread() for name in SUITE_NAMES}


def test_one_suite_never_forks(monkeypatch, capsys, usable_cpus):
    usable_cpus(2)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert main(["verify", "--suite", "asym", "--max-depth", "2", "--max-weight", "2"]) == 0
    assert capsys.readouterr().out == "asym: 463 identities verified\n"


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

        def logged(bounds, rng, name=name, fn=fn):
            os.write(log, f"{name}\n".encode())
            return fn(bounds, rng)

        monkeypatch.setitem(verify._SUITES, name, logged)
    try:
        results = run_suites(["all"], SMALL)
        assert sorted(os.read(ran, 4096).decode().split()) == sorted(SUITE_NAMES)
        assert results == [run_suite(name, SMALL) for name in SUITE_NAMES]
    finally:
        os.close(ran)
        os.close(log)


@pytest.mark.parametrize("error", [RuntimeError, ValueError])
def test_a_worker_exception_is_raised_with_its_type_and_message(
    monkeypatch, usable_cpus, in_worker, error
):
    usable_cpus(2)

    def crash(bounds, rng):
        raise error("planted crash")

    monkeypatch.setitem(verify._SUITES, "sign", crash)
    in_worker("sign")
    with pytest.raises(error, match="^planted crash$"):
        run_suites(["all"], SMALL)


def test_a_killed_worker_exits_3(monkeypatch, capsys, usable_cpus, in_worker):
    usable_cpus(2)
    monkeypatch.setitem(verify._SUITES, "sign", lambda bounds, rng: os.kill(os.getpid(), signal.SIGKILL))
    in_worker("sign")
    assert main(["verify", "--suite", "all", "--max-depth", "2", "--max-weight", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal error: RuntimeError: suite worker ")
    assert err.endswith(" ended without a result (exit status -9)\n")


def test_a_caller_killed_by_sigkill_leaves_no_worker_that_starts_another_suite(
    monkeypatch, usable_cpus, in_worker
):
    # The caller runs in a child of this process, which SIGKILLs it while the
    # worker holds a planted bernoulli suite; released, the worker must finish
    # that suite, pull no next one (choi) and exit.  Every suite writes to
    # `report`, whose last write end is the worker's once this process closes
    # its copy and the caller is dead, so EOF there means the worker exited.
    usable_cpus(2)
    reported, report = os.pipe()
    released, release = os.pipe()

    def held(bounds, rng):
        os.write(report, f"bernoulli {os.getpid()}\n".encode())
        os.read(released, 1)
        return verify.SuiteResult("bernoulli", 0, ())

    monkeypatch.setitem(verify._SUITES, "asym", lambda bounds, rng: time.sleep(120))
    monkeypatch.setitem(verify._SUITES, "bernoulli", held)
    monkeypatch.setitem(verify._SUITES, "choi", lambda bounds, rng: os.write(report, b"choi\n"))
    in_worker("bernoulli")
    caller = os.fork()
    if caller == 0:
        try:
            run_suites(["asym", "bernoulli", "choi"], SMALL)
        finally:
            os._exit(0)
    os.close(report)
    worker, exited = None, False
    try:
        log = _read_within(reported)  # one short write: "bernoulli <worker pid>"
        worker = int(log.split()[1])
        os.kill(caller, signal.SIGKILL)
        assert os.waitpid(caller, 0)[1] == signal.SIGKILL
        caller = None
        os.write(release, b".")
        while chunk := _read_within(reported):
            log += chunk
        exited = True
    finally:
        for pid in (caller, None if exited else worker):
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
        if caller is not None:
            os.waitpid(caller, 0)
        for fd in (reported, released, release):
            os.close(fd)
    assert log == f"bernoulli {worker}\n".encode()
    with contextlib.suppress(ChildProcessError):
        os.waitpid(worker, 0)  # reaped here only if this process adopted the orphan


def test_an_interrupt_in_the_caller_kills_and_reaps_the_workers(monkeypatch, usable_cpus, in_worker):
    usable_cpus(2)

    def interrupted(bounds, rng):
        raise KeyboardInterrupt

    monkeypatch.setitem(verify._SUITES, "asym", interrupted)
    monkeypatch.setitem(verify._SUITES, "gregory", lambda bounds, rng: time.sleep(120))
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


def _plant_wrong_routes(monkeypatch):
    c_explicit = verify._c_explicit
    choi_check = verify.choi_identity_check
    sign_holds = verify._sign_holds

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
    # The worker pulls every suite up to sign, so choi and sign run there.
    usable_cpus(2)
    _plant_wrong_routes(monkeypatch)
    in_worker("sign")
    _assert_planted_counterexamples(capsys)


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
    grid = verify.value_grid

    def wrong_grid(grid_kind, max_depth, max_weight):
        for l, v in grid(grid_kind, max_depth, max_weight):
            yield l, v + 1 if (grid_kind, l) == (kind, (1, 1)) else v

    monkeypatch.setattr(verify, "value_grid", wrong_grid)
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

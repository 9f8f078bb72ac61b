"""Tests for the command-line interface: output formats and exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mzv.cli
import mzv.verify
from mzv.cli import main
from mzv.values import iter_index_tuples, value


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_value_single_path(capsys):
    code, out, _ = run(capsys, "value", "--kind", "mzf-reg", "--index", "0,1")
    assert code == 0
    assert "mzf-reg(0,1) = 1/12" in out
    assert "[recurrence]" in out


def test_value_all_paths_agree(capsys):
    code, out, _ = run(
        capsys, "value", "--kind", "mzf-rev", "--index", "1,1", "--path", "all"
    )
    assert code == 0
    assert out.count("1/240") == 3
    for path in ("recurrence", "stirling", "gregory"):
        assert f"[{path}]" in out
    assert "verdict: AGREE" in out


def test_value_star_regular_example(capsys):
    code, out, _ = run(capsys, "value", "--kind", "mzsf-reg", "--index", "0,3")
    assert code == 0
    assert "mzsf-reg(0,3) = 0" in out


def test_value_star_reverse_all_has_two_paths(capsys):
    code, out, _ = run(
        capsys,
        "value", "--kind", "mzsf-rev", "--index", "1,1", "--path", "all",
    )
    assert code == 0
    assert out.count("1/240") == 2
    assert "verdict: AGREE" in out


def test_value_unavailable_path_is_usage_error(capsys):
    code, _, err = run(
        capsys,
        "value", "--kind", "mzsf-rev", "--index", "1,1", "--path", "gregory",
    )
    assert code == 2
    assert "not available" in err


def _refuse(*args):
    raise AssertionError("route must not run")


def test_value_single_path_computes_only_that_route(capsys, monkeypatch):
    monkeypatch.setattr(mzv.cli, "rev_via_gregory", _refuse)
    monkeypatch.setattr(mzv.cli, "mzf_rev_stirling", _refuse)
    code, out, _ = run(
        capsys,
        "value", "--kind", "mzf-rev", "--index", "1,1", "--path", "recurrence",
    )
    assert code == 0
    assert "mzf-rev(1,1) = 1/240" in out


def test_value_unavailable_path_computes_nothing(capsys, monkeypatch):
    for name in ("value", "rev_via_gregory", "mzf_rev_stirling"):
        monkeypatch.setattr(mzv.cli, name, _refuse)
    code, _, err = run(
        capsys,
        "value", "--kind", "mzf-reg", "--index", "1,1", "--path", "gregory",
    )
    assert code == 2
    assert "not available" in err


_VALUE_ROUTES = ("value", "rev_via_gregory", "mzf_rev_stirling", "mzsf_rev_stirling")


def test_value_over_the_size_cap_is_refused_before_any_compute(capsys, monkeypatch):
    for name in _VALUE_ROUTES:
        monkeypatch.setattr(mzv.cli, name, _refuse)
    assert mzv.cli.CAPS["value size"] == 300
    for kind in ("mzf-reg", "mzf-rev", "mzsf-reg", "mzsf-rev"):
        for index in ("300", ",".join(["0"] * 301), "100,100,98"):
            code, out, err = run(capsys, "value", "--kind", kind, "--index", index, "--path", "all")
            assert (code, out) == (2, ""), (kind, index)
            assert err == "error: the index has r + |l| = 301; the cap is 300\n"


def test_value_gregory_cap_applies_only_to_the_gregory_route(capsys, monkeypatch):
    # Stubbed routes: the real --path all at 118 zeros takes about 12 s.
    for name in _VALUE_ROUTES:
        monkeypatch.setattr(mzv.cli, name, lambda *args: Fraction(1))
    over, under = ",".join(["0"] * 119), ",".join(["0"] * 118)
    for path in ("gregory", "all"):
        code, out, err = run(capsys, "value", "--kind", "mzf-rev", "--index", over, "--path", path)
        assert (code, out) == (2, ""), path
        assert err == "error: the Gregory route needs order r + |l| + 2 = 121; the cap is 120\n"
        code, out, err = run(capsys, "value", "--kind", "mzf-rev", "--index", under, "--path", path)
        assert (code, err) == (0, ""), path
    for kind, path in (("mzf-rev", "recurrence"), ("mzf-rev", "stirling"), ("mzsf-rev", "all")):
        code, out, err = run(capsys, "value", "--kind", kind, "--index", over, "--path", path)
        assert (code, err) == (0, ""), (kind, path)
    # Both caps admit the largest index of its size.
    code, out, err = run(capsys, "value", "--kind", "mzf-reg", "--index", ",".join(["0"] * 300))
    assert (code, err) == (0, "")


def test_value_bad_index_is_usage_error(capsys):
    code, _, err = run(capsys, "value", "--kind", "mzf-reg", "--index", "1,x")
    assert code == 2
    assert "error" in err


def test_value_json_round_trips(capsys):
    code, out, _ = run(
        capsys,
        "value", "--kind", "mzf-rev", "--index", "1,1",
        "--path", "all", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "AGREE"
    for record in payload["records"]:
        assert Fraction(record["value"]) == Fraction(1, 240)


def test_value_csv_parses(capsys):
    code, out, _ = run(
        capsys, "value", "--kind", "mzf-rev", "--index", "0,1", "--csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["query", "value", "provenance"]
    assert rows[1] == ["mzf-rev(0,1)", "1/12", "recurrence"]


def test_value_decimal_marked_approximate(capsys):
    code, out, _ = run(
        capsys,
        "value", "--kind", "mzf-reg", "--index", "0", "--decimal", "3",
    )
    assert code == 0
    assert "-0.500" in out
    assert "approximate" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("gregory", "--max", "2", "2"),
        ("verify", "--suite", "bernoulli", "--max-depth", "1", "--max-weight", "1", "--max-r", "2"),
    ],
)
def test_decimal_is_refused_where_it_changes_nothing(capsys, argv):
    # gregory and verify print no rational records, so --decimal would be
    # silently ignored; it is a usage error instead.
    code, out, err = run(capsys, *argv, "--decimal", "3")
    assert code == 2
    assert out == ""
    assert "--decimal" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("value", "--kind", "mzf-reg", "--index", "1", "--path", "all"),
        ("coeff", "--index", "1,1"),
        ("stirling", "--kind", "s", "--n", "7", "--m", "3"),
        ("table", "--kind", "mzf-reg", "--json"),
    ],
)
def test_decimal_over_the_cap_is_refused_before_computing(capsys, monkeypatch, argv):
    def unused(*args, **kwargs):
        raise AssertionError("a value was computed")

    for name in ("value", "_grid", "asym_coeff", "stirling_first"):
        monkeypatch.setattr(mzv.cli, name, unused)
    code, out, err = run(capsys, *argv, "--decimal", "1001")
    assert (code, out, err) == (2, "", "error: --decimal is 1,001; the cap is 1,000\n")


def test_decimal_at_the_cap_is_written(capsys):
    code, out, err = run(capsys, "value", "--kind", "mzf-reg", "--index", "1", "--decimal", "1000")
    digits = "08" + "3" * 998
    assert (code, err) == (0, "")
    assert out == f"mzf-reg(1) = -1/12 (~ -0.{digits}, approximate)  [recurrence]\n"


def test_json_and_csv_conflict(capsys):
    code, _, err = run(
        capsys,
        "value", "--kind", "mzf-reg", "--index", "0", "--json", "--csv",
    )
    assert code == 2
    assert "mutually exclusive" in err


def test_coeff_example(capsys):
    code, out, _ = run(
        capsys, "coeff", "--index", "1,1", "--d", "1", "--a", "1,1"
    )
    assert code == 0
    assert "= 1/720" in out
    assert "[definition]" in out


def test_coeff_defaults(capsys):
    # d defaults to all zeros and a to all ones: the regular value
    code, out, _ = run(capsys, "coeff", "--index", "0,1")
    assert code == 0
    assert "= 1/12" in out


def test_coeff_bad_direction_is_usage_error(capsys):
    code, _, err = run(capsys, "coeff", "--index", "1,1", "--d", "2")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--d", "0,1"], "direction vector has length 2, expected 1 for depth 2"),
        (["--d", "2"], "direction entries must be 0 or 1, got 2"),
        (["--a=-1,1"], "shift partial sum a_1+...+a_1 = -1 is not positive"),
        (["--a=1"], "shift vector has length 1, expected 2"),
    ],
    ids=["d-length", "d-bit", "a-sum", "a-length"],
)
def test_coeff_library_checks_are_usage_errors(capsys, monkeypatch, flags, message):
    # The library's own checks of the direction and the shift refuse the
    # argument before the definition sum starts.
    monkeypatch.setattr(mzv.cli, "asym_coeff", _refuse)
    assert run(capsys, "coeff", "--index", "1,1", *flags) == (2, "", f"error: {message}\n")


def test_coeff_over_the_size_cap_is_refused_before_any_compute(capsys, monkeypatch):
    def no_compute(*args):
        raise AssertionError("an over-cap coeff started computing")

    monkeypatch.setattr(mzv.cli, "asym_coeff", no_compute)
    assert mzv.cli.CAPS["coeff size"] == 1_000
    for index in ("1000", ",".join(["0"] * 32), "10,10,10,10,10,10,10,10,10,10"):
        code, out, err = run(capsys, "coeff", "--index", index)
        assert code == 2, index
        assert out == ""
        assert "the cap is 1,000" in err, err
    code, _, err = run(capsys, "coeff", "--index", "1000")
    assert "r * (r + |l|) = 1,001" in err


@pytest.mark.parametrize(
    "shift, bits",
    [("1/1000000000000000000000000000000", 100), ("1/1000003", 20), ("1000003", 20), ("2037/2039", 11)],
)
def test_coeff_over_the_shift_cap_is_refused_before_any_compute(capsys, monkeypatch, shift, bits):
    def no_compute(*args):
        raise AssertionError("an over-cap coeff started computing")

    monkeypatch.setattr(mzv.cli, "asym_coeff", no_compute)
    assert mzv.cli.CAPS["coeff size bits"] == 10_000
    code, out, err = run(capsys, "coeff", "--index", "999", "--a", shift)
    assert (code, out) == (2, "")
    assert err == (
        f"error: the index has r * (r + |l|) = 1,000 and the shift has {bits}-bit entries; "
        "the cap on their product is 10,000\n"
    )


@pytest.mark.parametrize(
    "index, shift", [("99", "1/1000003"), ("9", "1/" + "9" * 300), ("1,1,1", "5/4,7/9,1/6")]
)
def test_coeff_under_the_shift_cap_is_accepted(capsys, index, shift):
    # 100 * 20, 10 * 997 and 12 * 4 are under the cap of 10,000.
    code, out, err = run(capsys, "coeff", "--index", index, "--a", shift)
    assert (code, err) == (0, "")
    assert out.endswith("  [definition]\n")


def test_coeff_under_the_size_cap_is_accepted(capsys):
    code, out, _ = run(capsys, "coeff", "--index", "100,100,100", "--a", "3/7,1,2", "--json")
    assert code == 0
    assert json.loads(out)["records"][0]["value"].startswith("-95238198825826031307644077864143")


def test_gregory_table_text(capsys):
    code, out, _ = run(capsys, "gregory", "--max", "4", "4")
    assert code == 0
    assert "-1/2" in out
    assert "1/12" in out
    assert "19/720" in out


def test_gregory_table_csv(capsys):
    code, out, _ = run(capsys, "gregory", "--max", "2", "3", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m\\n", "1", "2", "3"]
    assert rows[1] == ["1", "1", "-1/2", "1/3"]
    assert rows[2] == ["2", "-1/2", "1/12", "-1/24"]


def test_gregory_table_json(capsys):
    code, out, _ = run(capsys, "gregory", "--max", "2", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [["1", "-1/2"], ["-1/2", "1/12"]]


def test_gregory_over_the_order_cap_is_refused_before_any_compute(capsys, monkeypatch):
    # Stubbed: the real --max 60 60 table takes about 10 s.
    calls = []
    monkeypatch.setattr(mzv.cli, "gregory", lambda m, n: calls.append((m, n)) or 0)
    assert mzv.cli.CAPS["gregory order"] == 120
    for bounds in (("61", "60"), ("1", "120"), ("120", "1")):
        code, out, err = run(capsys, "gregory", "--max", *bounds)
        assert (code, out, calls) == (2, "", []), bounds
        assert err == "error: the table has M + N = 121; the cap is 120\n"
    code, _, err = run(capsys, "gregory", "--max", "60", "60", "--csv")
    assert (code, err, len(calls)) == (0, "", 3600)


def test_gregory_bad_bounds(capsys):
    code, _, err = run(capsys, "gregory", "--max", "0", "3")
    assert code == 2
    assert "error" in err


def test_stirling_number(capsys):
    code, out, _ = run(capsys, "stirling", "--kind", "S", "--n", "3", "--m", "2")
    assert code == 0
    assert "S(3,2) = 3" in out


def test_stirling_polynomial(capsys):
    code, out, _ = run(
        capsys, "stirling", "--kind", "S-poly", "--n", "2", "--m", "1"
    )
    assert code == 0
    assert "2*Y + 1" in out


def test_stirling_polynomial_at_value(capsys):
    code, out, _ = run(
        capsys,
        "stirling", "--kind", "S-poly", "--n", "2", "--m", "1",
        "--y", "1/2",
    )
    assert code == 0
    assert "= 2" in out


def test_stirling_polynomial_at_negative_values(capsys):
    # The two forms the --y help names; "--y -3/11" reads as an option.
    code, out, _ = run(
        capsys, "stirling", "--kind", "S-poly", "--n", "4", "--m", "2", "--y=-3/11"
    )
    assert code == 0
    assert "S-poly(4,2; Y=-3/11) = 505/121" in out
    code, out, _ = run(
        capsys, "stirling", "--kind", "S-poly", "--n", "4", "--m", "2", "--y", "-3"
    )
    assert code == 0
    assert "S-poly(4,2; Y=-3) = 25" in out


def test_stirling_number_prints_every_digit(capsys):
    # s(2000, 1) = -1999! has about 5,700 digits, past the interpreter's
    # default limit on int-to-str conversion.
    saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        code, out, err = run(
            capsys, "stirling", "--kind", "s", "--n", "2000", "--m", "1", "--json"
        )
        assert code == 0, err
        assert json.loads(out)["records"][0]["value"] == str(-factorial(1999))
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("kind, extra", [("s", []), ("S", []), ("s-poly", []), ("S-poly", ["--y", "1/2"])])
def test_stirling_over_the_n_cap_exits_2_before_any_compute(capsys, monkeypatch, kind, extra):
    for name in (
        "stirling_first",
        "stirling_second",
        "stirling_poly_first",
        "stirling_poly_second",
        "stirling_poly_first_at",
        "stirling_poly_second_at",
    ):
        monkeypatch.setattr(mzv.cli, name, _refuse)
    assert mzv.cli.CAPS["stirling n"] == 2_000
    code, out, err = run(capsys, "stirling", "--kind", kind, "--n", "2001", "--m", "3", *extra)
    assert (code, out, err) == (2, "", "error: --n is 2,001; the cap is 2,000\n")


def test_stirling_y_over_the_size_cap_exits_2_before_any_compute(capsys, monkeypatch):
    # (n - m) times the bit length of y's larger term: 1,999 * 997 for a
    # denominator of 10^300, which was still running after 30 s uncapped.
    assert mzv.cli.CAPS["stirling y bits"] == 100_000
    for name in ("stirling_poly_first_at", "stirling_poly_second_at"):
        monkeypatch.setattr(mzv.cli, name, _refuse)
    for kind in ("s-poly", "S-poly"):
        code, out, err = run(
            capsys, "stirling", "--kind", kind, "--n", "2000", "--m", "1", f"--y=1/{10**300}"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: --n minus --m is 1,999 and --y has 997-bit terms; "
            "the cap on their product is 100,000\n"
        )


def test_stirling_y_under_the_size_cap_is_computed(capsys):
    # 1,999 * 3 bits for y = -7/3; S(n, 1, Y) = (1 + Y)^n - Y^n.
    code, out, err = run(
        capsys, "stirling", "--kind", "S-poly", "--n", "2000", "--m", "1", "--y=-7/3"
    )
    assert (code, err) == (0, "")
    value = Fraction(4**2000 - 7**2000, 3**2000)
    assert out == f"S-poly(2000,1; Y=-7/3) = {value}  [closed-form]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["coeff", "--index", "1", "--a=1e-10000000"],
        ["stirling", "--kind", "S-poly", "--n", "3", "--m", "3", "--y=1e10000000"],
    ],
    ids=["coeff-a", "stirling-y"],
)
def test_an_exponent_past_the_largest_bit_cap_exits_2_at_once(argv):
    # Fraction would write out 10^10,000,000 first (about 14 s), and the
    # stirling call, at n - m = 0 under its y cap, would then render a
    # 10-million-digit query text.
    start = time.monotonic()
    child = _spawn_cli(argv, subprocess.PIPE)
    try:
        out, err = child.communicate(timeout=2)
    finally:
        child.kill()
        child.wait()
    assert time.monotonic() - start < 2
    assert (child.returncode, out) == (2, b"")
    assert err.startswith(b"error: the exponent of ")


def test_an_exponent_within_the_largest_bit_cap_is_parsed(capsys):
    # |E| up to 30,103, the decimal digits of a 100,000-bit number.
    code, out, err = run(capsys, "stirling", "--kind", "S-poly", "--n", "3", "--m", "1", "--y=1e2")
    assert (code, out, err) == (0, "S-poly(3,1; Y=100) = 30301  [closed-form]\n", "")
    code, out, _ = run(capsys, "stirling", "--kind", "S-poly", "--n", "3", "--m", "3", "--y=1e30103")
    assert (code, out) == (0, f"S-poly(3,3; Y={10**30103}) = 1  [closed-form]\n")
    for y in ("--y=1e30104", "--y=1E-30_104"):
        code, out, err = run(capsys, "stirling", "--kind", "S-poly", "--n", "3", "--m", "3", y)
        assert (code, out) == (2, "")
        assert err.startswith("error: the exponent of ")


def test_stirling_y_with_number_kind_is_usage_error(capsys):
    code, _, err = run(
        capsys, "stirling", "--kind", "s", "--n", "2", "--m", "1", "--y", "3"
    )
    assert code == 2
    assert "--y" in err


def test_verify_suite_ok(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "choi",
        "--max-r", "3", "--max-weight", "2",
    )
    assert code == 0
    assert "identities verified" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "values", "--json",
        "--max-depth", "2", "--max-weight", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["results"][0]["suite"] == "values"
    assert payload["results"][0]["checked"] > 0


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2


@pytest.mark.parametrize(
    "bound", [("--max-depth", "0"), ("--max-weight", "-1"), ("--max-r", "0")]
)
def test_verify_degenerate_bounds_are_usage_errors(capsys, monkeypatch, bound):
    def no_suites(names, bounds):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(mzv.cli, "run_suites", no_suites)
    code, out, err = run(capsys, "verify", "--suite", "asym", *bound)
    assert code == 2
    assert out == ""
    assert bound[0] in err


@pytest.mark.parametrize(
    "bounds, message",
    [
        (("--suite", "gregory", "--max-r", "13"), "--max-r is 13; the cap is 12"),
        (("--max-depth", "30", "--max-weight", "30"), "--max-depth is 30; the cap is 8"),
        (("--max-depth", "2", "--max-weight", "15"), "--max-weight is 15; the cap is 14"),
        (("--max-depth", "8", "--max-weight", "11"), "the bounds give 125,969 index tuples; "
         "the cap is 80,000"),
        (("--max-depth", "7", "--max-weight", "13"), "the bounds give 116,279 index tuples; "
         "the cap is 80,000"),
    ],
)
def test_verify_bounds_over_the_caps_are_refused_before_any_suite(
    capsys, monkeypatch, bounds, message
):
    def no_suites(names, bounds):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(mzv.cli, "run_suites", no_suites)
    argv = ("--suite", "all", *bounds) if "--suite" not in bounds else bounds
    assert run(capsys, "verify", *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "bounds", [(4, 6, 7), (6, 9, 9), (7, 12, 8), (2, 12, 12), (8, 10, 12), (1, 14, 12)]
)
def test_verify_caps_admit_the_bounds_in_use(monkeypatch, bounds):
    # The benchmark's and CI's bounds, and the largest of each kind at the caps.
    ran = []
    monkeypatch.setattr(mzv.cli, "run_suites", lambda names, b: ran.append(b) or [])
    depth, weight, r = (str(b) for b in bounds)
    argv = ["verify", "--suite", "all", "--max-depth", depth, "--max-weight", weight, "--max-r", r]
    assert mzv.cli.main(argv) == 0
    assert ran == [mzv.verify.Bounds(*bounds)]


def test_table_command(capsys):
    code, out, _ = run(
        capsys,
        "table", "--kind", "mzf-rev", "--max-depth", "2", "--max-weight", "2",
    )
    assert code == 0
    assert "mzf-rev(0) = -1/2" in out
    assert "mzf-rev(1,1) = 1/240" in out


def test_table_json(capsys):
    code, out, _ = run(
        capsys,
        "table", "--kind", "mzsf-reg",
        "--max-depth", "1", "--max-weight", "3", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    values = {r["query"]: r["value"] for r in payload["records"]}
    assert values["mzsf-reg(0)"] == "-1/2"
    assert values["mzsf-reg(3)"] == "1/120"


# SHA-256 of the lines f"{query}={value}\n" of `mzv table --json` at depth 6,
# weight 7: the digests the benchmark's table workload checks.
TABLE_DIGESTS = {
    "mzf-reg": "461327f8b35f7772954c71bb8dab520f32bdd7a23427278aaf562d37ed7ede2e",
    "mzf-rev": "4a54c1b1caf3068899cb5f20bbc99d81fa1573891d2710ac32aeebb1648c5e2b",
    "mzsf-reg": "ca132e3bc3e0dd379a97b1f16a14bdc1fc938a3c5fe8c8f6dc503c5535ca868b",
    "mzsf-rev": "7fbada01b364da8adc65aaecfc1c83555e0660cfb8cb28ac7c1c9fbf590acdd5",
}


@pytest.mark.parametrize("kind", sorted(TABLE_DIGESTS))
def test_table_digests_are_pinned(capsys, kind):
    code, out, _ = run(
        capsys,
        "table", "--kind", kind, "--max-depth", "6", "--max-weight", "7", "--json",
    )
    assert code == 0
    records = json.loads(out)["records"]
    digest = hashlib.sha256()
    for record in records:
        digest.update(f"{record['query']}={record['value']}\n".encode("ascii"))
    assert len(records) == 3002
    assert digest.hexdigest() == TABLE_DIGESTS[kind]


def _oracle_table(kind, depth, weight, fmt):
    # `mzv table` output rendered here from per-tuple values: the index text
    # joined entry by entry, the value by str(Fraction), and the decimal
    # rounded half to even at 6 digits.
    lines = []
    for l in iter_index_tuples(depth, weight):
        query = f"{kind}({','.join(str(e) for e in l)})"
        v = value(kind, l)
        scaled = round(abs(v) * 10**6)
        approx = f"{'-' if v < 0 else ''}{scaled // 10**6}.{scaled % 10**6:06d}"
        if fmt == "text":
            lines.append(f"{query} = {v}  [recurrence]\n")
        elif fmt == "csv":
            quoted = f'"{query}"' if "," in query else query
            lines.append(f"{quoted},{v},recurrence\r\n")
        else:
            extra = f', "approx_decimal": "{approx}"' if fmt == "json-decimal" else ""
            lines.append(
                f'{{"query": "{query}", "value": "{v}", "provenance": "recurrence"{extra}}}'
            )
    if fmt == "text":
        return "".join(lines)
    if fmt == "csv":
        return "query,value,provenance\r\n" + "".join(lines)
    return '{"records": [' + ", ".join(lines) + "]}\n"


@pytest.mark.parametrize("kind", sorted(TABLE_DIGESTS))
@pytest.mark.parametrize("grid", [(2, 12), (4, 5)])
@pytest.mark.parametrize(
    "fmt, flags",
    [("text", ()), ("csv", ("--csv",)), ("json", ("--json",)),
     ("json-decimal", ("--json", "--decimal", "6"))],
)
def test_table_output_matches_a_per_tuple_rendering(capsys, kind, grid, fmt, flags):
    # Two-digit entries at (2, 12), and depth 4: the index text of each
    # record is built from its parent's, appended or prepended by kind.
    depth, weight = grid
    code, out, err = run(
        capsys, "table", "--kind", kind, "--max-depth", str(depth), "--max-weight", str(weight),
        *flags,
    )
    assert (code, err) == (0, "")
    assert out == _oracle_table(kind, depth, weight, fmt)


def test_table_decimal_records_are_pinned(capsys):
    code, out, _ = run(
        capsys,
        "table", "--kind", "mzf-rev", "--max-depth", "2", "--max-weight", "2",
        "--decimal", "12", "--json",
    )
    assert code == 0
    records = json.loads(out)["records"]
    assert [(r["query"], r["value"], r["approx_decimal"]) for r in records] == [
        ("mzf-rev(0)", "-1/2", "-0.500000000000"),
        ("mzf-rev(1)", "-1/12", "-0.083333333333"),
        ("mzf-rev(2)", "0", "0.000000000000"),
        ("mzf-rev(0,0)", "5/12", "0.416666666667"),
        ("mzf-rev(0,1)", "1/12", "0.083333333333"),
        ("mzf-rev(0,2)", "1/120", "0.008333333333"),
        ("mzf-rev(1,0)", "1/24", "0.041666666667"),
        ("mzf-rev(1,1)", "1/240", "0.004166666667"),
        ("mzf-rev(2,0)", "-1/90", "-0.011111111111"),
    ]
    code, out, _ = run(
        capsys,
        "table", "--kind", "mzsf-reg", "--max-depth", "3", "--max-weight", "5",
        "--decimal", "12", "--json",
    )
    assert code == 0
    decimals = {r["query"]: r["approx_decimal"] for r in json.loads(out)["records"]}
    assert decimals["mzsf-reg(5)"] == "-0.003968253968"
    assert decimals["mzsf-reg(0,3)"] == "0.000000000000"
    assert decimals["mzsf-reg(1,1,1)"] == "0.002744708995"
    assert decimals["mzsf-reg(2,0,3)"] == "-0.001236772487"


def test_decimal_skips_values_that_are_not_rationals(capsys):
    code, out, _ = run(
        capsys,
        "stirling", "--kind", "S-poly", "--n", "2", "--m", "1",
        "--decimal", "4", "--json",
    )
    assert code == 0
    assert json.loads(out)["records"] == [
        {"query": "S-poly(2,1)", "value": "2*Y + 1", "provenance": "closed-form"}
    ]


@pytest.mark.parametrize(
    "grid, count",
    [
        (("8", "13"), None),
        (("12", "9"), None),
        (("30", "30"), "232,714,176,627,630,543"),
        (("100000", "100000"), "C(200001, 100000) - 1"),
    ],
)
def test_table_over_the_cap_is_refused_before_computing(capsys, monkeypatch, grid, count):
    def no_grid(*args):
        raise AssertionError("the grid was computed")

    if count is None:  # small enough to count by enumeration
        count = f"{len(list(iter_index_tuples(int(grid[0]), int(grid[1])))):,}"
    monkeypatch.setattr(mzv.cli, "_grid", no_grid)
    code, out, err = run(
        capsys, "table", "--kind", "mzf-reg", "--max-depth", grid[0], "--max-weight", grid[1]
    )
    assert code == 2
    assert out == ""
    assert err == f"error: the table has {count} index tuples; the cap is 250,000\n"


def test_table_just_under_the_cap_is_computed(capsys, monkeypatch):
    # Depth 8, weight 12 is 203,489 tuples; an empty grid stands in for it.
    monkeypatch.setattr(mzv.cli, "_grid", lambda kind, depth, weight, text=False: iter(()))
    code, out, err = run(
        capsys, "table", "--kind", "mzf-reg", "--max-depth", "8", "--max-weight", "12", "--json"
    )
    assert (code, out, err) == (0, '{"records": []}\n', "")


def test_no_command_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "value" in out and "verify" in out


@pytest.mark.parametrize(
    "name, argv",
    [
        ("_cmd_value", ["value", "--kind", "mzf-reg", "--index", "1"]),
        ("value", ["value", "--kind", "mzf-reg", "--index", "1"]),
        ("asym_coeff", ["coeff", "--index", "1,1"]),
        ("gregory", ["gregory", "--max", "2", "2"]),
        ("stirling_poly_second_at", ["stirling", "--kind", "S-poly", "--n", "3", "--m", "1", "--y=2"]),
        ("_grid", ["table", "--kind", "mzf-reg"]),
    ],
    ids=["handler", "value", "coeff", "gregory", "stirling", "table"],
)
def test_internal_error_has_its_own_exit_code(monkeypatch, capsys, name, argv):
    # Every argument is checked before any compute, so a ValueError out of the
    # compute is a crash and not a usage error.
    def crash(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(mzv.cli, name, crash)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["error: internal error: ValueError: boom"]
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["caller", "worker"])
def test_a_crash_inside_a_suite_is_an_internal_error(monkeypatch, capsys, usable_cpus, in_worker, where):
    # Suite names and bounds are checked before any suite runs, so a
    # ValueError out of a suite is a crash, not a usage error.
    def crash(bounds, rng, section):
        raise ValueError("shift partial sum is not positive")

    monkeypatch.setitem(mzv.verify._SUITES, "sign", crash)
    if where == "caller":
        usable_cpus(1)
    else:
        usable_cpus(2)
        in_worker("sign")
    code, out, err = run(capsys, "verify", "--suite", "all")
    assert (code, out) == (3, "")
    assert err == "error: internal error: ValueError: shift partial sum is not positive\n"


def _spawn_cli(argv, stdout):
    """Start ``python3 -m mzv.cli argv`` on this checkout, stderr piped and
    stdout buffered, as in a plain shell, whatever this process runs with."""
    env = {name: v for name, v in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(mzv.__file__))
    return subprocess.Popen(
        [sys.executable, "-m", "mzv.cli", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env
    )


# 270 KB of JSON, over a pipe's 64 KB, so the process cannot write it all at once.
LARGE_TABLE = ["table", "--kind", "mzsf-reg", "--max-depth", "6", "--max-weight", "7", "--json"]


def test_closed_stdout_is_not_an_internal_error():
    # The read end is closed before the child starts, so its first write
    # (here the flush of a short output) always meets a broken pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = _spawn_cli(["stirling", "--kind", "S", "--n", "5", "--m", "2"], write_end)
    finally:
        os.close(write_end)
    _, err = child.communicate(timeout=60)
    assert child.returncode == mzv.cli.EXIT_BROKEN_PIPE == 141
    assert err == b""
    # A reader that closes mid-stream, as `mzv table ... | head -c 4096` does.
    child = _spawn_cli(LARGE_TABLE, subprocess.PIPE)
    assert child.stdout.read(4096).startswith(b'{"records": [')
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert child.returncode == 141
    assert err == b""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["value", "--kind", "mzf-rev", "--index", "1,1", "--path", "all", "--json"], 0),
        (["verify", "--suite", "sign", "--json"], 0),
        (LARGE_TABLE, 0),
        (["value", "--kind", "bogus", "--index", "1"], 2),
    ],
    ids=["value", "verify", "table", "usage"],
)
def test_the_process_entry_writes_what_main_writes(capsys, argv, code):
    # `python3 -m mzv.cli` leaves through os._exit after its own flush, so
    # nothing may be lost or added against an in-process main().
    expected = run(capsys, *argv)
    assert expected[0] == code
    child = _spawn_cli(argv, subprocess.PIPE)
    out, err = child.communicate(timeout=120)
    assert (child.returncode, out, err) == (code, expected[1].encode(), expected[2].encode())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_a_full_stdout_is_an_internal_error_in_process_and_out(capsys, monkeypatch):
    # Every flush to /dev/full fails with ENOSPC.  main() reports the first one
    # and leaves the short output in the buffer, so the process entry's last
    # flush fails too: that one must change neither the exit code nor stderr.
    argv = ["value", "--kind", "mzf-rev", "--index", "1,1", "--path", "all", "--json"]
    full = open("/dev/full", "w")
    try:
        monkeypatch.setattr(sys, "stdout", full)
        code, _, err = run(capsys, *argv)
        child = _spawn_cli(argv, full)
        _, child_err = child.communicate(timeout=60)
    finally:
        with contextlib.suppress(OSError):  # the buffer main() could not flush
            full.close()
    assert code == child.returncode == mzv.cli.EXIT_INTERNAL
    assert err == "error: internal error: OSError: [Errno 28] No space left on device\n"
    assert child_err == err.encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("stderr", ["closed", "read-only"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["value", "--kind", "mzf-reg", "--index", "x"], 2),
        (["value", "--kind", "mzf-rev", "--index", "1,1", "--json"], 3),
    ],
    ids=["usage", "internal"],
)
def test_an_unwritable_stderr_keeps_the_exit_code(argv, code, stderr):
    # The error line cannot be written: with fd 2 closed, sys.stderr is None,
    # and with fd 2 open for reading (as after `2>&-` under a launcher that
    # reopens it) the write fails with EBADF.  Neither may reach stdout or
    # escape as an exception, which would exit 1 ("an identity failed").  The
    # internal error is a full stdout.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mzv.__file__)))
    with open("/dev/full", "w") as full, open(os.devnull, "rb") as read_only:
        child = subprocess.run(
            [sys.executable, "-m", "mzv.cli", *argv],
            stdout=full if code == 3 else subprocess.PIPE,
            stderr=read_only if stderr == "read-only" else None,
            preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None,
            env=env,
            timeout=60,
        )
    assert (child.returncode, child.stdout) == (code, None if code == 3 else b"")


def test_cache_dir_is_ignored(tmp_path, monkeypatch, capsys):
    # A well-formed but wrong value in the old cache format must not leak in.
    poisoned = tmp_path / "values.txt"
    poisoned.write_text("#mzv-values v1\nmzf-reg|3|5\n", encoding="ascii")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setenv("MZV_CACHE_DIR", str(tmp_path))
    code, out, err = run(capsys, "value", "--kind", "mzf-reg", "--index", "3")
    assert code == 0
    assert err == ""
    assert "mzf-reg(3) = 1/120" in out
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("fmt", [(), ("--json",), ("--csv",)])
def test_emit_records_streams(monkeypatch, fmt):
    # Each record is written before the next one is produced.
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    args = mzv.cli._build_parser().parse_args(["table", "--kind", "mzf-reg", "--decimal", "2", *fmt])
    held_back = []

    def records():
        for k in range(4):
            if k and f"q{k - 1}" not in out.getvalue():
                held_back.append(k - 1)
            yield f"q{k}", Fraction(k, 7), "test"

    mzv.cli._emit_records(args, records())
    assert held_back == []
    assert "q3" in out.getvalue()


def test_table_streams_the_grid(monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    held_back = []

    def grid(kind, depth, weight, text=False):
        for x in range(weight + 1):
            if x and f"{kind}({x - 1})" not in out.getvalue():
                held_back.append(x - 1)
            yield (str(x) if text else (x,)), 1, x + 2

    monkeypatch.setattr(mzv.cli, "_grid", grid)
    code = main(["table", "--kind", "mzf-rev", "--max-depth", "1", "--max-weight", "3", "--json"])
    assert (code, held_back) == (0, [])
    assert json.loads(out.getvalue())["records"][3] == {
        "query": "mzf-rev(3)", "value": "1/5", "provenance": "recurrence"
    }


# Output of each record-writing subcommand in the three formats, byte for
# byte, as recorded before records were streamed.
PINNED_OUTPUT = {
    "value": (
        ("value", "--kind", "mzf-rev", "--index", "1,2", "--path", "all", "--decimal", "6"),
        {
            "text": (
                'mzf-rev(1,2) = -1/240 (~ -0.004167, approximate)  [gregory]\n'
                'mzf-rev(1,2) = -1/240 (~ -0.004167, approximate)  [recurrence]\n'
                'mzf-rev(1,2) = -1/240 (~ -0.004167, approximate)  [stirling]\n'
                'verdict: AGREE\n'
            ),
            "csv": (
                'query,value,provenance,approx_decimal\r\n'
                '"mzf-rev(1,2)",-1/240,gregory,-0.004167\r\n'
                '"mzf-rev(1,2)",-1/240,recurrence,-0.004167\r\n'
                '"mzf-rev(1,2)",-1/240,stirling,-0.004167\r\n'
                'verdict,AGREE,\r\n'
            ),
            "json": (
                '{"records": [{"query": "mzf-rev(1,2)", "value": "-1/240", '
                '"provenance": "gregory", "approx_decimal": "-0.004167"}, '
                '{"query": "mzf-rev(1,2)", "value": "-1/240", '
                '"provenance": "recurrence", "approx_decimal": "-0.004167"}, '
                '{"query": "mzf-rev(1,2)", "value": "-1/240", "provenance": "stirling", '
                '"approx_decimal": "-0.004167"}], "verdict": "AGREE"}\n'
            ),
        },
    ),
    "coeff": (
        ("coeff", "--index", "1,0,2", "--d", "1,0", "--a", "3/7,1,2", "--decimal", "6"),
        {
            "text": (
                'coeff(l=(1,0,2); d=(1,0); a=(3/7,1,2)) = -89/30240 (~ -0.002943, '
                'approximate)  [definition]\n'
            ),
            "csv": (
                'query,value,provenance,approx_decimal\r\n'
                '"coeff(l=(1,0,2); d=(1,0); a=(3/7,1,2))",-89/30240,definition,-0.002943\r\n'
            ),
            "json": (
                '{"records": [{"query": "coeff(l=(1,0,2); d=(1,0); a=(3/7,1,2))", '
                '"value": "-89/30240", "provenance": "definition", '
                '"approx_decimal": "-0.002943"}]}\n'
            ),
        },
    ),
    "stirling-number": (
        ("stirling", "--kind", "s", "--n", "7", "--m", "3", "--decimal", "2"),
        {
            "text": 's(7,3) = 1624 (~ 1624.00, approximate)  [recurrence-table]\n',
            "csv": (
                'query,value,provenance,approx_decimal\r\n'
                '"s(7,3)",1624,recurrence-table,1624.00\r\n'
            ),
            "json": (
                '{"records": [{"query": "s(7,3)", "value": "1624", '
                '"provenance": "recurrence-table", "approx_decimal": "1624.00"}]}\n'
            ),
        },
    ),
    "stirling-polynomial": (
        ("stirling", "--kind", "S-poly", "--n", "4", "--m", "2", "--decimal", "2"),
        {
            "text": 'S-poly(4,2) = 6*Y^2 + 12*Y + 7  [closed-form]\n',
            "csv": (
                'query,value,provenance,approx_decimal\r\n'
                '"S-poly(4,2)",6*Y^2 + 12*Y + 7,closed-form,\r\n'
            ),
            "json": (
                '{"records": [{"query": "S-poly(4,2)", "value": "6*Y^2 + 12*Y + 7", '
                '"provenance": "closed-form"}]}\n'
            ),
        },
    ),
    "stirling-constant-polynomial": (
        ("stirling", "--kind", "S-poly", "--n", "3", "--m", "3", "--decimal", "2"),
        {
            "text": 'S-poly(3,3) = 1 (~ 1.00, approximate)  [closed-form]\n',
            "csv": (
                'query,value,provenance,approx_decimal\r\n'
                '"S-poly(3,3)",1,closed-form,1.00\r\n'
            ),
            "json": (
                '{"records": [{"query": "S-poly(3,3)", "value": "1", '
                '"provenance": "closed-form", "approx_decimal": "1.00"}]}\n'
            ),
        },
    ),
    "stirling-point": (
        ("stirling", "--kind", "s-poly", "--n", "5", "--m", "2", "--y=-3/11", "--decimal", "4"),
        {
            "text": (
                's-poly(5,2; Y=-3/11) = -34105/1331 (~ -25.6236, '
                'approximate)  [closed-form]\n'
            ),
            "csv": (
                'query,value,provenance,approx_decimal\r\n'
                '"s-poly(5,2; Y=-3/11)",-34105/1331,closed-form,-25.6236\r\n'
            ),
            "json": (
                '{"records": [{"query": "s-poly(5,2; Y=-3/11)", "value": "-34105/1331", '
                '"provenance": "closed-form", "approx_decimal": "-25.6236"}]}\n'
            ),
        },
    ),
    "table": (
        ("table", "--kind", "mzsf-rev", "--max-depth", "2", "--max-weight", "2", "--decimal", "4"),
        {
            "text": (
                'mzsf-rev(0) = -1/2 (~ -0.5000, approximate)  [recurrence]\n'
                'mzsf-rev(1) = -1/12 (~ -0.0833, approximate)  [recurrence]\n'
                'mzsf-rev(2) = 0 (~ 0.0000, approximate)  [recurrence]\n'
                'mzsf-rev(0,0) = -1/12 (~ -0.0833, approximate)  [recurrence]\n'
                'mzsf-rev(0,1) = 0 (~ 0.0000, approximate)  [recurrence]\n'
                'mzsf-rev(0,2) = 1/120 (~ 0.0083, approximate)  [recurrence]\n'
                'mzsf-rev(1,0) = -1/24 (~ -0.0417, approximate)  [recurrence]\n'
                'mzsf-rev(1,1) = 1/240 (~ 0.0042, approximate)  [recurrence]\n'
                'mzsf-rev(2,0) = -1/90 (~ -0.0111, approximate)  [recurrence]\n'
            ),
            "csv": (
                'query,value,provenance,approx_decimal\r\n'
                'mzsf-rev(0),-1/2,recurrence,-0.5000\r\n'
                'mzsf-rev(1),-1/12,recurrence,-0.0833\r\n'
                'mzsf-rev(2),0,recurrence,0.0000\r\n'
                '"mzsf-rev(0,0)",-1/12,recurrence,-0.0833\r\n'
                '"mzsf-rev(0,1)",0,recurrence,0.0000\r\n'
                '"mzsf-rev(0,2)",1/120,recurrence,0.0083\r\n'
                '"mzsf-rev(1,0)",-1/24,recurrence,-0.0417\r\n'
                '"mzsf-rev(1,1)",1/240,recurrence,0.0042\r\n'
                '"mzsf-rev(2,0)",-1/90,recurrence,-0.0111\r\n'
            ),
            "json": (
                '{"records": [{"query": "mzsf-rev(0)", "value": "-1/2", '
                '"provenance": "recurrence", "approx_decimal": "-0.5000"}, '
                '{"query": "mzsf-rev(1)", "value": "-1/12", "provenance": "recurrence", '
                '"approx_decimal": "-0.0833"}, {"query": "mzsf-rev(2)", "value": "0", '
                '"provenance": "recurrence", "approx_decimal": "0.0000"}, '
                '{"query": "mzsf-rev(0,0)", "value": "-1/12", '
                '"provenance": "recurrence", "approx_decimal": "-0.0833"}, '
                '{"query": "mzsf-rev(0,1)", "value": "0", "provenance": "recurrence", '
                '"approx_decimal": "0.0000"}, {"query": "mzsf-rev(0,2)", '
                '"value": "1/120", "provenance": "recurrence", '
                '"approx_decimal": "0.0083"}, {"query": "mzsf-rev(1,0)", '
                '"value": "-1/24", "provenance": "recurrence", '
                '"approx_decimal": "-0.0417"}, {"query": "mzsf-rev(1,1)", '
                '"value": "1/240", "provenance": "recurrence", '
                '"approx_decimal": "0.0042"}, {"query": "mzsf-rev(2,0)", '
                '"value": "-1/90", "provenance": "recurrence", '
                '"approx_decimal": "-0.0111"}]}\n'
            ),
        },
    ),
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("name", sorted(PINNED_OUTPUT))
def test_record_output_is_pinned(capsys, name, fmt):
    argv, expected = PINNED_OUTPUT[name]
    code, out, err = run(capsys, *argv, *(() if fmt == "text" else ("--" + fmt,)))
    assert (code, err) == (0, "")
    assert out == expected[fmt]


# The suites' results that the planted case writes: one passes, and one fails with a
# comma and quotes in its first counterexample, which CSV and JSON must each quote.
PLANTED_RESULTS = [
    mzv.verify.SuiteResult("choi", 52, ()),
    mzv.verify.SuiteResult("sign", 15, ('merge at (1, 2): got "1/2", want "1/3"', "second")),
]

# Per argv, the exit code and the SHA-256 of the whole stdout in text, CSV and JSON.  The
# 1 x 1 gregory table keeps the text columns at their 5-character least; the 9 x 7 one
# widens them to its longest cell.
DOCUMENT_DIGESTS = {
    "gregory-1x1": (("gregory", "--max", "1", "1"), 0, {
        "text": "6722cfeb9b608741c0d92846ce36aeff3a1ae2f365d00e9664a3ccf61fc793bb",
        "csv": "9e06b9bb159eaf764fcd38045e690bf213c73199f7dde7e8558c1595e8c8aeed",
        "json": "a787f5d3086f490596773e1597ecfe6646c80bdfdf7f95250ed2d2013cb1539d",
    }),
    "gregory-4x4": (("gregory", "--max", "4", "4"), 0, {
        "text": "32b01b3823dd2a627c44845ae43e0bbb7f1007b4f734fb655fd1efd014524d19",
        "csv": "d2189f1f9ea28de3d84eecbf0f85411b32b56f06d713ec80f62752e579488498",
        "json": "3a9a4ddd2db02c7b09376dc9b9bca4399200b890ece36e707e4a1b1bb3537a9a",
    }),
    "gregory-9x7": (("gregory", "--max", "9", "7"), 0, {
        "text": "0532374e8e83383185aac50148e2918f8dcb4f0f3254047a1b5a783a348c5325",
        "csv": "de5fac262037b18069fd8a0ddbc5f90971dda190ef06900cb5000728b62be925",
        "json": "0a63cdee753c20eb2e52f1a4d57ca6e8942d2cdd37573511a144f1536aec0ff1",
    }),
    "verify-all": (("verify", "--suite", "all", "--max-depth", "2", "--max-weight", "2",
                    "--max-r", "3"), 0, {
        "text": "511bf372fffea2c9cf469fd5a0cb8d2679c05dc487403a3128297f624e11b67b",
        "csv": "e8c2452dee5f08948947cad70279eeb8bc519e9137dc49f294a45973b7dab4f8",
        "json": "0cbf90de48caa1443fd460f77f8f040cfbb814f5afe288566ed2822a5e51d96d",
    }),
    "verify-choi": (("verify", "--suite", "choi", "--max-weight", "2", "--max-r", "3"), 0, {
        "text": "a6940e8d60c622978f0a3aae13bdf86c898b418e9046c5480637a84a684f677a",
        "csv": "13e5f1e42906ce12a277f99a95d702a20ecea19374caa8d3e2e7c7a488a36da1",
        "json": "69403aa5ef1ba633ea798ab28eb9bd8c64ad78043557af992b1044237ae128e8",
    }),
    "verify-planted": (("verify", "--suite", "all"), 1, {
        "text": "2e05b5e306f5ae7e428991b17ea05e5ddc3e9a97c5ad2ff71550f5b09194909f",
        "csv": "f53a4adf4e1089c8fb231344629273ef6c2c60976b35e15a51492430bcf5659d",
        "json": "a93549322561f7e489c606dedf8e776ec10100e54d020cc8b7c1b8e97d39091a",
    }),
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("name", sorted(DOCUMENT_DIGESTS))
def test_gregory_and_verify_output_is_pinned(capsys, monkeypatch, name, fmt):
    argv, status, digests = DOCUMENT_DIGESTS[name]
    if name == "verify-planted":
        monkeypatch.setattr(mzv.cli, "run_suites", lambda names, bounds: PLANTED_RESULTS)
    code, out, err = run(capsys, *argv, *(() if fmt == "text" else ("--" + fmt,)))
    assert (code, err) == (status, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digests[fmt]


# Flag values a user can type: small, at a boundary, negative or malformed.  Every
# value that passes the checks computes in milliseconds.
def _int_text(low, high):
    return st.sampled_from([*map(str, range(low, high + 1)), "x"])


def _flag(flag, values):
    """No flag, or ``flag=value``."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


def _argv(*parts):
    return st.tuples(*parts).map(lambda t: [word for part in t for word in part])


def _listed(entries, max_size=3):
    return st.lists(entries, min_size=1, max_size=max_size).map(",".join)


_OUTPUT = _argv(
    st.sampled_from([[], [], ["--json"], ["--csv"], ["--json", "--csv"]]),
    _flag("--decimal", st.sampled_from(["1", "4", "1000", "0", "x"])),
)
_KIND = st.sampled_from(["mzf-reg", "mzf-rev", "mzsf-reg", "mzsf-rev", "x"]).map(
    lambda k: [f"--kind={k}"]
)
_INDEX = _listed(st.sampled_from(["0", "1", "2", "3", "0", "1", "-1", "x", ""])).map(
    lambda i: [f"--index={i}"]
)
_RATIONAL = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=7).map(str),
    st.sampled_from(["1/0", "x"]),
)
# One subcommand with its flags.
_IN_CAP = st.one_of(
    _argv(st.just(["value"]), _KIND, _INDEX, _flag("--path", st.sampled_from(
        ["recurrence", "stirling", "gregory", "all", "x"])), _OUTPUT),
    _argv(st.just(["coeff"]), _INDEX, _flag("--d", _listed(_int_text(-1, 2))),
          _flag("--a", _listed(_RATIONAL)), _OUTPUT),
    _argv(st.just(["gregory", "--max"]), st.tuples(_int_text(-1, 6), _int_text(-1, 6)).map(list),
          _OUTPUT),
    _argv(st.just(["table"]), _KIND, _flag("--max-depth", _int_text(-1, 3)),
          _flag("--max-weight", _int_text(-1, 3)), _OUTPUT),
    _argv(st.just(["stirling"]), st.sampled_from(["s", "S", "s-poly", "S-poly"]).map(
        lambda k: [f"--kind={k}"]), _int_text(-1, 12).map(lambda n: [f"--n={n}"]),
          _int_text(-1, 12).map(lambda m: [f"--m={m}"]), _flag("--y", _RATIONAL), _OUTPUT),
    _argv(st.just(["verify"]), st.sampled_from([*mzv.verify.SUITE_NAMES, "all", "x"]).map(
        lambda s: [f"--suite={s}"]), _flag("--max-depth", _int_text(0, 2)),
          _flag("--max-weight", _int_text(-1, 2)), _flag("--max-r", _int_text(0, 3)),
          _flag("--seed", _int_text(-2, 2)), _OUTPUT),
)
# Just over and far over each cap.
_OVER_CAP = _argv(st.sampled_from([
    ["value", "--kind=mzf-reg", "--index=300"],
    ["value", "--kind=mzsf-rev", "--path=all", "--index=" + ",".join(["0"] * 301)],
    ["value", "--kind=mzf-rev", "--path=stirling", "--index=100000"],
    ["value", "--kind=mzf-rev", "--path=gregory", "--index=" + ",".join(["0"] * 119)],
    ["value", "--kind=mzf-rev", "--path=all", "--index=117,1"],
    ["value", "--kind=mzf-reg", "--index=1", "--decimal=1001"],
    ["coeff", "--index=1000"],
    ["coeff", "--index=10,10,10,10,10,10,10,10,10,10"],
    ["coeff", "--index=999", "--a=2037/2039"],
    ["coeff", "--index=10", f"--a=1/{10**300}"],
    ["gregory", "--max", "60", "61"],
    ["gregory", "--max", "1", "1000000"],
    ["stirling", "--kind=s", "--n=2001", "--m=3"],
    ["stirling", "--kind=S-poly", "--n=1000000000", "--m=0"],
    ["stirling", "--kind=s-poly", "--n=2000", "--m=1", f"--y=1/{2**50}"],
    ["stirling", "--kind=S-poly", "--n=2000", "--m=1", f"--y=1/{10**300}"],
    ["stirling", "--kind=S", "--n=5", "--m=2", "--decimal=1000000"],
    ["verify", "--suite=gregory", "--max-r=13"],
    ["verify", "--suite=all", "--max-depth=9", "--max-weight=1"],
    ["verify", "--suite=all", "--max-depth=1", "--max-weight=15"],
    ["verify", "--suite=all", "--max-depth=8", "--max-weight=11"],
    ["verify", "--suite=asym", "--max-r=1000000"],
    ["table", "--kind=mzf-reg", "--max-depth=8", "--max-weight=13"],
    ["table", "--kind=mzsf-rev", "--max-depth=100000", "--max-weight=100000"],
    ["table", "--kind=mzf-rev", "--decimal=1001"],
]), st.sampled_from([[], ["--json"], ["--csv"]]))
_COMPUTE = (
    "value", "mzf_rev_stirling", "mzsf_rev_stirling", "rev_via_gregory", "asym_coeff",
    "gregory", "stirling_first", "stirling_second", "stirling_poly_first",
    "stirling_poly_second", "stirling_poly_first_at", "stirling_poly_second_at",
    "run_suites", "_grid",
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.booleans().flatmap(lambda over: st.tuples(_OVER_CAP if over else _IN_CAP, st.just(over))))
def test_no_typed_argv_crashes(case):
    # A typed argv computes (exit 0) or is refused before the first byte of
    # output (exit 2); an argv over a cap is refused before any compute.
    argv, over_cap = case
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        for name in _COMPUTE if over_cap else ():
            patch.setattr(mzv.cli, name, _refuse)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if over_cap or code == 2:
        assert (code, out.getvalue()) == (2, ""), argv

"""Command-line interface for the exact multiple-zeta-value library.

Subcommands:

* ``value``    — one of the four value families at a non-positive integer
  point, by one computation path or by all available paths with an
  AGREE/DISAGREE verdict.
* ``coeff``    — a single asymptotic coefficient from its defining sum.
* ``gregory``  — a rectangular table of generalized Gregory coefficients.
* ``stirling`` — classical Stirling numbers or their polynomial
  deformations, optionally evaluated at a rational parameter.
* ``verify``   — the exact-identity verification suites.
* ``table``    — all values of one family over a bounded grid of index
  tuples.

Values are exact rationals rendered as ``p/q`` (integers drop the ``/1``);
``--decimal N`` (N from 1 to 1,000) adds a clearly-marked approximate decimal
rendering to the records of ``value``, ``coeff``, ``stirling`` and ``table``.
``--json`` and ``--csv`` switch the output format.  Records are written as
they are produced, so a table streams; ``gregory`` and ``verify`` write
their whole result at once.  Every call runs a check phase and
then a compute phase: every check of the arguments, the caps of ``CAPS``
among them, runs before any compute.  Exit codes: 0 success, 1 identity
failure (a path disagreement or a failed verification), 2 a refused argument
and nothing else, 3 internal error (any exception during compute, a
``ValueError`` too, reported on one stderr line), 141 stdout closed by its
reader (128 + SIGPIPE).  Every call computes from scratch and writes nothing
to disk.

``main(argv)`` returns the exit code and is what in-process callers use.
``python3 -m mzv.cli`` and the ``mzv`` script run ``entry()`` instead: it
calls ``main()``, flushes stdout and stderr and leaves through ``os._exit``,
skipping the interpreter's teardown, so ``atexit`` hooks do not run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json
from math import comb, inf, log10
from typing import Callable, Dict, Iterable, NoReturn, Optional, Sequence, Tuple, TypeVar, Union

from .asymptotic import as_direction, as_shift, asym_coeff, gregory, rev_via_gregory
from .stirling import (
    stirling_first,
    stirling_poly_first,
    stirling_poly_first_at,
    stirling_poly_second,
    stirling_poly_second_at,
    stirling_second,
)
from .values import (
    ValueKind,
    _grid,
    mzf_rev_stirling,
    mzsf_rev_stirling,
    value,
)
from .verify import SUITE_NAMES, Bounds, run_suites

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer that lost its reader

# Every cap refuses, with exit 2 before any compute, a cost that would run past about 10 s
# wall.  Each note gives the cost and what it measured on a 2.1 GHz Xeon.
CAPS: Dict[str, int] = {
    # `table`: C(D + W + 1, D) - 1 grid tuples.  203,489 take 1.5-2.4 s wall in any
    # format and peak at 53-55 MB RSS.
    "table tuples": 250_000,
    # `coeff`: r * (r + |l|), as the definition sum fills r rows of up to r + |l| + 1
    # entries.  Depth 1 at the cap takes 4-5 s at a = 3/7 and 9-10 s at a = 997/1000; a
    # cap on r + |l| alone would not do, as depth 20 at r + |l| = 300 takes 12 s.
    "coeff size": 1_000,
    # `coeff`: r * (r + |l|) times the bit length of the largest term in the shift, as
    # the Bernoulli rows grow with it.  (999) takes 17 s at a = 1/1000003 (20 bits) and
    # (908) 7-8 s at 2037/2039 (11 bits).
    "coeff size bits": 10_000,
    # `gregory`: M + N, and `value`'s Gregory route: order r + |l| + 2.  --max 60 60 and
    # --max 1 119 each take 8-10 s wall; 118 zeros take 8-11 s with --path all.
    "gregory order": 120,
    # `value`: r + |l|.  The recurrence costs about (r + |l|)^3: 300 zeros take 2-4 s wall
    # and peak at 19 MB RSS; the Stirling route at l = (299) takes 3-4 s and 26 MB.
    "value size": 300,
    # `stirling`: --n, the rows of the triangle.  s-poly --n 2000 --m 3 takes 4 s wall.
    "stirling n": 2_000,
    # `stirling --y=p/q`: (n - m) times the bit length of max(|p|, q).  At the cap,
    # s-poly --n 2000 --m 1 with a 50-bit q takes 3.4 s; q = 10^300 ran past 30 s.
    "stirling y bits": 100_000,
    # `verify`: the gregory suite walks 2^(r-1) direction vectors; 1.3 s wall at --max-r
    # 12, 18 s at 16.  A grid tuple costs more as D or W grows, so D, W and the
    # C(D + W + 1, D) - 1 tuples each have a cap.  With --max-r 12, --suite all takes
    # 13-16 s on two CPUs at (D, W) = (7, 12) (77,519 tuples), and 20 s at (6, 15).
    "verify r": 12,
    "verify depth": 8,
    "verify weight": 14,
    "verify tuples": 80_000,
    # `--decimal N`: writing N digits costs about N^2; a depth-8, weight-12 table takes
    # 10-11 s at the cap against 2 s without, and one value at 1,000,000 digits 21 s.
    "decimal digits": 1_000,
}


# One output record: (query, exact value, provenance).  The value is an int or a
# Fraction, or text that is written as it is and gets no decimal: a value that is not
# a number (an S-poly polynomial), or a table value when no --decimal asks for one.
Record = Tuple[str, Union[int, Fraction, str], str]
T = TypeVar("T")


class _UsageError(Exception):
    """A refused argument: the only exception that exits 2."""


def _cap(name: str, cost: float, what: str, product: bool = False) -> None:
    """Refuse a ``cost`` over ``CAPS[name]``; ``what`` says what the cost counts."""
    if cost > CAPS[name]:
        cap = "the cap on their product" if product else "the cap"
        raise _UsageError(f"{what}; {cap} is {CAPS[name]:,}")


def _library_check(check: Callable[..., T], *args: object) -> T:
    """Run one of the library's input checks; its ValueError is a refused argument."""
    try:
        return check(*args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _error(text: str) -> None:
    """Print one error line on stderr.  A closed or failing stderr loses the
    line but must not turn a usage error or a crash into another exit code."""
    try:
        if sys.stderr is not None:
            print(text, file=sys.stderr)
    except OSError:
        pass


def _internal_error(exc: BaseException) -> int:
    """Report an unexpected exception on one stderr line; exit code 3."""
    # Exit 1 means "an identity failed", so a crash must not reach it.
    message = " ".join(str(exc).splitlines())
    _error(f"error: internal error: {type(exc).__name__}: {message}")
    return EXIT_INTERNAL


# ---------------------------------------------------------------------------
# Parsing and rendering helpers
# ---------------------------------------------------------------------------


def _parse_index(text: str) -> Tuple[int, ...]:
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(
            f"index must be comma-separated integers, got {text!r}"
        ) from None
    if not entries or any(e < 0 for e in entries):
        raise _UsageError(f"index entries must be >= 0, got {text!r}")
    return entries


def _parse_bits(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",")) if text else ()
    except ValueError:
        raise _UsageError(f"direction must be comma-separated bits, got {text!r}") from None


def _parse_rational(text: str) -> Fraction:
    # Fraction writes out an exponent form's power of ten before any cap sees the value, so an
    # |E| over the digits of a number within the largest bit cap (30,103) is refused first.
    _, e, exponent = text.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    most = int(CAPS["stirling y bits"] * log10(2)) + 1
    if e and digits.isdecimal() and (len(digits) > len(str(most)) or int(digits) > most):
        raise _UsageError(f"the exponent of {text!r} is over {most:,}, past the largest bit cap")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"not a rational number: {text!r}") from None


def _parse_rationals(text: str) -> Tuple[Fraction, ...]:
    return tuple(_parse_rational(part) for part in text.split(","))


def _decimal_string(v: Fraction, digits: int) -> str:
    """Approximate decimal rendering with ``digits`` fractional digits."""
    sign = "-" if v < 0 else ""
    scaled = round(abs(v) * 10**digits)
    text = str(scaled).rjust(digits + 1, "0")
    return f"{sign}{text[: len(text) - digits]}.{text[len(text) - digits:]}"


def _check_formats(args: argparse.Namespace) -> None:
    if args.json and args.csv:
        raise _UsageError("--json and --csv are mutually exclusive")
    decimal = getattr(args, "decimal", None)
    if decimal is not None:
        if decimal < 1:
            raise _UsageError(f"--decimal needs N >= 1, got {decimal}")
        _cap("decimal digits", decimal, f"--decimal is {decimal:,}")


def _emit_records(
    args: argparse.Namespace, records: Iterable[Record], verdict: Optional[str] = None
) -> None:
    """Write each record as it arrives: a text line, a CSV row or the next
    entry of one JSON document.  ``--decimal`` adds an approximate decimal to
    every record whose value is an int or a Fraction."""
    decimal = args.decimal
    write = sys.stdout.write
    if args.csv:
        import csv

        row = csv.writer(sys.stdout).writerow
        row(["query", "value", "provenance"] + ([] if decimal is None else ["approx_decimal"]))
    elif args.json:
        write('{"records": [')
    sep = ""
    for query, exact, provenance in records:
        approx = (
            _decimal_string(exact, decimal)
            if decimal is not None and isinstance(exact, (int, Fraction))
            else None
        )
        if args.json:
            extra = "" if approx is None else f', "approx_decimal": "{approx}"'
            write(f'{sep}{{"query": {_json(query)}, "value": {_json(str(exact))}, '
                  f'"provenance": {_json(provenance)}{extra}}}')
            sep = ", "
        elif args.csv:
            row([query, exact, provenance] + ([] if decimal is None else [approx or ""]))
        else:
            extra = "" if approx is None else f" (~ {approx}, approximate)"
            write(f"{query} = {exact}{extra}  [{provenance}]\n")
    if args.json:
        write("]" + ("" if verdict is None else f', "verdict": "{verdict}"') + "}\n")
    elif verdict is not None and args.csv:
        row(["verdict", verdict, ""])
    elif verdict is not None:
        write(f"verdict: {verdict}\n")


def _write_document(
    args: argparse.Namespace, document: Dict[str, object], rows: Iterable[Sequence[object]],
    lines: Iterable[str],
) -> None:
    """Write a result that is whole before it is written: ``document`` as one
    JSON line under ``--json``, ``rows`` as CSV under ``--csv``, and each of
    ``lines`` as text otherwise.  Only the chosen one is read."""
    if args.json:
        print(json.dumps(document))
    elif args.csv:
        import csv

        csv.writer(sys.stdout).writerows(rows)
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


# A cost of a `value` route: the cap it is checked against, its offset from r + |l| and
# what it counts.
_VALUE_SIZE = ("value size", 0, "the index has r + |l|")
_GREGORY_ORDER = ("gregory order", 2, "the Gregory route needs order r + |l| + 2")
Route = Tuple[Callable[[Tuple[int, ...]], Fraction], Tuple[Tuple[str, int, str], ...]]


def _value_routes(kind: ValueKind) -> Dict[str, Route]:
    """Every computation route available for the requested family, by name, with
    the costs it is checked against."""
    routes: Dict[str, Route] = {"recurrence": (lambda l: value(kind, l), (_VALUE_SIZE,))}
    if kind is ValueKind.MZF_REV:
        routes["stirling"] = (mzf_rev_stirling, (_VALUE_SIZE,))
        routes["gregory"] = (rev_via_gregory, (_VALUE_SIZE, _GREGORY_ORDER))
    elif kind is ValueKind.MZSF_REV:
        routes["stirling"] = (mzsf_rev_stirling, (_VALUE_SIZE,))
    return routes


def _cmd_value(args: argparse.Namespace) -> int:
    l = _parse_index(args.index)
    kind = ValueKind(args.kind)
    routes = _value_routes(kind)
    if args.path != "all" and args.path not in routes:
        raise _UsageError(
            f"path {args.path!r} is not available for kind {kind.value!r} "
            f"(available: {', '.join(sorted(routes))})"
        )
    routes = {name: route for name, route in routes.items() if args.path in ("all", name)}
    size = len(l) + sum(l)
    for _, costs in routes.values():
        for cap, extra, what in costs:
            _cap(cap, size + extra, f"{what} = {size + extra:,}")
    computed = {name: route(l) for name, (route, _) in routes.items()}
    query = f"{kind.value}({','.join(map(str, l))})"
    records = [(query, computed[name], name) for name in sorted(computed)]
    if args.path != "all":
        _emit_records(args, records)
        return EXIT_OK
    agree = len(set(computed.values())) == 1
    _emit_records(args, records, verdict="AGREE" if agree else "DISAGREE")
    return EXIT_OK if agree else EXIT_IDENTITY_FAILURE


def _cmd_coeff(args: argparse.Namespace) -> int:
    l = _parse_index(args.index)
    size = len(l) * (len(l) + sum(l))
    what = f"the index has r * (r + |l|) = {size:,}"
    _cap("coeff size", size, what)
    bits = _parse_bits(args.d) if args.d is not None else (0,) * (len(l) - 1)
    bits = _library_check(as_direction, bits, len(l))
    shift = _parse_rationals(args.a) if args.a is not None else (Fraction(1),) * len(l)
    shift_bits = max(max(abs(c.numerator), c.denominator).bit_length() for c in shift)
    _cap("coeff size bits", size * shift_bits, f"{what} and the shift has {shift_bits}-bit entries",
         product=True)
    shift = _library_check(as_shift, shift, len(l))
    query = (
        f"coeff(l=({','.join(map(str, l))});"
        f" d=({','.join(map(str, bits))});"
        f" a=({','.join(map(str, shift))}))"
    )
    _emit_records(args, [(query, asym_coeff(l, bits, shift), "definition")])
    return EXIT_OK


def _cmd_gregory(args: argparse.Namespace) -> int:
    max_m, max_n = args.max
    if max_m < 1 or max_n < 1:
        raise _UsageError(f"table bounds must be >= 1, got {max_m}, {max_n}")
    _cap("gregory order", max_m + max_n, f"the table has M + N = {max_m + max_n}")
    cells = [[str(gregory(m, n)) for n in range(1, max_n + 1)] for m in range(1, max_m + 1)]
    table = [["m\\n", *map(str, range(1, max_n + 1))]]
    table += [[str(m), *row] for m, row in enumerate(cells, start=1)]
    width = max(5, max(len(cell) for row in cells for cell in row) + 1)
    query = f"gregory-table(max_m={max_m}, max_n={max_n})"
    _write_document(
        args,
        {"query": query, "rows": cells, "provenance": "series"},
        table,
        (row[0].ljust(5) + "".join(cell.rjust(width) for cell in row[1:]) for row in table),
    )
    return EXIT_OK


def _cmd_stirling(args: argparse.Namespace) -> int:
    n, m, kind = args.n, args.m, args.kind
    if n < 0 or m < 0:
        raise _UsageError(f"indices must be >= 0, got n={n}, m={m}")
    _cap("stirling n", n, f"--n is {n:,}")
    y = _parse_rational(args.y) if args.y is not None else None
    if y is not None and kind in ("s", "S"):
        raise _UsageError(f"--y only applies to the polynomial kinds, not {kind!r}")
    if y is not None:
        y_bits = max(abs(y.numerator), y.denominator).bit_length()
        _cap("stirling y bits", (n - m) * y_bits,
             f"--n minus --m is {n - m:,} and --y has {y_bits}-bit terms", product=True)
    number, poly, poly_at = (
        (stirling_first, stirling_poly_first, stirling_poly_first_at)
        if kind[0] == "s"
        else (stirling_second, stirling_poly_second, stirling_poly_second_at)
    )
    if kind in ("s", "S"):
        record: Record = (f"{kind}({n},{m})", number(n, m), "recurrence-table")
    elif y is None:
        deformed = poly(n, m)
        # A constant polynomial is a number, and gets a decimal like one.
        exact = deformed.coefficient(0) if deformed.degree < 1 else deformed.to_string("Y")
        record = (f"{kind}({n},{m})", exact, "closed-form")
    else:
        record = (f"{kind}({n},{m}; Y={y})", poly_at(n, m, y), "closed-form")
    _emit_records(args, [record])
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_depth < 1 or args.max_weight < 0 or args.max_r < 1:
        raise _UsageError(
            f"need --max-depth >= 1, --max-weight >= 0 and --max-r >= 1, got "
            f"{args.max_depth}, {args.max_weight}, {args.max_r}"
        )
    for flag, bound, cap in (
        ("--max-depth", args.max_depth, "verify depth"),
        ("--max-weight", args.max_weight, "verify weight"),
        ("--max-r", args.max_r, "verify r"),
    ):
        _cap(cap, bound, f"{flag} is {bound:,}")
    tuples = comb(args.max_depth + args.max_weight + 1, args.max_depth) - 1
    _cap("verify tuples", tuples, f"the bounds give {tuples:,} index tuples")
    bounds = Bounds(args.max_depth, args.max_weight, args.max_r, args.seed)
    results = run_suites([args.suite], bounds)
    keys = ("suite", "checked", "ok", "first_counterexample")
    entries = [(res.suite, res.checked, res.ok, res.failures[0] if res.failures else None)
               for res in results]
    all_ok = all(res.ok for res in results)
    _write_document(
        args,
        {"results": [dict(zip(keys, entry)) for entry in entries], "ok": all_ok},
        [keys, *((suite, checked, "ok" if ok else "FAIL", first or "")
                 for suite, checked, ok, first in entries)],
        (
            f"{res.suite}: {res.checked} identities verified" if res.ok
            else f"{res.suite}: FAILED ({len(res.failures)} of {res.checked} checks)\n"
            f"  first counterexample: {res.failures[0]}"
            for res in results
        ),
    )
    return EXIT_OK if all_ok else EXIT_IDENTITY_FAILURE


def _cmd_table(args: argparse.Namespace) -> int:
    depth, weight = args.max_depth, args.max_weight
    if depth < 1 or weight < 0:
        raise _UsageError(f"need --max-depth >= 1 and --max-weight >= 0, got {depth}, {weight}")
    # C(D + W + 1, D) - 1 tuples; left uncounted once min(D, W + 1) > 64, far over the cap.
    k = min(depth, weight + 1)
    size = comb(depth + weight + 1, k) - 1 if k <= 64 else inf
    count = f"{size:,}" if k <= 64 else f"C({depth + weight + 1}, {depth}) - 1"
    _cap("table tuples", size, f"the table has {count} index tuples")
    kind = args.kind
    grid = _grid(kind, depth, weight, text=True)
    if args.decimal is None:
        # Fraction.__str__'s text, written straight from the reduced pair.
        records = (
            (f"{kind}({l})", str(n) if d == 1 else f"{n}/{d}", "recurrence") for l, n, d in grid
        )
    else:
        records = ((f"{kind}({l})", Fraction(n, d), "recurrence") for l, n, d in grid)
    _emit_records(args, records)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzv",
        description=(
            "Exact values of multiple zeta and zeta-star functions at "
            "non-positive integer points, asymptotic coefficients, Gregory "
            "and Stirling objects, and identity verification."
        ),
    )
    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument(
        "--json", action="store_true", help="emit one JSON document"
    )
    formats.add_argument("--csv", action="store_true", help="emit CSV rows")
    # Only for the subcommands whose records carry a rational value.
    decimals = argparse.ArgumentParser(add_help=False)
    decimals.add_argument(
        "--decimal",
        type=int,
        metavar="N",
        default=None,
        help="add an approximate decimal rendering with N digits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_value = sub.add_parser(
        "value",
        parents=[formats, decimals],
        help="value of one of the four families at -l",
    )
    p_value.add_argument(
        "--kind",
        required=True,
        choices=[k.value for k in ValueKind],
        help="value family",
    )
    p_value.add_argument(
        "--index",
        required=True,
        metavar="L1,L2,...",
        help="index tuple l (the point is -l)",
    )
    p_value.add_argument(
        "--path",
        default="recurrence",
        choices=["recurrence", "stirling", "gregory", "all"],
        help="computation path (all = every path plus a verdict)",
    )
    p_value.set_defaults(handler=_cmd_value)

    p_coeff = sub.add_parser(
        "coeff",
        parents=[formats, decimals],
        help="asymptotic coefficient C^(d)(-l; a) from the defining sum",
    )
    p_coeff.add_argument("--index", required=True, metavar="L1,L2,...")
    p_coeff.add_argument(
        "--d",
        default=None,
        metavar="D1,D2,...",
        help="direction bits, length depth-1 (default: all zeros)",
    )
    p_coeff.add_argument(
        "--a",
        default=None,
        metavar="A1,A2,...",
        help="rational shift vector (default: all ones)",
    )
    p_coeff.set_defaults(handler=_cmd_coeff)

    p_gregory = sub.add_parser(
        "gregory",
        parents=[formats],
        help="table of generalized Gregory coefficients",
    )
    p_gregory.add_argument(
        "--max",
        nargs=2,
        type=int,
        required=True,
        metavar=("M", "N"),
        help="table bounds: rows m=1..M, columns n=1..N",
    )
    p_gregory.set_defaults(handler=_cmd_gregory)

    p_stirling = sub.add_parser(
        "stirling",
        parents=[formats, decimals],
        help="Stirling numbers and their polynomial deformations",
    )
    p_stirling.add_argument(
        "--kind",
        required=True,
        choices=["s", "S", "s-poly", "S-poly"],
        help="first/second kind, classical number or polynomial",
    )
    p_stirling.add_argument("--n", type=int, required=True)
    p_stirling.add_argument("--m", type=int, required=True)
    p_stirling.add_argument(
        "--y",
        default=None,
        metavar="P/Q",
        help="evaluate the polynomial kinds at this rational (use --y=-P/Q for negative values)",
    )
    p_stirling.set_defaults(handler=_cmd_stirling)

    p_verify = sub.add_parser(
        "verify",
        parents=[formats],
        help="run exact-identity verification suites",
    )
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=list(SUITE_NAMES) + ["all"],
        help="which suite to run",
    )
    p_verify.add_argument(
        "--max-depth", type=int, default=Bounds().max_depth, metavar="D"
    )
    p_verify.add_argument(
        "--max-weight", type=int, default=Bounds().max_weight, metavar="W"
    )
    p_verify.add_argument(
        "--max-r", type=int, default=Bounds().max_r, metavar="R"
    )
    p_verify.add_argument(
        "--seed",
        type=int,
        default=Bounds().seed,
        help="seed for the randomized spot checks layered on the grids",
    )
    p_verify.set_defaults(handler=_cmd_verify)

    p_table = sub.add_parser(
        "table",
        parents=[formats, decimals],
        help="all values of one family over a grid of index tuples",
    )
    p_table.add_argument(
        "--kind", required=True, choices=[k.value for k in ValueKind]
    )
    p_table.add_argument("--max-depth", type=int, default=3, metavar="D")
    p_table.add_argument("--max-weight", type=int, default=4, metavar="W")
    p_table.set_defaults(handler=_cmd_table)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Exact values are printed in full, however many digits they have.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        # Every check runs before any compute, so only a refused argument exits 2.
        _check_formats(args)
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # `mzv ... | head`: what is still buffered goes to /dev/null at the last flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _UsageError as exc:
        _error(f"error: {exc}")
        return EXIT_USAGE
    except Exception as exc:
        return _internal_error(exc)


def entry() -> NoReturn:
    """The process entry of ``python3 -m mzv.cli`` and the ``mzv`` script.

    Runs ``main()``, flushes stdout and stderr, and leaves through
    ``os._exit``: the output is complete by then, nothing is persisted, no
    ``atexit`` hook or thread exists and ``run_suites`` has reaped its
    workers, so the interpreter's teardown would only add wall time to each
    call.  A stdout closed by its reader at this flush exits 141; any other
    failed flush keeps ``main``'s status and prints nothing.  An exception out
    of ``main()`` propagates, and the interpreter exits as usual.
    """
    status = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        status = EXIT_BROKEN_PIPE
    except OSError:
        pass
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(status)


if __name__ == "__main__":
    entry()

#!/usr/bin/env python3
"""Benchmark of the ``mzv`` command line, driven from outside.

Every op is a fresh ``python3 -m mzv.cli ...`` process that imports the
checkout under test (``PYTHONPATH=src``).  One benchmark process runs one op
at a time (a closed loop with one client); the program's own thread pool in
``run_suites`` is part of what is measured.  The seed makes the inputs;
``mzv`` receives only the generated argv.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, one report
    python3 bench/run.py --workload all --smoke    # tiny sizes, a few seconds each
    python3 bench/run.py --self-test               # shows that the checks fire

Workloads (the reasons are also in ``BENCHMARK.json``):

* ``verify``: ``mzv verify --suite all --max-depth 4 --max-weight 6
  --max-r 7 --seed <seed> --json``.  The product's verdict: 14,805 identities,
  about 80% of the time in the ``asym`` suite (asymptotic coefficients,
  Bernoulli memo, ``Fraction``); the value cache and grid rendering barely run.
* ``table``: one op is a cold pass and then a cached pass in a fresh empty
  ``MZV_CACHE_DIR``.  The cold pass runs ``mzv table --kind K --max-depth 6
  --max-weight 7 --json`` (3,002 values) for the four kinds in a seeded
  order; each call loads what the earlier kinds saved, computes, renders and
  saves: the recurrences, grid enumeration (8^6 candidates filtered), JSON
  rendering and the cache write.  The cached pass repeats the four calls,
  which read the values back.  The two passes are the cache trade: read back
  versus recompute.
* ``query``: a list of ``mzv value --kind K --index L --path all --json``
  calls, each started when the previous one exits.  Kinds are drawn
  uniformly, the depth and weight uniformly up to the caps (stratified in
  blocks of 40 queries, see ``Workload._query_block``), and L is a uniform
  weak composition.  Caps: ``mzf-rev`` depth 1-4 and depth + weight <= 12,
  ``mzsf-rev`` depth 1-4 and weight <= 24, the regular kinds depth 1-3 and
  weight <= 160.  No work is shared between ops; start-up, the Stirling and
  Gregory routes and high-index Bernoulli numbers carry the load.  The
  ``mzf-rev`` cap keeps a known defect out of the timings, and says so: the
  Gregory route grows about 2.3x per unit of depth + weight, and
  ``mzf-rev 30,30 --path all`` does not finish in ten minutes.

End-to-end metrics (``--trace 0``), each measured the same way on every
workload; an op is one verify call, one table op or one query:

* ``setup_s``: a fresh interpreter spawned until ``import mzv.cli`` returns,
  median of the samples taken between blocks of ops, at reference speed;
* ``scaled_op_s``: median op wall time at reference speed;
* ``peak_rss_mb``: the largest max-RSS of any ``mzv`` process in the run
  (started by ``bench/spawner.py``, see there for why);
* ``ok_ratio``: 1 - failed ops / attempted ops.

"At reference speed": on a shared host (measured on 2 cores of a 2.1 GHz
Xeon) the same call takes up to 70% longer while other tenants load the
memory system, a state that drifts over minutes.  So a timed run measures the host between blocks of ops
with a fixed piece of ``Fraction`` arithmetic owned by this file
(``HostSpeed``), and scales each time by ``CAL_REF_S`` over the mean of the
readings before and after it: a time is what the op would take on a host
that runs the piece in ``CAL_REF_S``.  The piece runs no ``mzv`` code, so a
change to the program moves the scaled times and not the scale.

The report also prints, not as bounded metrics (every bounded metric must be
measured the same way on every workload): ``wall_s``, the median op wall
time not scaled, and the set-up time not scaled; ``checks_per_s`` (verify),
``cold_pass_s``, ``cached_pass_s`` and ``values_per_s`` (table),
``query_p50_s`` and ``query_p90_s`` (query, which runs at least 100 queries
so that at least 10 lie beyond p90; the count beyond it is printed), all at
reference speed; and ``failed_ratio``.

Every output is checked.  ``verify``: exit 0, every suite ``ok`` and each
suite's ``checked`` at least the count in ``reference.json``.  ``table``: the
SHA-256 of the ordered (query, value) pairs of each kind equals the recorded
digest in both passes, so the cold and cached passes agree.  ``query``: exit 0, verdict
``AGREE`` and the route count per kind (3 for ``mzf-rev``, 2 for
``mzsf-rev``, 1 for the regular kinds).  Independent oracles: the values
quoted in the README, checked once per run, and sympy's ``bernoulli`` (which
uses B_1 = +1/2) for every depth-1 value, where sympy imports.  A timeout, a
non-zero exit, a traceback on stderr or output that fails to parse or check
counts as a failed op; the run goes on, reports crashes, identity failures,
timeouts and bad output separately, and exits 1.

``--trace 1`` runs a fixed list of ops twice, first plainly and then through
``bench/shim.py`` (wrappers on the layer boundaries, see there), checks that
both runs print the same bytes with the same exit codes, and reports the
per-layer metrics listed in ``BENCHMARK.json``.  ``trace.overhead_s`` is the
traced minus the plain op wall time, per op.  Times of code that runs on
only some workloads (a suite, the cache load and save, the grid enumeration,
the Gregory origin sums) are shares of the traced op wall time (``_pct``):
elsewhere they are 0, a share and not a timer reading.

Each run writes a record with the git revision, the Python version, ``nproc``,
the seed and every raw number to ``.bench_out/``.  The digests and check
counts in ``reference.json`` were recorded from the program's output at the
revision that added this benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
SHIM = BENCH_DIR / "shim.py"
SPAWNER = BENCH_DIR / "spawner.py"

LAYERS = ("kernel", "bernoulli", "stirling", "values", "asymptotic", "verify", "cli")
SUITES = ("asym", "bernoulli", "choi", "gregory", "sign", "stirling", "values")
KINDS = ("mzf-reg", "mzf-rev", "mzsf-reg", "mzsf-rev")
ROUTES = {
    "mzf-reg": ["recurrence"],
    "mzf-rev": ["gregory", "recurrence", "stirling"],
    "mzsf-reg": ["recurrence"],
    "mzsf-rev": ["recurrence", "stirling"],
}
WORKLOADS = ("verify", "table", "query")

VERIFY_BOUNDS = {"full": (4, 6, 7), "smoke": (2, 2, 2)}  # max depth, weight, r
TABLE_GRID = {"full": (6, 7), "smoke": (2, 3)}  # max depth, max weight
# kind -> (min depth, max depth, weight cap as a function of depth)
QUERY_CAPS: Dict[str, Dict[str, Tuple[int, int, Callable[[int], int]]]] = {
    "full": {
        "mzf-reg": (1, 3, lambda d: 160),
        "mzf-rev": (1, 4, lambda d: 12 - d),
        "mzsf-reg": (1, 3, lambda d: 160),
        "mzsf-rev": (1, 4, lambda d: 24),
    },
    "smoke": {
        "mzf-reg": (1, 2, lambda d: 20),
        "mzf-rev": (1, 2, lambda d: 6 - d),
        "mzsf-reg": (1, 2, lambda d: 20),
        "mzsf-rev": (1, 2, lambda d: 6),
    },
}
MIN_QUERIES = 100  # so that at least 10 queries lie beyond p90
QUERY_STRATA = 10  # queries per kind in one block of the query list
TRACE_OPS = {"verify": 1, "table": 1, "query": 30}
SMOKE_OPS = {"verify": 1, "table": 1, "query": 8}
CALL_LIMIT_S = {"verify": 90.0, "table": 60.0, "query": 30.0}
TABLE_CALLS = len(KINDS)  # calls per table pass; an op is a cold and a cached pass
HARD_LIMIT_S = 150.0  # a run starts no call after this, so it exits within 180 s
SETUP_SAMPLES = 11  # set-up samples per timed run, at least
CAL_SECONDS = 0.3  # length of one host-speed reading
CAL_REF_S = 0.015  # the reference time of one calibration piece

# Values quoted in the README, checked once per run.
README_ORACLES = (
    (["value", "--kind", "mzf-rev", "--index", "1,1", "--path", "all", "--json"], "1/240"),
    (["coeff", "--index", "1,1", "--d", "1", "--a", "1,1", "--json"], "1/720"),
    (["stirling", "--kind", "S-poly", "--n", "2", "--m", "1", "--json"], "2*Y + 1"),
    (["stirling", "--kind", "s", "--n", "4", "--m", "2", "--json"], "11"),
)

FAILURE_KINDS = ("crash", "identity", "timeout", "bad-output")


class CheckFailed(Exception):
    """An output did not pass its check; ``kind`` is one of FAILURE_KINDS."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


# ---------------------------------------------------------------------------
# Running one CLI call
# ---------------------------------------------------------------------------


class Call(NamedTuple):
    argv: List[str]
    wall_s: float
    rss_kb: int
    exit: Optional[int]
    stdout: bytes
    stderr: str
    timed_out: bool
    spans: Optional[dict]
    import_s: Dict[str, float]
    cache_bytes: int


def child_env(cache_dir: Optional[Path] = None) -> Dict[str, str]:
    """The environment of every child: the checkout's sources, ``.pyc`` files
    written (so that only the warm-up compiles), and no cache unless given."""
    env = dict(os.environ)
    for name in ("MZV_CACHE_DIR", "PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(SRC)
    if cache_dir is not None:
        env["MZV_CACHE_DIR"] = str(cache_dir)
    return env


def _import_times(stderr: str) -> Tuple[str, Dict[str, float]]:
    """Split ``-X importtime`` lines off stderr; self seconds per mzv layer."""
    kept, layers = [], {}
    for line in stderr.splitlines(keepends=True):
        if not line.startswith("import time:"):
            kept.append(line)
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[-1].strip()
        if name.startswith("mzv.") and name[4:] in LAYERS:
            layers[name[4:]] = int(fields[0]) / 1e6
    return "".join(kept), layers


class Spawner:
    """The small process that starts every timed call (see ``spawner.py``)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(SPAWNER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=ROOT, env=child_env(), text=True,
        )

    def run(self, cmd: List[str], env: Dict[str, str], stdout: Path, stderr: Path, timeout: float) -> dict:
        request = {"cmd": cmd, "env": env, "cwd": str(ROOT), "stdout": str(stdout), "stderr": str(stderr), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CALL_LIMIT_S["verify"] + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs CLI calls one at a time, plainly or through the tracing shim."""

    def __init__(self, spawner: Spawner, workdir: Path, traced: bool, deadline: float) -> None:
        self.spawner = spawner
        self.workdir = workdir
        self.traced = traced
        self.deadline = deadline
        self.calls = 0

    def call(self, argv: List[str], limit_s: float, cache_dir: Optional[Path] = None) -> Call:
        self.calls += 1
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        spans_path = self.workdir / f"spans-{self.calls}.json"
        if self.traced:
            cmd = [sys.executable, "-X", "importtime", str(SHIM), str(spans_path), str(self.calls), "--"]
        else:
            cmd = [sys.executable, "-m", "mzv.cli"]
        timeout = min(limit_s, self.deadline - time.perf_counter())
        if timeout <= 0:
            return Call(argv, 0.0, 0, None, b"", "", True, None, {}, 0)
        done = self.spawner.run(cmd + argv, child_env(cache_dir), out_path, err_path, timeout)
        stderr, import_s = _import_times(err_path.read_text(encoding="utf-8", errors="replace"))
        spans = None
        if self.traced and spans_path.exists():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
        cache_file = cache_dir / "values.txt" if cache_dir is not None else None
        cache_bytes = cache_file.stat().st_size if cache_file is not None and cache_file.exists() else 0
        return Call(
            argv, done["wall_s"], done["rss_kb"], done["exit"], out_path.read_bytes(), stderr,
            done["timed_out"], spans, import_s, cache_bytes,
        )


def process_failure(call: Call) -> Optional[CheckFailed]:
    """How a call failed as a process, before its output is looked at."""
    if call.timed_out:
        return CheckFailed("timeout", f"no exit within the limit: {' '.join(call.argv)}")
    if "Traceback (most recent call last)" in call.stderr:
        last = call.stderr.strip().splitlines()[-1]
        return CheckFailed("crash", f"traceback ({last}): {' '.join(call.argv)}")
    if call.exit == 1:
        return CheckFailed("identity", f"exit 1 (an identity failed): {' '.join(call.argv)}")
    if call.exit != 0:
        return CheckFailed("crash", f"exit {call.exit}: {' '.join(call.argv)}")
    return None


def parse_json(call: Call) -> dict:
    try:
        return json.loads(call.stdout)
    except ValueError:
        raise CheckFailed("bad-output", f"unparsable output: {' '.join(call.argv)}") from None


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


class Oracles:
    """Independent values: zeta(-l) from sympy's Bernoulli numbers."""

    def __init__(self) -> None:
        try:
            import sympy
        except ImportError:
            self._bernoulli = None
        else:
            self._bernoulli = sympy.bernoulli
        self._zeta: Dict[int, Fraction] = {}
        self.checked = 0

    @property
    def available(self) -> bool:
        return self._bernoulli is not None

    def zeta_neg(self, l: int) -> Optional[Fraction]:
        """zeta(-l) = -B_{l+1} / (l + 1), with sympy's B_1 = +1/2."""
        if self._bernoulli is None:
            return None
        if l not in self._zeta:
            b = self._bernoulli(l + 1)
            self._zeta[l] = -Fraction(int(b.p), int(b.q)) / (l + 1)
        return self._zeta[l]

    def check_depth_one(self, query: str, index: Tuple[int, ...], text: str) -> None:
        if len(index) != 1:
            return
        expected = self.zeta_neg(index[0])
        if expected is None:
            return
        self.checked += 1
        if Fraction(text) != expected:
            raise CheckFailed("bad-output", f"{query} = {text}, sympy gives {expected}")


def check_readme_oracles(runner: Runner) -> List[str]:
    """Run the README examples; also the untimed warm-up that compiles .pyc files."""
    problems = []
    for argv, expected in README_ORACLES:
        call = runner.call(argv, 30.0)
        failure = process_failure(call)
        if failure is not None:
            problems.append(f"README oracle: {failure}")
            continue
        try:
            records = parse_json(call)["records"]
        except (CheckFailed, KeyError, TypeError) as exc:
            problems.append(f"README oracle: {exc}")
            continue
        values = {record.get("value") for record in records}
        if values != {expected}:
            problems.append(f"README oracle {' '.join(argv)}: got {sorted(values)}, expected {expected}")
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class OpResult(NamedTuple):
    wall_s: float
    items: int
    failure: Optional[CheckFailed]
    calls: List[Call]
    output_digests: List[Tuple[Optional[int], str]]


def run_op(runner: Runner, specs: List[Tuple[List[str], Optional[Path], Callable[[dict], int]]], limit_s: float) -> OpResult:
    """Run an op's calls in order; the op fails at its first failed call."""
    calls, digests, items, failure = [], [], 0, None
    for argv, cache_dir, check in specs:
        call = runner.call(argv, limit_s, cache_dir)
        calls.append(call)
        digests.append((call.exit, hashlib.sha256(call.stdout).hexdigest()))
        failure = process_failure(call)
        if failure is None:
            try:
                items += check(parse_json(call))
            except CheckFailed as exc:
                failure = exc
            except (KeyError, TypeError, ValueError) as exc:
                failure = CheckFailed("bad-output", f"{type(exc).__name__} {exc}: {' '.join(argv)}")
        if failure is not None:
            break
    return OpResult(sum(c.wall_s for c in calls), items, failure, calls, digests)


def verify_check(reference: Dict[str, int]) -> Callable[[dict], int]:
    def check(doc: dict) -> int:
        results = {res["suite"]: res for res in doc["results"]}
        if sorted(results) != sorted(SUITES):
            raise CheckFailed("bad-output", f"suites {sorted(results)}, expected {list(SUITES)}")
        for suite, res in results.items():
            if not res["ok"]:
                raise CheckFailed("identity", f"suite {suite}: {res['first_counterexample']}")
            if res["checked"] < reference[suite]:
                raise CheckFailed("bad-output", f"suite {suite} checked {res['checked']} < {reference[suite]}")
        if doc["ok"] is not True:
            raise CheckFailed("identity", "verify reports ok = false")
        return sum(res["checked"] for res in results.values())

    return check


def index_of(query: str, kind: str) -> Tuple[int, ...]:
    if not (query.startswith(kind + "(") and query.endswith(")")):
        raise CheckFailed("bad-output", f"query {query!r} is not of kind {kind}")
    return tuple(int(part) for part in query[len(kind) + 1:-1].split(","))


def table_check(kind: str, reference: dict, oracles: Oracles) -> Callable[[dict], int]:
    def check(doc: dict) -> int:
        records = doc["records"]
        digest = hashlib.sha256()
        for record in records:
            digest.update(f"{record['query']}={record['value']}\n".encode("ascii"))
            oracles.check_depth_one(record["query"], index_of(record["query"], kind), record["value"])
        if len(records) != reference["values"] or digest.hexdigest() != reference["sha256"]:
            raise CheckFailed("bad-output", f"table {kind}: {len(records)} values, digest {digest.hexdigest()[:16]} differs from the reference")
        return len(records)

    return check


def query_check(kind: str, index: Tuple[int, ...], oracles: Oracles) -> Callable[[dict], int]:
    def check(doc: dict) -> int:
        records = doc["records"]
        if doc.get("verdict") != "AGREE":
            raise CheckFailed("identity", f"verdict {doc.get('verdict')} for {kind} {index}")
        if [record["provenance"] for record in records] != ROUTES[kind]:
            raise CheckFailed("bad-output", f"routes {[r['provenance'] for r in records]} for {kind}")
        if len({record["value"] for record in records}) != 1:
            raise CheckFailed("identity", f"routes disagree for {kind} {index}")
        for record in records:
            if index_of(record["query"], kind) != index:
                raise CheckFailed("bad-output", f"answer {record['query']} to {kind} {index}")
            oracles.check_depth_one(record["query"], index, record["value"])
        return len(records)

    return check


def weak_composition(rng: random.Random, weight: int, depth: int) -> Tuple[int, ...]:
    """A uniform random tuple of ``depth`` entries >= 0 summing to ``weight``."""
    bars = sorted(rng.sample(range(weight + depth - 1), depth - 1))
    edges = [-1] + bars + [weight + depth - 1]
    return tuple(edges[i + 1] - edges[i] - 1 for i in range(depth))


class Workload:
    """The ops of one workload; ``blocks()`` yields lists of callables that run one op each."""

    def __init__(self, name: str, seed: int, size: str, reference: dict, oracles: Oracles, workdir: Path) -> None:
        self.name = name
        self.size = size
        self.rng = random.Random(f"{name}:{seed}")
        self.seed = seed
        self.reference = reference
        self.oracles = oracles
        self.workdir = workdir
        self.limit_s = CALL_LIMIT_S[name]
        self.kinds = list(KINDS)
        self.rng.shuffle(self.kinds)

    def _table_specs(self, cache_dir: Path):
        depth, weight = TABLE_GRID[self.size]
        ref = self.reference["table"][self.size]
        if (ref["max_depth"], ref["max_weight"]) != (depth, weight):
            raise SystemExit(f"reference.json holds digests for another table grid than {depth}, {weight}")
        return [
            (
                ["table", "--kind", kind, "--max-depth", str(depth), "--max-weight", str(weight), "--json"],
                cache_dir,
                table_check(kind, ref["digests"][kind], self.oracles),
            )
            for kind in self.kinds
        ]

    def blocks(self) -> Iterator[List[Callable[[Runner], OpResult]]]:
        """Ops in blocks; a timed run ends only between blocks."""
        if self.name == "verify":
            depth, weight, r = VERIFY_BOUNDS[self.size]
            argv = ["verify", "--suite", "all", "--max-depth", str(depth), "--max-weight", str(weight),
                    "--max-r", str(r), "--seed", str(self.seed), "--json"]
            check = verify_check(self.reference["verify"][self.size])
            while True:
                yield [lambda runner: run_op(runner, [(argv, None, check)], self.limit_s)]
        elif self.name == "table":
            while True:
                yield [self._table_op]
        else:
            while True:
                yield [
                    lambda runner, spec=spec: run_op(runner, [spec], self.limit_s)
                    for spec in self._query_block()
                ]

    def _query_block(self) -> List[Tuple[List[str], None, Callable[[dict], int]]]:
        """QUERY_STRATA queries per kind in a shuffled order.

        Within a kind, the weights of a block fall one in each of
        QUERY_STRATA equal slices of [0, cap] and the depths cycle from a
        random start.  Each query is still uniform over its kind's range, and
        every block has the same spread of sizes, so the percentiles of a run
        depend little on the seed.
        """
        specs = []
        for kind in KINDS:
            low, high, cap = QUERY_CAPS[self.size][kind]
            offset = self.rng.randrange(high - low + 1)
            for stratum in range(QUERY_STRATA):
                depth = low + (offset + stratum) % (high - low + 1)
                weight = int((stratum + self.rng.random()) * (cap(depth) + 1) / QUERY_STRATA)
                index = weak_composition(self.rng, weight, depth)
                argv = ["value", "--kind", kind, "--index", ",".join(map(str, index)), "--path", "all", "--json"]
                specs.append((argv, None, query_check(kind, index, self.oracles)))
        self.rng.shuffle(specs)
        return specs

    def _table_op(self, runner: Runner) -> OpResult:
        """A cold pass, then a cached pass of the same calls, in a fresh cache."""
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.workdir))
        try:
            specs = self._table_specs(cache_dir)
            return run_op(runner, specs + specs, self.limit_s)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


def _calibration_piece() -> Fraction:
    """A fixed piece of exact rational arithmetic, the kind of work ``mzv`` does."""
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i * i + 1)
    return total


class HostSpeed:
    """Readings of the host's speed between blocks of a timed run, and the
    scale of each op (see "At reference speed" in the module docstring)."""

    def __init__(self) -> None:
        self.readings: List[float] = []  # mean seconds of one calibration piece
        self.scales: List[float] = []  # per op: CAL_REF_S over the mean reading around it

    def read(self, ops_since_last: int) -> None:
        """Take a reading; the ops since the last one are scaled by both."""
        times: List[float] = []
        end = time.perf_counter() + CAL_SECONDS
        while not times or time.perf_counter() < end:
            start = time.perf_counter()
            _calibration_piece()
            times.append(time.perf_counter() - start)
        reading = statistics.fmean(times)
        if ops_since_last:
            around = (self.readings[-1] + reading) / 2 if self.readings else reading
            self.scales += [CAL_REF_S / around] * ops_since_last
        self.readings.append(reading)

    def scale_now(self) -> float:
        return CAL_REF_S / self.readings[-1]


class SetupProbe:
    """Seconds from spawning a fresh interpreter until ``import mzv.cli`` returns.

    A timed run takes one sample before each block of ops and tops up to
    SETUP_SAMPLES at the end, so that the median covers the whole run.  Each
    sample is scaled by the latest host-speed reading.
    """

    CODE = "import mzv.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.samples: List[float] = []
        self.problems: List[str] = []

    def sample(self, scale: float) -> None:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", self.CODE], stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=child_env())
        timer = threading.Timer(30.0, proc.kill)
        timer.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate()
        finally:
            timer.cancel()
        if line != b"ready\n" or proc.returncode != 0:
            self.problems.append(f"set-up: import mzv.cli failed: {err.decode(errors='replace').strip()[-200:]}")
        else:
            self.raw.append(elapsed)
            self.samples.append(elapsed * scale)


def percentile(values: List[float], share: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]


def end_to_end(setup: SetupProbe, speed: HostSpeed, results: List[OpResult]) -> Dict[str, dict]:
    scaled = [r.wall_s * scale for r, scale in zip(results, speed.scales) if r.failure is None]
    failed = sum(r.failure is not None for r in results)
    calls = [c for r in results for c in r.calls]
    metrics = {
        "setup_s": (statistics.median(setup.samples) if setup.samples else 0.0, "s"),
        "scaled_op_s": (statistics.median(scaled) if scaled else 0.0, "s"),
        "peak_rss_mb": (max((c.rss_kb for c in calls), default=0) / 1024, "MB"),
        "ok_ratio": (1 - failed / len(results) if results else 0.0, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def side_figures(name: str, setup: SetupProbe, speed: HostSpeed, results: List[OpResult]) -> Dict[str, str]:
    """Figures the report prints beside the bounded metrics, under the issue's names."""
    ok = [(r, scale) for r, scale in zip(results, speed.scales) if r.failure is None]
    if not ok:
        return {}
    scaled = [r.wall_s * scale for r, scale in ok]
    median = statistics.median(scaled)
    figures = {
        "wall_s": f"{statistics.median(r.wall_s for r, _ in ok):.4g} s (median op wall time, not scaled)",
        "unscaled_setup_s": f"{statistics.median(setup.raw):.4g} s" if setup.raw else "none",
        "host_piece_ms": f"{1000 * statistics.median(speed.readings):.4g} ms (reference {1000 * CAL_REF_S:g} ms)",
        "ops": str(len(ok)),
    }
    items = statistics.fmean(r.items for r, _ in ok)
    if name == "verify":
        figures["checks_per_s"] = f"{items / median:.4g} 1/s"
    elif name == "table":
        for label, part in (("cold_pass_s", slice(0, TABLE_CALLS)), ("cached_pass_s", slice(TABLE_CALLS, None))):
            figures[label] = f"{statistics.median(sum(c.wall_s for c in r.calls[part]) * scale for r, scale in ok):.4g} s"
        figures["values_per_s"] = f"{items / median:.4g} 1/s"
    else:
        figures["query_p50_s"] = f"{median:.4g} s"
        p90 = percentile(scaled, 0.9)
        figures["query_p90_s"] = f"{p90:.4g} s ({sum(v > p90 for v in scaled)} of {len(scaled)} queries beyond it)"
    figures["failed_ratio"] = f"{1 - len(ok) / len(results):.4f}"
    return figures


def per_layer(name: str, plain: List[OpResult], traced: List[OpResult]) -> Dict[str, dict]:
    """Per-layer metrics from the traced replay of the plain ops."""
    calls = [c for r in traced for c in r.calls]
    docs = [c.spans for c in calls if c.spans is not None]
    op_wall = sum(r.wall_s for r in traced) or 1.0
    metrics: Dict[str, Tuple[float, str]] = {}

    def func(qualname: str, key: str) -> float:
        return sum(d["funcs"].get(qualname, {}).get(key, 0) for d in docs)

    def pct(seconds: float) -> Tuple[float, str]:
        return 100.0 * seconds / op_wall, "%"

    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (sum(d["layers"][layer]["calls"] for d in docs), "count")
        self_s = sum(d["layers"][layer]["self_s"] for d in docs) + sum(c.import_s.get(layer, 0.0) for c in calls)
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.errors"] = (sum(d["layers"][layer]["errors"] for d in docs), "count")
    metrics["asymptotic.origin_rev_gregory_calls"] = (func("asymptotic.origin_rev_gregory", "calls"), "count")
    metrics["asymptotic.origin_rev_gregory_pct"] = pct(func("asymptotic.origin_rev_gregory", "cpu_s"))
    metrics["asymptotic.gregory_max_order"] = (max((d["counters"]["asymptotic.gregory_max_order"] for d in docs), default=0), "count")
    metrics["bernoulli.max_index"] = (max((d["max_arg"]["bernoulli"] for d in docs), default=0), "count")
    metrics["bernoulli.poly_cache_hits"] = (sum(d["counters"]["bernoulli.poly_cache_hits"] for d in docs), "count")
    metrics["bernoulli.poly_cache_misses"] = (sum(d["counters"]["bernoulli.poly_cache_misses"] for d in docs), "count")
    metrics["stirling.max_n"] = (max((d["max_arg"]["stirling"] for d in docs), default=0), "count")
    metrics["stirling.table_entries"] = (max((d["counters"]["stirling.table_entries"] for d in docs), default=0), "count")
    metrics["values.grid_enum_pct"] = pct(func("values.iter_index_tuples", "cpu_s"))
    metrics["values.grid_tuples"] = (sum(d["grid_tuples"] for d in docs), "count")
    loaded = sum(d["returns"].get("values.load_memo", 0) for d in docs)
    emitted = sum(r.items for r in traced) if name.startswith("table") else 0
    metrics["values.load_memo_pct"] = pct(func("values.load_memo", "wall_s"))
    metrics["values.load_memo_entries"] = (loaded, "count")
    metrics["values.save_memo_pct"] = pct(func("values.save_memo", "wall_s"))
    metrics["values.save_memo_entries"] = (sum(d["returns"].get("values.save_memo", 0) for d in docs), "count")
    metrics["values.cache_file_bytes"] = (max((c.cache_bytes for c in calls), default=0), "bytes")
    metrics["values.cache_load_ratio"] = (loaded / emitted if emitted else 0.0, "ratio")
    suite_wait = 0.0
    for suite in SUITES:
        qualname = f"verify.suite.{suite}"
        metrics[f"verify.{suite}_pct"] = pct(func(qualname, "cpu_s"))
        suite_wait += func(qualname, "wall_s") - func(qualname, "cpu_s")
    verified = [json.loads(c.stdout)["results"] for r in traced if r.failure is None for c in r.calls if c.argv[0] == "verify"]
    for suite in SUITES:
        checked = sum(res["checked"] for results in verified for res in results if res["suite"] == suite)
        metrics[f"verify.{suite}_checks"] = (checked, "count")
    metrics["verify.suite_wait_pct"] = pct(suite_wait)
    metrics["cli.output_bytes"] = (sum(len(c.stdout) for c in calls), "bytes")
    overhead = (sum(r.wall_s for r in traced) - sum(r.wall_s for r in plain)) / max(len(traced), 1)
    metrics["trace.overhead_s"] = (overhead, "s")
    return {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()}


def run_ops(workload: Workload, runner: Runner, seconds: float, count: Optional[int],
            speed: Optional[HostSpeed] = None, setup: Optional[SetupProbe] = None) -> List[OpResult]:
    """A fixed number of ops, or blocks of ops while the next block is expected
    to end before ``seconds`` plus half a block, so that a run of long ops
    ends near ``seconds`` on either side.  With ``speed``, the host speed is
    read before the first block and after each one, and ``setup`` takes a
    sample before each block."""
    results: List[OpResult] = []
    start = time.perf_counter()
    minimum = MIN_QUERIES if workload.name == "query" else 1
    blocks = 0
    if speed is not None:
        speed.read(0)
    for block in workload.blocks():
        if count is not None:
            if len(results) >= count:
                break
        elif len(results) >= minimum:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / blocks / 2 > seconds:
                break
        if setup is not None and speed is not None:
            setup.sample(speed.scale_now())
        before = len(results)
        for op in block:
            if (count is not None and len(results) >= count) or time.perf_counter() > runner.deadline:
                break
            results.append(op(runner))
        if speed is not None:
            speed.read(len(results) - before)
        blocks += 1
        if time.perf_counter() > runner.deadline:
            break
    return results


def git_revision() -> str:
    """HEAD of the checkout, or "unknown" when the checkout is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def load_reference(corrupt: bool) -> dict:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if corrupt:
        for size in reference["table"].values():
            for entry in size["digests"].values():
                entry["sha256"] = ("0" if entry["sha256"][0] != "0" else "1") + entry["sha256"][1:]
        for counts in reference["verify"].values():
            for suite in counts:
                counts[suite] += 1
    return reference


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, corrupt: bool) -> dict:
    """One run of one workload; returns the result object printed as the last line."""
    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S
    size = "smoke" if smoke else "full"
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    spawner = Spawner()
    try:
        reference = load_reference(corrupt)
        oracles = Oracles()
        plain_runner = Runner(spawner, workdir, traced=False, deadline=deadline)
        problems = check_readme_oracles(plain_runner)
        setup = SetupProbe()
        speed = HostSpeed()
        workload = Workload(name, seed, size, reference, oracles, workdir)
        count = SMOKE_OPS[name] if smoke else (TRACE_OPS[name] if trace else None)
        if trace:
            plain = run_ops(workload, plain_runner, seconds, count)
        else:
            plain = run_ops(workload, plain_runner, seconds, count, speed, setup)
            while len(setup.samples) < SETUP_SAMPLES and not setup.problems and time.perf_counter() < deadline:
                setup.sample(speed.scale_now())
        problems += setup.problems
        traced: List[OpResult] = []
        if trace:
            trace_runner = Runner(spawner, workdir, traced=True, deadline=deadline)
            replay = Workload(name, seed, size, reference, oracles, workdir)
            traced = run_ops(replay, trace_runner, seconds, len(plain))
            if [r.output_digests for r in traced] != [r.output_digests for r in plain]:
                problems.append("traced run: outputs or exit codes differ from the plain run")
            if [r.failure is None for r in traced] != [r.failure is None for r in plain]:
                problems.append("traced run: failed ops differ from the plain run")
        results = plain + traced
        failures = {kind: sum(r.failure is not None and r.failure.kind == kind for r in results) for kind in FAILURE_KINDS}
        failed = sum(failures.values())
        metrics = per_layer(name, plain, traced) if trace else end_to_end(setup, speed, plain)
        figures = {} if trace else side_figures(name, setup, speed, plain)
        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "size": size,
            "git_revision": git_revision(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "sympy_oracle": oracles.available,
            "sympy_values_checked": oracles.checked,
            "setup_samples_s": setup.samples,
            "setup_raw_s": setup.raw,
            "host_piece_s": speed.readings,
            "ops": [
                {
                    "wall_s": r.wall_s,
                    "scale": speed.scales[i] if i < len(speed.scales) else None,
                    "items": r.items,
                    "failure": None if r.failure is None else [r.failure.kind, str(r.failure)],
                    "calls": [{"argv": c.argv, "wall_s": c.wall_s, "rss_kb": c.rss_kb, "exit": c.exit} for c in r.calls],
                    "traced": i >= len(plain),
                }
                for i, r in enumerate(results)
            ],
            "failures": failures,
            "problems": problems,
            "metrics": metrics,
            "figures": figures,
            "run_s": time.perf_counter() - started,
        }
        record_path = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json"
        record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
        report(record, len(results))
        return {
            "correct": failed == 0 and not problems and bool(plain),
            "attempted": max(len(results), 1),
            "failed": failed if results else 1,
            "metrics": metrics,
        }
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)


def report(record: dict, attempted: int) -> None:
    failures = record["failures"]
    failed = sum(failures.values())
    print(f"# {record['workload']}  seed {record['seed']}  trace {record['trace']}  size {record['size']}  "
          f"ops {attempted}  revision {record['git_revision'][:12]}  python {record['python']}  nproc {record['nproc']}")
    print(f"#   failed_ratio {failed / max(attempted, 1):.4f}  "
          + "  ".join(f"{kind} {n}" for kind, n in failures.items()))
    for problem in record["problems"]:
        print(f"#   problem: {problem}")
    for op in record["ops"]:
        if op["failure"] is not None:
            print(f"#   failed op: {op['failure'][0]}: {op['failure'][1]}")
    for name, metric in record["metrics"].items():
        print(f"#   {name:40s} {metric['value']:.6g} {metric['unit']}")
    for name, text in record["figures"].items():
        print(f"#   ({name:38s} {text})")


def self_test() -> int:
    """Smoke-run every workload, then show that corrupted references fail."""
    ok = True
    script = str(Path(__file__).resolve())
    cases = [
        ("smoke, plain", ["--workload", "all", "--smoke", "--trace", "0"], True),
        ("smoke, traced", ["--workload", "all", "--smoke", "--trace", "1"], True),
        ("corrupted table digest", ["--workload", "table", "--smoke", "--corrupt-reference"], False),
        ("corrupted verify counts", ["--workload", "verify", "--smoke", "--corrupt-reference"], False),
    ]
    for label, args, should_pass in cases:
        proc = subprocess.run([sys.executable, script] + args, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else {}
        except ValueError:
            result = {}
        if "workloads" in result:
            correct = all(r["correct"] for r in result["workloads"].values())
        else:
            correct = result.get("correct")
        passed = (proc.returncode == 0 and correct is True) if should_pass else (proc.returncode != 0 and correct is False)
        ok &= passed
        print(f"self-test {label}: {'ok' if passed else 'FAILED'} (exit {proc.returncode}, correct {correct})")
        if not passed:
            print(proc.stdout[-2000:] + proc.stderr[-2000:])
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="each workload once at tiny size")
    parser.add_argument("--self-test", action="store_true", help="show that the output checks fire")
    parser.add_argument("--corrupt-reference", action="store_true", help="flip the reference digests and counts (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "mzv" / "cli.py").is_file():
        print(f"error: no mzv sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke, args.corrupt_reference)
            for name in WORKLOADS
        }
        print(json.dumps({"workloads": results}))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.corrupt_reference)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

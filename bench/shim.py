"""Run one ``mzv`` CLI call with timing wrappers on the layer boundaries.

Usage (the benchmark runs it; ``PYTHONPATH`` must point at ``src``)::

    python3 -X importtime bench/shim.py SPANS.json OP_ID -- <mzv argv ...>

The shim imports ``mzv``, installs the wrappers, calls
``mzv.cli.main(argv)`` and exits with its status, so stdout, stderr and the
exit code match ``python3 -m mzv.cli <argv>``.  When the call ends it writes
one JSON document to SPANS.json: the full span of the top-level op and, per
layer, the number of calls, the total and self time, and the calls that
raised.  ``-X importtime`` adds each module's own import time on stderr; the
benchmark parses those lines.

Where the wrappers go:

* every name that one ``mzv`` module binds to another ``mzv`` module's public
  function (``mzv.values.zeta_neg``, ``mzv.cli.run_suites``, ...), timed as
  a call into the module that defines the function;
* every method of the kernel classes ``RationalPolynomial`` and
  ``BivariateSeries``;
* two leaves inside a module, neither of them recursive, so the recursion
  depth of the value recurrences is unchanged: ``origin_rev_gregory`` as
  ``mzv.asymptotic`` looks it up (``rev_via_gregory`` reaches it only
  there), and the suite functions in ``mzv.verify._SUITES`` (to time each
  suite in its pool thread).

A module's other own globals stay untouched, so its recursion depth is
unchanged.  Generator functions (``iter_index_tuples``) are timed over their
iteration, one span per ``next``.

Layer times are thread CPU times (``time.thread_time``): the verification
suites run in a thread pool under the GIL, and a thread waiting for the lock
is not doing the layer's work.  Self time is a span's time minus the time of
the spans it called in the same thread.  Each suite span also keeps its wall
time, so the benchmark can report the time suites spent waiting.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

LAYERS = ("kernel", "bernoulli", "stirling", "values", "asymptotic", "verify", "cli")
KERNEL_CLASSES = ("RationalPolynomial", "BivariateSeries")
# Layers whose largest integer argument is reported as a table high-water mark.
_MAX_ARG_LAYERS = ("bernoulli", "stirling")
# Functions whose integer result (entries loaded or saved) is summed.
_COUNTED_RETURNS = ("values.load_memo", "values.save_memo")


class _ThreadState:
    """Span stack and aggregates of one thread, merged when the op ends."""

    def __init__(self) -> None:
        self.stack: list = []
        self.depth = {name: 0 for name in LAYERS}
        self.layers = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0} for name in LAYERS}
        self.funcs: dict = {}
        self.max_arg = {name: 0 for name in _MAX_ARG_LAYERS}
        self.returns: dict = {}
        self.grid_tuples = 0


class Tracer:
    """Per-layer and per-function span aggregates for one op."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _enter(self, layer: str, args: tuple):
        state = self._state()
        if layer in state.max_arg and args and type(args[0]) is int:
            if args[0] > state.max_arg[layer]:
                state.max_arg[layer] = args[0]
        state.depth[layer] += 1
        frame = [time.thread_time(), time.perf_counter(), 0.0]
        state.stack.append(frame)
        return state, frame

    def _exit(self, layer: str, qualname: str, state: _ThreadState, frame: list, failed: bool) -> None:
        cpu = time.thread_time() - frame[0]
        wall = time.perf_counter() - frame[1]
        stack = state.stack
        stack.pop()
        if stack:
            stack[-1][2] += cpu
        state.depth[layer] -= 1
        agg = state.layers[layer]
        agg["calls"] += 1
        agg["self_s"] += cpu - frame[2]
        if not state.depth[layer]:
            agg["total_s"] += cpu
        fn = state.funcs.get(qualname)
        if fn is None:
            fn = state.funcs[qualname] = {"calls": 0, "cpu_s": 0.0, "wall_s": 0.0, "errors": 0}
        fn["calls"] += 1
        fn["cpu_s"] += cpu
        fn["wall_s"] += wall
        if failed:
            agg["errors"] += 1
            fn["errors"] += 1

    def merged(self) -> dict:
        """Every thread's aggregates summed (maxima for the high-water marks)."""
        out = _ThreadState()
        for state in self._states:
            for layer, agg in state.layers.items():
                for key, val in agg.items():
                    out.layers[layer][key] += val
            for name, agg in state.funcs.items():
                into = out.funcs.setdefault(name, dict.fromkeys(agg, 0))
                for key, val in agg.items():
                    into[key] += val
            for layer, val in state.max_arg.items():
                out.max_arg[layer] = max(out.max_arg[layer], val)
            for name, val in state.returns.items():
                out.returns[name] = out.returns.get(name, 0) + val
            out.grid_tuples += state.grid_tuples
        return {
            "layers": out.layers,
            "funcs": out.funcs,
            "max_arg": out.max_arg,
            "returns": out.returns,
            "grid_tuples": out.grid_tuples,
        }

    def wrap(self, layer: str, qualname: str, fn):
        """A wrapper that times ``fn`` as a call into ``layer``."""
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    state, frame = tracer._enter(layer, args)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._exit(layer, qualname, state, frame, False)
                        return
                    except BaseException:
                        tracer._exit(layer, qualname, state, frame, True)
                        raise
                    tracer._exit(layer, qualname, state, frame, False)
                    state.grid_tuples += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state, frame = tracer._enter(layer, args)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(layer, qualname, state, frame, True)
                raise
            tracer._exit(layer, qualname, state, frame, False)
            if qualname in _COUNTED_RETURNS:
                state.returns[qualname] = state.returns.get(qualname, 0) + result
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap the layer boundaries of the imported ``mzv`` modules."""
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                owner = getattr(obj, "__module__", "") or ""
                if owner.startswith("mzv.") and owner != module.__name__:
                    target = owner[len("mzv."):]
                    if target in LAYERS:
                        setattr(module, name, self.wrap(target, f"{target}.{name}", obj))
        kernel = modules["kernel"]
        for cls_name in KERNEL_CLASSES:
            cls = getattr(kernel, cls_name)
            for name, attr in list(vars(cls).items()):
                qualname = f"kernel.{cls_name}.{name}"
                if isinstance(attr, classmethod):
                    setattr(cls, name, classmethod(self.wrap("kernel", qualname, attr.__func__)))
                elif isinstance(attr, staticmethod):
                    setattr(cls, name, staticmethod(self.wrap("kernel", qualname, attr.__func__)))
                elif isinstance(attr, property):
                    setattr(cls, name, property(self.wrap("kernel", qualname, attr.fget)))
                elif inspect.isfunction(attr):
                    setattr(cls, name, self.wrap("kernel", qualname, attr))
        asymptotic = modules["asymptotic"]
        asymptotic.origin_rev_gregory = self.wrap(
            "asymptotic", "asymptotic.origin_rev_gregory", asymptotic.origin_rev_gregory
        )
        suites = modules["verify"]._SUITES
        for name, fn in list(suites.items()):
            suites[name] = self.wrap("verify", f"verify.suite.{name}", fn)


def _cache_counters(modules: dict) -> dict:
    """Counters read from the library's own caches, 0 where a cache is gone."""
    poly = getattr(modules["bernoulli"], "bernoulli_poly", None)
    info = poly.cache_info() if hasattr(poly, "cache_info") else None
    stirling_entries = sum(
        obj.cache_info().currsize
        for obj in vars(modules["stirling"]).values()
        if hasattr(obj, "cache_info")
    )
    series = getattr(modules["asymptotic"], "_GREGORY_SERIES", [None])[0]
    return {
        "bernoulli.poly_cache_hits": info.hits if info else 0,
        "bernoulli.poly_cache_misses": info.misses if info else 0,
        "stirling.table_entries": stirling_entries,
        "asymptotic.gregory_max_order": getattr(series, "order", 0),
    }


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print("usage: shim.py SPANS.json OP_ID -- <mzv argv ...>", file=sys.stderr)
        return 2
    out_path, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[4:]
    start_time, start_wall, start_cpu = time.time(), time.perf_counter(), time.process_time()
    import mzv.cli

    modules = {name: sys.modules[f"mzv.{name}"] for name in LAYERS}
    tracer = Tracer()
    tracer.install(modules)
    status = None
    try:
        status = tracer.wrap("cli", "cli.main", mzv.cli.main)(argv)
    finally:
        document = {
            "op_id": op_id,
            "argv": argv,
            "op": {
                "name": "cli.main",
                "status": status,
                "start": start_time,
                "end": time.time(),
                "wall_s": time.perf_counter() - start_wall,
                "cpu_s": time.process_time() - start_cpu,
            },
            **tracer.merged(),
            "counters": _cache_counters(modules),
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())

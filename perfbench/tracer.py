"""Function-level tracing of the degsimsek package, installed from outside.

`Tracer.install()` replaces every binding of each public function of the
`degsimsek.*` modules with a wrapper that records a span: module-level
functions (including the copies that `from .x import f` leaves in other
modules), the methods of public classes (each alias such as
`__rmul__ = __mul__` gets its own wrapper) and functions held in
module-level dicts.  Private names (leading underscore) are not wrapped, so
their time counts as self time of the public function that called them.

Spans are folded into per-name aggregates as they close (calls, total time,
self time) to keep memory flat; the coarse spans near the root of each call
tree are also kept whole and written out at the end.  Self time is a span's
duration minus the part covered by its child spans.  Each thread keeps its
own parent stack.  A span that opens on an empty stack in a worker thread is
a child of the span open in the main thread at that moment (the registry's
thread pool runs jobs on behalf of `run_suite`), and its parent's self time
excludes the union of such intervals, so time spent waiting on the pool is
not counted as busy.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
import types

MODULES = ("algebra", "classical", "degenerate", "simsek", "phi", "registry",
           "reports", "tables", "cli")

# spans at this depth or shallower are kept whole, as are the jobs of
# registry.run_suite wherever they sit
SPAN_DEPTH = 2
RUN_SUITE = "registry.run_suite"


class _ThreadState:
    __slots__ = ("stack", "agg", "counters", "spans")

    def __init__(self):
        self.stack = []      # open frames: [name, start, child_s, cross, depth]
        self.agg = {}        # span name -> [calls, total_s, self_s]
        self.counters = {}   # counter name -> number
        self.spans = []      # (name, depth, start, end, parent name, thread)


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._main = self._state()
        self.wrapped = set()     # span names that have a wrapper
        self.absent = set()      # probes whose target is gone
        self._wrappers = {}      # id(function) -> wrapper, module-level only

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name, func, namer=None, hook=None):
        """A wrapper of `func` recording spans called `name` (or
        `name + "." + namer(args)`); `hook(counters, args, kwargs)` runs
        before the call."""
        tracer = self
        main = self._main
        ident = threading.get_ident
        main_ident = ident()
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            try:
                state = tracer._local.state
            except AttributeError:
                state = tracer._state()
            stack = state.stack
            cross = False
            if stack:
                parent = stack[-1]
            elif ident() != main_ident:
                top = main.stack[-1:]   # the main thread may pop meanwhile
                parent = top[0] if top else None
                cross = parent is not None
            else:
                parent = None
            span = name if namer is None else name + "." + namer(args)
            if hook is not None:
                hook(state.counters, args, kwargs)
            depth = 0 if parent is None else parent[4] + 1
            frame = [span, 0.0, 0.0, None, depth]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s = duration - frame[2]
                if frame[3]:
                    self_s -= _union_length(frame[3])
                entry = state.agg.get(span)
                if entry is None:
                    entry = state.agg[span] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += max(self_s, 0.0)
                parent_name = None
                if parent is not None:
                    parent_name = parent[0]
                    if cross:
                        with tracer._lock:
                            if parent[3] is None:
                                parent[3] = []
                            parent[3].append((start, end))
                    else:
                        parent[2] += duration
                if depth <= SPAN_DEPTH or parent_name == RUN_SUITE:
                    state.spans.append((span, depth, start, end, parent_name,
                                        ident()))

        self.wrapped.add(name)
        return traced

    def install(self, package) -> None:
        """Wrap every public function and method defined in the package's
        source files, in every module of the package that binds it."""
        root = os.path.dirname(os.path.abspath(package.__file__))
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]

        def ours(func) -> bool:
            return (isinstance(func, types.FunctionType)
                    and os.path.abspath(func.__code__.co_filename).startswith(root))

        def short(module_name: str) -> str:
            return module_name.rsplit(".", 1)[-1]

        def module_wrapper(func):
            wrapper = self._wrappers.get(id(func))
            if wrapper is None:
                name = f"{short(func.__module__)}.{func.__name__}"
                namer, hook = self._probes(name, func)
                wrapper = self.wrap(name, func, namer, hook)
                self._wrappers[id(func)] = wrapper
            return wrapper

        done_classes = set()
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if ours(value) and not value.__name__.startswith("_"):
                    setattr(module, attr, module_wrapper(value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if ours(item) and not item.__name__.startswith("_"):
                            value[key] = module_wrapper(item)
                elif (isinstance(value, type) and id(value) not in done_classes
                      and not value.__name__.startswith("_")
                      and value.__module__.startswith(package.__name__)):
                    done_classes.add(id(value))
                    self._wrap_class(value, short(value.__module__), ours)

    def _wrap_class(self, cls, module_short, ours) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not (attr.startswith("__")
                                             and attr.endswith("__")):
                continue
            kind = None
            func = raw
            if isinstance(raw, (classmethod, staticmethod)):
                kind = type(raw)
                func = raw.__func__
            if not ours(func):
                continue
            name = f"{module_short}.{cls.__name__}.{attr}"
            namer, hook = self._probes(name, func)
            wrapper = self.wrap(name, func, namer, hook)
            setattr(cls, attr, wrapper if kind is None else kind(wrapper))

    # -- probes for the layer metrics -----------------------------------------

    def _probes(self, name, func):
        """(namer, hook) for the spans that feed a counter or a split."""
        if name in ("algebra.TruncSeries.__mul__", "algebra.TruncSeries.__rmul__"):
            return _series_ring_kind, None
        if name == "classical.degenerate_falling":
            return None, _count_series_factors(inspect.signature(func))
        if name == "simsek.fk_series":
            simsek = sys.modules.get(func.__module__)
            cache = getattr(simsek, "_fk_cache", None)
            if not isinstance(cache, dict):
                self.absent.add("simsek.fk_series.hit_ratio")
                return None, None
            return None, _count_fk_hits(inspect.signature(func), cache)
        return None, None

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates, counters and coarse spans merged over all threads."""
        agg: dict[str, list] = {}
        counters: dict[str, float] = {}
        spans = []
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, self_s) in state.agg.items():
                entry = agg.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
            for name, value in state.counters.items():
                counters[name] = counters.get(name, 0) + value
            spans.extend(state.spans)
        spans.sort(key=lambda s: s[2])
        return {"agg": agg, "counters": counters, "spans": spans,
                "wrapped": sorted(self.wrapped), "absent": sorted(self.absent)}


def _series_ring_kind(args) -> str:
    ring = getattr(args[0], "ring", None)
    name = getattr(ring, "name", "")
    if name == "QQ":
        return "qq"
    if name == "QQ[l,a]":
        return "pp"
    return "nested"


def _count_series_factors(signature):
    def hook(counters, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        x, n = bound.arguments["x"], bound.arguments["n"]
        if hasattr(x, "coeffs") and isinstance(n, int) and n > 0:
            counters["series_factors"] = counters.get("series_factors", 0) + n
    return hook


def _count_fk_hits(signature, cache):
    def hook(counters, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        arguments = bound.arguments
        hit = False
        if arguments.get("lam") is None and arguments.get("alpha") is None:
            cached = cache.get(arguments["k"])
            hit = cached is not None and cached.order >= arguments["order"]
        counters["fk_hits"] = counters.get("fk_hits", 0) + hit
        counters["fk_calls"] = counters.get("fk_calls", 0) + 1
    return hook


def _sum(agg, names, column) -> float:
    return sum(agg[n][column] for n in names if n in agg)


def layer_metrics(snapshot: dict) -> tuple[dict, list]:
    """The per-layer metric values of one traced unit, and the names of the
    metrics whose functions no longer exist (reported as 0)."""
    agg = snapshot["agg"]
    counters = snapshot["counters"]
    wrapped = set(snapshot["wrapped"])
    absent = set(snapshot["absent"])
    values = {}

    def need(metric, *functions):
        if not any(f in wrapped for f in functions):
            absent.add(metric)

    def by_prefix(names, prefix):
        return [n for n in names if n.startswith(prefix)]

    for module in MODULES:
        need(f"{module}.calls", *by_prefix(wrapped, module + "."))
        need(f"{module}.self_s", *by_prefix(wrapped, module + "."))
        names = by_prefix(agg, module + ".")
        values[f"{module}.calls"] = _sum(agg, names, 0)
        values[f"{module}.self_s"] = _sum(agg, names, 2)

    poly_mul = ["algebra.ParamPoly.__mul__", "algebra.ParamPoly.__rmul__"]
    need("algebra.poly_mul.calls", *poly_mul)
    need("algebra.poly_mul.self_s", *poly_mul)
    values["algebra.poly_mul.calls"] = _sum(agg, poly_mul, 0)
    values["algebra.poly_mul.self_s"] = _sum(agg, poly_mul, 2)

    poly_eval = ["algebra.ParamPoly.evaluate"]
    need("algebra.poly_eval.calls", *poly_eval)
    need("algebra.poly_eval.self_s", *poly_eval)
    values["algebra.poly_eval.calls"] = _sum(agg, poly_eval, 0)
    values["algebra.poly_eval.self_s"] = _sum(agg, poly_eval, 2)

    series_mul = ["algebra.TruncSeries.__mul__", "algebra.TruncSeries.__rmul__"]
    for kind in ("qq", "pp", "nested"):
        metric = f"algebra.series_mul.{kind}.self_s"
        need(metric, *series_mul)
        values[metric] = _sum(agg, [f"{n}.{kind}" for n in series_mul], 2)

    need("algebra.series_build.calls", "algebra.TruncSeries.__init__")
    values["algebra.series_build.calls"] = _sum(
        agg, ["algebra.TruncSeries.__init__"], 0)

    need("classical.degenerate_falling.series_factors",
         "classical.degenerate_falling")
    values["classical.degenerate_falling.series_factors"] = counters.get(
        "series_factors", 0)

    need("simsek.fk_series.calls", "simsek.fk_series")
    need("simsek.fk_series.hit_ratio", "simsek.fk_series")
    values["simsek.fk_series.calls"] = _sum(agg, ["simsek.fk_series"], 0)
    fk_calls = counters.get("fk_calls", 0)
    values["simsek.fk_series.hit_ratio"] = (
        counters.get("fk_hits", 0) / fk_calls if fk_calls else 0.0)

    s2star = ["degenerate.new_deg_stirling2"]
    need("degenerate.s2star.self_s", *s2star)
    values["degenerate.s2star.self_s"] = _sum(agg, s2star, 2)

    apostol = ["degenerate.apostol_euler", "degenerate.apostol_euler_series"]
    need("degenerate.apostol_euler.self_s", *apostol)
    values["degenerate.apostol_euler.self_s"] = _sum(agg, apostol, 2)

    need("phi.phi_series.calls", "phi.phi_series")
    values["phi.phi_series.calls"] = _sum(agg, ["phi.phi_series"], 0)

    # the direct children of run_suite: cache warm-up, then the jobs
    warm = [s for s in snapshot["spans"]
            if s[4] == RUN_SUITE and s[0].endswith(".warm_caches")]
    jobs = [s for s in snapshot["spans"]
            if s[4] == RUN_SUITE and not s[0].endswith(".warm_caches")]
    need("registry.warmup_s", *[n for n in wrapped if n.endswith(".warm_caches")])
    need("registry.job_busy_s", RUN_SUITE)
    need("registry.job_phase_wall_s", RUN_SUITE)
    values["registry.warmup_s"] = sum(s[3] - s[2] for s in warm)
    values["registry.job_busy_s"] = sum(s[3] - s[2] for s in jobs)
    values["registry.job_phase_wall_s"] = (
        max(s[3] for s in jobs) - min(s[2] for s in jobs) if jobs else 0.0)

    guards = {
        "tables.build_s": ["tables.build_table"],
        "tables.render_s": ["tables.render_csv", "tables.render_json"],
        "reports.serialise_s": ["reports.reports_to_json",
                                "reports.reports_to_csv"],
        "cli.main_s": ["cli.main"],
    }
    for metric, names in guards.items():
        need(metric, *names)
        values[metric] = _sum(agg, names, 1)

    for metric in absent:
        values[metric] = 0
    return values, sorted(absent)

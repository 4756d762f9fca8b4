"""Per-layer tracing of tropcount, installed from outside the package.

Each layer is timed by replacing a name that tropcount resolves at call
time (a module attribute such as ``engine.match_constraints``) with a
wrapper that records a span: layer, start, end and the enclosing span.
Nothing in the package changes, and ``uninstall`` puts the originals
back.  Spans stay in memory until ``dump`` writes them out at the end of
a run; ``summarize`` turns them into the per-layer metrics.

If a wrapped name no longer exists, ``install`` raises and names it, so
a renamed function can never show up as a layer that reads zero.
"""

import json
import time
from collections import Counter


class TraceTargetMissing(AttributeError):
    pass


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, index of enclosing span or -1]
        self.counts = Counter()
        self._stack = []
        self._attempt_starts = []
        self._patched = []

    # -- spans -------------------------------------------------------------

    def _open(self, layer):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _timed(self, layer, after=None):
        def wrap(fn):
            def traced(*args, **kwargs):
                idx = self._open(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                if after is not None:
                    after(result, args, kwargs)
                return result
            return traced
        return wrap

    def begin_count(self):
        self._attempt_starts = []

    def end_count(self):
        """Close one count: attempts before the last ended non-general."""
        starts = self._attempt_starts
        if starts:
            self.counts["engine.discarded_s"] += starts[-1] - starts[0]
        self._attempt_starts = []

    # -- installation ------------------------------------------------------

    def _patch(self, module, name, wrap):
        if not hasattr(module, name):
            raise TraceTargetMissing(
                "trace target %s.%s no longer exists; update "
                "perfbench/tracer.py" % (module.__name__, name))
        orig = getattr(module, name)
        setattr(module, name, wrap(orig))
        self._patched.append((module, name, orig))

    def install(self):
        from tropcount import _kernel, cli, engine, matching, multiplicity
        from tropcount._kernel import pure

        counts = self.counts

        def after_types(result, args, kwargs):
            counts["curves.types"] += len(result)

        def after_search(result, args, kwargs):
            status, cands = result
            counts["kernel.candidates"] += len(cands)
            if status == _kernel.STATUS_NON_GENERAL:
                counts["kernel.non_general"] += 1

        def after_match(result, args, kwargs):
            if result.status == matching.UNIQUE:
                counts["matching.unique"] += 1

        def after_problem(problem, args, kwargs):
            codim = sum(problem.n - 1 - len(b)
                        for b in problem.constraint_bases)
            counts["degrees.refined"] += len(problem.degrees)
            counts["degrees.active"] += sum(
                codim == d.e + problem.n - 3 for d in problem.degrees)

        def fallback(fn):
            def traced(*args, **kwargs):
                if _kernel.implementation() == "compiled":
                    counts["kernel.fallbacks"] += 1
                return fn(*args, **kwargs)
            return traced

        def attempt(fn):
            def traced(*args, **kwargs):
                self._attempt_starts.append(time.perf_counter())
                counts["engine.attempts"] += 1
                retry = kwargs.get("retry", args[4] if len(args) > 4 else 0)
                if retry > 0:
                    counts["engine.retries"] += 1
                return fn(*args, **kwargs)
            return traced

        self._patch(engine, "unmarked_types", self._timed("curves", after_types))
        self._patch(_kernel, "search_points", self._timed("kernel", after_search))
        self._patch(pure, "search_points", fallback)
        self._patch(engine, "_kernel_inputs", self._timed("inputs"))
        for module in (engine, matching, multiplicity):
            self._patch(module, "quotient_map", self._timed("lattice"))
        self._patch(engine, "match_constraints",
                    self._timed("matching", after_match))
        self._patch(engine, "verify_general", self._timed("verify"))
        self._patch(engine, "total_multiplicity", self._timed("verify"))
        self._patch(engine, "problem_from_json",
                    self._timed("degrees", after_problem))
        self._patch(engine, "generate_constraints", attempt)
        self._patch(engine, "ProcessPoolExecutor", self._pool_class)
        self._patch(cli, "_load", self._timed("cli.load"))
        self._patch(engine, "report_to_json", self._timed("cli.emit"))
        self._patch(cli, "_emit", self._timed("cli.emit"))

    def uninstall(self):
        while self._patched:
            module, name, orig = self._patched.pop()
            setattr(module, name, orig)

    def _pool_class(self, real):
        tracer = self

        class TracedPool:
            """The engine's executor; times the waits on it from outside."""

            def __init__(self, *args, **kwargs):
                self._pool = real(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                iterables = [list(it) for it in iterables]
                tracer.counts["pool.tasks"] += len(iterables[0])
                idx = tracer._open("pool.wait")
                try:
                    results = self._pool.map(fn, *iterables, **kwargs)
                finally:
                    tracer._close(idx)
                return tracer._waited(results)

            def shutdown(self, *args, **kwargs):
                idx = tracer._open("pool.shutdown")
                try:
                    return self._pool.shutdown(*args, **kwargs)
                finally:
                    tracer._close(idx)

            def __getattr__(self, name):
                return getattr(self._pool, name)

        return TracedPool

    def _waited(self, results):
        while True:
            idx = self._open("pool.wait")
            try:
                item = next(results)
            except StopIteration:
                return
            finally:
                self._close(idx)
            yield item

    # -- output ------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fp:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fp)


def load(path):
    with open(path) as fp:
        data = json.load(fp)
    return data["spans"], Counter(data["counts"])


def self_times(spans):
    """Per-layer call counts and self time: each span's duration minus
    the durations of the spans directly inside it."""
    calls = Counter()
    busy = Counter()
    for layer, start, end, parent in spans:
        dur = end - start
        calls[layer] += 1
        busy[layer] += dur
        if parent >= 0:
            busy[spans[parent][0]] -= dur
    return calls, busy


# units of the per-layer metrics, in the order of BENCHMARK.json
PER_LAYER = {
    "curves.calls": "count",
    "curves.busy_s": "s",
    "curves.types": "count",
    "kernel.calls": "count",
    "kernel.busy_s": "s",
    "kernel.candidates": "count",
    "kernel.non_general": "count",
    "kernel.fallbacks": "count",
    "inputs.calls": "count",
    "inputs.busy_s": "s",
    "lattice.calls": "count",
    "lattice.busy_s": "s",
    "matching.calls": "count",
    "matching.busy_s": "s",
    "matching.yield": "ratio",
    "verify.calls": "count",
    "verify.busy_s": "s",
    "verify.yield": "ratio",
    "degrees.busy_s": "s",
    "degrees.refined": "count",
    "degrees.active": "count",
    "engine.attempts": "count",
    "engine.retries": "count",
    "engine.discarded_s": "s",
    "pool.tasks": "count",
    "pool.wait_s": "s",
    "pool.shutdown_s": "s",
    "cli.load_s": "s",
    "cli.emit_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}


def summarize(spans, counts, records):
    """Per-layer metrics (all but trace.*) from one traced pass.

    records is the number of curve records the traced counts returned.
    """
    calls, busy = self_times(spans)
    load_s = 0.0
    if calls["cli.load"]:
        # the CLI's load step is its JSON read plus problem_from_json
        load_s = sum(e - s for layer, s, e, _ in spans
                     if layer in ("cli.load", "degrees"))
    cands = counts["kernel.candidates"]
    out = {
        "curves.calls": calls["curves"],
        "curves.busy_s": busy["curves"],
        "curves.types": counts["curves.types"],
        "kernel.calls": calls["kernel"],
        "kernel.busy_s": busy["kernel"],
        "kernel.candidates": cands,
        "kernel.non_general": counts["kernel.non_general"],
        "kernel.fallbacks": counts["kernel.fallbacks"],
        "inputs.calls": calls["inputs"],
        "inputs.busy_s": busy["inputs"],
        "lattice.calls": calls["lattice"],
        "lattice.busy_s": busy["lattice"],
        "matching.calls": calls["matching"],
        "matching.busy_s": busy["matching"],
        "matching.yield": (counts["matching.unique"] / calls["matching"]
                           if calls["matching"] else 0.0),
        "verify.calls": calls["verify"],
        "verify.busy_s": busy["verify"],
        "verify.yield": records / cands if cands else 0.0,
        "degrees.busy_s": busy["degrees"],
        "degrees.refined": counts["degrees.refined"],
        "degrees.active": counts["degrees.active"],
        "engine.attempts": counts["engine.attempts"],
        "engine.retries": counts["engine.retries"],
        "engine.discarded_s": float(counts["engine.discarded_s"]),
        "pool.tasks": counts["pool.tasks"],
        "pool.wait_s": busy["pool.wait"],
        "pool.shutdown_s": busy["pool.shutdown"],
        "cli.load_s": load_s,
        "cli.emit_s": busy["cli.emit"],
    }
    return out

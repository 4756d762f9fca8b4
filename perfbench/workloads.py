"""The benchmark's workloads and the checked loop that runs their counts.

Why each workload exists, and which layer it isolates, is in README.md
beside this file.  Inputs come only from the workload seed: each round
of a workload draws one count seed from it and runs every problem of
the workload with that seed.
"""

import json
import os
import random
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT = 150

LINE_DIRECTIONS = ((0, 1, 1), (1, 0, 0), (0, 1, 0), (1, 0, 1))


def _problem(rank, source, bases):
    return {"rank": rank, "degree_source": source,
            "constraints": {"kind": "generate", "bases": bases}}


FLAG3_13 = _problem(3, {"kind": "flag3", "class": [1, 3]}, [[]] * 4)
PLANE_2 = _problem(2, {"kind": "explicit", "degrees": [{"entries":
                   [[[-1, 0], 1]] * 2 + [[[0, -1], 1]] * 2 +
                   [[[1, 1], 1]] * 2}]}, [[]] * 5)
# one point and two lines, over every distribution of the two line
# directions among the octahedron's four (acceptance criterion 6)
MIXED = [_problem(3, {"kind": "octahedron", "class": 2},
                  [[], [list(a)], [list(b)]])
         for i, a in enumerate(LINE_DIRECTIONS)
         for b in LINE_DIRECTIONS[i:]]


class Workload:
    def __init__(self, name, problems, anchor, workers=1, cold=False,
                 traced_counts=10):
        self.name = name
        self.problems = problems
        self.anchor = anchor
        self.workers = workers
        self.cold = cold
        self.traced_counts = traced_counts

    def schedule(self, seed):
        """Endless (problem, count seed) pairs."""
        rng = random.Random("%s:%d" % (self.name, seed))
        while True:
            count_seed = rng.randrange(2 ** 31)
            for data in self.problems:
                yield data, count_seed

    def warm_up_seed(self, seed):
        return random.Random("%s:%d:warm-up" % (self.name, seed)) \
            .randrange(2 ** 31)

    def anchor_value(self):
        return self.anchor() if callable(self.anchor) else self.anchor


def plane_oracle_2():
    from tropcount import engine
    value = engine.kontsevich_oracle(2)
    if value != 1:
        raise SystemExit("kontsevich_oracle(2) returned %r, not 1" % (value,))
    return value


WORKLOADS = {w.name: w for w in (
    Workload("points-cold", [FLAG3_13], 0, cold=True, traced_counts=2),
    Workload("points-warm", [PLANE_2], plane_oracle_2, traced_counts=40),
    Workload("mixed-sweep", MIXED, 3),
    Workload("mixed-sweep-2w", MIXED, 3, workers=2),
)}


def child_env():
    """The caller's environment with the source tree on PYTHONPATH; the
    kernel lane is left to whatever the package selects."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# -- one count ---------------------------------------------------------------

def count_in_process(data, seed, workers, tracer=None):
    from tropcount import engine
    if tracer is not None:
        tracer.begin_count()
    try:
        problem = engine.problem_from_json(data)
        report = engine.count_invariant(problem, seed=seed, workers=workers)
    finally:
        if tracer is not None:
            tracer.end_count()
    return (report.total, sum(len(r.curves) for r in report.per_degree),
            report.kernel)


def count_cold(problem_path, seed, spans_path=None):
    """One `tropcount count` process, timed by the caller from spawn to
    exit; the total comes from its JSON report, not its exit code."""
    cmd = [sys.executable]
    cmd += ([str(HERE / "traced_cli.py"), spans_path] if spans_path
            else ["-m", "tropcount.cli"])
    cmd += ["count", "--problem", problem_path, "--seed", str(seed)]
    proc = subprocess_run(cmd)
    report = json.loads(proc.stdout)
    return (report["total"],
            sum(len(d["curves"]) for d in report["per_degree"]),
            report["kernel"])


def subprocess_run(cmd, timeout=CHILD_TIMEOUT):
    """Run a Python child from the checkout root; raise if it fails."""
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=child_env(), timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (
            " ".join(cmd[1:3]), proc.returncode, proc.stderr.strip()[-2000:]))
    return proc


def counter(wl, tmp, workers=None, tracer=None):
    """count(data, seed) -> (total, curve records, kernel lane)."""
    workers = wl.workers if workers is None else workers
    if not wl.cold:
        return lambda data, seed: count_in_process(data, seed, workers,
                                                   tracer)
    path = os.path.join(tmp, "problem.json")
    with open(path, "w") as fp:
        json.dump(wl.problems[0], fp)
    if tracer is None:
        return lambda data, seed: count_cold(path, seed)

    def traced_cold(data, seed):
        spans_path = os.path.join(tmp, "spans-%d.json" % seed)
        result = count_cold(path, seed, spans_path)
        spans, counts = tracing.load(spans_path)
        base = len(tracer.spans)
        tracer.spans.extend([layer, s, e, p + base if p >= 0 else -1]
                            for layer, s, e, p in spans)
        tracer.counts.update(counts)
        return result
    return traced_cold


# -- the checked loop ----------------------------------------------------------

class Pass:
    """Checked counts of one loop: latencies of those that passed."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.records = 0
        self.lanes = set()
        self.wall = 0.0

    def add(self, other):
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.records += other.records
        self.lanes |= other.lanes
        self.wall += other.wall


def run_counts(count, pairs, anchor, until=None, between=None):
    """Run count(data, seed) over pairs, checking every total.

    Stops after the first count that ends at or past `until`, or when
    pairs run out.  A wrong total or an exception counts as failed.
    between(), if given, runs before each count; its time is left out
    of the wall time and moves `until` back.
    """
    out = Pass()
    paused = 0.0
    start = time.perf_counter()
    for data, seed in pairs:
        if between is not None:
            t0 = time.perf_counter()
            between()
            paused += time.perf_counter() - t0
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            total, records, lane = count(data, seed)
        except Exception:
            out.failed += 1
            print("count failed (seed %d):\n%s"
                  % (seed, traceback.format_exc()), file=sys.stderr)
        else:
            dt = time.perf_counter() - t0
            if total == anchor:
                out.latencies.append(dt)
                out.records += records
                out.lanes.add(lane)
            else:
                out.failed += 1
                print("wrong total %r, want %r (seed %d)"
                      % (total, anchor, seed), file=sys.stderr)
        if until is not None and time.perf_counter() - paused >= until:
            break
    out.wall = time.perf_counter() - start - paused
    return out


def warm_up(wl, count, seed, anchor):
    """One untimed count in-process, so type caches are full before
    timing; a cold count pays for them every time, so it gets none."""
    if wl.cold:
        return Pass()
    return run_counts(count, [(wl.problems[0], wl.warm_up_seed(seed))],
                      anchor)

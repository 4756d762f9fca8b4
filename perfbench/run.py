"""Benchmark of tropcount counts, end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload is a closed loop with one client: the next count starts
when the previous one has returned and its total has been checked
against the workload's known value.  No time is reported unless every
count of the run passed; a wrong total or an exception makes the
command exit 1.

--trace 0 measures set-up, then runs counts for --seconds seconds in a
fresh process (loop.py) and reports the end-to-end metrics.  --trace 1
runs a fixed list of counts, each untraced and then with layer tracing
installed (tracer.py), and reports the per-layer metrics; its counts
repeat exactly for one seed, so it does not depend on --seconds.  The
last line of output is one JSON object.  README.md beside this file
describes the workloads and the metrics.
"""

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import tracer as tracing
import workloads as wls

OUT = wls.ROOT / ".perfbench"
SETUP_PER_PAUSE = 2
SETUP_CODE = "import tropcount.cli, tropcount._kernel as k; k.implementation()"

END_TO_END = {
    "setup_s": "s",
    "counts_per_s": "1/s",
    "count_p50_s": "s",
    "count_tail_s": "s",
    "peak_rss_mb": "MB",
}


def setup_times(n):
    """Spawn-to-exit times of n fresh interpreters that import the CLI
    and select the kernel lane."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        wls.subprocess_run([sys.executable, "-c", SETUP_CODE])
        times.append(time.perf_counter() - t0)
    return times


def tail(latencies):
    """(value, percentile): the highest percentile with at least 10
    samples beyond it; the maximum when there are 10 or fewer."""
    s = sorted(latencies)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def measure(wl, seed, seconds):
    """Run loop.py for the workload, measuring set-up whenever it pauses."""
    setup = []
    last = ""
    cmd = [sys.executable, str(wls.HERE / "loop.py"), wl.name, str(seed),
           repr(seconds)]
    with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True, cwd=wls.ROOT, env=wls.child_env()) as proc:
        for line in proc.stdout:
            if line == "setup\n":
                setup += setup_times(SETUP_PER_PAUSE)
                proc.stdin.write("go\n")
                proc.stdin.flush()
            else:
                last = line
    if proc.returncode != 0:
        raise RuntimeError("loop.py exited %d" % proc.returncode)
    data = json.loads(last)
    res = wls.Pass()
    res.attempted, res.failed = data["attempted"], data["failed"]
    res.lanes = set(data["lanes"])
    lat = data["latencies"]
    if not lat:
        return res, {}, {}
    value, pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup),
        "counts_per_s": len(lat) / data["wall"],
        "count_p50_s": statistics.median(lat),
        "count_tail_s": value,
        "peak_rss_mb": data["peak_rss_kb"] / 1024,
    }
    notes = {
        "setup_s": "median of %d fresh interpreters across the run"
                   % len(setup),
        "counts_per_s": "%d counts in %.2f s" % (len(lat), data["wall"]),
        "count_p50_s": "n=%d" % len(lat),
        "count_tail_s": "p%.1f of n=%d" % (pct, len(lat)),
        "peak_rss_mb": ("largest child process"
                        if wl.cold or wl.workers > 1
                        else "the counting process"),
    }
    return res, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, notes


def traced_counter(wl, tmp, workers, tr):
    """Like wls.counter, with the tracer installed for each count only."""
    count = wls.counter(wl, tmp, workers, tr)
    if wl.cold:
        return count  # traced_cli.py installs it in the CLI process

    def traced(data, seed):
        try:
            tr.install()
            return count(data, seed)
        finally:
            tr.uninstall()
    return traced


def trace(wl, seed):
    """Per-layer metrics of a fixed list of counts.

    Each count runs untraced and then traced, back to back, so that the
    host's drift in speed cancels out of trace.overhead.  Layers are
    traced with workers=1; a workload with more workers also runs each
    count traced with its own worker count, for the pool metrics and
    the overhead.
    """
    anchor = wl.anchor_value()
    pairs = list(itertools.islice(wl.schedule(seed), wl.traced_counts))
    tr, pool_tr = tracing.Tracer(), tracing.Tracer()
    try:
        tr.install()  # stops here, naming it, if a traced name is gone
    finally:
        tr.uninstall()
    res, base, layers, pool = (wls.Pass() for _ in range(4))
    with tempfile.TemporaryDirectory(dir=wls.ROOT, prefix=".perfbench-") as tmp:
        plain = wls.counter(wl, tmp)
        runs = [(base, plain), (layers, traced_counter(wl, tmp, 1, tr))]
        if wl.workers > 1:
            runs.append((pool, traced_counter(wl, tmp, wl.workers, pool_tr)))
        else:
            pool, pool_tr = layers, tr
        res.add(wls.warm_up(wl, plain, seed, anchor))
        for pair in pairs:
            for out, count in runs:
                out.add(wls.run_counts(count, [pair], anchor))
    for out, _ in runs:
        res.add(out)
    metrics = tracing.summarize(tr.spans, tr.counts, layers.records)
    pool_metrics = tracing.summarize(pool_tr.spans, pool_tr.counts,
                                     pool.records)
    for name in ("pool.tasks", "pool.wait_s", "pool.shutdown_s"):
        metrics[name] = pool_metrics[name]
    metrics["trace.wall_s"] = layers.wall
    metrics["trace.overhead"] = pool.wall / base.wall - 1

    OUT.mkdir(exist_ok=True)
    with open(OUT / ("spans-%s.json" % wl.name), "w") as fp:
        json.dump({"workload": wl.name, "seed": seed,
                   "layers": tr.spans, "pool": pool_tr.spans}, fp,
                  separators=(",", ":"))

    wall = layers.wall
    notes = {name: "%.1f%% of trace.wall_s" % (100 * v / wall)
             for name, v in metrics.items() if name.endswith("busy_s")}
    notes["trace.wall_s"] = "%d traced counts, workers=1" % len(pairs)
    notes["trace.overhead"] = "workers=%d, against %.3f s untraced" % (
        wl.workers, base.wall)
    return res, {k: (v, tracing.PER_LAYER[k]) for k, v in metrics.items()}, notes


def git_commit():
    git = wls.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def report(wl, seed, res, metrics, notes):
    """Print one workload's context and metrics; return its JSON metrics,
    or None when any count failed."""
    lanes = res.lanes
    if not lanes:
        from tropcount import _kernel
        lanes = {_kernel.implementation()}
    context = {"workload": wl.name, "seed": seed, "workers": wl.workers,
               "kernel": ",".join(sorted(lanes)),
               "python": platform.python_version(),
               "nproc": len(os.sched_getaffinity(0)),
               "commit": git_commit()}
    print("# %s" % json.dumps(context, sort_keys=True))
    print("%-20s %14.4f  %-6s %d of %d counts" % (
        "failed_frac", res.failed / res.attempted, "1", res.failed,
        res.attempted))
    if res.failed or not metrics:
        return None
    for name, (value, unit) in metrics.items():
        print("%-20s %14.6g  %-6s %s" % (name, value, unit,
                                          notes.get(name, "")))
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=["all"] + list(wls.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (wls.SRC / "tropcount" / "cli.py").is_file():
        print("perfbench: no tropcount source under %s" % wls.SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(wls.SRC))

    names = list(wls.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    attempted = failed = 0
    for name in names:
        wl = wls.WORKLOADS[name]
        print("== %s (%s)" % (name, "traced" if args.trace else "untraced"),
              flush=True)
        if args.trace:
            res, metrics, notes = trace(wl, args.seed)
        else:
            res, metrics, notes = measure(wl, args.seed, args.seconds)
        results[name] = report(wl, args.seed, res, metrics, notes)
        attempted += res.attempted
        failed += res.failed

    correct = all(m is not None for m in results.values())
    out = {"correct": correct, "attempted": attempted, "failed": failed,
           "metrics": (results[names[0]] if len(names) == 1 else results)
           if correct else {}}
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

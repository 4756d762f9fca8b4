"""Timed, checked counts of one workload, in a fresh process.

    python3 perfbench/loop.py WORKLOAD SEED SECONDS

Started by run.py, which also measures set-up.  Set-up is sampled
across the whole run, not only at its start, because the host's speed
drifts over tens of seconds: between counts, at most every SECONDS/10
seconds, this process prints "setup", waits for "go" on standard input
and leaves that pause out of its times.  The set-up interpreters are
run.py's children, so the peak resident set read here belongs to the
counts alone: this process's own for in-process counts, its children's
for cold counts and worker pools.  The last line of output is one JSON
object.
"""

import json
import resource
import sys
import tempfile
import time

import workloads as wls


class SetupPauses:
    def __init__(self, interval):
        self.interval = interval
        self.due = 0.0

    def __call__(self):
        if time.perf_counter() < self.due:
            return
        print("setup", flush=True)
        if sys.stdin.readline() != "go\n":
            raise SystemExit("perfbench: run.py went away")
        self.due = time.perf_counter() + self.interval


def main():
    name, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    wl = wls.WORKLOADS[name]
    anchor = wl.anchor_value()
    with tempfile.TemporaryDirectory(dir=wls.ROOT, prefix=".perfbench-") as tmp:
        count = wls.counter(wl, tmp)
        warm = wls.warm_up(wl, count, seed, anchor)
        timed = wls.run_counts(count, wl.schedule(seed), anchor,
                               until=time.perf_counter() + seconds,
                               between=SetupPauses(seconds / 10))
    who = (resource.RUSAGE_CHILDREN if wl.cold or wl.workers > 1
           else resource.RUSAGE_SELF)
    print(json.dumps({
        "latencies": timed.latencies, "wall": timed.wall,
        "attempted": warm.attempted + timed.attempted,
        "failed": warm.failed + timed.failed,
        "lanes": sorted(warm.lanes | timed.lanes),
        "peak_rss_kb": resource.getrusage(who).ru_maxrss}))


if __name__ == "__main__":
    main()

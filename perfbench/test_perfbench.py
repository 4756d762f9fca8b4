"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The traced runs take about three minutes in all on a 2-core host.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
import workloads

# per-layer metrics that count work; claims may rest on these only if
# they repeat exactly for one seed
COUNT_METRICS = re.compile(
    r"\.calls$|^kernel\.candidates$|^curves\.types$|^engine\.retries$")


def traced_metrics(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(workloads.HERE / "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, cwd=workloads.ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
    return {name: m["value"] for name, m in out["metrics"].items()}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_layer_counts_repeat_for_one_seed(workload):
    first = traced_metrics(workload, 5)
    second = traced_metrics(workload, 5)
    names = sorted(n for n in first if COUNT_METRICS.search(n))
    assert len(names) == 9
    assert [first[n] for n in names] == [second[n] for n in names]


def test_missing_trace_target_is_named(monkeypatch):
    monkeypatch.syspath_prepend(str(workloads.SRC))
    from tropcount import engine

    original = engine.quotient_map
    monkeypatch.delattr(engine, "match_constraints")
    t = tracer.Tracer()
    try:
        with pytest.raises(tracer.TraceTargetMissing,
                           match=r"tropcount\.engine\.match_constraints"):
            t.install()
    finally:
        t.uninstall()
    assert engine.quotient_map is original

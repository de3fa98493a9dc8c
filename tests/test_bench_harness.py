"""Smoke test of the checked-in benchmark harness against this source tree.

`benchmarks/` drives ecbench through its public names and rebinds others in
its tracer; this loads `benchmarks/workloads.py` and `benchmarks/tracing.py`
the way the tracer tests do and runs each workload once, checked, then
once traced.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from test_oracle import bench_tracing

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.mark.parametrize("name, metric, expected", [
    ("campaign", "runner.measurements", 1376),
    ("coverage", "oracle.iterations", 2500),
    ("reanalysis", "manifest.load.rows", 40_000),
])
def test_workload_repeats_checks_and_traces(tmp_path, monkeypatch, name,
                                            metric, expected):
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # workloads imports checks
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCHMARKS / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    tracing = bench_tracing()

    wl = workloads.WORKLOADS[name](tmp_path, 7)
    wl.setup()
    assert wl.repeat().failed_calls == []
    failed = [c for c in wl.check() + wl.self_test() if not c.ok]
    assert failed == []

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert wl.repeat().failed_calls == []
    assert tracing.layer_metrics(tracer)[metric] == expected

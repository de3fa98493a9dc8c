"""Span tracer for the benchmark's traced run.

Tracing lives entirely in the benchmark: `installed(tracer)` rebinds the
public names that ecbench modules import from one another (and a few class
attributes) to wrappers that record spans, then restores the originals. The
program is unchanged and pays nothing on untraced repeats.

A span is (id, parent id, name, start, end). The span name's first component
is the layer, i.e. the ecbench module that owns the function. Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import time
from collections import Counter

import ecbench.cli
import ecbench.compare
import ecbench.design
import ecbench.fingerprints
import ecbench.manifest
import ecbench.model
import ecbench.oracle
import ecbench.runner
import ecbench.space
import ecbench.stats

DESIGN_GENERATORS = ("stratified_sample", "factorial_2k", "full_factorial",
                     "rct_assign", "spec_point")


class Tracer:
    """Spans and work counters of one traced repeat, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()  # inclusive time per span name
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, seconds spent in children]
        self._ids = itertools.count(1)

    def span(self, name: str, fn, count=None):
        """Wrap `fn` so each call records a span; `count(counts, args,
        result)` then adds the call's work to the named counters."""
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.spans.append((span_id, parent, name, start, end))
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def counter(self, fn, count):
        """Wrap `fn` to update counters only, without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self.counts, args, result)
            return result

        return counted

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items()
                   if name.split(".", 1)[0] == layer)


def _count_plans(counts, args, result) -> None:
    plans = ((result.control, result.treatment)
             if isinstance(result, ecbench.design.RctAssignment) else (result,))
    counts["design.plans"] += len(plans)
    counts["design.entries"] += sum(len(p.entries) for p in plans)


def _count_fingerprint(counts, args, result) -> None:
    doc = args[0]
    if isinstance(doc, dict) and "factors" in doc:
        counts["fingerprints.space_hashes"] += 1


def _count_hashed_bytes(counts, args, result) -> None:
    counts["fingerprints.bytes"] += len(args[0])


def _count_canonical(counts, args, result) -> None:
    counts["fingerprints.bytes"] += len(result)  # ASCII JSON: chars == bytes


def _count_values(counts, args, result) -> None:
    counts["model.values"] += result.size


def _count_results(counts, args, result) -> None:
    counts["runner.measurements"] += len(result.measurements)
    counts["runner.failures"] += len(result.failures)


def _count_line(counts, args, result) -> None:
    counts["manifest.bytes_written"] += len(result) + 1  # plus the newline


def _count_loaded(counts, args, result) -> None:
    results, _ = result
    counts["manifest.load.rows"] += (len(results.measurements)
                                     + len(results.failures))


def _count_groups(counts, args, result) -> None:
    counts["compare.groups"] += len(result.groups)


def _count_iterations(counts, args, result) -> None:
    counts["oracle.iterations"] += sum(r.iterations for r in result)


def _span_table():
    """(owner, attribute, span name, counter) for every traced boundary.
    Names imported by several modules are patched in each importer."""
    cli, oracle = ecbench.cli, ecbench.oracle
    table = [
        (cli, "main", "cli.main", None),
        (ecbench.space.ConfigSpace, "load", "space.load", None),
        (ecbench.space.ConfigSpace, "config_at", "space.config_at", None),
        (ecbench.design.SamplePlan, "load", "design.io", None),
        (ecbench.design.SamplePlan, "save", "design.io", None),
        (ecbench.manifest, "fingerprint_bytes", "fingerprints.fingerprint",
         _count_hashed_bytes),
        (ecbench.model.SyntheticModel, "compile", "model.compile", None),
        (ecbench.model.CompiledModel, "noisy_values", "model.noisy_values",
         _count_values),
        (ecbench.model, "counter_normal", "model.counter_normal", None),
        (ecbench.runner, "synth_time", "model.synth_time", None),
        (cli, "execute_plan", "runner.execute_plan", _count_results),
        (ecbench.manifest.ResultWriter, "write", "manifest.write", None),
        (ecbench.manifest.ResultWriter, "finalize", "manifest.finalize", None),
        (cli, "load_results", "manifest.load", _count_loaded),
        (cli, "emit_report", "manifest.emit_report", None),
        (ecbench.stats, "t_quantile", "stats.t_quantile", None),
        (oracle, "t_quantile", "stats.t_quantile", None),
        (ecbench.compare, "confidence_interval", "stats.interval", None),
        (oracle, "mean_ci_from_array", "stats.interval", None),
        (oracle, "welch_interval", "stats.interval", None),
        (ecbench.compare, "paired_differences", "stats.paired", None),
        (ecbench.compare, "ratio_diagnostics", "stats.paired", None),
        (cli, "compare_objects", "compare.compare_objects", _count_groups),
        (cli, "asymmetry_report", "compare.asymmetry_report", None),
        (cli, "methodology_comparison", "oracle.methodology_comparison",
         _count_iterations),
        (oracle, "coverage_experiment", "oracle.coverage_experiment", None),
        (oracle, "population_mean", "oracle.population_mean", None),
    ]
    for module in (cli, oracle):
        table += [(module, g, "design.generate", _count_plans)
                  for g in DESIGN_GENERATORS if hasattr(module, g)]
    for module in (cli, ecbench.design, ecbench.runner, oracle):
        table.append((module, "fingerprint", "fingerprints.fingerprint",
                      _count_fingerprint))
    return table


_COUNTER_TABLE = (
    (ecbench.fingerprints, "canonical_json", _count_canonical),
    (ecbench.manifest, "measurement_line", _count_line),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the traced boundaries through `tracer` for the with-block."""
    saved = []

    def patch(owner, attr, wrap) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(wrap(raw.__func__))
        else:
            new = wrap(raw)
        saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    try:
        for owner, attr, name, count in _span_table():
            patch(owner, attr, lambda fn, n=name, c=count: tracer.span(n, fn, c))
        for owner, attr, count in _COUNTER_TABLE:
            patch(owner, attr, lambda fn, c=count: tracer.counter(fn, c))
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repeat. Ratios are 0 where their base
    is 0, i.e. where the workload does no work in that layer."""
    c, n, total = t.calls, t.counts, t.total_s
    return {
        "cli.self_s": t.self_s["cli.main"],
        "space.load_s": total["space.load"],
        "space.config_at.calls": c["space.config_at"],
        "space.config_at_s": total["space.config_at"],
        "design.plans": n["design.plans"],
        "design.entries": n["design.entries"],
        "design.s": total["design.generate"],
        "design.io_s": total["design.io"],
        "fingerprints.calls": c["fingerprints.fingerprint"],
        "fingerprints.space_hashes": n["fingerprints.space_hashes"],
        "fingerprints.bytes": n["fingerprints.bytes"],
        "fingerprints.s": total["fingerprints.fingerprint"],
        "model.compile.calls": c["model.compile"],
        "model.compile_s": total["model.compile"],
        "model.values": n["model.values"],
        "model.noisy_values_s": total["model.noisy_values"],
        "model.counter_normal_s": total["model.counter_normal"],
        "runner.execute_plan.self_s": t.self_s["runner.execute_plan"],
        "runner.measurements": n["runner.measurements"],
        "runner.failures": n["runner.failures"],
        "manifest.write.calls": c["manifest.write"],
        "manifest.write_s": total["manifest.write"],
        "manifest.bytes_written": n["manifest.bytes_written"],
        "manifest.finalize_s": total["manifest.finalize"],
        "manifest.load.rows": n["manifest.load.rows"],
        "manifest.load_s": total["manifest.load"],
        "manifest.emit_report_s": total["manifest.emit_report"],
        "stats.t_quantile.calls": c["stats.t_quantile"],
        "stats.t_quantile_s": total["stats.t_quantile"],
        "stats.intervals": c["stats.interval"],
        "stats.interval_s": total["stats.interval"],
        "stats.paired_s": total["stats.paired"],
        "compare.self_s": t.layer_self_s("compare"),
        "compare.groups": n["compare.groups"],
        "oracle.iterations": n["oracle.iterations"],
        "oracle.self_s": t.layer_self_s("oracle"),
        "oracle.population_mean_s": total["oracle.population_mean"],
        "model.compiles_per_measurement":
            _ratio(c["model.compile"], n["runner.measurements"]),
        "fingerprints.space_hashes_per_plan":
            _ratio(n["fingerprints.space_hashes"], n["design.plans"]),
        "stats.t_quantile_per_interval":
            _ratio(c["stats.t_quantile"], c["stats.interval"]),
        "trace.spans": len(t.spans),
    }

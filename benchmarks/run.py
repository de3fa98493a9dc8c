"""ecbench benchmark: one workload, one seed, one measured run.

    python3 benchmarks/run.py --workload campaign --seed 1 --seconds 40 --trace 0

Run from the root of an ecbench checkout; the package is imported from its
`src/` directory. With `--trace 0` the run measures the end-to-end metrics
with tracing off; with `--trace 1` it alternates untraced and traced repeats
and reports the per-layer metrics and the tracing overhead. Set-up and
measurement together end within `--seconds`; the import before them and the
output checks after them do not count. Metric names and
units are declared in BENCHMARK.json at the root, and the run refuses to
start if the code and that declaration disagree.

Human-readable lines, then one JSON line
{"correct", "attempted", "failed", "metrics"} go to stdout. The full record
(provenance, every sample, every check, output digests) is written to
benchmarks/out/<workload>-seed<seed>-trace<t>.json, and the traced run's
spans to benchmarks/out/<workload>-seed<seed>.spans.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

# a single process with no extra threads: keep BLAS pools at one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# An end-to-end run repeats the set-up between timed repeats, so that its
# set-up samples span the run as its repeats do; setup_s is their median.
# After each timed repeat it makes up to SETUPS_PER_REPEAT passes, while set-up
# has taken less than SETUP_SHARE of the time the repeats took, and it makes
# at least SETUPS passes in all.
SETUPS, SETUPS_PER_REPEAT, SETUP_SHARE = 5, 3, 0.2
MIN_REPEATS = 5  # timed repeats per run, even past the deadline
LOOP = "closed, single caller"  # every workload; see workloads.py


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values: list):
    """The median; counts stay integers when the middle two agree."""
    m = statistics.median(values)
    if all(isinstance(v, int) for v in values) and m == int(m):
        return int(m)
    return m


def declared() -> dict:
    """BENCHMARK.json: metric units by kind and name, and each workload's why."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    doc = json.loads(path.read_text())
    out = {kind: {m["name"]: m["unit"] for m in doc[kind]}
           for kind in ("end_to_end", "per_layer")}
    out["why"] = {w["name"]: w["why"] for w in doc["workloads"]}
    return out


def import_ecbench() -> float:
    """Import ecbench from this checkout's sources; returns the seconds the
    import took (numpy and scipy included)."""
    if not (SRC / "ecbench" / "__init__.py").is_file():
        raise BenchError(f"no ecbench sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import ecbench.cli  # noqa: F401
    seconds = time.perf_counter() - start
    if Path(sys.modules["ecbench"].__file__).resolve().parent != SRC / "ecbench":
        raise BenchError("ecbench was imported from outside this checkout")
    return seconds


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    import numpy
    import scipy

    import ecbench

    u = platform.uname()
    source = hashlib.sha256()
    for path in sorted((SRC / "ecbench").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        # (uname's `processor` field is left out: on Linux it runs `uname -p`)
        "host": {"system": u.system, "release": u.release, "machine": u.machine},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "ecbench": ecbench.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "source_sha256": source.hexdigest(),
    }


def digests(work: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((work / n).read_bytes()).hexdigest()
            for n in names if (work / n).is_file()}


class Run:
    """Bookkeeping of one benchmark run: repeats, operations, checks."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.repeats = []        # workloads.Repeat, every pass incl. untimed ones
        self.first_digests = None
        self.identical = True

    def repeat(self, context=None):
        """One pass of the timed section, inside `context` if given. Returns
        the pass and its wall time; outputs are hashed after the clock stops."""
        with context or contextlib.nullcontext():
            start = time.perf_counter()
            r = self.wl.repeat()
            wall = time.perf_counter() - start
        self.repeats.append(r)
        d = digests(self.wl.work, self.wl.outputs())
        if self.first_digests is None:
            self.first_digests = d
        self.identical &= d == self.first_digests
        return r, wall

    def verify(self):
        """Run every output check and return (checks, attempted, failed)."""
        from checks import Check

        wl = self.wl
        try:
            results = wl.check() + wl.self_test()
            lines = wl.failure_lines()
        except (OSError, ValueError, KeyError) as e:
            results, lines = [Check("outputs_readable", False, repr(e))], 0
        results.append(Check("outputs_identical_across_repeats", self.identical,
                             f"{len(self.repeats)} repeats"))
        n = len(self.repeats)
        attempted = (sum(r.calls for r in self.repeats)
                     + n * wl.measurements_per_repeat + len(results))
        failed = (sum(len(r.failed_calls) for r in self.repeats) + n * lines
                  + sum(not c.ok for c in results))
        return results, attempted, failed


def set_up(wl_cls, work: Path, seed: int):
    """Write the workload's inputs into the fresh directory `work`; returns
    the workload and the seconds that took."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.perf_counter()
    wl = wl_cls(work, seed)
    wl.setup()
    return wl, time.perf_counter() - start


@contextlib.contextmanager
def peak_memory(peaks: list[int]):
    """Append the tracemalloc peak, in bytes, of the with-block to `peaks`."""
    tracemalloc.start()
    try:
        yield
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def time_left(walls: list[float], deadline: float) -> bool:
    """Whether another repeat, as long as the median one so far, ends
    before the deadline; always true for the first MIN_REPEATS."""
    return (len(walls) < MIN_REPEATS
            or time.perf_counter() + statistics.median(walls) <= deadline)


def measure_end_to_end(run: Run, deadline: float, setup_times: list[float],
                       set_up_again):
    """Timed repeats until the deadline, with set-up passes (`set_up_again()`
    returns the seconds of one) in between."""
    peaks: list[int] = []
    _, memory_wall = run.repeat(peak_memory(peaks))  # a separate pass, not timed
    walls, rates = [], []
    while time_left(walls, deadline):
        r, wall = run.repeat()
        walls.append(wall)
        rates.append(r.items / wall)
        for _ in range(SETUPS_PER_REPEAT):
            if sum(setup_times) >= SETUP_SHARE * sum(walls):
                break
            setup_times.append(set_up_again())
    while len(setup_times) < SETUPS:
        setup_times.append(set_up_again())
    samples = {
        "setup_s": setup_times,
        "items_per_s": rates,
        "peak_mem_mb": [peaks[0] / 1e6],
    }
    return samples, {"repeat_wall_s": walls, "memory_pass_wall_s": [memory_wall]}


def measure_per_layer(run: Run, deadline: float, spans_path: Path):
    import tracing

    untraced, traced, layers, pairs = [], [], [], []
    while True:
        for is_traced in (False, True) if len(traced) % 2 == 0 else (True, False):
            if is_traced:
                tracer = tracing.Tracer()
                traced.append(run.repeat(tracing.installed(tracer))[1])
                layers.append(tracing.layer_metrics(tracer))
                if len(layers) == 1:
                    write_spans(tracer, spans_path)
            else:
                untraced.append(run.repeat()[1])
        pairs.append(traced[-1] + untraced[-1])
        if not time_left(pairs, deadline):
            break
    samples = {name: [m[name] for m in layers] for name in layers[0]}
    samples["trace.overhead_s"] = [statistics.median(traced)
                                   - statistics.median(untraced)]
    return samples, {"traced_wall_s": traced, "untraced_wall_s": untraced}


def write_spans(tracer, path: Path) -> None:
    t0 = min((span[3] for span in tracer.spans), default=0.0)
    with path.open("w") as fh:
        for span_id, parent, name, start, end in sorted(tracer.spans):
            fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                 "start_s": start - t0, "end_s": end - t0}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        spec = declared()
        import_s = import_ecbench()
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    import workloads  # after ecbench: these import it

    if not set(spec["why"]) <= set(workloads.WORKLOADS):
        print(f"run.py: BENCHMARK.json names workloads {sorted(spec['why'])}, "
              f"the code has {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl_cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    work = OUT / f"work-{os.getpid()}"
    spare = OUT / f"setup-{os.getpid()}"  # where set-up is repeated
    try:
        deadline = time.perf_counter() + args.seconds
        wl, setup_s = set_up(wl_cls, work, args.seed)
        run = Run(wl)
        if args.trace == 0:
            samples, extra = measure_end_to_end(
                run, deadline, [setup_s],
                lambda: set_up(wl_cls, spare, args.seed)[1])
        else:
            samples, extra = measure_per_layer(run, deadline,
                                               OUT / f"{stem}.spans.jsonl")
        extra["import_s"] = [import_s]
        checks_run, attempted, failed = run.verify()
        outputs = digests(work, sorted(p.name for p in work.iterdir()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(spare, ignore_errors=True)

    kind = "end_to_end" if args.trace == 0 else "per_layer"
    if set(samples) != set(spec[kind]):
        print(f"run.py: measured {kind} metrics {sorted(samples)} differ from "
              f"BENCHMARK.json {sorted(spec[kind])}", file=sys.stderr)
        return 2
    metrics = {name: {"value": median(samples[name]), "unit": spec[kind][name]}
               for name in spec[kind]}
    record = {
        "provenance": provenance(args),
        "workload": {"name": wl.name, "in_benchmark_json": wl.name in spec["why"],
                     "why": spec["why"].get(wl.name, wl.__doc__),
                     "input_size": wl.input_size(),
                     "loop": LOOP, "item": wl.unit},
        "metrics": {name: {**m, "samples": samples[name]}
                    for name, m in metrics.items()},
        "timings": extra,
        "checks": [c.__dict__ for c in checks_run],
        "output_sha256": outputs,
        "attempted": attempted, "failed": failed,
    }
    result_path = OUT / f"{stem}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")

    p = record["provenance"]
    print(f"ecbench benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  host {p['host']['system']} {p['host']['machine']} nproc={p['nproc']} "
          f"python {p['python']} numpy {p['numpy']} scipy {p['scipy']} "
          f"commit {p['git_commit'][:12]} source {p['source_sha256'][:12]}")
    print(f"  input: {wl.input_size()}; loop: {LOOP}")
    for name, m in metrics.items():
        q1, q2, q3 = quartiles(samples[name])
        print(f"  {name:36s} {q2:14.6g} {m['unit']:6s} "
              f"(n={len(samples[name])}, q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"  {'import_s':36s} {import_s:14.6g} s      "
          f"(once per process; not in BENCHMARK.json)")
    print(f"  {'error_rate':36s} {failed / attempted:14.6g} ratio  "
          f"({failed} failed of {attempted} operations)")
    print(f"  checks: {sum(c.ok for c in checks_run)} of {len(checks_run)} passed")
    for c in checks_run:
        if not c.ok or c.name.startswith("self_test"):
            print(f"  check {c.name}: {'ok' if c.ok else 'FAILED'} {c.detail}")
    for r in run.repeats:
        for msg in r.failed_calls:
            print(f"  call failed: {msg}")
    print(f"  record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

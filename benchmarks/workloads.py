"""The benchmark's three workloads, each driven through `ecbench.cli.main`.

Each workload is closed-loop with a single caller: the next CLI call starts
when the previous one returns. `setup()` writes the inputs the seed
determines, `repeat()` is the timed section, `check()` recomputes the outputs
independently (see checks.py) and `self_test()` proves the checks can fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ecbench.cli
from ecbench import demo
from ecbench.design import PlanEntry, SamplePlan
from ecbench.fingerprints import fingerprint
from ecbench.manifest import RunManifest, persist_results
from ecbench.runner import Measurement, ResultSet

import checks
from checks import Check

OBJECTS = ("cpu_a", "cpu_b")


@dataclass
class Repeat:
    """What one pass of the timed section did."""

    items: int               # work completed (see each workload's `unit`)
    calls: int               # CLI calls made
    failed_calls: list[str]  # one message per non-zero exit code


def cli_call(argv: list[str]) -> tuple[int, str]:
    """(exit code, captured output) of one `ecbench` invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = ecbench.cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else 1
    return code, out.getvalue()


def _load(path: Path):
    return json.loads(path.read_text())


def _guarded(name: str, fn) -> list[Check]:
    """Run a checker; a malformed output file is a failed check."""
    try:
        return fn()
    except (KeyError, ValueError, IndexError, TypeError) as e:
        return [Check(name, False, f"{type(e).__name__}: {e}")]


class Workload:
    name = ""
    unit = ""        # what one item of items_per_s is
    measurements_per_repeat = 0

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def path(self, name: str) -> Path:
        return self.work / name

    def input_size(self) -> str:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def repeat(self) -> Repeat:
        raise NotImplementedError

    def outputs(self) -> list[str]:
        """Output files that must be byte-identical on every repeat."""
        raise NotImplementedError

    def check(self) -> list[Check]:
        raise NotImplementedError

    def self_test(self) -> list[Check]:
        raise NotImplementedError

    def failure_lines(self) -> int:
        return 0

    def _run(self, argvs: list[list[str]], items: int) -> Repeat:
        failed = []
        for argv in argvs:
            code, text = cli_call(argv)
            if code != 0:
                failed.append(f"ecbench {' '.join(argv[:2])}: exit {code}: "
                              f"{text.strip()[-300:]}")
        return Repeat(items=items, calls=len(argvs), failed_calls=failed)


class PairedReport(Workload):
    """Shared checks for workloads that end in `ecbench compare`."""

    level = 0.95
    results = ("cpu_a.jsonl", "cpu_b.jsonl")
    plan_file = "plan.json"

    def compare_argv(self) -> list[str]:
        a, b = (str(self.path(r)) for r in self.results)
        return ["compare", "--a", a, "--b", b, "--level", str(self.level),
                "--group-by-plan", str(self.path(self.plan_file)),
                "--out", str(self.path("report.json")),
                "--csv", str(self.path("report.csv")),
                "--asymmetry", str(self.path("asymmetry.json"))]

    def _read(self):
        """Plan, result bytes, manifests and parsed rows; read once, after
        the last repeat, and shared by the checks and the self-test."""
        if not hasattr(self, "_parsed"):
            plan = _load(self.path(self.plan_file))
            data = {r: self.path(r).read_bytes() for r in self.results}
            manifests = {r: _load(self.path(r + ".manifest.json"))
                         for r in self.results}
            rows = {r: checks.read_rows(data[r]) for r in self.results}
            self._parsed = plan, data, manifests, rows
        return self._parsed

    def check(self) -> list[Check]:
        plan, data, manifests, rows = self._read()
        out = []
        for r in self.results:
            out.append(checks.manifest_hash_check(r, data[r], manifests[r]))
            out.append(checks.lines_per_entry_check(r, rows[r], plan))
        rows_a, rows_b = (rows[r] for r in self.results)
        report = _load(self.path("report.json"))
        out += _guarded("ci", lambda: checks.report_checks(
            report, rows_a, rows_b, plan, self.level))
        out += _guarded("report_csv", lambda: [checks.report_csv_check(
            report, self.path("report.csv").read_text())])
        out += _guarded("asymmetry", lambda: checks.asymmetry_checks(
            _load(self.path("asymmetry.json")), rows_a, rows_b, self.level))
        return out

    def self_test(self) -> list[Check]:
        plan, data, manifests, rows = self._read()
        first = self.results[0]
        report = _load(self.path("report.json"))
        return [
            checks.self_test_hash(data[first], manifests[first]),
            checks.self_test_ci(report, rows[first], rows[self.results[1]],
                                plan, self.level),
        ]


class Campaign(PairedReport):
    name = "campaign"
    unit = "measurement written, summed over both objects"
    iterations = 16  # stratified draws per stratum
    reps = 3

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.entries = 43 * self.iterations
        self.measurements_per_repeat = len(OBJECTS) * self.entries

    def input_size(self) -> str:
        return (f"demo_space_billion (43 strata); stratified plan of "
                f"{self.entries} entries x {self.reps} reps; 2 objects")

    def setup(self) -> None:
        space = demo.demo_space_billion()
        space.save(self.path("space.json"))
        rng = np.random.default_rng([self.seed, 1])
        self.plan_seed = int(rng.integers(2**31))
        executor = {"kind": "synthetic", "model": campaign_model(space, rng)}
        self.path("executor.json").write_text(json.dumps(executor, indent=2))
        for oid in OBJECTS:
            self.path(f"{oid}.json").write_text(json.dumps({"object_id": oid}))

    def repeat(self) -> Repeat:
        p = lambda name: str(self.path(name))  # noqa: E731
        argvs = [["plan", "stratified", "--space", p("space.json"),
                  "--stratum-factor", "workload",
                  "--iterations", str(self.iterations), "--reps", str(self.reps),
                  "--seed", str(self.plan_seed), "--out", p("plan.json")]]
        for oid in OBJECTS:
            argvs.append(["run", "--space", p("space.json"), "--plan", p("plan.json"),
                          "--executor", p("executor.json"),
                          "--object", p(f"{oid}.json"), "--out", p(f"{oid}.jsonl")])
        argvs.append(self.compare_argv())
        return self._run(argvs, items=self.measurements_per_repeat)

    def outputs(self) -> list[str]:
        return ["plan.json", *self.results, "report.json", "report.csv",
                "asymmetry.json"]

    def failure_lines(self) -> int:
        rows = self._read()[3]
        return sum(checks.failure_lines(rows[r]) for r in self.results)

    def check(self) -> list[Check]:
        out = super().check()
        rows = self._read()[3]
        space = _load(self.path("space.json"))
        model = _load(self.path("executor.json"))["model"]
        for oid, r in zip(OBJECTS, self.results):
            out += _guarded(f"model_band[{r}]", lambda: [checks.model_band_check(
                r, rows[r], space, model, oid, self.reps)])
        return out


def campaign_model(space, rng: np.random.Generator) -> dict:
    """The campaign's synthetic model, drawn from the seed: 43 workload
    bases, flag and thread effects, cpu_b thread deltas and offset, sigma > 0."""
    workloads = space.factor("workload").levels
    threads = space.factor("threads").levels

    def draw(low: float, high: float, n: int | None = None):
        return np.round(rng.uniform(low, high, n), 6).tolist()

    return {
        "stratum_factor": "workload",
        "base": dict(zip(workloads, draw(50.0, 400.0, len(workloads)))),
        "effects": {
            "flags": {"-O1": draw(10.0, 30.0), "-O2": draw(2.0, 10.0), "-O3": 0.0},
            "threads": {t: round(200.0 / int(t) * s, 6)
                        for t, s in zip(threads, draw(0.8, 1.2, len(threads)))},
        },
        "interactions": [],
        "object_offsets": {"cpu_a": 0.0, "cpu_b": draw(-8.0, -2.0)},
        "object_effects": {
            "cpu_b": {"threads": dict(zip(threads, draw(-3.0, 3.0, len(threads))))},
        },
        "sigma": draw(1.0, 3.0),
        "noise_seed": int(rng.integers(2**31)),
    }


class Coverage(Workload):
    name = "coverage"
    unit = "Monte Carlo iteration, summed over methodologies"
    iterations = 500
    level = 0.99
    per_arm = 32
    strat_iterations = 32

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.space = demo.demo_space_720()
        split = demo.demo_factor_split()
        strata = len(self.space.factor("workload").levels)
        self.methodologies = [
            ("full_factorial", {},
             math.prod(len(f.levels) for f in self.space.factors)),
            ("stratified", {"stratum_factor": "workload",
                            "iterations": self.strat_iterations},
             self.strat_iterations * strata),
            ("factorial2k", {"split": {n: {"low": list(lo), "high": list(hi)}
                                       for n, lo, hi in split.splits},
                             "defaults": {"workload": 0}},
             2 ** len(split.splits)),
            ("rct", {"per_arm": self.per_arm}, self.per_arm),
            ("spec_point",
             {"recommended_index": demo.demo_recommended_index(self.space)}, 1),
        ]

    def input_size(self) -> str:
        return (f"demo_space_720 with skewed_model; {len(self.methodologies)} "
                f"methodologies x {self.iterations} iterations at level {self.level}")

    def setup(self) -> None:
        self.space.save(self.path("space.json"))
        demo.skewed_model().save(self.path("model.json"))
        doc = {"objects": list(OBJECTS),
               "methodologies": [{"kind": k, "params": p}
                                 for k, p, _ in self.methodologies]}
        self.path("methodologies.json").write_text(json.dumps(doc, indent=2))

    def repeat(self) -> Repeat:
        argv = ["simulate", "--space", str(self.path("space.json")),
                "--model", str(self.path("model.json")),
                "--methodologies", str(self.path("methodologies.json")),
                "--iterations", str(self.iterations), "--level", str(self.level),
                "--seed", str(self.seed), "--out", str(self.path("coverage.csv"))]
        return self._run([argv], items=self.iterations * len(self.methodologies))

    def outputs(self) -> list[str]:
        return ["coverage.csv"]

    def _expected(self) -> list[tuple[str, int]]:
        return [(k, cost) for k, _, cost in self.methodologies]

    def check(self) -> list[Check]:
        text = self.path("coverage.csv").read_text()
        return _guarded("coverage", lambda: checks.coverage_checks(
            text, self._expected(), self.iterations, self.level))

    def self_test(self) -> list[Check]:
        return [checks.self_test_coverage(self.path("coverage.csv").read_text(),
                                          self._expected(), self.iterations,
                                          self.level)]


class Reanalysis(PairedReport):
    """Compare two 20k-row result files in 43 groups: the read-heavy
    counterpart of campaign (hash checks, parsing, pairing, 44 CIs), with no
    design, model or runner work."""

    name = "reanalysis"
    unit = "paired row compared"
    rows = 20_000
    reps = 3

    def input_size(self) -> str:
        return (f"2 x {self.rows} result rows ({self.reps} replicates each) in "
                f"43 groups, written through ecbench.manifest.persist_results")

    def setup(self) -> None:
        space = demo.demo_space_billion()
        workloads = space.factor("workload").levels
        space_fp = fingerprint(space.to_dict())
        rng = np.random.default_rng([self.seed, 3])
        within = space.cardinality // len(workloads)
        strata = rng.integers(0, len(workloads), self.rows)
        indices = strata * within + rng.integers(0, within, self.rows)
        plan = SamplePlan(
            design="stratified",
            entries=tuple(PlanEntry(ec_index=int(i), stratum=workloads[s])
                          for i, s in zip(indices.tolist(), strata.tolist())),
            reps=self.reps, seed=self.seed, space_fingerprint=space_fp)
        plan.save(self.path(self.plan_file))

        base = rng.uniform(50.0, 400.0, len(workloads))[strata]
        delta = rng.uniform(-5.0, 5.0, len(workloads))[strata]
        sigma = rng.uniform(1.0, 3.0)
        plan_fp = plan.fingerprint
        for oid, shift, out in zip(OBJECTS, (0.0, delta), self.results):
            values = (base + shift)[:, None] + rng.normal(0.0, sigma,
                                                          (self.rows, self.reps))
            results = ResultSet(object_id=oid, plan_fingerprint=plan_fp)
            seen: dict[int, int] = {}
            for index, reps in zip(indices.tolist(), values.tolist()):
                ordinal = seen.get(index, 0)
                seen[index] = ordinal + 1
                results.add((index, ordinal), Measurement(
                    ec_index=index, object_id=oid, replicates=tuple(reps),
                    aggregate=statistics.fmean(reps), policy="mean"))
            manifest = RunManifest(
                space_fingerprint=space_fp, plan_fingerprint=plan_fp,
                executor_hash=fingerprint({"kind": "recorded", "seed": self.seed}),
                object_config={"object_id": oid, "settings": {}},
                seeds={"plan_seed": self.seed})
            persist_results(results, manifest, self.path(out))

    def repeat(self) -> Repeat:
        return self._run([self.compare_argv()], items=self.rows)

    def outputs(self) -> list[str]:
        return ["report.json", "report.csv", "asymmetry.json"]


WORKLOADS = {w.name: w for w in (Campaign, Coverage, Reanalysis)}

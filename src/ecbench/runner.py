"""Plan execution against evaluated objects.

Two executors: a real command executor (wall-clock timing of subprocesses)
and a synthetic model executor (deterministic desk-scale stand-in). Commands
run strictly sequentially, one entry at a time, so real timings never
overlap. A synthetic plan is evaluated in one vectorised model call: its noise
is counter-based, so the batch gives the same bits as one replicate at a time.
"""

from __future__ import annotations

import shlex
import statistics
import string
import subprocess
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ExecutionError, FingerprintError, SpaceError
from .fingerprints import fingerprint
from .design import PlanEntry, SamplePlan
# synth_time stays bound here: benchmarks/tracing.py patches runner.synth_time
from .model import SyntheticModel, synth_time  # noqa: F401
from .space import ConfigSpace, Configuration, ObjectConfig


@dataclass(frozen=True)
class ExecutorSpec:
    """How to obtain one duration: run a templated command, or evaluate a
    synthetic model. Command templates are keyed by stratum label ('*' is the
    catch-all) and use {factor_name} placeholders."""

    kind: str  # "command" | "synthetic"
    templates: tuple[tuple[str, str], ...] = ()
    model: SyntheticModel | None = None
    stratum_factor: str | None = None
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("command", "synthetic"):
            raise ExecutionError(f"unknown executor kind {self.kind!r}")
        if self.kind == "synthetic" and self.model is None:
            raise ExecutionError("synthetic executor needs a model")
        if self.kind == "command" and not self.templates:
            raise ExecutionError("command executor needs templates")

    def template_for(self, stratum: str | None) -> str:
        tmap = dict(self.templates)
        if stratum is not None and stratum in tmap:
            return tmap[stratum]
        if "*" in tmap:
            return tmap["*"]
        raise ExecutionError(f"no command template for stratum {stratum!r}")

    def validate_against(self, space: ConfigSpace) -> None:
        if self.kind != "command":
            return
        names = {f.name for f in space.factors}
        for stratum, tpl in self.templates:
            for _, fld, _, _ in string.Formatter().parse(tpl):
                if fld is not None and fld not in names:
                    raise ExecutionError(
                        f"template for {stratum!r} references unknown factor {fld!r}"
                    )

    @classmethod
    def from_dict(cls, doc: dict) -> "ExecutorSpec":
        kind = doc["kind"]
        if kind == "command":
            return cls(
                kind="command",
                templates=tuple(doc["templates"].items()),
                stratum_factor=doc.get("stratum_factor"),
                timeout=doc.get("timeout"),
            )
        return cls(kind="synthetic", model=SyntheticModel.from_dict(doc["model"]))

    def to_dict(self) -> dict:
        if self.kind == "command":
            doc: dict = {"kind": "command", "templates": dict(self.templates)}
            if self.stratum_factor is not None:
                doc["stratum_factor"] = self.stratum_factor
            if self.timeout is not None:
                doc["timeout"] = self.timeout
            return doc
        assert self.model is not None
        return {"kind": "synthetic", "model": self.model.to_dict()}


@dataclass(frozen=True, slots=True)
class Measurement:
    ec_index: int
    object_id: str
    replicates: tuple[float, ...]
    aggregate: float
    policy: str
    started_at: float = 0.0
    ended_at: float = 0.0
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "ec_index": self.ec_index,
            "object_id": self.object_id,
            "replicates": list(self.replicates),
            "aggregate": self.aggregate,
            "policy": self.policy,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Measurement":
        # positional: keyword binding is a measurable share of loading a file
        return cls(doc["ec_index"], doc["object_id"], tuple(doc["replicates"]),
                   doc["aggregate"], doc["policy"], doc.get("started_at", 0.0),
                   doc.get("ended_at", 0.0), doc.get("error"))


@dataclass
class ResultSet:
    """Measurements keyed by (ec index, occurrence ordinal) for one object
    under one plan. Failed entries live in `failures`, never in the keyed map."""

    object_id: str
    plan_fingerprint: str
    measurements: dict[tuple[int, int], Measurement] = field(default_factory=dict)
    failures: list[Measurement] = field(default_factory=list)

    def add(self, key: tuple[int, int], m: Measurement) -> None:
        if key in self.measurements:
            raise ExecutionError(f"duplicate measurement key {key}")
        self.measurements[key] = m

    def aggregates(self) -> dict[tuple[int, int], float]:
        return {k: m.aggregate for k, m in self.measurements.items()}


def aggregate(replicates: list[float], policy: str) -> float:
    if policy == "mean":
        return statistics.fmean(replicates)
    if policy == "median":
        return statistics.median(replicates)
    raise ExecutionError(f"unknown aggregation policy {policy!r}")


def _run_command(template: str, labels: dict[str, str],
                 timeout: float | None) -> float:
    cmd = template.format(**labels)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            shlex.split(cmd), capture_output=True, timeout=timeout
        )
    except FileNotFoundError as e:
        raise ExecutionError(f"launch failed: {e}") from e
    except subprocess.TimeoutExpired as e:
        raise ExecutionError(f"timed out after {timeout}s: {cmd}") from e
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        raise ExecutionError(
            f"exit status {proc.returncode}: {cmd}\n{proc.stderr.decode(errors='replace')}"
        )
    if elapsed <= 0:
        raise ExecutionError(f"non-positive measured duration {elapsed}")
    return elapsed


def _synthetic_replicates(model: SyntheticModel, obj: ObjectConfig,
                          space: ConfigSpace, indices: list[int],
                          reps: int) -> list[list[float]]:
    """Replicate values per index from one compile and one model evaluation;
    bit-identical to `synth_time` called once per replicate."""
    for index in indices:
        if not 0 <= index < space.cardinality:
            raise SpaceError(
                f"index {index} out of range for cardinality {space.cardinality}"
            )
    if not indices:
        return []
    compiled = model.compile(space)
    vals = compiled.noisy_values(
        np.array(indices, dtype=np.int64)[:, None], obj.object_id,
        np.arange(reps, dtype=np.int64),
    )
    return vals.tolist()


def _synthetic_measurement(ec_index: int, obj: ObjectConfig,
                           values: list[float], policy: str) -> Measurement:
    # synthetic runs carry no meaningful wall time; zero timestamps keep
    # result files byte-reproducible
    return Measurement(
        ec_index=ec_index,
        object_id=obj.object_id,
        replicates=tuple(values),
        aggregate=aggregate(values, policy),
        policy=policy,
    )


def measure(executor: ExecutorSpec, obj: ObjectConfig, space: ConfigSpace,
            ec: Configuration, reps: int, policy: str,
            stratum: str | None = None) -> Measurement:
    """Run `reps` sequential replicates and aggregate them."""
    if reps < 1:
        raise ExecutionError("reps must be >= 1")
    if executor.kind == "synthetic":
        assert executor.model is not None
        (values,) = _synthetic_replicates(executor.model, obj, space,
                                          [ec.index], reps)
        return _synthetic_measurement(ec.index, obj, values, policy)
    started_at = time.time()
    if stratum is None and executor.stratum_factor is not None:
        pos = ec.level_index(executor.stratum_factor)
        stratum = space.factor(executor.stratum_factor).levels[pos]
    template = executor.template_for(stratum)
    labels = space.labels_of(ec)
    values = [_run_command(template, labels, executor.timeout)
              for _ in range(reps)]
    ended_at = time.time()
    return Measurement(
        ec_index=ec.index,
        object_id=obj.object_id,
        replicates=tuple(values),
        aggregate=aggregate(values, policy),
        policy=policy,
        started_at=started_at,
        ended_at=ended_at,
    )


def execute_plan(executor: ExecutorSpec, obj: ObjectConfig, space: ConfigSpace,
                 plan: SamplePlan, skip_failures: bool = False,
                 policy: str | None = None,
                 on_measurement=None,
                 already_done: set[tuple[int, int]] | None = None) -> ResultSet:
    """One measurement per plan entry, strictly in plan order.

    A command executor runs the entries one at a time. A synthetic executor
    compiles its model once and evaluates every pending entry x replicate in
    a single vectorised call, so an out-of-range entry fails before any
    measurement is reported.

    `on_measurement(key, measurement)` is invoked after each entry (incremental
    persistence hook). `already_done` keys are skipped, enabling resume of an
    interrupted run without duplicate keys.
    """
    if plan.space_fingerprint != fingerprint(space.to_dict()):
        raise FingerprintError("plan was generated for a different space")
    executor.validate_against(space)
    policy = policy or plan.policy
    results = ResultSet(object_id=obj.object_id, plan_fingerprint=plan.fingerprint)
    pending: list[tuple[tuple[int, int], PlanEntry]] = []
    occurrence: dict[int, int] = {}
    for entry in plan.entries:
        ordinal = occurrence.get(entry.ec_index, 0)
        occurrence[entry.ec_index] = ordinal + 1
        key = (entry.ec_index, ordinal)
        if not (already_done and key in already_done):
            pending.append((key, entry))

    rows = None
    if executor.kind == "synthetic":
        assert executor.model is not None
        rows = _synthetic_replicates(executor.model, obj, space,
                                     [key[0] for key, _ in pending], plan.reps)
    for i, (key, entry) in enumerate(pending):
        try:
            if rows is not None:
                m = _synthetic_measurement(entry.ec_index, obj, rows[i], policy)
            else:
                m = measure(executor, obj, space, space.config_at(entry.ec_index),
                            plan.reps, policy, stratum=entry.stratum)
        except ExecutionError as e:
            failed = Measurement(
                ec_index=entry.ec_index, object_id=obj.object_id,
                replicates=(), aggregate=float("nan"), policy=policy,
                error=str(e),
            )
            if not skip_failures:
                raise
            results.failures.append(failed)
            if on_measurement is not None:
                on_measurement(key, failed)
            continue
        results.add(key, m)
        if on_measurement is not None:
            on_measurement(key, m)
    return results

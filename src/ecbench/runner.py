"""Plan execution against evaluated objects.

Two executors: a real command executor (wall-clock timing of subprocesses)
and a synthetic model executor (deterministic desk-scale stand-in). Commands
run strictly sequentially, one entry at a time, so real timings never
overlap. A synthetic plan is evaluated in one vectorised model call: its noise
is counter-based, so the batch gives the same bits as one replicate at a time.
"""

from __future__ import annotations

import numbers
import shlex
import statistics
import string
import subprocess
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (EcbenchError, ExecutionError, FingerprintError,
                     check_type, fits_float)
# fingerprint stays bound here: benchmarks/tracing.py patches runner.fingerprint
from .fingerprints import fingerprint  # noqa: F401
from .design import SamplePlan, space_fingerprint
# synth_time stays bound here: benchmarks/tracing.py patches runner.synth_time
from .model import SyntheticModel, synth_time  # noqa: F401
from .space import ConfigSpace, Configuration, ObjectConfig, index_column


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
        if self.timeout is not None:
            check_type("executor timeout", self.timeout, numbers.Real,
                       ExecutionError)

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
        if doc["kind"] == "synthetic":
            check_type("executor model", doc["model"], dict, ExecutionError)
            return cls(kind="synthetic",
                       model=SyntheticModel.from_dict(doc["model"]))
        templates = doc.get("templates", {})
        if type(templates) is not dict or not all(
                type(tpl) is str for tpl in templates.values()):
            raise ExecutionError("command templates must be a JSON object "
                                 "of stratum label to command string")
        return cls(kind=doc["kind"], templates=tuple(templates.items()),
                   stratum_factor=doc.get("stratum_factor"),
                   timeout=doc.get("timeout"))

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


_REPLICATES = ("a measured row holds as many replicates as the first, each "
               "a number")
_SCALARS = ("a measured row's aggregate, started_at and ended_at are numbers "
            "within float range")


def _is_number(value) -> bool:
    """Whether a float64 column takes `value` as `parse_results` takes a
    file's numbers: a real number, not a bool, within float range."""
    return (type(value) is not bool and isinstance(value, numbers.Real)
            and fits_float(value))


_COLUMNS = ("indices", "ordinals", "aggregates", "replicates", "policies",
            "started_at", "ended_at")


def _column(i: int):
    """Column i of `_folded()`, read-only; one left out raises."""
    def read(self) -> np.ndarray:
        column = self._folded()[i]
        if column is None:
            raise EcbenchError(f"the {_COLUMNS[i]} column was left out when "
                               "these measurements were read")
        return column
    return property(read)


class Measurements:
    """The measured rows of a result set, as columns in row order: `indices`
    (as `index_column` gives them), `ordinals` (occurrence ordinals, int64),
    `aggregates` (float64), `replicates` (float64, a row per measurement),
    `policies` (a string per row, dtype object), `started_at` and
    `ended_at` (float64). Rows `add`ed one at a time wait in a buffer that
    joins the columns when one is next read; `len` reads no column. `add`
    refuses a row unless its replicates, as many as the first row's, its
    aggregate and its times are numbers (not bools) within float range.

    A narrow read of a results file (`load_results(path, narrow=True)`)
    holds the indices, ordinals, aggregates and policies, and None for the
    replicates, started_at and ended_at columns, whose fields the read
    checked but did not convert: reading one of them raises an
    EcbenchError that names it, and `add` is refused."""

    (indices, ordinals, aggregates, replicates, policies, started_at,
     ended_at) = map(_column, range(7))

    def __init__(self, *columns: np.ndarray | None):
        self._columns = columns or _columns_of([], [])
        self._added: list[tuple[tuple[int, int], Measurement]] = []
        self._keys: set[tuple[int, int]] | None = None
        self._width: int | None = None  # replicates per row, once one is known

    def add(self, key: tuple[int, int], m: Measurement) -> None:
        if self._columns[3] is None:
            raise EcbenchError(
                f"measurement key {key}: rows cannot be added to "
                "measurements read without their replicates, started_at and "
                "ended_at columns")
        if self._keys is None:
            self._keys = set(zip(self.indices.tolist(),
                                 self.ordinals.tolist()))
            self._width = self.replicates.shape[1] if self._keys else None
        if key in self._keys:
            raise ExecutionError(f"duplicate measurement key {key}")
        if self._width not in (None, len(m.replicates)):
            raise ExecutionError(f"measurement key {key}: {_REPLICATES}")
        # floats, the common case, need one test
        for value in m.replicates:
            if type(value) is not float and not _is_number(value):
                raise ExecutionError(f"measurement key {key}: {_REPLICATES}")
        scalars = (m.aggregate, m.started_at, m.ended_at)
        if not (type(m.aggregate) is type(m.started_at) is type(m.ended_at)
                is float or all(map(_is_number, scalars))):
            raise ExecutionError(f"measurement key {key}: {_SCALARS}")
        self._width = len(m.replicates)
        self._keys.add(key)
        self._added.append((key, m))

    def _folded(self) -> tuple[np.ndarray, ...]:
        if self._added:
            added = _columns_of(*zip(*self._added))
            self._columns = added if not len(self._columns[0]) else tuple(
                np.concatenate(pair) for pair in zip(self._columns, added))
            self._added = []
        return self._columns

    def __len__(self) -> int:
        return len(self._columns[0]) + len(self._added)


def _columns_of(keys, rows) -> tuple[np.ndarray, ...]:
    """The columns of `Measurements` for measurements under their keys."""
    return (index_column([index for index, _ in keys]),
            np.array([ordinal for _, ordinal in keys], dtype=np.int64),
            np.array([m.aggregate for m in rows], dtype=np.float64),
            np.array([m.replicates for m in rows] or np.empty((0, 0)),
                     dtype=np.float64),
            np.array([m.policy for m in rows], dtype=object),
            np.array([m.started_at for m in rows], dtype=np.float64),
            np.array([m.ended_at for m in rows], dtype=np.float64))


@dataclass
class ResultSet:
    """One object's measured rows under one plan, keyed by (ec index,
    occurrence ordinal); `object_id` is every row's. Failed entries live in
    `failures`, never in the measured rows."""

    object_id: str
    plan_fingerprint: str
    measurements: Measurements = field(default_factory=Measurements)
    failures: list[Measurement] = field(default_factory=list)

    def add(self, key: tuple[int, int], m: Measurement) -> None:
        if m.object_id != self.object_id:  # the columns keep no object id
            raise ExecutionError(f"measurement of object {m.object_id!r} "
                                 f"added to the result set of "
                                 f"{self.object_id!r}")
        self.measurements.add(key, m)


def occurrence_ordinals(indices: np.ndarray) -> np.ndarray:
    """The occurrence ordinal of each index in order: the number of earlier
    occurrences of the same index."""
    order = np.argsort(indices, kind="stable")
    ranked = indices[order]
    positions = np.arange(len(indices))
    starts = np.ones(len(indices), dtype=bool)
    starts[1:] = ranked[1:] != ranked[:-1]
    ordinals = np.empty(len(indices), dtype=np.int64)
    ordinals[order] = positions - np.maximum.accumulate(
        np.where(starts, positions, 0))
    return ordinals


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


def measure(executor: ExecutorSpec, obj: ObjectConfig, space: ConfigSpace,
            ec: Configuration, reps: int, policy: str,
            stratum: str | None = None) -> Measurement:
    """Run `reps` sequential replicates of a command executor and aggregate
    them."""
    if executor.kind != "command":
        raise ExecutionError("measure runs command executors; execute_plan "
                             "evaluates a synthetic executor's plan")
    if reps < 1:
        raise ExecutionError("reps must be >= 1")
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
                 on_measurements=None,
                 already_done: set[tuple[int, int]] | None = None) -> ResultSet:
    """One measurement per plan entry, strictly in plan order.

    A command executor runs the entries one at a time. A synthetic executor
    compiles its model once and evaluates every pending entry x replicate in
    a single vectorised call, so an out-of-range entry fails before any
    measurement is reported.

    `on_measurements(pairs)` gets the (key, measurement) pairs finished since
    its last call (incremental persistence hook): a command executor's one
    pair after each entry, before the next entry starts, and a synthetic
    executor's every pair at once, after the loop.
    `already_done` keys are skipped, enabling resume of an interrupted run
    without duplicate keys.
    """
    if plan.space_fingerprint != space_fingerprint(space):
        raise FingerprintError("plan was generated for a different space")
    executor.validate_against(space)
    policy = policy or plan.policy
    results = ResultSet(object_id=obj.object_id, plan_fingerprint=plan.fingerprint)
    keys = zip(plan.indices.tolist(),
               occurrence_ordinals(plan.indices).tolist())
    pending = [(key, code) for key, code in zip(keys, plan.codes.tolist())
               if not (already_done and key in already_done)]

    rows = None
    if executor.kind == "synthetic":
        assert executor.model is not None
        # one compile, which refuses a space over the model's limit before
        # any index is converted, and one evaluation: bit-identical to
        # `synth_time` called once per replicate
        rows = executor.model.compile(space).noisy_values(
            index_column([key[0] for key, _ in pending])[:, None],
            obj.object_id, np.arange(plan.reps, dtype=np.int64)).tolist()
    finished = []  # pairs not yet reported
    for i, (key, code) in enumerate(pending):
        index = key[0]
        try:
            if rows is not None:
                # synthetic runs carry no meaningful wall time; zero
                # timestamps keep result files byte-reproducible
                m = Measurement(index, obj.object_id, tuple(rows[i]),
                                aggregate(rows[i], policy), policy)
            else:
                m = measure(executor, obj, space, space.config_at(index),
                            plan.reps, policy, stratum=plan.labels[code])
        except ExecutionError as e:
            m = Measurement(
                ec_index=index, object_id=obj.object_id,
                replicates=(), aggregate=float("nan"), policy=policy,
                error=str(e),
            )
            if not skip_failures:
                raise
            results.failures.append(m)
        else:
            results.add(key, m)
        if on_measurements is None:
            continue
        finished.append((key, m))
        if rows is None:  # a command entry is reported before the next runs
            on_measurements(finished)
            finished = []
    if finished:
        on_measurements(finished)
    return results

"""Run manifests, result persistence, and report emission.

Every result file on disk is accompanied by exactly one manifest recording
the fingerprint chain space -> plan -> results; a broken link is a load-time
error. Report files are byte-stable for identical inputs.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .compare import AsymmetryReport, ComparisonReport
from .errors import FingerprintError
from .fingerprints import (
    canonical_column,
    canonical_json,
    fingerprint_bytes,
    indented_json,
)
from .oracle import CoverageResult
from .runner import (
    Columns,
    Measurement,
    Measurements,
    ResultSet,
    index_column,
    occurrence_ordinals,
)


def manifest_path(results_path: str | Path) -> Path:
    return Path(str(results_path) + ".manifest.json")


def host_descriptor() -> dict:
    u = platform.uname()
    return {
        "system": u.system,
        "release": u.release,
        "machine": u.machine,
        "python": platform.python_version(),
    }


@dataclass
class RunManifest:
    space_fingerprint: str
    plan_fingerprint: str
    executor_hash: str
    object_config: dict
    seeds: dict = field(default_factory=dict)
    host: dict = field(default_factory=host_descriptor)
    tool_version: str = __version__
    created_at: float = field(default_factory=time.time)
    results_sha256: str | None = None

    def to_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "space_fingerprint": self.space_fingerprint,
            "plan_fingerprint": self.plan_fingerprint,
            "executor_hash": self.executor_hash,
            "object_config": self.object_config,
            "seeds": self.seeds,
            "host": self.host,
            "created_at": self.created_at,
            "results_sha256": self.results_sha256,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunManifest":
        return cls(
            space_fingerprint=doc["space_fingerprint"],
            plan_fingerprint=doc["plan_fingerprint"],
            executor_hash=doc["executor_hash"],
            object_config=doc.get("object_config", {}),
            seeds=doc.get("seeds", {}),
            host=doc.get("host", {}),
            tool_version=doc.get("tool_version", "unknown"),
            created_at=doc.get("created_at", 0.0),
            results_sha256=doc.get("results_sha256"),
        )


def measurement_line(m: Measurement) -> str:
    return canonical_json(m.to_dict())


def measurement_lines(measurements: list[Measurement]) -> str:
    """`measurement_line(m) + "\\n"` for each measurement, built from columns:
    one encoder call per scalar column, one over every row's replicates
    (split at `],[`, per row where a value's text holds it), and the error,
    object id and policy, each a string or null, encoded once per distinct
    triple. The columns hold the measurements' own objects, so the cyclic GC
    sees no new containers."""
    errors = [m.error for m in measurements]
    owners = [m.object_id for m in measurements]
    policies = [m.policy for m in measurements]
    middles = {triple: ',"error":%s,"object_id":%s,"policy":%s,"replicates":'
               % tuple(canonical_column(list(triple)))
               for triple in dict.fromkeys(zip(errors, owners, policies))}
    # tuple() of a tuple is the tuple itself; it encodes as to_dict's list
    replicates = [tuple(m.replicates) for m in measurements]
    rows = canonical_json(replicates)[2:-2].split("],[") if replicates else []
    if len(rows) != len(replicates):
        rows = [canonical_json(r)[1:-1] for r in replicates]
    return "".join([
        f'{{"aggregate":{a},"ec_index":{i},"ended_at":{e}{middles[t]}'
        f'[{r}],"started_at":{s}}}\n'
        for a, i, e, t, r, s in zip(
            canonical_column([m.aggregate for m in measurements]),
            canonical_column([m.ec_index for m in measurements]),
            canonical_column([m.ended_at for m in measurements]),
            zip(errors, owners, policies), rows,
            canonical_column([m.started_at for m in measurements]))])


class ResultWriter:
    """Incremental JSON Lines writer: one flushed line per measurement, so a
    crashed run keeps every line it wrote, with the manifest (including the
    results-file hash) written at finalize."""

    def __init__(self, path: str | Path, manifest: RunManifest,
                 append: bool = False):
        self.path = Path(path)
        self.manifest = manifest
        mode = "a" if append and self.path.exists() else "w"
        self._fh = self.path.open(mode)

    def write(self, key: tuple[int, int], m: Measurement) -> None:
        self._fh.write(measurement_line(m) + "\n")
        self._fh.flush()

    def write_all(self, measurements: list[Measurement]) -> None:
        """The lines `write` would give for each measurement, in one write."""
        self._fh.write(measurement_lines(measurements))
        self._fh.flush()

    def finalize(self) -> None:
        self._fh.close()
        self.manifest.results_sha256 = fingerprint_bytes(self.path.read_bytes())
        manifest_path(self.path).write_text(
            indented_json(self.manifest.to_dict(), sort_keys=True) + "\n")


def persist_results(results: ResultSet, manifest: RunManifest,
                    path: str | Path) -> None:
    if manifest.plan_fingerprint != results.plan_fingerprint:
        raise FingerprintError(
            "manifest plan fingerprint does not match the result set"
        )
    measurements = results.measurements
    writer = ResultWriter(path, manifest)
    writer.write_all([*(measurements[k] for k in sorted(measurements)),
                      *results.failures])
    writer.finalize()


def load_results(path: str | Path) -> tuple[ResultSet, RunManifest]:
    """Load a results file and validate it against its manifest: content hash,
    one manifest per file, no duplicate keys. Unknown extra fields in either
    file are ignored for forward compatibility."""
    path = Path(path)
    mpath = manifest_path(path)
    if not mpath.exists():
        raise FingerprintError(f"missing manifest for {path}")
    manifest = RunManifest.from_dict(json.loads(mpath.read_text()))

    data = path.read_bytes()
    if manifest.results_sha256 is not None:
        actual = fingerprint_bytes(data)
        if actual != manifest.results_sha256:
            raise FingerprintError(
                f"results file hash {actual[:12]}... does not match manifest"
            )
    results = parse_results(
        data, path, str(manifest.object_config.get("object_id", "")),
        manifest.plan_fingerprint)
    return results, manifest


_DECODER = json.JSONDecoder()
_JSON_WHITESPACE = " \t\n\r"


def _decode_line(line: str):
    """`json.loads(line)`, decoding a well-formed line only once."""
    text = line.strip(_JSON_WHITESPACE)
    try:
        doc, end = _DECODER.raw_decode(text)
        if end == len(text):
            return doc
    except json.JSONDecodeError:
        pass
    return json.loads(line)  # raises json.loads' own error for this line


def _documents(data: bytes, path: str | Path):
    """(line number, JSON value) of each non-blank line of a results file."""
    for lineno, line in enumerate(data.decode().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = _decode_line(line)
        except json.JSONDecodeError as e:
            raise FingerprintError(f"{path}:{lineno}: parse failure: {e}") from e
        yield lineno, doc


def _measured_rows(data: bytes, path: str | Path) -> list[Measurement]:
    return [Measurement.from_dict(doc) for _, doc in _documents(data, path)
            if doc.get("error") is None]


_LINE_TYPES = ("a measurement is a JSON object: ec_index a non-negative "
               "integer, object_id and policy strings, replicates a list, "
               "aggregate a number, error a string or null")


def parse_results(data: bytes, path: str | Path, object_id: str,
                  plan_fingerprint: str) -> ResultSet:
    """The result set in the bytes of a results file: one JSON measurement a
    line, blank lines skipped, keyed (ec_index, occurrence ordinal) in file
    order. `object_id` names the set only when no line does.

    Each line is decoded once and checked for the fields
    `Measurement.from_dict` reads and for their types (`_LINE_TYPES`). A
    measured line leaves its index, aggregate and policy in the set's
    columns; its `Measurement` is built, from `data`, only when a caller
    reads the rows."""
    indices, aggregates, policies, failures = [], [], set(), []
    for n, (lineno, doc) in enumerate(_documents(data, path)):
        if type(doc) is not dict:
            raise FingerprintError(f"{path}:{lineno}: {_LINE_TYPES}")
        # the reads of Measurement.from_dict, in its order, so that a line
        # missing a field fails here as it would fail there
        index, owner = doc["ec_index"], doc["object_id"]
        replicates, aggregate, policy = (doc["replicates"], doc["aggregate"],
                                         doc["policy"])
        error = doc.get("error")
        if not (type(index) is int and index >= 0 and type(owner) is str
                and type(replicates) is list
                and (type(aggregate) is float or type(aggregate) is int)
                and type(policy) is str
                and (error is None or type(error) is str)):
            raise FingerprintError(f"{path}:{lineno}: {_LINE_TYPES}")
        if error is None:
            indices.append(index)
            aggregates.append(aggregate)
            policies.add(policy)
        else:
            failures.append(Measurement.from_dict(doc))
        if n == 0:
            object_id = owner
    index = index_column(indices)
    columns = Columns(index, occurrence_ordinals(index),
                      np.array(aggregates, dtype=np.float64),
                      frozenset(policies))
    return ResultSet(
        object_id=object_id,
        plan_fingerprint=plan_fingerprint,
        measurements=Measurements(
            columns, functools.partial(_measured_rows, data, path)),
        failures=failures,
    )


def check_resumable(path: str | Path, manifest: RunManifest) -> None:
    """Refuse to append to `path` under `manifest` when the manifest beside
    it records another space, plan, executor or object. A file without a
    manifest (a run killed before it finalized) may be resumed."""
    mpath = manifest_path(path)
    if not mpath.exists():
        return
    recorded = RunManifest.from_dict(json.loads(mpath.read_text()))
    for what, before, now in (
        ("space fingerprint", recorded.space_fingerprint,
         manifest.space_fingerprint),
        ("plan fingerprint", recorded.plan_fingerprint,
         manifest.plan_fingerprint),
        ("executor hash", recorded.executor_hash, manifest.executor_hash),
        ("object id", recorded.object_config.get("object_id"),
         manifest.object_config.get("object_id")),
    ):
        if before != now:
            raise FingerprintError(
                f"cannot resume {path}: its manifest records {what} {before}, "
                f"this run has {now}"
            )


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def comparison_csv(report: ComparisonReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["group", "n", "mean_diff", "ci_lo", "ci_hi", "level", "verdict"])
    for g in (report.overall, *report.groups):
        w.writerow([
            g.group, g.n, _fmt(g.interval.center), _fmt(g.interval.low),
            _fmt(g.interval.high), _fmt(g.interval.level), g.verdict.value,
        ])
    return buf.getvalue()


def coverage_csv(rows: list[CoverageResult]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["methodology", "params", "cost_per_object", "iterations",
                "coverage"])
    for r in rows:
        w.writerow([r.methodology, r.params, r.cost_per_object, r.iterations,
                    _fmt(r.coverage)])
    return buf.getvalue()


def emit_report(report: ComparisonReport | AsymmetryReport | list[CoverageResult],
                fmt: str, path: str | Path) -> None:
    """Bit-stable serialization: sorted keys in JSON, fixed 6-decimal CSV."""
    path = Path(path)
    if fmt == "json":
        if isinstance(report, list):
            doc: object = [r.to_row() for r in report]
        else:
            doc = report.to_dict()
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    elif fmt == "csv":
        if isinstance(report, list):
            path.write_text(coverage_csv(report))
        elif isinstance(report, ComparisonReport):
            path.write_text(comparison_csv(report))
        else:
            raise ValueError("asymmetry reports are JSON-only")
    else:
        raise ValueError(f"unknown report format {fmt!r}")

"""Run manifests, result persistence, and report emission.

Every result file on disk is accompanied by exactly one manifest recording
the fingerprint chain space -> plan -> results; a broken link is a load-time
error. Report files are byte-stable for identical inputs.
"""

from __future__ import annotations

import csv
import io
import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .compare import AsymmetryReport, ComparisonReport
from .errors import FingerprintError, read_object
from .fingerprints import (
    canonical_column,
    canonical_json,
    fingerprint_bytes,
    indented_json,
)
from .oracle import CoverageResult
from .runner import (
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


# the fields of a result line, in the order its keys sort
_LINE_FIELDS = ("aggregate", "ec_index", "ended_at", "error", "object_id",
                "policy", "replicates", "started_at")


def measurement_lines(measurements: list[Measurement]) -> str:
    """`measurement_line(m) + "\\n"` for each measurement, built by `_lines`
    from columns of the measurements' own objects: no new GC containers."""
    return _lines(*([getattr(m, name) for m in measurements]
                    for name in _LINE_FIELDS))


def _lines(aggregates: list, indices: list, ended: list, errors: list,
           owners: list, policies: list, replicates: list,
           started: list) -> str:
    """One result line per row of the columns, a list per field of
    `_LINE_FIELDS`: one encoder call per scalar column, one over every row's
    replicates (split at `],[`, per row where a value's text holds it), and
    the error, object id and policy, each a string or null, encoded once
    per distinct triple."""
    middles = {triple: ',"error":%s,"object_id":%s,"policy":%s,"replicates":'
               % tuple(canonical_column(list(triple)))
               for triple in dict.fromkeys(zip(errors, owners, policies))}
    rows = canonical_json(replicates)[2:-2].split("],[") if replicates else []
    if len(rows) != len(replicates):
        rows = [canonical_json(r)[1:-1] for r in replicates]
    return "".join([
        f'{{"aggregate":{a},"ec_index":{i},"ended_at":{e}{middles[t]}'
        f'[{r}],"started_at":{s}}}\n'
        for a, i, e, t, r, s in zip(
            canonical_column(aggregates), canonical_column(indices),
            canonical_column(ended), zip(errors, owners, policies), rows,
            canonical_column(started))])


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

    def finalize(self) -> None:
        self._fh.close()
        _write_manifest(self.path, self.manifest)


def _write_manifest(path: str | Path, manifest: RunManifest) -> None:
    """Hash the results file at `path` into `manifest` and write it beside."""
    manifest.results_sha256 = fingerprint_bytes(Path(path).read_bytes())
    manifest_path(path).write_text(
        indented_json(manifest.to_dict(), sort_keys=True) + "\n")


def persist_results(results: ResultSet, manifest: RunManifest,
                    path: str | Path) -> None:
    """The result lines of the measured rows, in key order, then of the
    failures, written to `path` with the manifest beside it."""
    if manifest.plan_fingerprint != results.plan_fingerprint:
        raise FingerprintError(
            "manifest plan fingerprint does not match the result set"
        )
    rows = results.measurements
    order = np.lexsort((rows.ordinals, rows.indices))
    n = len(order)
    Path(path).write_text(_lines(
        rows.aggregates[order].tolist(), rows.indices[order].tolist(),
        rows.ended_at[order].tolist(), [None] * n, [results.object_id] * n,
        rows.policies[order].tolist(), rows.replicates[order].tolist(),
        rows.started_at[order].tolist()) + measurement_lines(results.failures))
    _write_manifest(path, manifest)


def load_results(path: str | Path) -> tuple[ResultSet, RunManifest]:
    """Load a results file and validate it against its manifest: content hash,
    one manifest per file, no duplicate keys. Unknown extra fields in either
    file are ignored for forward compatibility."""
    path = Path(path)
    mpath = manifest_path(path)
    if not mpath.exists():
        raise FingerprintError(f"missing manifest for {path}")
    manifest = RunManifest.from_dict(read_object(mpath, FingerprintError))

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


def _decode_line(line: str):
    """`json.loads(line)`, decoding a line without padding only once."""
    try:
        doc, end = _DECODER.raw_decode(line)
        if end == len(line):
            return doc
    except json.JSONDecodeError:
        pass
    return json.loads(line)  # raises json.loads' own error for this line


_LINE_TYPES = ("a measurement is a JSON object: ec_index a non-negative "
               "integer, object_id and policy strings, replicates a list, "
               "aggregate, started_at and ended_at numbers, error a string "
               "or null")
_REPLICATES = ("a measured line holds as many replicates as the first, "
               "each a number")
_NUMBERS = frozenset((float, int))  # the types of a JSON number's value


def parse_results(data: bytes, path: str | Path, object_id: str,
                  plan_fingerprint: str) -> ResultSet:
    """The result set in the bytes of a results file: one JSON measurement a
    line, blank lines skipped, keyed (ec_index, occurrence ordinal) in file
    order. `object_id` names the set only when no line does.

    Each line is decoded once and checked for the fields
    `Measurement.from_dict` reads and for their types (`_LINE_TYPES`). Every
    line names the first line's object. A measured line (one with no error)
    leaves its fields in the set's columns (`_REPLICATES`); a failure line
    becomes a `Measurement`."""
    indices, aggregates, replicates_flat, policies, started, ended = (
        [], [], [], [], [], [])
    failures, width, names = [], 0, {}
    for lineno, line in enumerate(data.decode().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = _decode_line(line)
        except json.JSONDecodeError as e:
            raise FingerprintError(f"{path}:{lineno}: parse failure: {e}") from e
        if type(doc) is not dict:
            raise FingerprintError(f"{path}:{lineno}: {_LINE_TYPES}")
        # the reads of Measurement.from_dict, in its order, so that a line
        # missing a field fails here as it would fail there
        index, owner = doc["ec_index"], doc["object_id"]
        replicates, aggregate, policy = (doc["replicates"], doc["aggregate"],
                                         doc["policy"])
        started_at, ended_at, error = (doc.get("started_at", 0.0),
                                       doc.get("ended_at", 0.0),
                                       doc.get("error"))
        if not (type(index) is int and index >= 0 and type(owner) is str
                and type(replicates) is list and type(aggregate) in _NUMBERS
                and type(policy) is str and type(started_at) in _NUMBERS
                and type(ended_at) in _NUMBERS
                and (error is None or type(error) is str)):
            raise FingerprintError(f"{path}:{lineno}: {_LINE_TYPES}")
        if owner != object_id:
            if indices or failures:
                raise FingerprintError(f"{path}:{lineno}: object_id {owner!r}, "
                                       f"where the first line has {object_id!r}")
            object_id = owner  # the first line names the set
        if error is not None:
            failures.append(Measurement.from_dict(doc))
            continue
        if not indices:
            width = len(replicates)
        if len(replicates) != width:
            raise FingerprintError(f"{path}:{lineno}: {_REPLICATES}")
        for value in replicates:  # a loop costs less than a set of types
            if type(value) is not float and type(value) is not int:
                raise FingerprintError(f"{path}:{lineno}: {_REPLICATES}")
        indices.append(index)
        aggregates.append(aggregate)
        replicates_flat.extend(replicates)
        # one str per distinct policy, not one per row
        policies.append(names.setdefault(policy, policy))
        started.append(started_at)
        ended.append(ended_at)
    index = index_column(indices)
    measurements = Measurements(
        index, occurrence_ordinals(index),
        np.array(aggregates, dtype=np.float64),
        np.array(replicates_flat, dtype=np.float64).reshape(len(indices),
                                                            width),
        np.array(policies, dtype=object),
        np.array(started, dtype=np.float64), np.array(ended, dtype=np.float64))
    return ResultSet(object_id=object_id, plan_fingerprint=plan_fingerprint,
                     measurements=measurements, failures=failures)


def check_resumable(path: str | Path, manifest: RunManifest) -> None:
    """Refuse to append to `path` under `manifest` when the manifest beside
    it records another space, plan, executor or object. A file without a
    manifest (a run killed before it finalized) may be resumed."""
    mpath = manifest_path(path)
    if not mpath.exists():
        return
    recorded = RunManifest.from_dict(read_object(mpath, FingerprintError))
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

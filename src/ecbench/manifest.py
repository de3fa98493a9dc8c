"""Run manifests, result persistence, and report emission.

Every result file on disk is accompanied by exactly one manifest recording
the fingerprint chain space -> plan -> results; a broken link is a load-time
error. Report files are byte-stable for identical inputs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import platform
import re
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .compare import AsymmetryReport, ComparisonReport
from .errors import FingerprintError, check_type, fits_float, read_object
# fingerprint_bytes stays bound: benchmarks/tracing.py patches it here
from .fingerprints import fingerprint_bytes  # noqa: F401
from .fingerprints import canonical_column, canonical_json, indented_json
from .oracle import CoverageResult
from .runner import Measurement, Measurements, ResultSet, occurrence_ordinals
from .space import index_column


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
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunManifest":
        check_type("manifest object_config", doc.get("object_config", {}),
                   dict, FingerprintError)
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
    """One result line without its newline: the reference `measurement_lines`
    is tested against, and what benchmarks/tracing.py counts."""
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


_ROWS = 1024  # result lines built per `measurement_lines` call of a writer


class ResultWriter:
    """Incremental JSON Lines writer: each batch of measurements is flushed
    as it comes, so a crashed run keeps every line it wrote, with the
    manifest (including the results-file hash) written at finalize."""

    def __init__(self, path: str | Path, manifest: RunManifest,
                 append: bool = False):
        self.path = Path(path)
        self.manifest = manifest
        mode = "a" if append and self.path.exists() else "w"
        self._fh = self.path.open(mode)

    def write(self, pairs: list[tuple[tuple[int, int], Measurement]]) -> None:
        """Append the result lines of the (key, measurement) `pairs`, as
        `execute_plan` reports them, `_ROWS` lines per `measurement_lines`
        call, and flush them."""
        for first in range(0, len(pairs), _ROWS):
            self._fh.write(measurement_lines(
                [m for _, m in pairs[first:first + _ROWS]]))
        self._fh.flush()

    def finalize(self) -> None:
        self._fh.close()
        _write_manifest(self.path, self.manifest)


_BLOCK = 1 << 14  # bytes per read of a results file


def _write_manifest(path: str | Path, manifest: RunManifest) -> None:
    """Hash the results file at `path` into `manifest` and write it beside."""
    digest = hashlib.sha256()
    for chunk in _chunks(path):
        digest.update(chunk)
    manifest.results_sha256 = digest.hexdigest()
    # canonical_json sorts every dict's keys and json.loads keeps that order:
    # json.dumps(doc, sort_keys=True, indent=2)'s text, from the C encoder
    manifest_path(path).write_text(
        indented_json(json.loads(canonical_json(manifest.to_dict()))) + "\n")


def _chunks(path: str | Path) -> Iterator[bytes]:
    """The bytes of the file at `path`, `_BLOCK` bytes per read."""
    with Path(path).open("rb") as fh:
        while chunk := fh.read(_BLOCK):
            yield chunk


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
    one manifest per file, no duplicate keys. A manifest must record the
    hash as a string. Unknown extra fields in either file are ignored for
    forward compatibility."""
    path = Path(path)
    mpath = manifest_path(path)
    if not mpath.exists():
        raise FingerprintError(f"missing manifest for {path}")
    manifest = RunManifest.from_dict(read_object(mpath, FingerprintError))
    check_type(f"{mpath}: results_sha256", manifest.results_sha256, str,
               FingerprintError)
    results = read_results(
        path, str(manifest.object_config.get("object_id", "")),
        manifest.plan_fingerprint, manifest.results_sha256)
    return results, manifest


def read_results(path: str | Path, object_id: str, plan_fingerprint: str,
                 sha256: str | None = None) -> ResultSet:
    """The result set in the results file at `path`, as `parse_results`
    gives it for the file's bytes, read, hashed and parsed in one pass of
    `_BLOCK`-byte reads. With `sha256`, bytes that hash to anything else
    raise a FingerprintError, which outranks every error of the text."""
    rows, digest = _Rows(path, object_id), hashlib.sha256()
    for chunk in _chunks(path):
        digest.update(chunk)
        rows.feed(chunk)
    if sha256 is not None:
        actual = digest.hexdigest()
        if actual != sha256:
            raise FingerprintError(
                f"results file hash {actual[:12]}... does not match manifest"
            )
    return rows.result(plan_fingerprint)


def drop_torn_line(path: str | Path) -> None:
    """Truncate the results file at `path` just after its last newline. A
    run killed mid-write leaves a torn last line; a resume runs its entry
    again. The file is searched from its end, a `_BLOCK` read at a time."""
    size = keep = Path(path).stat().st_size
    with Path(path).open("rb") as fh:
        while keep:
            start = max(0, keep - _BLOCK)
            fh.seek(start)
            cut = fh.read(keep - start).rfind(b"\n") + 1
            keep = start + cut
            if cut:
                break
    if keep < size:
        os.truncate(path, keep)


_LINE_TYPES = ("a measurement is a JSON object: ec_index a non-negative "
               "integer, object_id and policy strings, replicates a list, "
               "aggregate, started_at and ended_at numbers, error a string "
               "or null")
_REPLICATES = ("a measured line holds as many replicates as the first, "
               "each a number")
_RANGE = ("aggregate, started_at, ended_at and a measured line's "
          "replicates lie within float range")
_NUMBERS = frozenset((float, int))  # the types of a JSON number's value

# a JSON number with a fraction or an exponent, which `json` decodes by
# `float(token)`; `[0-9]`, not `\d`, since `float` takes any Unicode digit
_FLOAT = (r"-?+(?:0|[1-9][0-9]*+)"
          r"(?:\.[0-9]++(?:[eE][-+]?+[0-9]++)?+|[eE][-+]?+[0-9]++)")
_NAME = r'"([ !#-\[\]-~]*+)"'  # printable ASCII but `"` and `\`


# the whole line, newline included, that `_lines` writes for a measured row
# whose numbers are all `_FLOAT`s and whose names need no escapes, with an
# index of at most 39 digits, as 2^128 - 1 has, which `int` always takes;
# no part of it is a line boundary, so a match is one line
_MEASURED = re.compile(
    rf'^\{{"aggregate":({_FLOAT}),"ec_index":(0|[1-9][0-9]{{0,38}}+),'
    rf'"ended_at":({_FLOAT}),"error":null,"object_id":{_NAME},'
    rf'"policy":{_NAME},"replicates":\[({_FLOAT}(?:,{_FLOAT})*+)\],'
    rf'"started_at":({_FLOAT})\}}\n', re.MULTILINE)


def parse_results(data: bytes, path: str | Path, object_id: str,
                  plan_fingerprint: str) -> ResultSet:
    """The result set in the bytes of a results file: one JSON measurement a
    line, blank lines skipped, keyed (ec_index, occurrence ordinal) in file
    order. `object_id` names the set only when no line does.

    The bytes go to `_Rows.feed` `_BLOCK` bytes at a time, as `read_results`
    reads a file. Each line is decoded once (a block of the lines ecbench
    writes for measured rows, in one pass) and checked, by the one rule set
    of `_Rows.add_lines`, for the fields `Measurement.from_dict` reads
    and for their types (`_LINE_TYPES`), so the first bad line decides the
    error; a UTF-8 error anywhere outranks it. Every line names the first
    line's object, and its numbers lie within float range (`_RANGE`). A
    measured line (one with no error) leaves its fields in the set's columns
    (`_REPLICATES`); a failure line becomes a `Measurement`."""
    rows = _Rows(path, object_id)
    for start in range(0, len(data), _BLOCK):
        rows.feed(data[start:start + _BLOCK])
    return rows.result(plan_fingerprint)


class _Rows:
    """The rows of a results file's bytes fed so far, as column arrays per
    block of whole lines, and the bytes after the last newline fed.

    A block is cut just after a newline, so `str.splitlines` gives the
    lines, and line numbers, that it gives on the whole text (a `\\r\\n`
    pair is never split, and a cut never falls inside a UTF-8 character,
    since a newline is never part of one); only one block's text is live at
    once. A block of lines that all match `_MEASURED` goes whole into the
    columns (`_add_columns`), every other block line by line (`add_lines`),
    so each block gives the same columns, or the same first error, either
    way. The first error is kept and raised by `result`, after every block
    has been checked to decode."""

    def __init__(self, path: str | Path, object_id: str):
        self.path, self.object_id = path, object_id
        self.width: int | None = None  # replicates per row, once one is read
        # per column, its arrays for the blocks so far
        self.columns: tuple[list[np.ndarray], ...] = ([], [], [], [], [], [])
        self.failures: list[Measurement] = []
        self.names: dict[str, str] = {}  # one str per distinct policy
        self.tail = bytearray()  # the bytes fed after the last newline
        self.offset, self.lineno = 0, 1  # where the tail starts in the file
        self.error: Exception | None = None

    def feed(self, chunk: bytes) -> None:
        """Take the next bytes of the file, parsing the lines they end. A
        line longer than a chunk grows the tail, which is copied once."""
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            self.tail += chunk
            return
        block, self.tail = self.tail + chunk[:cut], bytearray(chunk[cut:])
        self._add_block(block)

    def _add_block(self, block: bytes) -> None:
        """Parse a block of whole lines; once an error is kept, only check
        that the block decodes."""
        if not isinstance(self.error, UnicodeDecodeError):
            try:
                text = block.decode()
            except UnicodeDecodeError as e:
                # what decoding the whole file raises: positions count from
                # its start, so the zero bytes put the block at its offset
                self.error = UnicodeDecodeError(
                    e.encoding, bytes(self.offset) + e.object,
                    self.offset + e.start, self.offset + e.end, e.reason)
            else:
                if self.error is None and not self._add_columns(text):
                    lines = text.splitlines()
                    try:  # a line's error waits until the rest decodes
                        self.add_lines(lines, self.lineno)
                    except Exception as e:
                        self.error = e
                    self.lineno += len(lines)
        self.offset += len(block)

    def _add_columns(self, text: str) -> bool:
        """Add the rows of a block's text when every line of it matches
        `_MEASURED` and names this set's object (or the first object of a
        set with no lines yet) with the set's replicate count; otherwise
        change nothing and return False. A fed block ends in a newline and
        the last tail holds none, so a match per newline is a match per
        line."""
        found = _MEASURED.findall(text)
        if not found or len(found) != text.count("\n"):
            return False
        aggregates, indices, ended, owners, policies, replicates, started = (
            zip(*found))
        n, owner = len(found), owners[0]
        widths = set(map(str.count, replicates, repeat(",")))
        width = widths.pop() + 1
        if (owners.count(owner) != n or widths
                or self.width not in (None, width)
                or owner != self.object_id and (self.columns[0]
                                                or self.failures)):
            return False
        values = np.fromiter(map(float, chain(
            aggregates, started, ended, ",".join(replicates).split(","))),
            np.float64, n * (3 + width))
        self.object_id, self.width = owner, width
        for column, array in zip(self.columns, (
                index_column(list(map(int, indices))), values[:n],
                values[3 * n:].reshape(n, width),
                np.array(list(map(self.names.setdefault, policies, policies)),
                         dtype=object),
                values[n:2 * n], values[2 * n:3 * n])):
            column.append(array)
        self.lineno += n
        return True

    def add_lines(self, lines: list[str], lineno: int) -> None:
        """Add the rows of `lines`, the first of them line `lineno`, one
        line at a time, raising at the first bad line."""
        rows, path = [], self.path
        for lineno, line in enumerate(lines, start=lineno):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise FingerprintError(
                    f"{path}:{lineno}: parse failure: {e}") from e
            if type(doc) is not dict:
                raise FingerprintError(f"{path}:{lineno}: {_LINE_TYPES}")
            # the reads of Measurement.from_dict, in its order, so that a line
            # missing a field fails here as it would fail there
            index, owner = doc["ec_index"], doc["object_id"]
            replicates, aggregate, policy = (doc["replicates"],
                                             doc["aggregate"], doc["policy"])
            started_at, ended_at, error = (doc.get("started_at", 0.0),
                                           doc.get("ended_at", 0.0),
                                           doc.get("error"))
            if not (type(index) is int and index >= 0 and type(owner) is str
                    and type(replicates) is list
                    and type(aggregate) in _NUMBERS
                    and type(policy) is str and type(started_at) in _NUMBERS
                    and type(ended_at) in _NUMBERS
                    and (error is None or type(error) is str)):
                raise FingerprintError(f"{path}:{lineno}: {_LINE_TYPES}")
            if owner != self.object_id:
                if self.columns[0] or rows or self.failures:
                    raise FingerprintError(
                        f"{path}:{lineno}: object_id {owner!r}, where the "
                        f"first line has {self.object_id!r}")
                self.object_id = owner  # the first line names the set
            if not all(map(fits_float, (aggregate, started_at, ended_at))):
                raise FingerprintError(f"{path}:{lineno}: {_RANGE}")
            if error is not None:
                self.failures.append(Measurement.from_dict(doc))
                continue
            if self.width is None:
                self.width = len(replicates)
            if len(replicates) != self.width:
                raise FingerprintError(f"{path}:{lineno}: {_REPLICATES}")
            for value in replicates:
                if type(value) not in _NUMBERS:
                    raise FingerprintError(f"{path}:{lineno}: {_REPLICATES}")
                if not fits_float(value):
                    raise FingerprintError(f"{path}:{lineno}: {_RANGE}")
            rows.append((index, aggregate, replicates, policy, started_at,
                         ended_at))
        if rows:
            self._add(*zip(*rows))

    def _add(self, indices, aggregates, replicates, policies, started,
             ended) -> None:
        """Append one block's measured rows to the column arrays."""
        for column, array in zip(self.columns, (
                index_column(indices), np.array(aggregates, dtype=np.float64),
                np.fromiter(chain.from_iterable(replicates), np.float64,
                            len(indices) * (self.width or 0)).reshape(
                    len(indices), self.width or 0),
                np.array(list(map(self.names.setdefault, policies, policies)),
                         dtype=object),
                np.array(started, dtype=np.float64),
                np.array(ended, dtype=np.float64))):
            column.append(array)

    def result(self, plan_fingerprint: str) -> ResultSet:
        """The result set of every byte fed, the last line needing no
        newline, or the first error of the file."""
        if self.tail:
            self._add_block(self.tail)
            self.tail = bytearray()
        if self.error is not None:
            raise self.error
        if not self.columns[0]:
            self._add((), (), (), (), (), ())
        joined = []
        for parts in self.columns:  # each column's parts dropped once joined
            joined.append(np.concatenate(parts))
            parts.clear()
        index, *columns = joined
        return ResultSet(
            object_id=self.object_id, plan_fingerprint=plan_fingerprint,
            measurements=Measurements(index, occurrence_ordinals(index),
                                      *columns),
            failures=self.failures)


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


def _csv(header: tuple[str, ...], rows: list[dict],
         float_columns: set[str]) -> str:
    """The `header` columns of `rows`, those in `float_columns` with 6
    decimals whatever the type of their value (a stored report may hold 5)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([f"{row[c]:.6f}" if c in float_columns else row[c]
                 for c in header] for row in rows)
    return buf.getvalue()


def emit_report(report: ComparisonReport | AsymmetryReport | list[CoverageResult],
                fmt: str, path: str | Path) -> None:
    """Bit-stable serialization: sorted keys in JSON, fixed 6-decimal CSV.
    A CSV row is the fields of a JSON row: a comparison group's or a
    coverage result's."""
    doc = ([r.to_row() for r in report] if isinstance(report, list)
           else report.to_dict())
    if fmt == "json":
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    elif fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    elif isinstance(report, list):
        text = _csv(("methodology", "params", "cost_per_object", "iterations",
                     "coverage"), doc, {"coverage"})
    elif isinstance(report, ComparisonReport):
        text = _csv(("group", "n", "mean_diff", "ci_lo", "ci_hi", "level",
                     "verdict"), [doc["overall"], *doc["groups"]],
                    {"mean_diff", "ci_lo", "ci_hi", "level"})
    else:
        raise ValueError("asymmetry reports are JSON-only")
    Path(path).write_text(text)

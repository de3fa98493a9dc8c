import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ecbench
import ecbench.fingerprints
import ecbench.manifest

from ecbench import demo
from ecbench.cli import main
from ecbench.compare import compare_objects
from ecbench.design import (
    PlanEntry,
    SamplePlan,
    stratified_sample,
)
from ecbench.errors import FingerprintError
from ecbench.fingerprints import canonical_json, fingerprint, fingerprint_bytes
from ecbench.manifest import (
    ResultWriter,
    RunManifest,
    drop_torn_line,
    emit_report,
    load_results,
    manifest_path,
    measurement_line,
    parse_results,
    persist_results,
)
from ecbench.model import SyntheticModel
from ecbench.runner import (
    ExecutorSpec,
    Measurement,
    ResultSet,
    execute_plan,
    occurrence_ordinals,
)
from ecbench.space import Factor, build_space
from oracles import (
    LineParseError,
    LineTypeError,
    columns_reference,
    keyed_rows,
    line_in_file_reference,
    measurement_reference,
    occurrence_keys_reference,
    parse_lines_reference,
)
from test_golden import persisted_pair


def assert_same_columns(rows, want):
    """Each column of `rows` has the dtype, shape and bits of its reference
    in `want` (an object column, its values): -0.0 is not 0.0, and a NaN is
    the NaN it was read as."""
    for name, column in want.items():
        got = getattr(rows, name)
        assert (name, got.dtype, got.shape) == (name, column.dtype,
                                                column.shape)
        assert (got.tolist() if got.dtype == object else got.tobytes()) == (
            column.tolist() if column.dtype == object else column.tobytes())


def run_demo(tmp_path, obj, plan=None, space=None):
    space = space or demo.demo_space_720()
    plan = plan or stratified_sample(space, "workload", 16, 3, seed=5)
    ex = ExecutorSpec(kind="synthetic", model=demo.gaussian_model())
    results = execute_plan(ex, obj, space, plan)
    manifest = RunManifest(
        space_fingerprint=fingerprint(space.to_dict()),
        plan_fingerprint=plan.fingerprint,
        executor_hash=fingerprint(ex.to_dict()),
        object_config={"object_id": obj.object_id},
    )
    path = tmp_path / f"{obj.object_id}.jsonl"
    persist_results(results, manifest, path)
    return results, path


class TestPersistLoad:
    def test_roundtrip(self, tmp_path):
        results, path = run_demo(tmp_path, demo.OBJECT_A)
        loaded, manifest = load_results(path)
        assert keyed_rows(loaded) == keyed_rows(results)
        assert loaded.object_id == "cpu_a"
        assert manifest.results_sha256 is not None

    def test_persisting_a_loaded_set_gives_its_file_back(self, tmp_path):
        # float replicates, both policies, timestamps, repeated indices, an
        # index past 2^64 (an object index column) and a failure line
        results = ResultSet(object_id="cpu_a", plan_fingerprint="p")
        indices = [2**64 + 5, 3, 2**64 + 5, 0, 3, 2**70]
        for n, key in enumerate(occurrence_keys_reference(indices)):
            reps = (n + 0.1, -0.0, 1e16 + n, 5e-324)
            results.add(key, Measurement(
                key[0], "cpu_a", reps, sum(reps) / 4, ("mean", "median")[n % 2],
                started_at=n * 1.5, ended_at=n * 1.5 + 0.25))
        results.failures.append(Measurement(
            7, "cpu_a", (), float("nan"), "mean", error="exit 1"))
        manifest = RunManifest(space_fingerprint="s", plan_fingerprint="p",
                               executor_hash="e",
                               object_config={"object_id": "cpu_a"})
        persist_results(results, manifest, tmp_path / "first.jsonl")
        loaded, recorded = load_results(tmp_path / "first.jsonl")
        assert loaded.measurements.indices.dtype == object
        persist_results(loaded, recorded, tmp_path / "second.jsonl")
        for name in ("{}.jsonl", "{}.jsonl.manifest.json"):
            assert ((tmp_path / name.format("second")).read_bytes()
                    == (tmp_path / name.format("first")).read_bytes())

    def test_a_loaded_set_keeps_no_reference_to_the_file_bytes(self, tmp_path):
        results, path = run_demo(tmp_path, demo.OBJECT_A)
        data = path.read_bytes()
        before = sys.getrefcount(data)
        loaded = parse_results(data, path, "cpu_a", results.plan_fingerprint)
        assert sys.getrefcount(data) == before
        assert len(loaded.measurements) == len(results.measurements)

    def test_missing_manifest_rejected(self, tmp_path):
        _, path = run_demo(tmp_path, demo.OBJECT_A)
        manifest_path(path).unlink()
        with pytest.raises(FingerprintError):
            load_results(path)

    def test_tampered_results_rejected(self, tmp_path):
        _, path = run_demo(tmp_path, demo.OBJECT_A)
        text = path.read_text()
        path.write_text(text.replace('"aggregate":', '"aggregate":9', 1))
        with pytest.raises(FingerprintError):
            load_results(path)

    def test_tampered_manifest_hash_rejected(self, tmp_path):
        _, path = run_demo(tmp_path, demo.OBJECT_A)
        mp = manifest_path(path)
        doc = json.loads(mp.read_text())
        doc["results_sha256"] = "0" * 64
        mp.write_text(json.dumps(doc))
        with pytest.raises(FingerprintError):
            load_results(path)

    @pytest.mark.parametrize("recorded", ["missing", None, 5])
    def test_a_manifest_without_a_hash_string_is_refused(self, tmp_path,
                                                         recorded):
        # a tampered file is refused when its manifest drops the hash too
        _, path = run_demo(tmp_path, demo.OBJECT_A)
        path.write_text(path.read_text().replace('"aggregate":',
                                                 '"aggregate":9', 1))
        mp = manifest_path(path)
        doc = json.loads(mp.read_text())
        del doc["results_sha256"]
        if recorded != "missing":
            doc["results_sha256"] = recorded
        mp.write_text(json.dumps(doc))
        with pytest.raises(FingerprintError) as e:
            load_results(path)
        assert str(e.value) == (f"{mp}: results_sha256 must be a string, "
                                f"not {doc.get('results_sha256')!r}")

    def test_extra_fields_tolerated(self, tmp_path):
        _, path = run_demo(tmp_path, demo.OBJECT_A)
        mp = manifest_path(path)
        doc = json.loads(mp.read_text())
        doc["future_extension"] = {"x": 1}
        mp.write_text(json.dumps(doc))
        # hash covers the results file, not the manifest itself
        load_results(path)

    def test_mismatched_plan_fingerprint_rejected(self, tmp_path):
        space = demo.demo_space_720()
        plan = stratified_sample(space, "workload", 4, 3, seed=5)
        ex = ExecutorSpec(kind="synthetic", model=demo.gaussian_model())
        results = execute_plan(ex, demo.OBJECT_A, space, plan)
        manifest = RunManifest(
            space_fingerprint=fingerprint(space.to_dict()),
            plan_fingerprint="not-the-plan",
            executor_hash="x", object_config={},
        )
        with pytest.raises(FingerprintError):
            persist_results(results, manifest, tmp_path / "r.jsonl")

    def test_persist_writes_what_a_line_writer_writes(self, tmp_path):
        space = demo.demo_space_720()
        plan = stratified_sample(space, "workload", 4, 2, seed=9)
        ex = ExecutorSpec(kind="synthetic", model=demo.gaussian_model())
        results = execute_plan(ex, demo.OBJECT_A, space, plan)
        rows = keyed_rows(results)
        assert list(rows) != sorted(rows)
        results.failures += [
            Measurement(ec_index=i, object_id="cpu_a", replicates=(),
                        aggregate=float("nan"), policy="mean", error=err)
            for i, err in ((7, "exit 1"), (3, "timeout"))]

        def manifest():
            return RunManifest(space_fingerprint="s",
                               plan_fingerprint=plan.fingerprint,
                               executor_hash="e", created_at=1.5,
                               object_config={"object_id": "cpu_a"})

        persist_results(results, manifest(), tmp_path / "all.jsonl")
        writer = ResultWriter(tmp_path / "lines.jsonl", manifest())
        for key in sorted(rows):
            writer.write([(key, rows[key])])
        for m in results.failures:
            writer.write([((m.ec_index, -1), m)])
        writer.finalize()
        for name in ("{}.jsonl", "{}.jsonl.manifest.json"):
            assert ((tmp_path / name.format("all")).read_bytes()
                    == (tmp_path / name.format("lines")).read_bytes())
        lines = (tmp_path / "all.jsonl").read_text().splitlines()
        assert len(lines) == len(results.measurements) + 2
        assert [json.loads(line)["error"] for line in lines[-3:]] == [
            None, "exit 1", "timeout"]

    def test_lines_parse_as_json_loads_parses_them(self, tmp_path):
        path = tmp_path / "r.jsonl"
        manifest = RunManifest(space_fingerprint="s", plan_fingerprint="p",
                               executor_hash="e",
                               object_config={"object_id": "cpu_a"})
        doc = st.builds(
            lambda i, v: canonical_json(Measurement(
                ec_index=i, object_id="cpu_a", replicates=(v, v),
                aggregate=v, policy="mean").to_dict()),
            st.integers(0, 3), st.floats(-1e6, 1e6, allow_nan=False))
        # a measurement with one field set to a value of any JSON type,
        # well typed or not
        typed = {"ec_index": 3, "object_id": "cpu_a", "replicates": [1.5, 2.5],
                 "aggregate": 2.0, "policy": "mean"}
        value = st.sampled_from([0, 3, -1, 2**64, 2.5, "5", "cpu_a", "mean",
                                 True, None, [], [1.5, 2.5], [1.5], [2, 3],
                                 [1.5, "2.5"], [True, 1.5], [None, 1.5], {}])
        retyped = st.tuples(st.sampled_from([*typed, "error"]), value).map(
            lambda kv: canonical_json({**typed, kv[0]: kv[1]}))
        # space, tab, NBSP, form feed and carriage return: JSON whitespace,
        # Unicode-only whitespace and str.splitlines boundaries
        pad = st.text(alphabet=" \t\xa0\x0c\r", max_size=3)
        line = st.one_of(
            retyped,
            st.tuples(pad, doc, pad).map("".join),
            st.tuples(doc, pad, doc).map("".join),  # two values on one line
            st.tuples(doc, st.integers(1, 40)).map(lambda t: t[0][:-t[1]]),
            st.text(alphabet='{}[]":,.-0e1nultr \t\xa0', max_size=6),
            pad,
        ).map(lambda text: [text])
        # runs of written lines, long enough to fill whole blocks, most of
        # them of one object and replicate count: in a clean run, every
        # number is a float written with a fraction or an exponent and no
        # name needs an escape, but for the hand-edited token -0; other runs
        # add ints, Infinity and NaN, and names that do
        floats = [-0.0, 0.0, 5e-324, 1e16, 3.0, -2.5, 0.1, 1e308]
        numbers = {True: st.sampled_from(floats), False: st.sampled_from([
            *floats, 0, 3, 2**60, float("inf"), float("-inf"), float("nan")])}
        ascii_names = ["mean", "median", "", "p q"]
        names = {True: st.sampled_from(ascii_names), False: st.sampled_from([
            *ascii_names, "\xe9", "\u20ac", 'a"b', "a\\b", "\x7f"])}
        index = st.integers(0, 40) | st.sampled_from([2**63, 2**70])

        @st.composite
        def run(draw):
            plain = draw(st.booleans())
            owners = st.sampled_from(draw(st.sampled_from([
                ["cpu_a"], ["cpu_b"], ["\xe9"], ["cpu_a", "cpu_b"]])))
            widths = st.sampled_from(draw(st.sampled_from([[1], [3], [2, 3]])))
            number = numbers[plain]
            rows = [measurement_line(Measurement(
                draw(index), draw(owners),
                tuple(draw(st.lists(number, min_size=width, max_size=width))),
                draw(number), draw(names[plain]), draw(number), draw(number))
            ).replace(":-0.0,", ":-0," if draw(st.booleans()) else ":-0.0,")
                for width in draw(st.lists(widths, min_size=1, max_size=4))]
            return rows * draw(st.integers(1, 130))

        written = [measurement_line(Measurement(i, owner, reps, 1.5, "mean"))
                   for i, owner, reps in ((0, "cpu_a", (0.5,)),
                                          (1, "cpu_b", (0.5,)),
                                          (2, "cpu_a", (0.5, 1.5)))]

        @settings(max_examples=300, deadline=None)
        @given(lines=st.lists(line | run(), max_size=5).map(
                   lambda runs: sum(runs, [])),
               end=st.sampled_from(["", "\n", "\r\n"]))
        @example(lines=written[:2], end="\n")  # two objects in a block
        @example(lines=written[::2], end="\n")  # two replicate counts
        @example(lines=[written[0].replace(":1.5,", ":-0,")], end="\n")
        def check(lines, end):
            data = ("\n".join(lines) + end).encode()
            path.write_bytes(data)
            manifest.results_sha256 = fingerprint_bytes(data)
            manifest_path(path).write_text(json.dumps(manifest.to_dict()))
            seen = []
            try:  # lines are read in order: the first bad line decides
                for lineno, value in parse_lines_reference(data):
                    m = measurement_reference(value)
                    line_in_file_reference(m, seen)
                    seen.append(m)
            except LineParseError as e:
                with pytest.raises(FingerprintError) as got:
                    load_results(path)
                assert str(got.value) == f"{path}:{e}"
            except LineTypeError:
                with pytest.raises(FingerprintError) as got:
                    load_results(path)
                assert str(got.value).startswith(f"{path}:{lineno}: ")
            except (TypeError, KeyError, AttributeError) as e:
                with pytest.raises(type(e)):
                    load_results(path)
            else:
                results, _ = load_results(path)
                # failure lines are not measurements
                measured = [m for m in seen if m.error is None]
                assert results.object_id == (
                    seen[0].object_id if seen else "cpu_a")
                assert_same_columns(results.measurements,
                                    columns_reference(measured))

        check()

    @pytest.mark.parametrize("block", [1, 7, 64, 1024])
    def test_lines_parse_as_json_loads_parses_them_across_block_cuts(
            self, tmp_path, monkeypatch, block):
        # the same lines and references, with a cut after nearly every line,
        # or after every few lines
        monkeypatch.setattr(ecbench.manifest, "_BLOCK", block)
        self.test_lines_parse_as_json_loads_parses_them(tmp_path)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_cuts_keep_every_line_and_line_number(self, monkeypatch,
                                                        block):
        def line(i, error=None):
            return canonical_json(Measurement(
                ec_index=i, object_id="cpu_a", replicates=(i + 0.5, 2.0),
                aggregate=1.25, policy="mean", error=error).to_dict())

        # CRLF ends, blank and Unicode-blank lines, U+2028 (a line boundary
        # to str.splitlines, but no cut) and 2-, 3- and 4-byte characters
        # on either side of a cut
        emoji, euro = "\U0001f600", "\u20ac"
        lines = [line(0), "", line(1) + "\r", " \xa0\u3000",
                 line(2, "\xe9" + euro + emoji),
                 line(3) + "\u2028" + line(4), line(5, euro * 9)]
        bad = ['{"ec_index": 1,', line(6).replace("2.0", "true"),
               line(7).replace("cpu_a", "cpu_b"), emoji * 5,
               line(8) + " " + line(9)]
        cases = [lines] + [lines[:k] + [b] + lines[k:]
                           for k in range(len(lines) + 1) for b in bad]

        def outcome(data):
            try:
                results = parse_results(data, "r.jsonl", "cpu_a", "p")
            except FingerprintError as e:
                return str(e)
            return (keyed_rows(results), results.failures)

        for case in cases:
            for end in ("\n", "\r\n"):
                data = end.join(case).encode() + end.encode()
                monkeypatch.setattr(ecbench.manifest, "_BLOCK", len(data))
                whole = outcome(data)  # one block: the whole text
                monkeypatch.setattr(ecbench.manifest, "_BLOCK", block)
                assert outcome(data) == whole
        rows, failures = outcome("\n".join(lines).encode())
        assert (len(rows), [m.error for m in failures]) == (
            4, ["\xe9" + euro + emoji, euro * 9])

    def test_written_lines_skip_the_per_line_decoder(self, tmp_path,
                                                     monkeypatch):
        # blocks of the lines ecbench writes go into the columns whole; one
        # hand-edited line sends its block, and no other, line by line
        persisted_pair(tmp_path)  # cpu_b: 2000 rows and no failure line
        path = tmp_path / "cpu_b.jsonl"
        mp = manifest_path(path)
        data = path.read_bytes()
        want = columns_reference([Measurement.from_dict(json.loads(line))
                                  for line in data.splitlines()])

        def refuse(rows, lines, lineno):
            raise AssertionError(f"line by line from {lineno}: {lines[:1]!r}")

        add_lines = ecbench.manifest._Rows.add_lines
        monkeypatch.setattr(ecbench.manifest._Rows, "add_lines", refuse)
        assert_same_columns(load_results(path)[0].measurements, want)

        # a space after one colon, halfway through the file: the same values
        lines = data.decode().splitlines(keepends=True)
        k = len(lines) // 2
        at = len("".join(lines[:k]))
        lines[k] = lines[k].replace('"aggregate":', '"aggregate": ')
        edited = "".join(lines).encode()
        doc = json.loads(mp.read_text())
        doc["results_sha256"] = fingerprint_bytes(edited)
        path.write_bytes(edited)
        mp.write_text(json.dumps(doc))
        # blocks end after the last newline of each `_BLOCK`-byte read
        block = ecbench.manifest._BLOCK
        cuts = {0} | {edited.rfind(b"\n", start, start + block) + 1
                      for start in range(0, len(edited), block)}
        first = max(c for c in cuts if c <= at)
        expected = edited[first:min(c for c in cuts if c > at)].decode()
        decoded = []

        def record(rows, lines, lineno):
            decoded.extend(lines)
            add_lines(rows, lines, lineno)

        monkeypatch.setattr(ecbench.manifest._Rows, "add_lines", record)
        assert_same_columns(load_results(path)[0].measurements, want)
        assert decoded == expected.splitlines()
        assert lines[k].rstrip("\n") in decoded and len(decoded) > 1

    def test_a_decode_error_outranks_every_line_error(self, monkeypatch):
        # as when the whole text was decoded before any line was read: the
        # bad first line loses, and the offset counts from the file's start
        monkeypatch.setattr(ecbench.manifest, "_BLOCK", 1)
        data = b'{"ec_index":\n\n' + "\u20ac\n".encode() + b"\xff\n"
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode()
        with pytest.raises(UnicodeDecodeError) as got:
            parse_results(data, "r.jsonl", "cpu_a", "p")
        assert str(got.value) == str(whole.value)
        assert "position 18" in str(got.value)

    @pytest.mark.parametrize("first", ["range", "type"])
    def test_the_first_bad_line_decides_across_blocks(self, monkeypatch,
                                                       first):
        # an overflow and a type error, each in a block of its own: the
        # earlier line names the error in either order
        monkeypatch.setattr(ecbench.manifest, "_BLOCK", 1)
        good = {"ec_index": 1, "object_id": "cpu_a", "replicates": [1.0],
                "aggregate": 1.0, "policy": "mean"}
        bad = {"range": {**good, "replicates": [10**400]},
               "type": {**good, "aggregate": "1.0"}}
        order = [first, ({"range", "type"} - {first}).pop()]
        data = "".join(json.dumps(doc) + "\n" for doc in (
            good, bad[order[0]], good, bad[order[1]])).encode()
        with pytest.raises(FingerprintError) as e:
            parse_results(data, "r.jsonl", "cpu_a", "p")
        assert str(e.value).startswith("r.jsonl:2: " + (
            "aggregate, started_at" if first == "range" else "a measurement"))

    def test_streamed_reads_give_the_whole_files_outcome(self, tmp_path,
                                                         monkeypatch):
        # load_results reads, hashes and parses `_BLOCK` bytes at a time:
        # for reads of 1, 7 and 64 bytes and one read of the whole file, it
        # gives the rows and failures, or the first error, that the file's
        # whole text gives by the references: a hash mismatch first, then a
        # UTF-8 error anywhere, then the first bad line
        path = tmp_path / "r.jsonl"
        manifest = RunManifest(space_fingerprint="s", plan_fingerprint="p",
                               executor_hash="e",
                               object_config={"object_id": "cpu_a"})
        text = st.text(alphabet="a\xe9\u20ac\U0001f600\u2028\r", max_size=40)
        good = st.builds(
            lambda i, policy, error: canonical_json(Measurement(
                i, "cpu_a", (1.5, 2.0), 1.75, policy, error=error).to_dict()),
            st.integers(0, 3), text, st.none() | text)
        bad = st.sampled_from([
            '{"ec_index": 1,', "[]", '{"ec_index": 1}', "\u20ac" * 3,
            canonical_json({"ec_index": 1, "object_id": "cpu_b",
                            "replicates": [1.0, 2.0], "aggregate": 1.5,
                            "policy": "mean"})])
        line = st.one_of(good, good, bad, st.sampled_from(["", " \xa0"]))

        def outcome():
            try:
                results, _ = load_results(path)
            except (FingerprintError, UnicodeDecodeError, KeyError) as e:
                return type(e), str(e)
            return keyed_rows(results), results.failures

        def expected(data, tampered):
            if tampered:
                return FingerprintError, (
                    f"results file hash {fingerprint_bytes(data)[:12]}... "
                    "does not match manifest")
            try:
                data.decode()
            except UnicodeDecodeError as e:
                return UnicodeDecodeError, str(e)
            seen = []
            try:
                for lineno, value in parse_lines_reference(data):
                    m = measurement_reference(value)
                    line_in_file_reference(m, seen)
                    seen.append(m)
            except LineParseError as e:
                return FingerprintError, f"{path}:{e}"
            except LineTypeError:
                return FingerprintError, f"{path}:{lineno}: "  # a prefix
            except KeyError as e:
                return KeyError, str(e)
            measured = [m for m in seen if m.error is None]
            rows = dict(zip(occurrence_keys_reference(
                [m.ec_index for m in measured]), measured))
            return rows, [m for m in seen if m.error is not None]

        @settings(max_examples=150, deadline=None)
        @given(lines=st.lists(line, max_size=6),
               newline=st.sampled_from(["\n", "\r\n"]), end=st.booleans(),
               corrupt=st.none() | st.tuples(
                   st.integers(0, 10**4), st.sampled_from([b"\xff", b"\xe2"])),
               tampered=st.booleans())
        def check(lines, newline, end, corrupt, tampered):
            data = (newline.join(lines) + newline * end).encode()
            if corrupt is not None:
                at = corrupt[0] % (len(data) + 1)
                data = data[:at] + corrupt[1] + data[at:]
            path.write_bytes(data)
            manifest.results_sha256 = fingerprint_bytes(
                data + b"x" * tampered)
            manifest_path(path).write_text(json.dumps(manifest.to_dict()))
            want = expected(data, tampered)
            for block in (1, 7, 64, len(data) + 1):
                monkeypatch.setattr(ecbench.manifest, "_BLOCK", block)
                got = outcome()
                if want[0] is FingerprintError and want[1].endswith(": "):
                    assert got[0] is FingerprintError
                    assert got[1].startswith(want[1])
                else:
                    assert got == want

        check()

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 14])
    def test_the_first_error_of_a_streamed_file(self, tmp_path, monkeypatch,
                                                block):
        monkeypatch.setattr(ecbench.manifest, "_BLOCK", block)
        path = tmp_path / "r.jsonl"
        good = measurement_line(Measurement(1, "cpu_a", (1.0,), 1.0, "mean"))

        def load(data, recorded=None):
            path.write_bytes(data)
            manifest_path(path).write_text(json.dumps(RunManifest(
                space_fingerprint="s", plan_fingerprint="p",
                executor_hash="e", object_config={"object_id": "cpu_a"},
                results_sha256=recorded or fingerprint_bytes(data)
            ).to_dict()))
            return load_results(path)

        # a tampered file that also holds a bad line: the hash error wins
        data = f"{good}\n{{bad\n{good}\n".encode()
        with pytest.raises(FingerprintError, match="does not match manifest"):
            load(data, recorded="0" * 64)
        with pytest.raises(FingerprintError, match=":2: parse failure"):
            load(data)
        # a UTF-8 error after a bad line: the decode error wins, its offset
        # counted from the file's start
        data = f"{good}\n{{bad\n{good}\n".encode() + b"\xe2\x82\n"
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode()
        with pytest.raises(UnicodeDecodeError) as got:
            load(data)
        assert str(got.value) == str(whole.value)
        assert f"position {len(data) - 3}" in str(got.value)
        # CRLF ends and multi-byte characters on every read edge, and no
        # final newline
        lines = [measurement_line(Measurement(
            i, "cpu_a", (1.0,), 1.0, "\u20ac" * i + "\U0001f600",
            error="\xe9" * i if i % 2 else None)) for i in range(9)]
        results, _ = load("\r\n".join(lines).encode())
        assert results.measurements.policies.tolist() == [
            "\u20ac" * i + "\U0001f600" for i in range(0, 9, 2)]
        assert [m.error for m in results.failures] == [
            "\xe9" * i for i in range(1, 9, 2)]
        # a line spanning many reads, read in time linear in its length
        long = measurement_line(Measurement(2, "cpu_a", (), float("nan"),
                                            "mean", error="x" * 200_000))
        results, _ = load(f"{good}\n{long}\n{good}".encode())
        assert results.failures[0].error == "x" * 200_000
        assert results.measurements.indices.tolist() == [1, 1]

    @given(st.binary(max_size=60), st.sampled_from([1, 2, 7, 1 << 14]))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_drop_torn_line_keeps_the_bytes_to_the_last_newline(
            self, tmp_path, monkeypatch, data, block):
        monkeypatch.setattr(ecbench.manifest, "_BLOCK", block)
        path = tmp_path / "r.jsonl"
        path.write_bytes(data)
        drop_torn_line(path)
        assert path.read_bytes() == data[:data.rfind(b"\n") + 1]

    def test_numbers_at_the_edge_of_float_range_load(self):
        # the largest int a float holds, and JSON numbers that overflow to
        # float infinity, are numbers a column takes
        big = int(sys.float_info.max)
        data = (f'{{"ec_index":0,"object_id":"o","replicates":[{big},1e400],'
                f'"aggregate":-{big},"policy":"mean","started_at":-1e999}}\n'
                ).encode()
        rows = parse_results(data, "r.jsonl", "o", "p").measurements
        assert rows.replicates.tolist() == [[sys.float_info.max, np.inf]]
        assert (rows.aggregates.tolist(), rows.started_at.tolist()) == (
            [-sys.float_info.max], [-np.inf])

    def test_compare_builds_a_measurement_only_per_failure_line(
            self, tmp_path, monkeypatch):
        persisted_pair(tmp_path)  # 2 x 2000 rows, one failure line in cpu_a
        built = []
        from_dict = Measurement.from_dict.__func__

        def counted(cls, doc):
            built.append(doc["error"])
            return from_dict(cls, doc)

        monkeypatch.setattr(Measurement, "from_dict", classmethod(counted))
        assert main(["compare", "--a", str(tmp_path / "cpu_a.jsonl"),
                     "--b", str(tmp_path / "cpu_b.jsonl"), "--level", "0.95",
                     "--group-by-plan", str(tmp_path / "plan.json"),
                     "--out", str(tmp_path / "report.json"),
                     "--asymmetry", str(tmp_path / "asymmetry.json")]) == 0
        assert built == ["timed out"]

    def test_parse_leaves_no_object_per_row(self, tmp_path):
        rows = 20_000
        # an int replicate sends every block line by line; with a float one,
        # every block goes into the columns whole
        for first in (0, 0.5):
            data = "".join(
                measurement_line(Measurement(
                    ec_index=i % 7_000, object_id="cpu_a",
                    replicates=(i + first, i + 1.5),
                    aggregate=i + 0.75, policy="mean")) + "\n"
                for i in range(rows)).encode()
            gc.collect()
            before = len(gc.get_objects())
            results = parse_results(data, tmp_path / "r.jsonl", "cpu_a", "p")
            gc.collect()
            assert len(gc.get_objects()) - before < 50
            assert len(results.measurements) == rows
            assert len(gc.get_objects()) - before < 50  # len() built no rows
            del results

    def test_byte_identical_across_runs(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        d1.mkdir()
        d2.mkdir()
        _, p1 = run_demo(d1, demo.OBJECT_A)
        _, p2 = run_demo(d2, demo.OBJECT_A)
        assert p1.read_bytes() == p2.read_bytes()


class TestReportEmission:
    def report(self):
        from test_stats import result_set
        a = result_set("cpu_a", [5.0, 7.0, 9.0, 6.0])
        b = result_set("cpu_b", [1.0, 2.0, 3.0, 2.5])
        return compare_objects(a, b, 0.95)

    def test_csv_fixed_decimals(self, tmp_path):
        out = tmp_path / "r.csv"
        emit_report(self.report(), "csv", out)
        lines = out.read_text().splitlines()
        assert lines[0] == "group,n,mean_diff,ci_lo,ci_hi,level,verdict"
        cells = lines[1].split(",")
        for cell in cells[2:6]:
            assert len(cell.split(".")[1]) == 6

    def test_json_byte_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(self.report(), "json", p1)
        emit_report(self.report(), "json", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(self.report(), "xml", tmp_path / "r.xml")


@pytest.fixture
def workspace(tmp_path):
    space = demo.demo_space_720()
    space.save(tmp_path / "space.json")
    demo.gaussian_model().save(tmp_path / "model.json")
    ex = ExecutorSpec(kind="synthetic", model=demo.gaussian_model())
    (tmp_path / "executor.json").write_text(json.dumps(ex.to_dict()))
    for oid in ("cpu_a", "cpu_b"):
        (tmp_path / f"{oid}.json").write_text(
            json.dumps({"object_id": oid}))
    return tmp_path


class TestCli:
    def test_space_info(self, workspace, capsys):
        assert main(["space", "info", "--space",
                     str(workspace / "space.json")]) == 0
        out = capsys.readouterr().out
        assert "cardinality: 720" in out

    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as e:
            main(["plan", "stratified", "--space", "x.json"])
        assert e.value.code == 1

    def test_unknown_subcommand_exit_1(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 1

    def test_missing_file_exit_2(self, workspace):
        assert main(["space", "info", "--space",
                     str(workspace / "nope.json")]) == 2

    def plan_run_compare(self, ws, iterations=16):
        plan = ws / "plan.json"
        assert main(["plan", "stratified", "--space", str(ws / "space.json"),
                     "--stratum-factor", "workload",
                     "--iterations", str(iterations),
                     "--seed", "5", "--out", str(plan)]) == 0
        for oid in ("cpu_a", "cpu_b"):
            assert main(["run", "--space", str(ws / "space.json"),
                         "--plan", str(plan),
                         "--executor", str(ws / "executor.json"),
                         "--object", str(ws / f"{oid}.json"),
                         "--out", str(ws / f"{oid}.jsonl")]) == 0
        return plan

    def test_end_to_end_compare(self, workspace, capsys):
        ws = workspace
        self.plan_run_compare(ws)
        code = main(["compare", "--a", str(ws / "cpu_a.jsonl"),
                     "--b", str(ws / "cpu_b.jsonl"), "--level", "0.95",
                     "--group-by-plan", str(ws / "plan.json"),
                     "--out", str(ws / "cmp.json"),
                     "--csv", str(ws / "cmp.csv"),
                     "--asymmetry", str(ws / "asym.json")])
        assert code == 0
        doc = json.loads((ws / "cmp.json").read_text())
        assert doc["overall"]["verdict"] == "SubtrahendOutperforms"
        assert (ws / "cmp.csv").exists() and (ws / "asym.json").exists()

    def test_tampered_run_exit_3(self, workspace):
        ws = workspace
        self.plan_run_compare(ws)
        data = (ws / "cpu_a.jsonl").read_text()
        (ws / "cpu_a.jsonl").write_text(data.replace("cpu_a", "cpu_x"))
        assert main(["compare", "--a", str(ws / "cpu_a.jsonl"),
                     "--b", str(ws / "cpu_b.jsonl"), "--level", "0.95",
                     "--out", str(ws / "cmp.json")]) == 3

    def test_pairing_violation_exit_3(self, workspace):
        ws = workspace
        self.plan_run_compare(ws)
        # re-run b under a shorter plan: same files, different key coverage
        assert main(["plan", "stratified", "--space", str(ws / "space.json"),
                     "--stratum-factor", "workload", "--iterations", "9",
                     "--seed", "5", "--out", str(ws / "plan9.json")]) == 0
        assert main(["run", "--space", str(ws / "space.json"),
                     "--plan", str(ws / "plan9.json"),
                     "--executor", str(ws / "executor.json"),
                     "--object", str(ws / "cpu_b.json"),
                     "--out", str(ws / "cpu_b.jsonl")]) == 0
        assert main(["compare", "--a", str(ws / "cpu_a.jsonl"),
                     "--b", str(ws / "cpu_b.jsonl"), "--level", "0.95",
                     "--out", str(ws / "cmp.json")]) == 3

    def test_runs_of_different_plans_do_not_compare(self, workspace, capsys):
        ws = workspace
        fingerprints = []
        for oid, reps in (("cpu_a", "3"), ("cpu_b", "1")):
            plan = ws / f"plan_{oid}.json"
            assert main(["plan", "full-factorial", "--space", str(ws / "space.json"),
                         "--reps", reps, "--out", str(plan)]) == 0
            assert main(["run", "--space", str(ws / "space.json"),
                         "--plan", str(plan),
                         "--executor", str(ws / "executor.json"),
                         "--object", str(ws / f"{oid}.json"),
                         "--out", str(ws / f"{oid}.jsonl")]) == 0
            fingerprints.append(SamplePlan.load(plan).fingerprint)
        capsys.readouterr()
        assert main(["compare", "--a", str(ws / "cpu_a.jsonl"),
                     "--b", str(ws / "cpu_b.jsonl"), "--level", "0.95",
                     "--out", str(ws / "cmp.json")]) == 3
        err = capsys.readouterr().err
        assert all(fp in err for fp in fingerprints)
        assert not (ws / "cmp.json").exists()

    def test_group_plan_must_be_the_runs_plan(self, workspace, capsys):
        ws = workspace
        ran = SamplePlan.load(self.plan_run_compare(ws)).fingerprint
        assert main(["plan", "stratified", "--space", str(ws / "space.json"),
                     "--stratum-factor", "workload", "--iterations", "16",
                     "--seed", "6", "--out", str(ws / "other.json")]) == 0
        other = SamplePlan.load(ws / "other.json").fingerprint
        capsys.readouterr()
        assert main(["compare", "--a", str(ws / "cpu_a.jsonl"),
                     "--b", str(ws / "cpu_b.jsonl"), "--level", "0.95",
                     "--group-by-plan", str(ws / "other.json"),
                     "--out", str(ws / "cmp.json")]) == 3
        err = capsys.readouterr().err
        assert ran in err and other in err

    def test_run_byte_identical_between_invocations(self, workspace):
        ws = workspace
        self.plan_run_compare(ws)
        first = (ws / "cpu_a.jsonl").read_bytes()
        assert main(["run", "--space", str(ws / "space.json"),
                     "--plan", str(ws / "plan.json"),
                     "--executor", str(ws / "executor.json"),
                     "--object", str(ws / "cpu_a.json"),
                     "--out", str(ws / "cpu_a.jsonl")]) == 0
        assert (ws / "cpu_a.jsonl").read_bytes() == first

    def test_a_synthetic_run_writes_its_lines_in_one_batch(self, workspace,
                                                           monkeypatch):
        ws = workspace
        self.plan_run_compare(ws)
        first = (ws / "cpu_a.jsonl").read_bytes()
        batches = []
        write = ResultWriter.write
        monkeypatch.setattr(ResultWriter, "write", lambda self, pairs: (
            batches.append(len(pairs)), write(self, pairs)))
        monkeypatch.setattr(ecbench.manifest, "_ROWS", 5)  # 16 rows, 4 slices
        assert main(["run", "--space", str(ws / "space.json"),
                     "--plan", str(ws / "plan.json"),
                     "--executor", str(ws / "executor.json"),
                     "--object", str(ws / "cpu_a.json"),
                     "--out", str(ws / "cpu_a.jsonl")]) == 0
        assert batches == [16]
        assert (ws / "cpu_a.jsonl").read_bytes() == first

    def test_a_command_sees_the_line_of_every_earlier_entry(self, workspace):
        # crash-safe resume: an entry's line is flushed before the next
        # entry's command starts
        ws = workspace
        out, seen = ws / "cmd.jsonl", ws / "seen.txt"
        code = (f"import pathlib; n = pathlib.Path({str(out)!r}).read_text()"
                f".count(chr(10)); open({str(seen)!r}, 'a').write(str(n) + "
                f"chr(10))")
        (ws / "cmd.json").write_text(json.dumps({
            "kind": "command",
            "templates": {"*": f'{sys.executable} -c "{code}"'}}))
        stratified_sample(demo.demo_space_720(), "workload", 3, 2,
                          seed=1).save(ws / "plan.json")
        assert main(["run", "--space", str(ws / "space.json"),
                     "--plan", str(ws / "plan.json"),
                     "--executor", str(ws / "cmd.json"),
                     "--object", str(ws / "cpu_a.json"),
                     "--out", str(out)]) == 0
        assert seen.read_text().split() == ["0", "0", "1", "1", "2", "2"]
        assert len(out.read_text().splitlines()) == 3

    def test_resume_adds_no_duplicate_keys(self, workspace):
        ws = workspace
        plan = self.plan_run_compare(ws)
        full = (ws / "cpu_a.jsonl").read_text().splitlines()
        # truncate to simulate an interrupted run, then resume
        (ws / "cpu_a.jsonl").write_text("\n".join(full[:7]) + "\n")
        assert main(["run", "--space", str(ws / "space.json"),
                     "--plan", str(plan),
                     "--executor", str(ws / "executor.json"),
                     "--object", str(ws / "cpu_a.json"),
                     "--out", str(ws / "cpu_a.jsonl"), "--resume"]) == 0
        results, _ = load_results(ws / "cpu_a.jsonl")
        assert len(results.measurements) == 16
        assert sorted(keyed_rows(results)) == sorted(
            plan_occurrence_keys(plan))

    def test_resume_after_any_truncation_matches_uninterrupted_run(self, workspace):
        ws = workspace
        # every drawn entry twice, so resume must also replay the ordinals
        drawn = stratified_sample(demo.demo_space_720(), "workload", 10, 3, seed=4)
        plan = SamplePlan(design="stratified", entries=drawn.entries * 2, reps=3,
                          seed=4, space_fingerprint=drawn.space_fingerprint)
        plan.save(ws / "plan.json")

        def run(out, *extra):
            assert main(["run", "--space", str(ws / "space.json"),
                         "--plan", str(ws / "plan.json"),
                         "--executor", str(ws / "executor.json"),
                         "--object", str(ws / "cpu_a.json"),
                         "--out", str(out), *extra]) == 0

        run(ws / "full.jsonl")
        full = (ws / "full.jsonl").read_bytes()
        assert len(full.splitlines()) == 20

        # any byte offset: line boundaries, a line without its newline, or a
        # tear inside a line, as a killed process may leave
        @settings(max_examples=40, deadline=None)
        @given(k=st.integers(0, len(full)))
        def check(k):
            resumed = ws / "resumed.jsonl"
            resumed.write_bytes(full[:k])
            run(resumed, "--resume")
            assert resumed.read_bytes() == full
            results, _ = load_results(resumed)
            assert len(results.measurements) == 20

        check()

    @pytest.mark.parametrize("cut", [1, 40], ids=["newline_only", "mid_line"])
    def test_resume_drops_torn_last_line(self, workspace, cut):
        ws = workspace
        plan = self.plan_run_compare(ws)
        full = (ws / "cpu_a.jsonl").read_bytes()
        lines = full.splitlines(keepends=True)
        torn = b"".join(lines[:5]) + lines[5][:len(lines[5]) - cut]
        (ws / "cpu_a.jsonl").write_bytes(torn)
        assert main(["run", "--space", str(ws / "space.json"),
                     "--plan", str(plan),
                     "--executor", str(ws / "executor.json"),
                     "--object", str(ws / "cpu_a.json"),
                     "--out", str(ws / "cpu_a.jsonl"), "--resume"]) == 0
        assert (ws / "cpu_a.jsonl").read_bytes() == full
        results, _ = load_results(ws / "cpu_a.jsonl")  # manifest hash holds
        assert len(results.measurements) == 16

    @pytest.mark.parametrize("changed", ["space", "plan", "executor", "object"])
    def test_resume_refuses_another_run(self, workspace, capsys, changed):
        ws = workspace
        plan = self.plan_run_compare(ws)
        argv = {"space": ws / "space.json", "plan": plan,
                "executor": ws / "executor.json", "object": ws / "cpu_a.json"}
        if changed == "space":
            doc = json.loads(argv["space"].read_text())
            doc["factors"][0]["name"] = "benchmark"
            argv["space"] = ws / "space2.json"
            argv["space"].write_text(json.dumps(doc))
        elif changed == "plan":
            argv["plan"] = ws / "plan6.json"
            assert main(["plan", "stratified", "--space", str(ws / "space.json"),
                         "--stratum-factor", "workload", "--iterations", "16",
                         "--seed", "6", "--out", str(argv["plan"])]) == 0
        elif changed == "executor":
            model = demo.gaussian_model().to_dict()
            model["noise_seed"] += 1
            argv["executor"] = ws / "executor2.json"
            argv["executor"].write_text(json.dumps(
                {"kind": "synthetic", "model": model}))
        else:
            argv["object"] = ws / "cpu_b.json"
        out = ws / "cpu_a.jsonl"
        lines = out.read_bytes().splitlines(keepends=True)
        interrupted = b"".join(lines[:5]) + lines[5][:40]
        out.write_bytes(interrupted)
        recorded = manifest_path(out).read_bytes()
        capsys.readouterr()
        assert main(["run", *(a for k, v in argv.items()
                              for a in (f"--{k}", str(v))),
                     "--out", str(out), "--resume"]) == 3
        err = capsys.readouterr().err
        assert "cannot resume" in err and changed in err
        assert out.read_bytes() == interrupted
        assert manifest_path(out).read_bytes() == recorded

    def test_resume_without_manifest(self, workspace):
        # a run killed before it finalized leaves no manifest
        ws = workspace
        plan = self.plan_run_compare(ws)
        out = ws / "cpu_a.jsonl"
        full = out.read_bytes()
        out.write_bytes(full[:len(full) // 2])
        manifest_path(out).unlink()
        assert main(["run", "--space", str(ws / "space.json"),
                     "--plan", str(plan),
                     "--executor", str(ws / "executor.json"),
                     "--object", str(ws / "cpu_a.json"),
                     "--out", str(out), "--resume"]) == 0
        assert out.read_bytes() == full

    def test_synthetic_run_beyond_int64_exits_2(self, tmp_path):
        space = build_space([Factor("workload", ("w1", "w2"))] + [
            Factor(f"f{i}", tuple(str(j) for j in range(100))) for i in range(11)
        ])
        assert space.cardinality == 2 * 100**11
        space.save(tmp_path / "space.json")
        plan = stratified_sample(space, "workload", 2, 1, seed=1)
        assert any(e.ec_index >= 2**63 for e in plan.entries)
        plan.save(tmp_path / "plan.json")
        model = SyntheticModel(stratum_factor="workload",
                               base=(("w1", 1.0), ("w2", 2.0)), sigma=0.1)
        ex = ExecutorSpec(kind="synthetic", model=model)
        (tmp_path / "executor.json").write_text(json.dumps(ex.to_dict()))
        (tmp_path / "o.json").write_text(json.dumps({"object_id": "o"}))
        env = dict(os.environ,
                   PYTHONPATH=str(Path(ecbench.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "ecbench.cli", "run",
             "--space", str(tmp_path / "space.json"),
             "--plan", str(tmp_path / "plan.json"),
             "--executor", str(tmp_path / "executor.json"),
             "--object", str(tmp_path / "o.json"),
             "--out", str(tmp_path / "o.jsonl")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "2^63 - 1" in proc.stderr

    def test_synthetic_run_of_an_index_past_int64_exits_2(self, tmp_path,
                                                         capsys):
        # the space is within the model limit; the plan's last index is past
        # both the space and int64
        space = build_space([Factor("workload", ("w1", "w2"))] + [
            Factor(f"f{i}", ("0", "1")) for i in range(61)])
        space.save(tmp_path / "space.json")
        SamplePlan(design="stratified",
                   entries=(PlanEntry(0, "w1"), PlanEntry(2**63 + 1, "w2")),
                   reps=1, seed=0,
                   space_fingerprint=fingerprint(space.to_dict()),
                   ).save(tmp_path / "plan.json")
        model = SyntheticModel(stratum_factor="workload",
                               base=(("w1", 1.0), ("w2", 2.0)), sigma=0.1)
        (tmp_path / "executor.json").write_text(json.dumps(
            ExecutorSpec(kind="synthetic", model=model).to_dict()))
        (tmp_path / "o.json").write_text(json.dumps({"object_id": "o"}))
        capsys.readouterr()
        assert main(["run", "--space", str(tmp_path / "space.json"),
                     "--plan", str(tmp_path / "plan.json"),
                     "--executor", str(tmp_path / "executor.json"),
                     "--object", str(tmp_path / "o.json"),
                     "--out", str(tmp_path / "o.jsonl")]) == 2
        assert (f"ecbench: error: index {2**63 + 1} out of range for "
                f"cardinality {2**62}") in capsys.readouterr().err
        assert (tmp_path / "o.jsonl").read_text() == ""

    @pytest.mark.parametrize("index", [-1, 720, 2**70])
    def test_simulate_refuses_a_recommended_index_outside_the_space(
            self, workspace, capsys, index):
        ws = workspace
        (ws / "meth.json").write_text(json.dumps({
            "objects": ["cpu_a", "cpu_b"],
            "methodologies": [{"kind": "spec_point",
                               "params": {"recommended_index": index}}],
        }))
        capsys.readouterr()
        assert main(["simulate", "--space", str(ws / "space.json"),
                     "--model", str(ws / "model.json"),
                     "--methodologies", str(ws / "meth.json"),
                     "--iterations", "5", "--level", "0.95", "--seed", "1",
                     "--out", str(ws / "cov.csv")]) == 2
        assert (f"ecbench: error: index {index} out of range for cardinality "
                f"720") in capsys.readouterr().err
        assert not (ws / "cov.csv").exists()

    def test_simulate_and_report(self, workspace, capsys):
        ws = workspace
        demo.gaussian_model().save(ws / "model.json")
        (ws / "meth.json").write_text(json.dumps({
            "objects": ["cpu_a", "cpu_b"],
            "methodologies": [
                {"kind": "stratified",
                 "params": {"stratum_factor": "workload", "iterations": 8}},
            ],
        }))
        assert main(["simulate", "--space", str(ws / "space.json"),
                     "--model", str(ws / "model.json"),
                     "--methodologies", str(ws / "meth.json"),
                     "--iterations", "20", "--level", "0.95", "--seed", "1",
                     "--out", str(ws / "cov.csv")]) == 0
        lines = (ws / "cov.csv").read_text().splitlines()
        assert lines[0].startswith("methodology,")
        assert len(lines) == 2

    @pytest.mark.parametrize("row, message", [
        ({"kind": "latin_hypercube"}, "unknown design kind 'latin_hypercube'"),
        ({"kind": "stratified", "params": {"stratum_factor": "workload"}},
         "design 'stratified': missing param(s) 'iterations'"),
        ({"kind": "stratified", "params": {"stratum_factor": "workload",
                                           "iterations": 8, "rep": 9}},
         "design 'stratified': unused param(s) 'rep'"),
        ({"kind": "spec_point", "params": {"recommended_index": 0, "reps": 7}},
         "design 'spec_point': unused param(s) 'reps'"),
        ({"kind": "rct", "params": {"per_arm": 4, "reps": 0}},
         "reps must be >= 1"),
        ({"kind": "stratified", "params": {"stratum_factor": "workload",
                                           "iterations": "8"}},
         "design 'stratified': param 'iterations' must be an integer"),
        ({"kind": "stratified", "params": {"stratum_factor": "workload",
                                           "iterations": True}},
         "design 'stratified': param 'iterations' must be an integer"),
        ({"kind": "stratified", "params": {"stratum_factor": "workload",
                                           "iterations": 8.0}},
         "design 'stratified': param 'iterations' must be an integer"),
        ({"kind": "stratified", "params": {"stratum_factor": 0,
                                           "iterations": 8}},
         "design 'stratified': param 'stratum_factor' must be a string"),
        ({"kind": "rct", "params": {"per_arm": "4"}},
         "design 'rct': param 'per_arm' must be an integer"),
        ({"kind": "rct", "params": {"per_arm": 4, "reps": "3"}},
         "design 'rct': param 'reps' must be an integer"),
        ({"kind": "full_factorial", "params": {"reps": False}},
         "design 'full_factorial': param 'reps' must be an integer"),
        ({"kind": "spec_point", "params": {"recommended_index": "0"}},
         "design 'spec_point': param 'recommended_index' must be an integer"),
        ({"kind": "spec_point", "params": {"recommended_index": None}},
         "design 'spec_point': param 'recommended_index' must be an integer"),
    ])
    def test_simulate_checks_every_methodology_before_any_work(
            self, workspace, capsys, monkeypatch, row, message):
        # the bad row follows a good one, which must not run either
        ws = workspace
        (ws / "meth.json").write_text(json.dumps({
            "objects": ["cpu_a", "cpu_b"],
            "methodologies": [{"kind": "full_factorial"}, row],
        }))
        ran = []
        monkeypatch.setattr(ecbench.oracle, "coverage_experiment",
                            lambda *args: ran.append(args))
        capsys.readouterr()
        assert main(["simulate", "--space", str(ws / "space.json"),
                     "--model", str(ws / "model.json"),
                     "--methodologies", str(ws / "meth.json"),
                     "--iterations", "5", "--level", "0.95", "--seed", "1",
                     "--out", str(ws / "cov.csv")]) == 2
        assert f"ecbench: error: {message}" in capsys.readouterr().err
        assert ran == []
        assert not (ws / "cov.csv").exists()

    def test_factorial2k_plan_refuses_a_default_past_its_factor(
            self, workspace, capsys):
        # workload has 1 level and flags 3 on the demo space: these defaults
        # once composed other points and one past the space
        ws = workspace
        (ws / "split.json").write_text(json.dumps(
            {"threads": {"low": [0], "high": [23]}}))
        capsys.readouterr()
        assert main(["plan", "factorial2k", "--space", str(ws / "space.json"),
                     "--split", str(ws / "split.json"),
                     "--default", "workload=1", "--default", "dataset=0",
                     "--default", "flags=3", "--seed", "1",
                     "--out", str(ws / "f.json")]) == 2
        assert capsys.readouterr().err == (
            "ecbench: error: factor 'workload': default level index 1 out of "
            "range\n")
        assert not (ws / "f.json").exists()

    @pytest.mark.parametrize("defaults, message", [
        ({"workload": 1}, "factor 'workload': default level index 1 out of "
                          "range"),
        ({"workload": "0"}, "factor 'workload': default level index must be "
                            "an integer, not '0'"),
    ])
    def test_simulate_refuses_a_factorial2k_default_past_its_factor(
            self, workspace, capsys, defaults, message):
        ws = workspace
        split = {n: {"low": list(lo), "high": list(hi)}
                 for n, lo, hi in demo.demo_factor_split().splits}
        (ws / "meth.json").write_text(json.dumps({
            "objects": ["cpu_a", "cpu_b"],
            "methodologies": [{"kind": "factorial2k", "params": {
                "split": split, "defaults": defaults}}],
        }))
        capsys.readouterr()
        assert main(["simulate", "--space", str(ws / "space.json"),
                     "--model", str(ws / "model.json"),
                     "--methodologies", str(ws / "meth.json"),
                     "--iterations", "5", "--level", "0.95", "--seed", "1",
                     "--out", str(ws / "cov.csv")]) == 2
        assert capsys.readouterr().err == f"ecbench: error: {message}\n"
        assert not (ws / "cov.csv").exists()

    @pytest.mark.parametrize("with_model", [True, False])
    def test_unknown_executor_kind_exit_2(self, workspace, capsys, with_model):
        ws = workspace
        doc = {"kind": "comand"}
        if with_model:
            doc["model"] = demo.gaussian_model().to_dict()
        (ws / "typo.json").write_text(json.dumps(doc))
        stratified_sample(demo.demo_space_720(), "workload", 4, 3, 1).save(
            ws / "plan.json")
        capsys.readouterr()
        assert main(["run", "--space", str(ws / "space.json"),
                     "--plan", str(ws / "plan.json"),
                     "--executor", str(ws / "typo.json"),
                     "--object", str(ws / "cpu_a.json"),
                     "--out", str(ws / "cpu_a.jsonl")]) == 2
        assert ("ecbench: error: unknown executor kind 'comand'"
                in capsys.readouterr().err)
        assert not (ws / "cpu_a.jsonl").exists()

    def test_rct_plan_files(self, workspace):
        ws = workspace
        assert main(["plan", "rct", "--space", str(ws / "space.json"),
                     "--per-arm", "20", "--seed", "3",
                     "--out-control", str(ws / "c.json"),
                     "--out-treatment", str(ws / "t.json")]) == 0
        from ecbench.design import SamplePlan
        c = SamplePlan.load(ws / "c.json")
        t = SamplePlan.load(ws / "t.json")
        assert len(c.entries) == len(t.entries) == 20

    def test_spec_point_plan(self, workspace):
        ws = workspace
        assert main(["plan", "spec-point", "--space", str(ws / "space.json"),
                     "--level-label", "workload=exchange2",
                     "--level-label", "dataset=d10",
                     "--level-label", "flags=-O3",
                     "--level-label", "threads=56",
                     "--out", str(ws / "sp.json")]) == 0
        from ecbench.design import SamplePlan
        plan = SamplePlan.load(ws / "sp.json")
        assert len(plan.entries) == 1 and plan.policy == "median"

    SPEC_LABELS = ("--level-label", "workload=exchange2",
                   "--level-label", "dataset=d10", "--level-label", "flags=-O3",
                   "--level-label", "threads=56")
    SPLIT_DEFAULTS = ("--split", "split.json", "--default", "workload=0",
                      "--default", "dataset=0", "--default", "flags=1",
                      "--seed", "1")

    def plan_argv(self, ws, design, *flags):
        (ws / "split.json").write_text(json.dumps(
            {"threads": {"low": [0], "high": [23]}}))
        return ["plan", design, "--space", str(ws / "space.json"),
                *(str(ws / f) if f == "split.json" else f for f in flags),
                "--out", str(ws / "p.json")]

    @pytest.mark.parametrize("design, flags, message", [
        ("spec-point", SPEC_LABELS + ("--level-label", "bogus=1"),
         "unknown factor 'bogus'"),
        ("spec-point", SPEC_LABELS + ("--level-label", "threads=8"),
         "--level-label gives factor 'threads' twice"),
        ("factorial2k", SPLIT_DEFAULTS + ("--default", "bogus=0"),
         "unknown factor 'bogus'"),
        ("factorial2k", SPLIT_DEFAULTS + ("--default", "flags=2"),
         "--default gives factor 'flags' twice"),
    ])
    def test_plan_refuses_a_factor_flag_the_space_cannot_take(
            self, workspace, capsys, design, flags, message):
        assert main(self.plan_argv(workspace, design, *flags)) == 2
        assert capsys.readouterr().err == f"ecbench: error: {message}\n"
        assert not (workspace / "p.json").exists()

    @pytest.mark.parametrize("design, flags, message", [
        ("spec-point", SPEC_LABELS[2:] + ("--level-label", "workload"),
         "argument --level-label: expected FACTOR=LABEL, not 'workload'"),
        ("factorial2k", SPLIT_DEFAULTS + ("--default", "threads"),
         "argument --default: expected FACTOR=LEVEL_INDEX, not 'threads'"),
        ("factorial2k", SPLIT_DEFAULTS + ("--default", "threads=x"),
         "argument --default: expected FACTOR=LEVEL_INDEX, not 'threads=x'"),
        ("stratified", ("--stratum-factor", "workload", "--iterations", "4",
                        "--seed", "-1"),
         "argument --seed: expected a non-negative integer, not '-1'"),
    ])
    def test_malformed_flag_value_is_a_usage_error_naming_it(
            self, workspace, capsys, design, flags, message):
        capsys.readouterr()
        with pytest.raises(SystemExit) as e:
            main(self.plan_argv(workspace, design, *flags))
        assert e.value.code == 1
        assert capsys.readouterr().err.endswith(f": error: {message}\n")
        assert not (workspace / "p.json").exists()

    def test_report_reemit(self, workspace):
        ws = workspace
        self.plan_run_compare(ws)
        assert main(["compare", "--a", str(ws / "cpu_a.jsonl"),
                     "--b", str(ws / "cpu_b.jsonl"), "--level", "0.95",
                     "--out", str(ws / "cmp.json")]) == 0
        assert main(["report", "--input", str(ws / "cmp.json"),
                     "--format", "csv", "--out", str(ws / "cmp.csv")]) == 0
        assert (ws / "cmp.csv").read_text().startswith("group,")

    def test_report_csv_formats_by_column(self, tmp_path):
        # the float columns take 6 decimals by name, whatever the type of
        # the stored value; `n` is written as stored
        group = {"n": 7, "mean_diff": 5, "ci_lo": -1, "ci_hi": 11,
                 "level": 1, "verdict": "NoSignificantDifference"}
        stored = tmp_path / "stored.json"
        stored.write_text(json.dumps({
            "minuend": "cpu_a", "subtrahend": "cpu_b", "level": 1,
            "overall": {"group": "all", **group},
            "groups": [{"group": "w1", **group, "n": 3}]}))
        out = tmp_path / "stored.csv"
        assert main(["report", "--input", str(stored), "--format", "csv",
                     "--out", str(out)]) == 0
        assert out.read_text() == (
            "group,n,mean_diff,ci_lo,ci_hi,level,verdict\n"
            "all,7,5.000000,-1.000000,11.000000,1.000000,"
            "NoSignificantDifference\n"
            "w1,3,5.000000,-1.000000,11.000000,1.000000,"
            "NoSignificantDifference\n")


class TestIllTypedInputs:
    """An ill-typed value in a plan, object, executor, model or results file
    exits 2 (3 for results) with a message naming it, never a traceback."""

    @pytest.fixture
    def ran(self, workspace):
        """The workspace after `plan stratified` and a run of each object."""
        TestCli().plan_run_compare(workspace, iterations=4)
        return workspace

    def edit(self, path, change):
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
        return doc

    def call(self, capsys, argv):
        capsys.readouterr()
        code = main([str(a) for a in argv])
        return code, capsys.readouterr().err

    def run_argv(self, ws, **files):
        paths = {"space": ws / "space.json", "plan": ws / "plan.json",
                 "executor": ws / "executor.json",
                 "object": ws / "cpu_a.json", "out": ws / "new.jsonl"}
        paths.update(files)
        return ["run", *(a for k, v in paths.items() for a in (f"--{k}", v))]

    def compare_argv(self, ws):
        return ["compare", "--a", ws / "cpu_a.jsonl", "--b", ws / "cpu_b.jsonl",
                "--level", "0.95", "--group-by-plan", ws / "plan.json",
                "--out", ws / "cmp.json"]

    def simulate_argv(self, ws, iterations=2):
        return ["simulate", "--space", ws / "space.json", "--model",
                ws / "model.json", "--methodologies", ws / "meth.json",
                "--iterations", iterations, "--level", "0.95", "--seed", "1",
                "--out", ws / "cov.csv"]

    @pytest.mark.parametrize("iterations", [0, -3])
    def test_simulate_iterations_below_one(self, workspace, capsys,
                                           iterations):
        ws = workspace
        (ws / "meth.json").write_text(json.dumps({
            "objects": ["cpu_a", "cpu_b"],
            "methodologies": [{"kind": "full_factorial"}]}))
        code, err = self.call(capsys, self.simulate_argv(ws, iterations))
        assert (code, err) == (2, "ecbench: error: iterations must be >= 1\n")
        assert not (ws / "cov.csv").exists()

    @pytest.mark.parametrize("level", ["7", "1", "0", "-0.5", "nan"])
    def test_simulate_level_outside_unit_interval(self, workspace, capsys,
                                                  level):
        # a single point with a given margin asks for no t quantile, so the
        # level is checked before any methodology runs
        ws = workspace
        (ws / "meth.json").write_text(json.dumps({
            "objects": ["cpu_a", "cpu_b"],
            "methodologies": [{"kind": "spec_point", "params": {
                "recommended_index": 0, "margin": 5.0}}]}))
        argv = self.simulate_argv(ws)
        argv[argv.index("--level") + 1] = level
        code, err = self.call(capsys, argv)
        assert (code, err) == (
            2, "ecbench: error: confidence level must be in (0, 1)\n")
        assert not (ws / "cov.csv").exists()

    def test_simulate_negative_seed_is_a_usage_error(self, workspace,
                                                     capsys):
        argv = self.simulate_argv(workspace)
        argv[argv.index("--seed") + 1] = "-1"
        with pytest.raises(SystemExit) as e:
            self.call(capsys, argv)
        assert e.value.code == 1
        assert capsys.readouterr().err.endswith(
            ": error: argument --seed: expected a non-negative integer, "
            "not '-1'\n")
        assert not (workspace / "cov.csv").exists()

    @pytest.mark.parametrize("objects", [
        ["cpu_a"], [1, 2], "ab", ["cpu_a", "cpu_b", "cpu_c"], None])
    def test_simulate_objects_not_two_ids(self, workspace, capsys, objects):
        ws = workspace
        (ws / "meth.json").write_text(json.dumps({
            "objects": objects,
            "methodologies": [{"kind": "full_factorial"}]}))
        code, err = self.call(capsys, self.simulate_argv(ws))
        assert (code, err) == (
            2, f"ecbench: error: objects must be a list of two object ids, "
               f"not {objects!r}\n")
        assert not (ws / "cov.csv").exists()

    @pytest.mark.parametrize("change, message", [
        (lambda d: [d], "{path} must hold a JSON object"),
        (lambda d: d.update(overall=5),
         "report overall must be a JSON object, not 5"),
        (lambda d: d.update(groups=[d["overall"], "stratum"]),
         "report groups must be a list of JSON objects"),
    ], ids=["report", "overall", "groups"])
    def test_report_input_ill_typed(self, ran, capsys, change, message):
        assert self.call(capsys, self.compare_argv(ran))[0] == 0
        doc = json.loads((ran / "cmp.json").read_text())
        changed = change(doc)
        (ran / "cmp.json").write_text(json.dumps(
            doc if changed is None else changed))
        code, err = self.call(capsys, [
            "report", "--input", ran / "cmp.json", "--format", "csv",
            "--out", ran / "cmp.csv"])
        assert (code, err) == (
            2, f"ecbench: error: {message.format(path=ran / 'cmp.json')}\n")
        assert not (ran / "cmp.csv").exists()

    @pytest.mark.parametrize("format_", ["csv", "json"])
    @pytest.mark.parametrize("where, field, value, message", [
        ("overall", "group", 5, "report overall group must be a string, "
                                "not 5"),
        ("overall", "n", 2.5, "report overall n must be an integer, not 2.5"),
        ("overall", "n", True, "report overall n must be an integer, "
                               "not True"),
        ("overall", "mean_diff", "1", "report overall mean_diff must be a "
                                      "number, not '1'"),
        ("overall", "ci_lo", None, "report overall ci_lo must be a number, "
                                   "not None"),
        ("overall", "ci_hi", False, "report overall ci_hi must be a number, "
                                    "not False"),
        ("overall", "level", [0.95], "report overall level must be a "
                                     "number, not [0.95]"),
        ("overall", "verdict", "Faster", "report overall verdict must be one "
         "of NoSignificantDifference, MinuendOutperforms, "
         "SubtrahendOutperforms, not 'Faster'"),
        (0, "ci_lo", None, "report group 0 ci_lo must be a number, not None"),
    ])
    def test_report_group_field_ill_typed(self, ran, capsys, format_, where,
                                          field, value, message):
        assert self.call(capsys, self.compare_argv(ran))[0] == 0
        self.edit(ran / "cmp.json", lambda d: (
            d["overall"] if where == "overall" else d["groups"][where]
        ).update({field: value}))
        code, err = self.call(capsys, [
            "report", "--input", ran / "cmp.json", "--format", format_,
            "--out", ran / "out"])
        assert (code, err) == (2, f"ecbench: error: {message}\n")
        assert not (ran / "out").exists()

    def test_compare_refuses_aggregates_whose_sum_overflows(self, tmp_path,
                                                            capsys):
        # each aggregate and each difference is within float range; the
        # sum of the differences is not
        for oid, values in (("cpu_a", [1e308, 1.5e308, 1.7e308]),
                            ("cpu_b", [1.0, 2.0, 3.0])):
            results = ResultSet(object_id=oid, plan_fingerprint="p")
            for i, v in enumerate(values):
                results.add((i, 0), Measurement(i, oid, (v,), v, "mean"))
            persist_results(results, RunManifest(
                space_fingerprint="s", plan_fingerprint="p",
                executor_hash="e", object_config={"object_id": oid}),
                tmp_path / f"{oid}.jsonl")
        code, err = self.call(capsys, [
            "compare", "--a", tmp_path / "cpu_a.jsonl", "--b",
            tmp_path / "cpu_b.jsonl", "--level", "0.95",
            "--out", tmp_path / "cmp.json"])
        assert (code, err) == (
            2, "ecbench: error: sample sum overflows the float range\n")
        assert not (tmp_path / "cmp.json").exists()

    @pytest.mark.parametrize("change, message", [
        (lambda f: f.update(levels="xy"),
         "factor 'workload': levels must be a list, not 'xy'"),
        (lambda f: f.update(levels=[1, 2]),
         "factor 'workload': level label must be a string, not 1"),
        (lambda f: f.update(levels=["a", ["b"]]),
         "factor 'workload': level label must be a string, not ['b']"),
        (lambda f: f.update(levels=[]),
         "factor 'workload' has an empty level list"),
        (lambda f: f.update(levels=["a", "b", "a"]),
         "factor 'workload' has duplicate level labels"),
        (lambda f: f.update(name=["n"]),
         "factor name must be a string, not ['n']"),
        (lambda f: f.update(name=""), "factor name must be non-empty"),
        (lambda f: f.update(levels=["a", "b"], weights=["1", "2"]),
         "factor 'workload': weight must be a number, not '1'"),
        (lambda f: f.update(levels=["a", "b"], weights=[1, True]),
         "factor 'workload': weight must be a number, not True"),
        (lambda f: f.update(levels=["a", "b"], weights=None),
         "factor 'workload': weights must be a list, not None"),
    ], ids=["levels_a_string", "levels_ints", "level_a_list", "levels_empty",
            "levels_duplicated", "name_a_list", "name_empty",
            "weights_strings", "weight_a_bool", "weights_null"])
    def test_space_factor_ill_typed(self, workspace, capsys, change,
                                    message):
        self.edit(workspace / "space.json", lambda d: change(d["factors"][0]))
        code, err = self.call(capsys, [
            "space", "info", "--space", workspace / "space.json"])
        assert (code, err) == (2, f"ecbench: error: {message}\n")

    @pytest.mark.parametrize("stratum", [3, 0])
    def test_plan_stratum_not_a_string(self, ran, capsys, stratum):
        # the runs' manifests name the edited plan, so compare reaches it
        doc = self.edit(ran / "plan.json", lambda d: [
            e.update(stratum=stratum) for e in d["entries"]])
        for oid in ("cpu_a", "cpu_b"):
            self.edit(manifest_path(ran / f"{oid}.jsonl"), lambda m: m.update(
                plan_fingerprint=fingerprint(doc)))
        code, err = self.call(capsys, self.compare_argv(ran))
        assert code == 2
        assert (f"ecbench: error: plan entry 0: stratum must be a string or "
                f"null, not {stratum}") in err
        assert not (ran / "cmp.json").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("reps", "3", "plan reps must be an integer, not '3'"),
        ("seed", True, "plan seed must be an integer, not True"),
        ("design", 1, "plan design must be a string, not 1"),
        ("index", "5", "plan entry 0: index must be a non-negative integer, "
                       "not '5'"),
        ("index", -1, "plan entry 0: index must be a non-negative integer, "
                      "not -1"),
    ])
    def test_plan_value_ill_typed(self, ran, capsys, field, value, message):
        self.edit(ran / "plan.json", lambda d: (
            d["entries"][0] if field == "index" else d).update({field: value}))
        code, err = self.call(capsys, self.run_argv(ran))
        assert (code, f"ecbench: error: {message}") == (2, err.strip())
        assert not (ran / "new.jsonl").exists()

    @pytest.mark.parametrize("object_id, message", [
        (5, "object id must be a string, not 5"),
        (None, "object id must be a string, not None"),
        (["cpu_a"], "object id must be a string, not ['cpu_a']"),
    ])
    def test_object_id_not_a_string(self, workspace, capsys, object_id,
                                    message):
        ws = workspace
        stratified_sample(demo.demo_space_720(), "workload", 2, 3, 1).save(
            ws / "plan.json")
        (ws / "odd.json").write_text(json.dumps({"object_id": object_id}))
        code, err = self.call(capsys, self.run_argv(
            ws, object=ws / "odd.json"))
        assert (code, f"ecbench: error: {message}") == (2, err.strip())

    @pytest.mark.parametrize("line, value", [
        ("policy", 1), ("object_id", 5), ("ec_index", "5"), ("ec_index", -3),
        ("ec_index", True), ("aggregate", "1.5"), ("aggregate", None),
        ("replicates", 5), ("error", 1), ("error", ["exit 1"]),
        ("started_at", "0"), ("ended_at", None), ("ended_at", False),
    ])
    def test_result_line_ill_typed_exit_3(self, ran, capsys, line, value):
        path = ran / "cpu_b.jsonl"
        lines = path.read_text().splitlines()
        doc = json.loads(lines[2])
        doc[line] = value
        lines[2] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        self.edit(manifest_path(path), lambda m: m.update(
            results_sha256=fingerprint_bytes(path.read_bytes())))
        code, err = self.call(capsys, self.compare_argv(ran))
        assert code == 3
        assert err.startswith(f"ecbench: integrity error: {path}:3: a "
                              f"measurement is a JSON object: ")

    def test_result_line_not_an_object_exit_3(self, ran, capsys):
        path = ran / "cpu_b.jsonl"
        path.write_text(path.read_text() + "[1, 2]\n")
        self.edit(manifest_path(path), lambda m: m.update(
            results_sha256=fingerprint_bytes(path.read_bytes())))
        code, err = self.call(capsys, self.compare_argv(ran))
        lineno = len(path.read_text().splitlines())
        assert code == 3 and f"integrity error: {path}:{lineno}: " in err

    @pytest.mark.parametrize("value", [
        ["300", 1.0, 2.0], [True, 1.0, 2.0], [None, 1.0, 2.0],
        [[1.0], 1.0, 2.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0],
    ])
    def test_result_line_replicates_exit_3(self, ran, capsys, value):
        path = ran / "cpu_b.jsonl"
        lines = path.read_text().splitlines()
        doc = json.loads(lines[2])
        doc["replicates"] = value
        lines[2] = json.dumps(doc)
        # a failure line holds no replicates, and no replicate count applies
        lines.append(json.dumps({**doc, "replicates": [], "error": "exit 1"}))
        path.write_text("\n".join(lines) + "\n")
        self.edit(manifest_path(path), lambda m: m.update(
            results_sha256=fingerprint_bytes(path.read_bytes())))
        code, err = self.call(capsys, self.compare_argv(ran))
        assert (code, err) == (
            3, f"ecbench: integrity error: {path}:3: a measured line holds "
               f"as many replicates as the first, each a number\n")

    @pytest.mark.parametrize("field, value", [
        ("replicates", [10**400, 1.0, 2.0]), ("replicates", [1.0, 2.0, -10**400]),
        ("aggregate", 10**400), ("started_at", 10**400),
        ("ended_at", -10**400), ("error", "exit 1"),
    ], ids=["first-replicate", "last-replicate", "aggregate", "started_at",
            "ended_at", "failure-aggregate"])
    def test_result_line_number_beyond_float_range_exit_3(self, ran, capsys,
                                                          field, value):
        # a 401-digit JSON integer: a failure line's aggregate too
        path = ran / "cpu_b.jsonl"
        lines = path.read_text().splitlines()
        doc = json.loads(lines[2])
        doc[field] = value
        if field == "error":
            doc.update(replicates=[], aggregate=-10**400)
        lines[2] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        self.edit(manifest_path(path), lambda m: m.update(
            results_sha256=fingerprint_bytes(path.read_bytes())))
        code, err = self.call(capsys, self.compare_argv(ran))
        assert (code, err) == (
            3, f"ecbench: integrity error: {path}:3: aggregate, started_at, "
               f"ended_at and a measured line's replicates lie within float "
               f"range\n")
        assert not (ran / "cmp.json").exists()

    def test_result_line_of_another_object_exit_3(self, ran, capsys):
        path = ran / "cpu_b.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace('"cpu_b"', '"cpu_a"')
        path.write_text("\n".join(lines) + "\n")
        self.edit(manifest_path(path), lambda m: m.update(
            results_sha256=fingerprint_bytes(path.read_bytes())))
        code, err = self.call(capsys, self.compare_argv(ran))
        assert (code, err) == (
            3, f"ecbench: integrity error: {path}:3: object_id 'cpu_a', "
               f"where the first line has 'cpu_b'\n")

    @pytest.mark.parametrize("name, change, message", [
        ("plan.json", lambda d: d.update(entries=[5]),
         "plan entries must be a list of JSON objects"),
        ("plan.json", lambda d: [1], "{path} must hold a JSON object"),
        ("cpu_a.json", lambda d: d.update(settings=["a"]),
         "object settings must be a JSON object, not ['a']"),
        ("cpu_a.json", lambda d: [d], "{path} must hold a JSON object"),
        ("executor.json", lambda d: [d], "{path} must hold a JSON object"),
        ("meth.json", lambda d: d["methodologies"],
         "{path} must hold a JSON object"),
        ("meth.json", lambda d: d.update(methodologies=[5]),
         "methodologies must be a list of JSON objects"),
        ("meth.json", lambda d: d["methodologies"][0].update(params=5),
         "methodology params must be a JSON object, not 5"),
        ("model.json", lambda d: [d], "{path} must hold a JSON object"),
        ("space.json", lambda d: [d], "{path} must hold a JSON object"),
        ("space.json", lambda d: d.update(factors=[5]),
         "space factors must be a list of JSON objects"),
        ("cpu_a.jsonl.manifest.json", lambda d: [1],
         "{path} must hold a JSON object"),
        ("model.json", lambda d: d.update(base=[1]),
         "model base must be a JSON object, not [1]"),
        ("model.json", lambda d: d.update(effects=[1]),
         "model effects must be a JSON object, not [1]"),
        ("model.json", lambda d: d.update(effects={"flags": [1]}),
         "model effects 'flags' must be a JSON object, not [1]"),
        ("model.json", lambda d: d.update(object_offsets=[1]),
         "model object_offsets must be a JSON object, not [1]"),
        ("model.json", lambda d: d.update(object_effects=[1]),
         "model object_effects must be a JSON object, not [1]"),
        ("model.json", lambda d: d.update(object_effects={"cpu_a": [1]}),
         "model object_effects 'cpu_a' must be a JSON object, not [1]"),
        ("model.json", lambda d: d.update(interactions={"flags": 1}),
         "model interactions must be a list of JSON objects"),
        ("model.json", lambda d: d.update(interactions=[
            {"factors": ["flags"], "table": []}]),
         "model interaction factors must be a list of two factor names, "
         "not ['flags']"),
        ("model.json", lambda d: d.update(interactions=[
            {"factors": ["flags", "threads"], "table": [["-O2", "8"]]}]),
         "model interaction 'flags' x 'threads' table must be a list of "
         "[level a, level b, seconds] rows"),
        ("executor.json", lambda d: d.update(model=[1]),
         "executor model must be a JSON object, not [1]"),
        ("executor.json", lambda d: d["model"].update(base=[1]),
         "model base must be a JSON object, not [1]"),
        ("cpu_a.jsonl.manifest.json", lambda d: d.update(object_config=[]),
         "manifest object_config must be a JSON object, not []"),
        ("resume", lambda d: d.update(object_config=[]),
         "manifest object_config must be a JSON object, not []"),
        ("cpu_a.jsonl.manifest.json", lambda d: d.update(results_sha256=None),
         "{path}: results_sha256 must be a string, not None"),
    ], ids=["plan_entries", "plan", "object_settings", "object", "executor",
            "methodologies_file", "methodologies", "methodology_params",
            "model", "space", "space_factors", "manifest",
            "model_base", "model_effects", "model_effect_table",
            "model_object_offsets", "model_object_effects",
            "model_object_effect_tables", "model_interactions",
            "interaction_one_factor", "interaction_row_of_two",
            "executor_model", "executor_model_base", "manifest_compare",
            "manifest_resume", "manifest_hash"])
    def test_file_structure_ill_typed(self, ran, capsys, name, change,
                                      message):
        ws = ran
        (ws / "meth.json").write_text(json.dumps({
            "objects": ["cpu_a", "cpu_b"],
            "methodologies": [{"kind": "full_factorial", "params": {}}]}))
        # "resume": the manifest of a run that `run --resume` appends to
        path = ws / ("cpu_a.jsonl.manifest.json" if name == "resume" else name)
        doc = json.loads(path.read_text())
        changed = change(doc)
        path.write_text(json.dumps(doc if changed is None else changed))
        argv = {
            "space.json": ["space", "info", "--space", ws / "space.json"],
            "meth.json": None, "model.json": None,
            "cpu_a.jsonl.manifest.json": self.compare_argv(ws),
            "resume": [*self.run_argv(ws, out=ws / "cpu_a.jsonl"), "--resume"],
        }.get(name, self.run_argv(ws))
        if argv is None:
            argv = ["simulate", "--space", ws / "space.json", "--model",
                    ws / "model.json", "--methodologies", ws / "meth.json",
                    "--iterations", "2", "--level", "0.95", "--seed", "1",
                    "--out", ws / "cov.csv"]
        code, err = self.call(capsys, argv)
        kind = ("integrity error" if name.endswith(".manifest.json")
                or name == "resume" else "error")
        assert (code, err.strip()) == (
            3 if kind == "integrity error" else 2,
            f"ecbench: {kind}: {message.format(path=path)}")

    @pytest.mark.parametrize("field, value, message", [
        ("sigma", "1.0", "noise sigma must be a number, not '1.0'"),
        ("sigma", float("nan"), "noise sigma must be non-negative"),
        ("noise_seed", "7", "noise seed must be an integer, not '7'"),
        ("noise_seed", 1.5, "noise seed must be an integer, not 1.5"),
    ])
    def test_model_value_ill_typed(self, workspace, capsys, field, value,
                                   message):
        ws = workspace
        self.edit(ws / "model.json", lambda d: d.update({field: value}))
        (ws / "meth.json").write_text(json.dumps({
            "objects": ["cpu_a", "cpu_b"],
            "methodologies": [{"kind": "full_factorial"}]}))
        code, err = self.call(capsys, [
            "simulate", "--space", ws / "space.json", "--model",
            ws / "model.json", "--methodologies", ws / "meth.json",
            "--iterations", "2", "--level", "0.95", "--seed", "1",
            "--out", ws / "cov.csv"])
        assert (code, f"ecbench: error: {message}") == (2, err.strip())
        # the same model inside a synthetic executor
        doc = json.loads((ws / "executor.json").read_text())
        doc["model"][field] = value
        (ws / "executor.json").write_text(json.dumps(doc))
        stratified_sample(demo.demo_space_720(), "workload", 2, 3, 1).save(
            ws / "plan.json")
        code, err = self.call(capsys, self.run_argv(ws))
        assert (code, f"ecbench: error: {message}") == (2, err.strip())

    @pytest.mark.parametrize("value", ["300", True])
    @pytest.mark.parametrize("table, doc, label", [
        ("base", {"exchange2": None}, "base 'exchange2'"),
        ("effects", {"flags": {"-O2": None}}, "effect 'flags' '-O2'"),
        ("object_offsets", {"cpu_a": None}, "object offset 'cpu_a'"),
        ("object_effects", {"cpu_b": {"threads": {"8": None}}},
         "object 'cpu_b' effect 'threads' '8'"),
        ("interactions", [{"factors": ["flags", "threads"],
                           "table": [["-O2", "8", None]]}],
         "interaction 'flags' x 'threads' ('-O2', '8')"),
    ])
    def test_model_table_value_not_a_number(self, workspace, capsys, table,
                                            doc, label, value):
        ws = workspace
        text = json.dumps(doc).replace("null", json.dumps(value))
        self.edit(ws / "executor.json",
                  lambda d: d["model"].update({table: json.loads(text)}))
        stratified_sample(demo.demo_space_720(), "workload", 2, 3, 1).save(
            ws / "plan.json")
        code, err = self.call(capsys, self.run_argv(ws))
        assert (code, err.strip()) == (
            2, f"ecbench: error: model {label} must be a number, "
               f"not {value!r}")
        assert not (ws / "new.jsonl").exists()

    @pytest.mark.parametrize("change, message", [
        ({"timeout": "5"}, "executor timeout must be a number, not '5'"),
        ({"timeout": True}, "executor timeout must be a number, not True"),
        ({"templates": ["true"]}, "command templates must be a JSON object "
                                  "of stratum label to command string"),
        ({"templates": {"*": 5}}, "command templates must be a JSON object "
                                  "of stratum label to command string"),
    ])
    def test_command_executor_ill_typed(self, workspace, capsys, change,
                                        message):
        ws = workspace
        # a command that is never started: the executor is refused first
        doc = {"kind": "command", "templates": {"*": "true"}, **change}
        (ws / "command.json").write_text(json.dumps(doc))
        stratified_sample(demo.demo_space_720(), "workload", 2, 3, 1).save(
            ws / "plan.json")
        code, err = self.call(capsys, self.run_argv(
            ws, executor=ws / "command.json"))
        assert (code, f"ecbench: error: {message}") == (2, err.strip())
        assert not (ws / "new.jsonl").exists()


def write_results_file(path, indices, values) -> None:
    """A results file of measured rows of cpu_a, with its manifest."""
    data = "".join(
        measurement_line(Measurement(i, "cpu_a", tuple(v), sum(v) / 3, "mean"))
        + "\n" for i, v in zip(indices, values)).encode()
    path.write_bytes(data)
    manifest_path(path).write_text(json.dumps(RunManifest(
        space_fingerprint="s", plan_fingerprint="p", executor_hash="e",
        object_config={"object_id": "cpu_a"},
        results_sha256=fingerprint_bytes(data)).to_dict()))


@pytest.fixture(scope="module")
def files_20k(tmp_path_factory):
    """A 20k-row result file with its manifest and a 20k-entry plan file,
    shaped like the `reanalysis` benchmark's: 43 strata, 3 replicates."""
    d = tmp_path_factory.mktemp("files_20k")
    rng = np.random.default_rng(7)
    labels = demo.demo_space_billion().factor("workload").levels
    strata = rng.integers(0, len(labels), 20_000).tolist()
    indices = rng.integers(0, 10**9, 20_000).tolist()
    write_results_file(d / "r.jsonl", indices,
                       rng.normal(200.0, 2.0, (20_000, 3)).tolist())
    SamplePlan(design="stratified",
               entries=tuple(map(PlanEntry, indices,
                                 [labels[s] for s in strata])),
               reps=3, seed=0, space_fingerprint="s").save(d / "plan.json")
    return d


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of `call()` and what it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = call()  # noqa: F841 (held while the peak is read)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loading_a_result_file_peaks_below_two_and_a_quarter_file_sizes(
        files_20k):
    # the bytes, one block of text and lines, and the columns: not the
    # whole text and its lines beside the bytes
    path = files_20k / "r.jsonl"
    assert traced_peak(lambda: load_results(path)) <= 2.25 * path.stat().st_size


def test_loading_a_result_file_peaks_below_three_quarters_of_its_size(
        tmp_path):
    # read, hashed and parsed a block at a time: the peak is the columns
    # and their joining, not the file's bytes
    rng = np.random.default_rng(11)
    path = tmp_path / "r.jsonl"
    write_results_file(path, rng.integers(0, 10**9, 5_000).tolist(),
                       rng.normal(200.0, 2.0, (5_000, 3)).tolist())
    assert traced_peak(lambda: load_results(path)) < 0.75 * path.stat().st_size


def test_a_space_fingerprint_peaks_below_a_megabyte():
    # encoding the billion-point space whole peaks at about 4.2 MB; it is
    # hashed a key, or a slice of levels, at a time
    doc = demo.demo_space_billion().to_dict()
    assert traced_peak(lambda: fingerprint(doc)) < 1_000_000


def test_loading_a_plan_peaks_below_three_file_sizes(files_20k):
    # the text and the entries, with no dict kept per entry
    path = files_20k / "plan.json"
    assert traced_peak(lambda: SamplePlan.load(path)) <= 3 * path.stat().st_size


def test_a_plan_fingerprint_peaks_below_half_a_file_size(files_20k):
    # the canonical text is hashed a slice of entries at a time, never
    # built whole
    path = files_20k / "plan.json"
    plan = SamplePlan.load(path)
    assert traced_peak(lambda: plan.fingerprint) <= 0.5 * path.stat().st_size


def plan_occurrence_keys(plan_path):
    indices = SamplePlan.load(plan_path).indices
    return list(zip(indices.tolist(), occurrence_ordinals(indices).tolist()))


json_docs = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(),
              st.integers(min_value=-2**200, max_value=2**200), st.text()),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=25)


@given(json_docs)
@settings(max_examples=150)
def test_canonical_json_is_sorted_compact_json_dumps(doc):
    assert canonical_json(doc) == json.dumps(doc, sort_keys=True,
                                             separators=(",", ":"))


scalars = st.one_of(st.none(), st.booleans(), st.floats(),
                    st.sampled_from([-0.0, 10**400, -10**400]),
                    st.integers(min_value=-2**200, max_value=2**200),
                    st.text(alphabet="a\"\\/\x00\x1f\x7f\xe9\u2028\ud800"
                                     "\U0001f600", max_size=5))
# any key the encoder takes: strings, and numbers, bools and null, which it
# sorts with the strings, or refuses to
keys = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.booleans(),
                 st.none(), st.floats(allow_nan=False))
fingerprint_docs = st.recursive(
    scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=6), st.lists(scalars, max_size=12),
        st.tuples(inner, inner), st.dictionaries(st.text(max_size=3), inner,
                                                 max_size=5),
        st.dictionaries(keys, inner, max_size=3)),
    max_leaves=40)


def fingerprint_outcome(digest, doc):
    try:
        return digest(doc)
    except (TypeError, ValueError) as e:  # a refused key, a cycle
        return type(e), str(e)


@given(st.one_of(fingerprint_docs,
                 st.lists(fingerprint_docs, min_size=6, max_size=8)),
       st.sampled_from([1, 2, 5, 1024]))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fingerprint_hashes_the_canonical_text(monkeypatch, doc, slice_):
    # hashed a piece at a time, with a list longer than `_SLICE` a slice of
    # items per encoder call whatever they hold (the second strategy's
    # lists of 6 to 8 documents), the digest is the digest of the whole
    # canonical text
    monkeypatch.setattr(ecbench.fingerprints, "_SLICE", slice_)
    assert fingerprint_outcome(fingerprint, doc) == fingerprint_outcome(
        lambda d: hashlib.sha256(canonical_json(d).encode()).hexdigest(), doc)


def test_fingerprint_of_long_lists_deep_nesting_and_cycles():
    def whole(doc):
        return hashlib.sha256(canonical_json(doc).encode()).hexdigest()

    deep = [1.5]
    for depth in range(12):  # past the depth below which values go whole
        deep = {"k": deep, "n": depth} if depth % 2 else [deep, "x"]
    docs = [demo.demo_space_billion().to_dict(), list(range(3 * 1024 + 1)),
            {"a": [float("nan"), float("inf"), -float("inf"), -0.0] * 700},
            [{"i": i, "v": [i, str(i)]} for i in range(2 * 1024 + 3)], deep]
    assert [fingerprint(doc) for doc in docs] == [whole(doc) for doc in docs]
    for size in (1, 1500):  # a cycle through a list, short or sliced
        loop: list = [1] * size
        loop.append({"back": loop})
        assert fingerprint_outcome(fingerprint, loop) == (
            ValueError, "Circular reference detected")

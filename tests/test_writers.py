"""Byte parity of the column-wise JSON writers with `json.dumps`.

Plan files and plan fingerprints (`SamplePlan`), result lines
(`manifest.measurement_lines`), space files (`ConfigSpace.save`) and run
manifests (`indented_json`) are built by CPython's C encoder a column at a
time; each must give the bytes `json.dumps` gives for the same document.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecbench.design
from ecbench import demo
from ecbench.cli import main
from ecbench.design import DESIGNS, PlanEntry, SamplePlan
from ecbench.errors import FingerprintError, PlanError
from ecbench.fingerprints import (
    canonical_column,
    canonical_json,
    fingerprint,
    indented_json,
)
from ecbench.manifest import (
    RunManifest,
    measurement_line,
    measurement_lines,
    parse_results,
    persist_results,
)
from ecbench.runner import Measurement, ResultSet
from ecbench.space import ConfigSpace, Factor

# text that breaks a naive column split or escape: separators the writers
# split at, JSON escapes, control characters, U+2028 and non-ASCII
AWKWARD = ["a,b", ",", "],[", "[", "]", '"', "\\", "\x00\x1f\n\t", " ",
           "é", "中文", "\U0001f600", ""]
texts = st.one_of(st.sampled_from(AWKWARD), st.text(max_size=8))
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                     5e-324, 2.2250738585072014e-308, 1e16, 1e-7]))


def plan_dumps(plan: SamplePlan) -> str:
    return json.dumps(plan.to_dict(), sort_keys=True, indent=2) + "\n"


def saved_text(obj) -> str:
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "doc.json"
        obj.save(path)
        return path.read_text()


plans = st.builds(
    SamplePlan,
    design=st.sampled_from(sorted(DESIGNS)),
    entries=st.lists(st.builds(PlanEntry,
                               st.integers(0, 2**128 - 1),
                               st.one_of(st.none(), texts)),
                     max_size=12).map(tuple),
    reps=st.integers(1, 2**40),
    seed=st.integers(0, 2**64),
    space_fingerprint=texts,
    policy=st.sampled_from(["mean", "median"]),
)


@given(plans)
@settings(max_examples=200, deadline=None)
def test_plan_texts_equal_json_dumps(plan):
    assert saved_text(plan) == plan_dumps(plan)
    assert plan.fingerprint == fingerprint(plan.to_dict())
    assert SamplePlan.from_dict(json.loads(plan_dumps(plan))) == plan


@pytest.mark.parametrize("entries, seed", [
    ((), 0),  # no entries: still a plan
    ((("1,2", "a"), (3.5, "b,c")), 1),  # indices that are not integers
    (((1, 1), (2, True), (3, 1.0)), 2),  # strata that are not strings
    (((0, -0.0), (1, 0.0)), 3),
    ((([1], ["x"]), ({"k": [2, 3]}, None)), 4),  # containers
    (((1, "a"),), [5, {"b": None}]),  # a container seed
])
def test_plans_read_from_hand_edited_files(tmp_path, entries, seed):
    doc = {"design": "stratified", "policy": "mean", "reps": 2, "seed": seed,
           "space_fingerprint": "s",
           "entries": [{"index": index} if stratum is None
                       else {"index": index, "stratum": stratum}
                       for index, stratum in entries]}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    if entries:  # an ill-typed value is refused, not carried through
        with pytest.raises(PlanError):
            SamplePlan.load(path)
        return
    plan = SamplePlan.load(path)
    assert saved_text(plan) == path.read_text() == plan_dumps(plan)
    assert plan.fingerprint == fingerprint(doc)


def measurements(max_replicates):
    return st.builds(
        Measurement,
        ec_index=st.one_of(st.integers(0, 2**128 - 1), st.sampled_from(AWKWARD)),
        object_id=texts,
        replicates=st.lists(floats, max_size=max_replicates).map(tuple),
        aggregate=floats,
        policy=st.one_of(st.sampled_from(["mean", "median"]), texts),
        started_at=floats,
        ended_at=floats,
        error=st.one_of(st.none(), texts),
    )


@given(st.lists(measurements(4), max_size=8))
@settings(max_examples=200, deadline=None)
def test_result_lines_equal_measurement_line(rows):
    assert measurement_lines(rows) == "".join(
        measurement_line(m) + "\n" for m in rows)


@pytest.mark.parametrize("rows", [
    # a measured line's replicate that is not a number is refused; the
    # writer still gives its line, the replicate split falling back per row
    [Measurement(1, "a", ("x],[y", 2.0), 1.0, "mean")],
    [Measurement(1, "a", ([1.0], [2.0]), 1.0, "mean")],
    # so is a failure line's error that is not a string
    [Measurement(1, "a", (), 1.0, "mean", error=1),
     Measurement(2, "a", (), 1.0, "mean", error=True)],  # 1 == True
    [Measurement(1, "a", (), 1.0, "mean", error=["unhashable"])],
])
def test_result_lines_read_from_hand_edited_files(rows):
    data = "".join(measurement_line(m) + "\n" for m in rows)
    with pytest.raises(FingerprintError, match=r"^r\.jsonl:1: "):
        parse_results(data.encode(), "r.jsonl", "a", "p")
    if rows[0].error is None:
        assert measurement_lines(rows) == data


@given(st.lists(st.one_of(st.none(), st.booleans(), floats,
                          st.integers(-2**130, 2**130), texts), max_size=10))
def test_canonical_column_is_canonical_json_per_value(values):
    assert canonical_column(values) == [canonical_json(v) for v in values]


@st.composite
def spaces(draw):
    factors = []
    for i in range(draw(st.integers(0, 4))):
        levels = draw(st.lists(texts, min_size=1, max_size=6, unique=True))
        weights = draw(st.one_of(
            st.none(),
            st.lists(st.floats(0.0, 1e300), min_size=len(levels),
                     max_size=len(levels)).filter(lambda w: sum(w) > 0)))
        factors.append(Factor(draw(texts.filter(bool)) + str(i), tuple(levels),
                              None if weights is None else tuple(weights)))
    return ConfigSpace(tuple(factors))


@given(spaces())
@settings(max_examples=100, deadline=None)
def test_space_file_equals_json_dumps(space):
    assert saved_text(space) == json.dumps(space.to_dict(), indent=2) + "\n"


json_docs = st.recursive(
    st.one_of(st.none(), st.booleans(), floats,
              st.integers(min_value=-2**200, max_value=2**200), texts),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(texts, inner, max_size=5),
        st.dictionaries(st.one_of(st.integers(-5, 5), st.none()), inner,
                        max_size=3)),
    max_leaves=25)


def has_other_keys(doc) -> bool:
    """Whether a dict in `doc` has a key that is not a string."""
    if isinstance(doc, dict):
        return any(not isinstance(k, str) or has_other_keys(v)
                   for k, v in doc.items())
    return isinstance(doc, (list, tuple)) and any(map(has_other_keys, doc))


@given(json_docs)
@settings(max_examples=200, deadline=None)
def test_indented_json_is_json_dumps_indent_2(doc):
    if has_other_keys(doc):  # space keys are strings
        with pytest.raises(TypeError):
            indented_json(doc)
        return
    assert indented_json(doc) == json.dumps(doc, indent=2)


class Label(str):
    """A `str` subclass: JSON writes its text."""


# mostly printable ASCII, as labels are, and the characters on either side
near_plain = st.text(st.characters(min_codepoint=0x1F, max_codepoint=0x80),
                     max_size=8)
labels = st.one_of(st.sampled_from(AWKWARD + ["\x7f", "~ !#", "-O3"]),
                   st.text(max_size=8), near_plain, near_plain.map(Label))


@st.composite
def long_label_lists(draw):
    """A list of more than a fingerprint slice of plain labels, with up to
    three items of any kind at drawn positions."""
    items = [f"d{i}" for i in range(draw(st.integers(1025, 2600)))]
    for _ in range(draw(st.integers(0, 3))):
        items[draw(st.integers(0, len(items) - 1))] = draw(st.one_of(
            labels, st.none(), st.integers(), floats))
    return items


@given(st.one_of(
    st.lists(labels, max_size=12),  # strings only: the joined text
    st.lists(st.one_of(labels, st.none(), st.booleans(), st.integers(),
                       floats), max_size=12),
    long_label_lists()))
@settings(max_examples=200, deadline=None)
def test_lists_of_strings_give_json_dumps_text(items):
    for doc in (items, tuple(items), {"levels": items, "name": "f"},
                [items, [items[:3]]]):
        compact = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert canonical_json(doc) == compact
        assert fingerprint(doc) == hashlib.sha256(compact.encode()).hexdigest()
        assert indented_json(doc) == json.dumps(doc, indent=2)


def test_writers_never_take_the_pure_python_encoder(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):  # the guard bites
        json.dumps([1], indent=2)
    space = demo.demo_space_720()
    space.save(tmp_path / "space.json")
    plan = ecbench.design.stratified_sample(space, "workload", 4, 3, seed=1)
    plan.save(tmp_path / "plan.json")
    results = ResultSet(object_id="cpu_a", plan_fingerprint=plan.fingerprint)
    for ordinal, entry in enumerate(plan.entries):
        results.add((entry.ec_index, ordinal), Measurement(
            entry.ec_index, "cpu_a", (1.0, 2.0), 1.5, "mean"))
    manifest = RunManifest(space_fingerprint=plan.space_fingerprint,
                           plan_fingerprint=plan.fingerprint,
                           executor_hash="e",
                           object_config={"object_id": "cpu_a",
                                          "settings": {"turbo": "on"}})
    persist_results(results, manifest, tmp_path / "cpu_a.jsonl")
    assert ConfigSpace.load(tmp_path / "space.json") == space
    assert SamplePlan.load(tmp_path / "plan.json") == plan


def test_manifest_text_is_sorted_json_dumps_indent_2(tmp_path):
    results = ResultSet(object_id="cpu_a", plan_fingerprint="p")
    results.add((3, 0), Measurement(3, "cpu_a", (1.0, 2.0), 1.5, "mean"))
    manifest = RunManifest(space_fingerprint="s", plan_fingerprint="p",
                           executor_hash="e",
                           object_config={"object_id": "cpu_a", "settings": {
                               "turbo": "on", "smt": "off", "é": [2, {
                                   "z": 1.5e300, "a": None}]}},
                           seeds={"master": 7, "base": -1},
                           host={"os": "Linux", "cpu": "x"})
    persist_results(results, manifest, tmp_path / "cpu_a.jsonl")
    assert (tmp_path / "cpu_a.jsonl.manifest.json").read_text() == json.dumps(
        manifest.to_dict(), sort_keys=True, indent=2) + "\n"


def test_run_hashes_the_space_once(tmp_path, monkeypatch):
    # plan and run hash the space through design's module-level fingerprint,
    # which the benchmark tracer counts: once per command
    space_hashes = []

    def counted(doc):
        if isinstance(doc, dict) and "factors" in doc:
            space_hashes.append(doc)
        return fingerprint(doc)

    monkeypatch.setattr(ecbench.design, "fingerprint", counted)
    demo.demo_space_720().save(tmp_path / "space.json")
    (tmp_path / "executor.json").write_text(json.dumps(
        {"kind": "synthetic", "model": demo.gaussian_model().to_dict()}))
    (tmp_path / "cpu_a.json").write_text(json.dumps({"object_id": "cpu_a"}))
    assert main(["plan", "stratified", "--space", str(tmp_path / "space.json"),
                 "--stratum-factor", "workload", "--iterations", "2",
                 "--seed", "5", "--out", str(tmp_path / "plan.json")]) == 0
    assert len(space_hashes) == 1
    assert main(["run", "--space", str(tmp_path / "space.json"),
                 "--plan", str(tmp_path / "plan.json"),
                 "--executor", str(tmp_path / "executor.json"),
                 "--object", str(tmp_path / "cpu_a.json"),
                 "--out", str(tmp_path / "cpu_a.jsonl")]) == 0
    assert len(space_hashes) == 2
    recorded = json.loads((tmp_path / "cpu_a.jsonl.manifest.json").read_text())
    assert recorded["space_fingerprint"] == fingerprint(space_hashes[0])

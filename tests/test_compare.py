import hashlib
import itertools
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecbench.cli
import ecbench.compare
from ecbench import demo
from ecbench.compare import (
    ComparisonReport,
    GroupMap,
    Verdict,
    asymmetry_report,
    compare_objects,
    paired_aggregates,
    spec_composite,
    verdict_of,
)
from ecbench.cli import main
from ecbench.design import PlanEntry, SamplePlan
from ecbench.errors import PairingError
from ecbench.fingerprints import fingerprint
from ecbench.manifest import RunManifest, load_results, persist_results
from ecbench.runner import Measurement, ResultSet
from ecbench.stats import Interval, StatsError
from oracles import occurrence_keys_reference, paired_aggregates_reference
from test_design import space_4_pow_40
from test_stats import result_set


def iv(lo, hi, level=0.95):
    return Interval(low=lo, high=hi, level=level, center=(lo + hi) / 2, n=10)


class TestVerdict:
    def test_interval_straddling_zero(self):
        assert verdict_of(iv(-17.736, 65.512)) is Verdict.NO_SIGNIFICANT_DIFFERENCE

    def test_entirely_negative(self):
        assert verdict_of(iv(-5.0, -1.0)) is Verdict.MINUEND_OUTPERFORMS

    def test_entirely_positive(self):
        assert verdict_of(iv(1.0, 5.0)) is Verdict.SUBTRAHEND_OUTPERFORMS

    def test_zero_endpoint_is_conservative(self):
        assert verdict_of(iv(0.0, 5.0)) is Verdict.NO_SIGNIFICANT_DIFFERENCE
        assert verdict_of(iv(-5.0, 0.0)) is Verdict.NO_SIGNIFICANT_DIFFERENCE

    def test_degenerate_point(self):
        assert verdict_of(iv(2.0, 2.0)) is Verdict.SUBTRAHEND_OUTPERFORMS
        assert verdict_of(iv(0.0, 0.0)) is Verdict.NO_SIGNIFICANT_DIFFERENCE


class TestCompareObjects:
    def test_mirror_law_on_fixed_data(self):
        a = result_set("a", [5.0, 7.0, 9.0, 4.0])
        b = result_set("b", [1.0, 2.0, 3.0, 8.0])
        r_ab = compare_objects(a, b, 0.95)
        r_ba = compare_objects(b, a, 0.95)
        assert r_ab.overall.interval.low == pytest.approx(
            -r_ba.overall.interval.high, rel=1e-12)
        assert r_ab.overall.interval.high == pytest.approx(
            -r_ba.overall.interval.low, rel=1e-12)

    def test_mirror_verdict_swaps(self):
        a = result_set("a", [1.0, 1.1, 0.9, 1.05])
        b = result_set("b", [5.0, 5.1, 4.9, 5.05])
        assert compare_objects(a, b, 0.95).overall.verdict is \
            Verdict.MINUEND_OUTPERFORMS
        assert compare_objects(b, a, 0.95).overall.verdict is \
            Verdict.SUBTRAHEND_OUTPERFORMS

    def test_group_sizes_sum_to_overall(self):
        a = result_set("a", [float(i) for i in range(10)])
        b = result_set("b", [0.5] * 10)
        group_by = GroupMap(np.arange(10), np.zeros(10, dtype=np.int64),
                            ["even" if i % 2 == 0 else "odd" for i in range(10)])
        report = compare_objects(a, b, 0.95, group_by=group_by)
        assert sum(g.n for g in report.groups) == report.overall.n
        assert [g.group for g in report.groups] == ["even", "odd"]

    def test_missing_group_key_rejected(self):
        a = result_set("a", [1.0, 2.0])
        b = result_set("b", [1.0, 2.0])
        with pytest.raises(PairingError):
            compare_objects(a, b, 0.95, group_by=GroupMap(
                np.array([0]), np.array([0]), ["g"]))

    def test_report_roundtrip(self):
        a = result_set("a", [5.0, 7.0, 9.0])
        b = result_set("b", [1.0, 2.0, 3.0])
        report = compare_objects(a, b, 0.99, group_by=GroupMap(
            np.arange(3), np.zeros(3, dtype=np.int64), ["g"] * 3))
        again = ComparisonReport.from_dict(report.to_dict())
        assert again == report

    def test_object_ids_recorded(self):
        a = result_set("cpu_a", [1.0, 2.0])
        b = result_set("cpu_b", [1.0, 2.0])
        r = compare_objects(a, b, 0.95)
        assert (r.minuend_id, r.subtrahend_id) == ("cpu_a", "cpu_b")


@given(st.lists(
    st.tuples(st.floats(min_value=-1e3, max_value=1e3),
              st.floats(min_value=-1e3, max_value=1e3)),
    min_size=2, max_size=30,
))
@settings(max_examples=250)
def test_mirror_property_random_datasets(pairs):
    a = result_set("a", [p[0] for p in pairs])
    b = result_set("b", [p[1] for p in pairs])
    r_ab = compare_objects(a, b, 0.95).overall.interval
    r_ba = compare_objects(b, a, 0.95).overall.interval
    scale = max(1.0, abs(r_ab.low), abs(r_ab.high))
    assert abs(r_ab.low + r_ba.high) <= 1e-12 * scale
    assert abs(r_ab.high + r_ba.low) <= 1e-12 * scale


class TestAsymmetryDemo:
    def test_difference_intervals_mirror(self):
        a, b = demo.asymmetry_demo_results()
        rep = asymmetry_report(a, b, 0.95)
        assert rep.diff_ab.low == pytest.approx(-rep.diff_ba.high, rel=1e-12)
        assert rep.diff_ab.high == pytest.approx(-rep.diff_ba.low, rel=1e-12)

    def test_ratio_conclusion_flips_with_baseline(self):
        # both baselines claim "the other CPU is slower": CI entirely above 1
        a, b = demo.asymmetry_demo_results()
        rep = asymmetry_report(a, b, 0.95)
        assert rep.ratio_base_b.low > 1.0
        assert rep.ratio_base_a.low > 1.0

    def test_jensen_products_exceed_one(self):
        a, b = demo.asymmetry_demo_results()
        rep = asymmetry_report(a, b, 0.95)
        assert rep.jensen_base_b > 1.0
        assert rep.jensen_base_a > 1.0

    def test_serializes(self):
        a, b = demo.asymmetry_demo_results()
        doc = asymmetry_report(a, b, 0.95).to_dict()
        assert doc["ratio_baseline_b"]["lo"] > 1.0
        assert doc["ratio_baseline_a"]["lo"] > 1.0


class TestSpecComposite:
    def scores(self):
        return [
            ("w1", (10.0, 12.0, 11.0)),
            ("w2", (20.0, 19.0, 21.0)),
            ("w3", (5.0, 5.0, 5.0)),
        ]

    def test_median_then_geometric_mean(self):
        # medians 11, 20, 5 -> geometric mean of (11, 20, 5)
        expected = (11.0 * 20.0 * 5.0) ** (1 / 3)
        assert spec_composite(self.scores()) == pytest.approx(expected)

    def test_invariant_to_run_order(self):
        base = spec_composite(self.scores())
        for perm in itertools.permutations((10.0, 12.0, 11.0)):
            scores = [("w1", perm)] + self.scores()[1:]
            assert spec_composite(scores) == pytest.approx(base)

    def test_wrong_run_count_rejected(self):
        with pytest.raises(StatsError):
            spec_composite([("w1", (1.0, 2.0))])

    def test_nonpositive_rejected(self):
        with pytest.raises(StatsError):
            spec_composite([("w1", (1.0, -2.0, 3.0))])


def test_mirror_holds_on_simulated_runs():
    # end-to-end: paired synthetic runs, not hand-built result sets
    rng = np.random.Generator(np.random.PCG64(11))
    vals_a = rng.normal(300.0, 6.0, 64)
    vals_b = rng.normal(275.0, 6.0, 64)
    a = result_set("cpu_a", list(vals_a))
    b = result_set("cpu_b", list(vals_b))
    r = compare_objects(a, b, 0.99)
    assert r.overall.verdict is Verdict.SUBTRAHEND_OUTPERFORMS
    assert r.overall.interval.contains(25.0)


class TestCompareCommand:
    """`ecbench compare` on files written by persist_results."""

    def write(self, tmp_path, plan_entries=6, keys_a=6, keys_b=6,
              plan_b=None):
        plan = SamplePlan(design="stratified", reps=1, seed=1,
                          space_fingerprint="space",
                          entries=tuple(PlanEntry(i, f"g{i % 2}")
                                        for i in range(plan_entries)))
        plan.save(tmp_path / "plan.json")
        for oid, n, fp in (("a", keys_a, plan.fingerprint),
                           ("b", keys_b, plan_b or plan.fingerprint)):
            rs = result_set(oid, [float(10 + i * i) if oid == "a" else
                                  float(i + 1) for i in range(n)])
            rs.plan_fingerprint = fp
            persist_results(rs, RunManifest(
                space_fingerprint="space", plan_fingerprint=fp,
                executor_hash="x", object_config={"object_id": oid}),
                tmp_path / f"{oid}.jsonl")

    def compare(self, tmp_path, *extra):
        return main(["compare", "--a", str(tmp_path / "a.jsonl"),
                     "--b", str(tmp_path / "b.jsonl"), "--level", "0.95",
                     "--group-by-plan", str(tmp_path / "plan.json"),
                     "--out", str(tmp_path / "report.json"), *extra])

    def test_aligns_once(self, tmp_path, monkeypatch):
        self.write(tmp_path)
        calls = []

        def counted(a, b):
            calls.append((a.object_id, b.object_id))
            return paired_aggregates(a, b)

        for module in (ecbench.cli, ecbench.compare):
            monkeypatch.setattr(module, "paired_aggregates", counted)
        assert self.compare(tmp_path, "--csv", str(tmp_path / "report.csv"),
                            "--asymmetry", str(tmp_path / "asym.json")) == 0
        assert calls == [("a", "b")]

    @pytest.mark.parametrize("case, message", [
        ({"plan_b": "another"}, "result sets come from different plans"),
        ({"keys_b": 5}, "result sets cover different (ec_index, ordinal) keys"),
        ({"plan_entries": 4}, "group map misses keys, e.g. [(4, 0), (5, 0)]"),
    ])
    def test_pairing_errors_exit_3(self, tmp_path, capsys, case, message):
        self.write(tmp_path, **case)
        capsys.readouterr()
        assert self.compare(tmp_path, "--asymmetry",
                            str(tmp_path / "asym.json")) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


def wide_pair(work, rows=60, repeats=15, plan_rows=None, drop_b=0,
              plan_b=None, seed=5):
    """Two result files of `rows` rows on the 4^40-point space, written by
    persist_results, with every index in [2^79, 2^80). The last `repeats`
    rows measure five earlier entries again, so ordinals 1 to 3 occur; cpu_a
    ends with one failure line. The plan file holds the first `plan_rows`
    entries, and both files name its fingerprint unless `plan_b` replaces
    cpu_b's; cpu_b leaves out its first `drop_b` rows."""
    space = space_4_pow_40()
    rng = np.random.Generator(np.random.PCG64(seed))
    drawn = [(1 << 79) | int.from_bytes(rng.bytes(9), "little")
             for _ in range(rows - repeats)]
    indices = drawn + [drawn[i % 5] for i in range(repeats)]
    labels = [f"g{i}" for i in rng.integers(0, 4, len(drawn)).tolist()]
    labels += [labels[i % 5] for i in range(repeats)]
    plan = SamplePlan(
        design="stratified", reps=2, seed=seed,
        space_fingerprint=fingerprint(space.to_dict()),
        entries=tuple(map(PlanEntry, indices, labels))[:plan_rows])
    plan.save(work / "plan.json")
    keys = occurrence_keys_reference(indices)
    values = rng.normal(100.0, 5.0, (rows, 2))
    for oid, values, fp, skip in (
            ("cpu_a", values, plan.fingerprint, 0),
            ("cpu_b", values + rng.normal(3.0, 1.0, (rows, 2)),
             plan_b or plan.fingerprint, drop_b)):
        results = ResultSet(object_id=oid, plan_fingerprint=fp)
        for key, reps in list(zip(keys, map(tuple, values.tolist())))[skip:]:
            results.add(key, Measurement(ec_index=key[0], object_id=oid,
                                         replicates=reps,
                                         aggregate=statistics.fmean(reps),
                                         policy="mean"))
        if oid == "cpu_a":
            results.failures.append(Measurement(
                ec_index=indices[3], object_id=oid, replicates=(),
                aggregate=float("nan"), policy="mean", error="timed out"))
        persist_results(results, RunManifest(
            space_fingerprint=plan.space_fingerprint, plan_fingerprint=fp,
            executor_hash="recorded", object_config={"object_id": oid}),
            work / f"{oid}.jsonl")
    return plan


def wide_compare(work, *extra):
    return main(["compare", "--a", str(work / "cpu_a.jsonl"),
                 "--b", str(work / "cpu_b.jsonl"), "--level", "0.95",
                 "--group-by-plan", str(work / "plan.json"),
                 "--out", str(work / "report.json"),
                 "--asymmetry", str(work / "asymmetry.json"), *extra])


# the bytes the sorted-tuple alignment gave before result sets were columns
WIDE_SHA256 = {
    "report.json": "5123039a9a5cf40ae78c04dbd1e7f34b6fbe9035850355bfd4bd50d15f42e497",
    "report.csv": "9f98a6edb2a907f7da9a21b9147db2b52500bc91372d25a17c912b59716d7f54",
    "asymmetry.json": "597fe5ed8e3b5d67e0edc53cbd3daf0bef23a891f69ca17a6e29952e5550213d",
}


class TestWideKeys:
    """Result files whose indices exceed 2^64, so that index columns are
    object arrays of Python ints."""

    def test_report_bytes(self, tmp_path):
        wide_pair(tmp_path)
        assert wide_compare(tmp_path, "--csv", str(tmp_path / "report.csv")) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in WIDE_SHA256} == WIDE_SHA256

    def test_alignment_matches_sorted_tuples(self, tmp_path):
        wide_pair(tmp_path)
        a, _ = load_results(tmp_path / "cpu_a.jsonl")
        b, _ = load_results(tmp_path / "cpu_b.jsonl")
        columns = a.measurements
        assert columns.indices.dtype == object
        assert list(zip(columns.indices.tolist(), columns.ordinals.tolist())) \
            == occurrence_keys_reference(columns.indices.tolist())
        indices, ordinals, xa, xb = paired_aggregates(a, b)
        keys, ra, rb = paired_aggregates_reference(a, b)
        assert list(zip(indices.tolist(), ordinals.tolist())) == keys
        assert xa.tobytes() == ra.tobytes() and xb.tobytes() == rb.tobytes()
        assert max(ordinals.tolist()) == 3 and len(a.failures) == 1

    @pytest.mark.parametrize("case, prefix", [
        ({"plan_b": "another"}, "result sets come from different plans"),
        ({"drop_b": 7}, "result sets cover different (ec_index, ordinal) keys"),
        ({"plan_rows": 52}, "group map misses keys, e.g. [("),
    ], ids=["plans", "keys", "group_map"])
    def test_pairing_errors_exit_3(self, tmp_path, capsys, case, prefix):
        plan = wide_pair(tmp_path, **case)
        a, _ = load_results(tmp_path / "cpu_a.jsonl")
        b, _ = load_results(tmp_path / "cpu_b.jsonl")
        try:
            keys, _, _ = paired_aggregates_reference(a, b)
        except PairingError as e:
            message = str(e)
        else:
            held = set(occurrence_keys_reference(e.ec_index
                                                 for e in plan.entries))
            missing = [k for k in keys if k not in held]
            message = f"group map misses keys, e.g. {missing[:5]}"
        assert message.startswith(prefix)
        capsys.readouterr()
        assert wide_compare(tmp_path) == 3
        assert f"ecbench: integrity error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

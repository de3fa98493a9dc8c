"""Golden values: exact Monte Carlo hit counts, t quantile bits and compare
report bytes.

The hit counts and quantiles were recorded from the per-iteration
(unvectorised) Monte Carlo loop and the scalar t quantile. The vectorised code
must reproduce them exactly, not just within the acceptance gate's statistical
bounds, so a change of draw order, noise stream or interval arithmetic shows
up here. The report digests were recorded from the per-line `json.loads`
loader and the per-key pairing, with one scalar t quantile per interval.
"""

import hashlib
import statistics

import numpy as np
import pytest

from ecbench import demo, oracle
from ecbench.cli import main
from ecbench.compare import asymmetry_report, compare_objects
from ecbench.design import PlanEntry, SamplePlan
from ecbench.fingerprints import fingerprint
from ecbench.manifest import RunManifest, emit_report, persist_results
from ecbench.oracle import Methodology, coverage_experiment, methodology_comparison
from ecbench.runner import Measurement, ResultSet
from ecbench.stats import t_quantile

OBJECTS = ("cpu_a", "cpu_b")


def five_methodologies(space):
    return [
        Methodology(kind="full_factorial"),
        Methodology(kind="stratified",
                    params={"stratum_factor": "workload", "iterations": 32}),
        Methodology(kind="factorial2k",
                    params={"split": demo.demo_factor_split(),
                            "defaults": {"workload": 0}}),
        Methodology(kind="rct", params={"per_arm": 32}),
        Methodology(kind="spec_point",
                    params={"recommended_index":
                            demo.demo_recommended_index(space)}),
    ]


def test_criterion_03_exact_hits():
    space, model = demo.demo_space_720(), demo.gaussian_model()
    m = Methodology(kind="stratified",
                    params={"stratum_factor": "workload", "iterations": 32})
    hits = [coverage_experiment(model, space, m, 10_000, level, 4242,
                                OBJECTS).hits
            for level in (0.99, 0.95)]
    assert hits == [9885, 9473]


def test_criterion_04_exact_hits():
    space = demo.demo_space_720()
    methodologies = [m for m in five_methodologies(space) if m.kind != "rct"]
    rows = methodology_comparison(demo.skewed_model(), space, methodologies,
                                  1000, 0.99, 42, OBJECTS)
    assert [r.hits for r in rows] == [1000, 989, 676, 0]


@pytest.mark.parametrize("seed, hits", [
    (1, [300, 296, 203, 298, 0]),
    (3, [300, 299, 183, 297, 0]),
])
def test_five_methodologies_exact_hits(seed, hits):
    space = demo.demo_space_720()
    rows = methodology_comparison(demo.skewed_model(), space,
                                  five_methodologies(space), 300, 0.99, seed,
                                  OBJECTS)
    assert [r.hits for r in rows] == hits
    assert [r.cost_per_object for r in rows] == [720, 32, 8, 32, 1]


def test_rct_exact_hits_gaussian():
    m = Methodology(kind="rct", params={"per_arm": 32})
    r = coverage_experiment(demo.gaussian_model(), demo.demo_space_720(), m,
                            2000, 0.95, 7, OBJECTS)
    assert r.hits == 1900


@pytest.mark.parametrize("chunk_values", [1, 200, 10**6])
def test_hits_do_not_depend_on_chunk_size(monkeypatch, chunk_values):
    space, model = demo.demo_space_720(), demo.skewed_model()
    methodologies = five_methodologies(space)
    expected = [r.hits for r in methodology_comparison(
        model, space, methodologies, 40, 0.95, 11, OBJECTS)]
    monkeypatch.setattr(oracle, "CHUNK_VALUES", chunk_values)
    got = [r.hits for r in methodology_comparison(
        model, space, methodologies, 40, 0.95, 11, OBJECTS)]
    assert got == expected


T_DFS = (1, 2, 5, 31, 1375, 0.5, 2.25, 12.5, 61.789)
T_HEX = [
    (0.025, ["-0x1.96993aacc4800p+3", "-0x1.135ea98e14800p+2",
             "-0x1.4908d359df800p+1", "-0x1.050ec6d003800p+1",
             "-0x1.f6315db757000p+0", "-0x1.491d8760e1800p+7",
             "-0x1.f00fbc6783000p+1", "-0x1.15a7e28d72800p+1",
             "-0x1.ffc57f3057000p+0"]),
    (0.9, ["0x1.89f188bdcd800p+1", "0x1.e2b7dddfef000p+0",
           "0x1.79d3897a63800p+0", "0x1.4f3900d062800p+0",
           "0x1.483c22324f800p+0", "0x1.48a67f60a8800p+3",
           "0x1.cbf576b2cf800p+0", "0x1.5a62972fc8800p+0",
           "0x1.4b9f8ef0aa800p+0"]),
    (0.975, ["0x1.96993aacc4800p+3", "0x1.135ea98e14800p+2",
             "0x1.4908d359df800p+1", "0x1.050ec6d003800p+1",
             "0x1.f6315db757000p+0", "0x1.491d8760e1800p+7",
             "0x1.f00fbc6783000p+1", "0x1.15a7e28d72800p+1",
             "0x1.ffc57f3057000p+0"]),
    (0.995, ["0x1.fd410182c3000p+5", "0x1.3d9850c4bb800p+3",
             "0x1.020ea171ca800p+2", "0x1.5f3cc3ff1c800p+1",
             "0x1.4a2a187174800p+1", "0x1.011f6ef4ab800p+12",
             "0x1.0842fbbe29800p+3", "0x1.8426e25da2800p+1",
             "0x1.5431a9ed7c800p+1"]),
]


@pytest.mark.parametrize("p, hexes", T_HEX)
def test_t_quantile_bits(p, hexes):
    assert [float.hex(t_quantile(p, df)) for df in T_DFS] == hexes
    assert [float.hex(q) for q in t_quantile(p, np.array(T_DFS))] == hexes


@pytest.mark.parametrize("p", [0.005, 0.5, 0.95, 0.975, 0.995])
def test_t_quantile_array_equals_scalar_calls(p):
    rng = np.random.Generator(np.random.PCG64(8))
    # integer dfs and Welch-like fractional dfs
    dfs = np.concatenate([np.arange(1.0, 301.0), rng.uniform(1.0, 200.0, 300),
                          [1e-3, 0.3, 1e6]])
    q = t_quantile(p, dfs)
    assert q.shape == dfs.shape
    assert all(q[i] == t_quantile(p, float(dfs[i])) for i in range(dfs.size))


def persisted_pair(work, rows=2000, repeats=100, seed=7):
    """Two result files of `rows` rows in the 43 workload groups of the
    billion-point space, written by persist_results; the last `repeats` rows
    measure earlier entries again (ordinal 1), and cpu_a ends with one
    failure line."""
    space = demo.demo_space_billion()
    workloads = space.factor("workload").levels
    rng = np.random.Generator(np.random.PCG64(seed))
    within = space.cardinality // len(workloads)
    drawn = rows - repeats
    strata = rng.integers(0, len(workloads), drawn)
    indices = strata * within + rng.integers(0, within, drawn)
    strata = np.concatenate([strata, strata[:repeats]])
    indices = np.concatenate([indices, indices[:repeats]])
    plan = SamplePlan(
        design="stratified",
        entries=tuple(PlanEntry(ec_index=int(i), stratum=workloads[s])
                      for i, s in zip(indices.tolist(), strata.tolist())),
        reps=3, seed=seed, space_fingerprint=fingerprint(space.to_dict()))
    plan.save(work / "plan.json")
    base = rng.uniform(50.0, 400.0, len(workloads))[strata]
    delta = rng.uniform(-5.0, 5.0, len(workloads))[strata]
    for oid, shift in zip(OBJECTS, (0.0, delta)):
        values = (base + shift)[:, None] + rng.normal(0.0, 2.0, (rows, 3))
        results = ResultSet(object_id=oid, plan_fingerprint=plan.fingerprint)
        seen: dict[int, int] = {}
        for index, reps in zip(indices.tolist(), values.tolist()):
            ordinal = seen.get(index, 0)
            seen[index] = ordinal + 1
            results.add((index, ordinal), Measurement(
                ec_index=index, object_id=oid, replicates=tuple(reps),
                aggregate=statistics.fmean(reps), policy="mean"))
        if oid == "cpu_a":
            results.failures.append(Measurement(
                ec_index=int(indices[0]), object_id=oid, replicates=(),
                aggregate=float("nan"), policy="mean", error="timed out"))
        manifest = RunManifest(
            space_fingerprint=plan.space_fingerprint,
            plan_fingerprint=plan.fingerprint, executor_hash="recorded",
            object_config={"object_id": oid})
        persist_results(results, manifest, work / f"{oid}.jsonl")


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


REPORT_SHA256 = {
    "report.json": "f8a76d396beab959f4fd84c2e80f1d067f164dcde8807f3d96c11cfc3b079ea4",
    "report.csv": "81ef8714bf915a0eb0fdc89fa6943ecf2b9d22bce6b27b57641ecc661f3199bf",
    "asymmetry.json": "1a4fccfba8f1f5cc2c2eba740436e92214585118ec56cefe2984fc4c760de0da",
}


def test_compare_report_bytes(tmp_path):
    persisted_pair(tmp_path)
    argv = ["compare", "--a", str(tmp_path / "cpu_a.jsonl"),
            "--b", str(tmp_path / "cpu_b.jsonl"), "--level", "0.95",
            "--group-by-plan", str(tmp_path / "plan.json"),
            "--out", str(tmp_path / "report.json"),
            "--csv", str(tmp_path / "report.csv"),
            "--asymmetry", str(tmp_path / "asymmetry.json")]
    assert main(argv) == 0
    assert {name: sha256_of(tmp_path / name)
            for name in REPORT_SHA256} == REPORT_SHA256


DEMO_SHA256 = {
    "report.json": "06fef1722302700fc6d47dbc6b8b27d992e6e98c81218c4a2dfc08337d999d75",
    "report.csv": "cf593affbccf0cca61124e1500f3705933268cfb62e2190303131e789b37e1d2",
    "asymmetry.json": "0fc6e208693b2c93544c7ec100fa7330aea79f756ff77790af0ff82e89a57aa5",
}


def test_asymmetry_demo_report_bytes(tmp_path):
    a, b = demo.asymmetry_demo_results()
    report = compare_objects(a, b, 0.95)
    emit_report(report, "json", tmp_path / "report.json")
    emit_report(report, "csv", tmp_path / "report.csv")
    emit_report(asymmetry_report(a, b, 0.95), "json", tmp_path / "asymmetry.json")
    assert {name: sha256_of(tmp_path / name)
            for name in DEMO_SHA256} == DEMO_SHA256

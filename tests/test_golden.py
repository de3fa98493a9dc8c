"""Golden values: exact Monte Carlo hit counts, t quantile bits and compare
report bytes.

The hit counts were recorded from the per-iteration (unvectorised) Monte
Carlo loop. The vectorised code must reproduce them exactly, not just within
the acceptance gate's statistical bounds, so a change of draw order, noise
stream or interval arithmetic shows up here. The t quantile bits are those of
`scipy.special.stdtrit` (scipy 1.17.1) for an upper quantile, negated for a
lower one; their accuracy is tested against a table of reference quantiles
in `test_stats.py`. The report digests were recorded from the per-line
`json.loads` loader and the per-key pairing, with one scalar t quantile per
interval; the JSON ones were recorded again when the quantiles came to
`stdtrit`, which moved only CI endpoints (by at most 5e-13 of a half-width).
"""

import hashlib
import json
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
from ecbench.stats import DF_FLOOR, t_quantile

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


def assert_hits_unchanged(monkeypatch, name: str, value: int) -> None:
    space, model = demo.demo_space_720(), demo.skewed_model()
    methodologies = five_methodologies(space)
    expected = [r.hits for r in methodology_comparison(
        model, space, methodologies, 40, 0.95, 11, OBJECTS)]
    monkeypatch.setattr(oracle, name, value)
    got = [r.hits for r in methodology_comparison(
        model, space, methodologies, 40, 0.95, 11, OBJECTS)]
    assert got == expected


@pytest.mark.parametrize("chunk_values", [1, 200, 10**6])
def test_hits_do_not_depend_on_chunk_size(monkeypatch, chunk_values):
    assert_hits_unchanged(monkeypatch, "CHUNK_VALUES", chunk_values)


@pytest.mark.parametrize("seed_block", [1, 7, 128, 4096])
def test_hits_do_not_depend_on_seed_block_size(monkeypatch, seed_block):
    assert_hits_unchanged(monkeypatch, "SEED_BLOCK", seed_block)


T_DFS = (1, 2, 5, 31, 1375, 0.5, 2.25, 12.5, 61.789)
T_HEX = [
    (0.025, ["-0x1.96993aacc4d1ep+3", "-0x1.135ea98e146b9p+2",
             "-0x1.4908d359dff38p+1", "-0x1.050ec6d0032d6p+1",
             "-0x1.f6315db756ceap+0", "-0x1.491d8760e1162p+7",
             "-0x1.f00fbc6783869p+1", "-0x1.15a7e28d72576p+1",
             "-0x1.ffc57f3056dbcp+0"]),
    (0.9, ["0x1.89f188bdcd7b1p+1", "0x1.e2b7dddfefa68p+0",
           "0x1.79d3897a63a3ap+0", "0x1.4f3900d062324p+0",
           "0x1.483c22324f270p+0", "0x1.48a67f60a8911p+3",
           "0x1.cbf576b2cffb0p+0", "0x1.5a62972fc8568p+0",
           "0x1.4b9f8ef0aa97cp+0"]),
    (0.975, ["0x1.96993aacc4d1ep+3", "0x1.135ea98e146b9p+2",
             "0x1.4908d359dff38p+1", "0x1.050ec6d0032d6p+1",
             "0x1.f6315db756ceap+0", "0x1.491d8760e1162p+7",
             "0x1.f00fbc6783869p+1", "0x1.15a7e28d72576p+1",
             "0x1.ffc57f3056dbcp+0"]),
    (0.995, ["0x1.fd410182c3c30p+5", "0x1.3d9850c4bbe77p+3",
             "0x1.020ea171ca98bp+2", "0x1.5f3cc3ff1c691p+1",
             "0x1.4a2a187174f67p+1", "0x1.011f6ef4ab804p+12",
             "0x1.0842fbbe2988ep+3", "0x1.8426e25da2a88p+1",
             "0x1.5431a9ed7c6bdp+1"]),
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
                          [DF_FLOOR, 0.3, 1e6]])
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
    "report.json": "79924b48db631d8c68777cc5c6a75c2b8a4b30728c6a8e332d657c2a595a31e6",
    "report.csv": "81ef8714bf915a0eb0fdc89fa6943ecf2b9d22bce6b27b57641ecc661f3199bf",
    "asymmetry.json": "2020ce1fc078606e18c9e07dd3e540ea315243f22ee5357a458584eba0349aa5",
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


# recorded from the per-line `measurement_line` writer and from
# `json.dumps(..., indent=2)` for the plan and space files
PERSISTED_SHA256 = {
    "plan.json": "eee3d22aa4a689448b29758a2a12151a8f96a3197840a7d1fb1991070366cb47",
    "cpu_a.jsonl": "78b75db1ac1f9cfb986cf131f6569beca55b0b89341cb50d297c7dab4fe8507b",
    "cpu_b.jsonl": "428037fccef02a97a3845b30b4ae1339244a11cbca20fc0bc923401af1cf4333",
    "space.json": "f03948cdd41664538d33738a734eee6c56c3742f5036bf405064a80c403c8692",
}


def test_persisted_file_bytes(tmp_path):
    persisted_pair(tmp_path)
    demo.demo_space_billion().save(tmp_path / "space.json")
    assert {name: sha256_of(tmp_path / name)
            for name in PERSISTED_SHA256} == PERSISTED_SHA256


DEMO_SHA256 = {
    "report.json": "bbdfecf62474e665241483988b95840037190051950d84ffd2b1271af1cb0988",
    "report.csv": "cf593affbccf0cca61124e1500f3705933268cfb62e2190303131e789b37e1d2",
    "asymmetry.json": "3b960d3e1d9aa0f9dc9b5c72571f56224e600ddbad9b9d49fbb1fa876797305b",
}


def test_asymmetry_demo_report_bytes(tmp_path):
    a, b = demo.asymmetry_demo_results()
    report = compare_objects(a, b, 0.95)
    emit_report(report, "json", tmp_path / "report.json")
    emit_report(report, "csv", tmp_path / "report.csv")
    emit_report(asymmetry_report(a, b, 0.95), "json", tmp_path / "asymmetry.json")
    assert {name: sha256_of(tmp_path / name)
            for name in DEMO_SHA256} == DEMO_SHA256


def plan_and_simulate_outputs(work, monkeypatch, capsys) -> dict[str, str]:
    """SHA-256 of every file and stdout of the five `ecbench plan`
    subcommands and of `ecbench simulate` in both formats, on the 720-point
    demo space with the methodology kinds spelled as the CLI reads them."""
    monkeypatch.chdir(work)
    space = demo.demo_space_720()
    space.save("space.json")
    demo.skewed_model().save("model.json")
    split = {n: {"low": list(lo), "high": list(hi)}
             for n, lo, hi in demo.demo_factor_split().splits}
    (work / "split.json").write_text(json.dumps(split))
    (work / "meth.json").write_text(json.dumps({
        "objects": list(OBJECTS),
        "methodologies": [
            {"kind": "full_factorial"},
            {"kind": "stratified",
             "params": {"stratum_factor": "workload", "iterations": 8}},
            {"kind": "factorial2k",
             "params": {"split": split, "defaults": {"workload": 0}}},
            {"kind": "rct", "params": {"per_arm": 8}},
            {"kind": "spec_point",
             "params": {"recommended_index": demo.demo_recommended_index(space)}},
        ],
    }))
    runs = {
        "stratified": ["plan", "stratified", "--space", "space.json",
                       "--stratum-factor", "dataset", "--iterations", "4",
                       "--seed", "7", "--out", "stratified.json"],
        "factorial2k": ["plan", "factorial2k", "--space", "space.json",
                        "--split", "split.json", "--default", "workload=0",
                        "--reps", "5", "--seed", "7", "--out", "factorial2k.json"],
        "full-factorial": ["plan", "full-factorial", "--space", "space.json",
                           "--out", "full.json"],
        "rct": ["plan", "rct", "--space", "space.json", "--per-arm", "6",
                "--seed", "7", "--out-control", "control.json",
                "--out-treatment", "treatment.json"],
        "spec-point": ["plan", "spec-point", "--space", "space.json",
                       "--level-label", "dataset=d10", "--level-label", "flags=-O3",
                       "--level-label", "threads=56", "--level-label",
                       "workload=exchange2", "--stratum-factor", "flags",
                       "--out", "spec.json"],
    }
    for fmt in ("csv", "json"):
        runs[f"simulate-{fmt}"] = [
            "simulate", "--space", "space.json", "--model", "model.json",
            "--methodologies", "meth.json", "--iterations", "40",
            "--level", "0.95", "--seed", "5", "--format", fmt,
            "--out", f"coverage.{fmt}"]
    digests = {}
    for name, argv in runs.items():
        capsys.readouterr()
        assert main(argv) == 0, name
        digests[f"{name} stdout"] = hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest()
    for name in ("stratified.json", "factorial2k.json", "full.json",
                 "control.json", "treatment.json", "spec.json",
                 "coverage.csv", "coverage.json"):
        digests[name] = sha256_of(work / name)
    return digests


PLAN_SIMULATE_SHA256 = {
    'stratified stdout': '799e3d2411b4935cbad3377a41f8490c855dce67fd28e0215a8b1a2867124e40',
    'factorial2k stdout': '8510e5ffc4659816ea251156b35750444a9ac8e128a58126d3cd325da9937582',
    'full-factorial stdout': '9797f766e5d8179986819eeb5e48131852759a2ef338ea3f89a924a789940930',
    'rct stdout': '79b177b9814cf611406db1294191bb9d431211f0b5f0e9fd62d51793453c87df',
    'spec-point stdout': 'd7f951cec8645551b2610f3a30303349b6f47c48dbe55758281e5951dd961a82',
    'simulate-csv stdout': '3c2050df39ff6397b76c42f23aa087a003bc021578f7a47210749ccad3ad76e8',
    'simulate-json stdout': '3c2050df39ff6397b76c42f23aa087a003bc021578f7a47210749ccad3ad76e8',
    'stratified.json': '0ce5acb98f4e73b4314b751dc742425747657672d8639e74da027aeb7a2bcc60',
    'factorial2k.json': 'e1f741363d08f75cacecf895fcaf4794e70ed3d79828c99b091588dbb0f9ad10',
    'full.json': 'ded10c726223b8b4e24c92a798f5caa6e7251e11a83375e5282d7c6f78db1d69',
    'control.json': '18a0026286cffb6b5c14bbf4c819961f47d5a22561932ea7d696727444a5f816',
    'treatment.json': '8cb172755a50d1766571abb6d5037a32ec719c90d2ebce7bb41b2e523470cd1c',
    'spec.json': 'fb5a75a4eff19e09a4f5ee1f71f920804c0851605c75bd80dea7aca29d7bbe41',
    'coverage.csv': '40b07d1b718f26cdf64396782dab65653e04c139cff6907f3d44314f65723ab6',
    'coverage.json': '15ed4c717a6c53504ef08d15a61adb9753b6a06b722d7dd63548f6146be5f4d0',
}


def test_plan_and_simulate_bytes(tmp_path, monkeypatch, capsys):
    assert (plan_and_simulate_outputs(tmp_path, monkeypatch, capsys)
            == PLAN_SIMULATE_SHA256)

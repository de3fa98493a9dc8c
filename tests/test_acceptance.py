"""End-to-end acceptance gate.

Each test covers one numbered criterion, enforces its runtime budget, and
prints a single PASS line (run with `pytest tests/test_acceptance.py -v -s`
to see them). Any assertion failure fails the whole gate.
"""

import time

import numpy as np
import pytest

from ecbench import demo
from ecbench.cli import main
from ecbench.compare import (
    Verdict,
    asymmetry_report,
    compare_objects,
    ratio_diagnostics,
    verdict_of,
)
from ecbench.design import stratified_sample
from ecbench.errors import FingerprintError
from ecbench.manifest import load_results
from ecbench.oracle import Methodology, methodology_comparison, population_mean
from ecbench.runner import Measurement, ResultSet
from ecbench.space import Factor, build_space
from ecbench.stats import Interval, t_quantile
from oracles import brute_force_population_mean, t_quantile_oracle


class budget:
    """Context manager asserting a wall-clock budget and reporting the line."""

    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.criterion}: {elapsed:.1f}s exceeds {self.seconds}s budget"
            )
            print(f"[PASS] {self.criterion} ({elapsed:.2f}s)", flush=True)
        else:
            print(f"[FAIL] {self.criterion} ({elapsed:.2f}s)", flush=True)
        return False


def result_set(object_id, values):
    rs = ResultSet(object_id=object_id, plan_fingerprint="acc")
    for i, v in enumerate(values):
        rs.add((i, 0), Measurement(ec_index=i, object_id=object_id,
                                   replicates=(v,), aggregate=v, policy="mean"))
    return rs


def test_criterion_01_space_arithmetic():
    with budget("criterion 1: space arithmetic", 1.0):
        assert demo.demo_space_720().cardinality == 720
        big = demo.demo_space_billion()
        plan = stratified_sample(big, "workload", 32, 3, seed=1)
        assert len(plan.entries) == 1376


def test_criterion_02_bijection():
    with budget("criterion 2: index bijection", 10.0):
        small_spaces = [
            build_space([Factor("a", tuple(f"x{i}" for i in range(7)))]),
            build_space([Factor("a", ("1", "2")), Factor("b", ("1", "2", "3")),
                         Factor("c", ("1", "2", "3", "4"))]),
            demo.demo_space_720(),
            build_space([
                Factor(n, tuple(f"v{i}" for i in range(10)))
                for n in ("a", "b", "c", "d")
            ]),  # exactly 10^4
        ]
        for space in small_spaces:
            assert space.cardinality <= 10**4
            for i in range(space.cardinality):
                assert space.index_of(space.config_at(i)) == i
        big = demo.demo_space_billion()
        assert big.cardinality >= 10**9
        rng = np.random.Generator(np.random.PCG64(2))
        for i in rng.integers(0, big.cardinality, size=10**5):
            assert big.index_of(big.config_at(int(i))) == int(i)


def test_criterion_03_ci_calibration():
    with budget("criterion 3: CI calibration", 120.0):
        space = demo.demo_space_720()
        model = demo.gaussian_model()
        m = Methodology(kind="stratified",
                        params={"stratum_factor": "workload", "iterations": 32})
        from ecbench.oracle import coverage_experiment
        r99 = coverage_experiment(model, space, m, 10_000, 0.99, 4242,
                                  ("cpu_a", "cpu_b"))
        r95 = coverage_experiment(model, space, m, 10_000, 0.95, 4242,
                                  ("cpu_a", "cpu_b"))
        assert 0.982 <= r99.coverage <= 0.996, r99.coverage
        assert 0.938 <= r95.coverage <= 0.961, r95.coverage


def test_criterion_04_methodology_comparison():
    with budget("criterion 4: methodology comparison", 300.0):
        space = demo.demo_space_720()
        model = demo.skewed_model()
        level = 0.99
        methodologies = [
            Methodology(kind="full_factorial"),
            Methodology(kind="stratified",
                        params={"stratum_factor": "workload", "iterations": 32}),
            Methodology(kind="factorial2k",
                        params={"split": demo.demo_factor_split(),
                                "defaults": {"workload": 0}}),
            Methodology(kind="spec_point",
                        params={"recommended_index":
                                demo.demo_recommended_index(space)}),
        ]
        rows = methodology_comparison(model, space, methodologies, 1000,
                                      level, 42, ("cpu_a", "cpu_b"))
        full, strat, f2k, spec = rows
        assert [r.cost_per_object for r in rows] == [720, 32, 8, 1]
        assert full.coverage == 1.0
        assert abs(strat.coverage - level) <= 0.02, strat.coverage
        assert f2k.coverage <= strat.coverage - 0.20, (f2k.coverage,
                                                       strat.coverage)
        assert spec.coverage < f2k.coverage, (spec.coverage, f2k.coverage)


def test_criterion_05_difference_symmetry():
    with budget("criterion 5: difference symmetry", 10.0):
        rng = np.random.Generator(np.random.PCG64(12))
        flipped = {
            Verdict.MINUEND_OUTPERFORMS: Verdict.SUBTRAHEND_OUTPERFORMS,
            Verdict.SUBTRAHEND_OUTPERFORMS: Verdict.MINUEND_OUTPERFORMS,
            Verdict.NO_SIGNIFICANT_DIFFERENCE: Verdict.NO_SIGNIFICANT_DIFFERENCE,
        }
        for trial in range(200):
            n = int(rng.integers(2, 40))
            loc = rng.uniform(-50, 50)
            a = result_set("a", list(rng.normal(loc, rng.uniform(0.1, 20), n)))
            b = result_set("b", list(rng.normal(0, rng.uniform(0.1, 20), n)))
            r_ab = compare_objects(a, b, 0.95).overall
            r_ba = compare_objects(b, a, 0.95).overall
            scale = max(1.0, abs(r_ab.interval.low), abs(r_ab.interval.high))
            assert abs(r_ab.interval.low + r_ba.interval.high) <= 1e-12 * scale
            assert abs(r_ab.interval.high + r_ba.interval.low) <= 1e-12 * scale
            assert r_ba.verdict is flipped[r_ab.verdict]


def test_criterion_06_ratio_asymmetry():
    with budget("criterion 6: ratio asymmetry", 10.0):
        rng = np.random.Generator(np.random.PCG64(13))
        for trial in range(200):
            n = int(rng.integers(1, 30))
            vals = rng.uniform(0.05, 50.0, n)
            a = result_set("a", list(vals))
            b = result_set("b", [1.0] * n)
            d = ratio_diagnostics(a, b)
            assert d.asymmetry_product >= 1.0 - 1e-12
            if len(set(vals.tolist())) > 1:
                assert d.asymmetry_product > 1.0
            else:
                assert d.asymmetry_product == pytest.approx(1.0)
        # equality case explicitly
        eq = ratio_diagnostics(result_set("a", [3.0, 6.0]),
                               result_set("b", [1.0, 2.0]))
        assert eq.asymmetry_product == pytest.approx(1.0, abs=1e-12)

        # shipped demo: both ratio baselines conclude "slower" (CI above 1)
        # while the difference intervals mirror exactly
        a, b = demo.asymmetry_demo_results()
        rep = asymmetry_report(a, b, 0.95)
        assert rep.ratio_base_b.low > 1.0
        assert rep.ratio_base_a.low > 1.0
        assert rep.diff_ab.low == pytest.approx(-rep.diff_ba.high, rel=1e-12)
        assert rep.diff_ab.high == pytest.approx(-rep.diff_ba.low, rel=1e-12)


def test_criterion_07_verdict_rules():
    with budget("criterion 7: verdict rules", 5.0):
        def iv(lo, hi):
            return Interval(low=lo, high=hi, level=0.95,
                            center=(lo + hi) / 2, n=43)

        assert verdict_of(iv(-17.736, 65.512)) is \
            Verdict.NO_SIGNIFICANT_DIFFERENCE
        assert verdict_of(iv(-12.0, -3.0)) is Verdict.MINUEND_OUTPERFORMS
        assert verdict_of(iv(3.0, 12.0)) is Verdict.SUBTRAHEND_OUTPERFORMS


def test_criterion_08_t_quantile_accuracy():
    with budget("criterion 8: t quantile accuracy", 5.0):
        worst = 0.0
        for df in range(1, 201):
            for p in (0.9, 0.95, 0.975, 0.995):
                err = abs(t_quantile(p, df) - t_quantile_oracle(p, df))
                worst = max(worst, err)
        assert worst <= 1e-6, worst


def test_criterion_09_population_mean_oracle():
    with budget("criterion 9: population mean oracle", 60.0):
        space = demo.demo_space_720()
        for model in (demo.gaussian_model(), demo.skewed_model()):
            sdoc, mdoc = space.to_dict(), model.to_dict()
            for objects in ("cpu_a", "cpu_b", ("cpu_a", "cpu_b")):
                mine = population_mean(model, space, objects).mean
                ref = brute_force_population_mean(sdoc, mdoc, objects)
                assert mine == pytest.approx(ref, rel=1e-9), (objects, mine, ref)


def _pipeline(ws):
    import json
    from ecbench.runner import ExecutorSpec
    ws.mkdir(parents=True, exist_ok=True)
    demo.demo_space_720().save(ws / "space.json")
    ex = ExecutorSpec(kind="synthetic", model=demo.gaussian_model())
    (ws / "executor.json").write_text(json.dumps(ex.to_dict()))
    for oid in ("cpu_a", "cpu_b"):
        (ws / f"{oid}.json").write_text(json.dumps({"object_id": oid}))
    assert main(["plan", "stratified", "--space", str(ws / "space.json"),
                 "--stratum-factor", "workload", "--iterations", "16",
                 "--seed", "23", "--out", str(ws / "plan.json")]) == 0
    for oid in ("cpu_a", "cpu_b"):
        assert main(["run", "--space", str(ws / "space.json"),
                     "--plan", str(ws / "plan.json"),
                     "--executor", str(ws / "executor.json"),
                     "--object", str(ws / f"{oid}.json"),
                     "--out", str(ws / f"{oid}.jsonl")]) == 0
    assert main(["compare", "--a", str(ws / "cpu_a.jsonl"),
                 "--b", str(ws / "cpu_b.jsonl"), "--level", "0.95",
                 "--out", str(ws / "report.json"),
                 "--csv", str(ws / "report.csv")]) == 0


def test_criterion_10_reproducibility_chain(tmp_path):
    with budget("criterion 10: reproducibility chain", 60.0):
        one, two = tmp_path / "one", tmp_path / "two"
        _pipeline(one)
        _pipeline(two)
        for name in ("plan.json", "cpu_a.jsonl", "cpu_b.jsonl",
                     "report.json", "report.csv"):
            assert (one / name).read_bytes() == (two / name).read_bytes(), name
        # tampering with a persisted result file must be caught at load
        data = (one / "cpu_a.jsonl").read_text()
        (one / "cpu_a.jsonl").write_text(data.replace("3", "4", 1))
        with pytest.raises(FingerprintError):
            load_results(one / "cpu_a.jsonl")

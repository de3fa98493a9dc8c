import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecbench import demo, oracle
from ecbench.cli import main
from ecbench.errors import PlanError, SpaceError
from ecbench.model import SyntheticModel
from ecbench.oracle import (
    Methodology,
    best_level_report,
    coverage_experiment,
    methodology_comparison,
    population_mean,
)
from ecbench.runner import Measurement, ResultSet
from ecbench.space import ConfigSpace, Factor, build_space
from ecbench.stats import StatsError
from oracles import brute_force_population_mean, iteration_seeds_reference

# model.values counted by the benchmark tracer for the simulate call in
# test_simulate_noise_stays_visible_to_the_benchmark_tracer, recorded with the
# flat (index x replicate) noise layout: 5 iterations x 2 objects x 3 reps x
# (720 + 4 + 8 + 8 + 1 points), plus the spec_point margin probe's
# 200 x 2 x 3 x 32
SIMULATE_NOISE_VALUES = 60630


class TestPopulationMean:
    def test_constant_model(self):
        space = demo.demo_space_720()
        model = SyntheticModel(stratum_factor="workload",
                               base=((demo.WORKLOAD_720, 42.0),))
        assert population_mean(model, space, "x").mean == pytest.approx(42.0)

    def test_pair_reduces_to_offset_difference_without_object_effects(self):
        space = demo.demo_space_720()
        model = demo.gaussian_model()
        truth = population_mean(model, space, ("cpu_a", "cpu_b"))
        assert truth.mean == pytest.approx(25.0)
        assert truth.object_ids == ("cpu_a", "cpu_b")

    def test_skewed_pair_matches_brute_force(self):
        space = demo.demo_space_720()
        model = demo.skewed_model()
        mu = population_mean(model, space, ("cpu_a", "cpu_b")).mean
        ref = brute_force_population_mean(space.to_dict(), model.to_dict(),
                                          ("cpu_a", "cpu_b"))
        assert mu == pytest.approx(ref, rel=1e-12)

    def test_single_object_matches_brute_force(self):
        space = build_space([
            Factor("workload", ("w1", "w2")),
            Factor("threads", ("1", "2", "4")),
        ])
        model = SyntheticModel(
            stratum_factor="workload",
            base=(("w1", 10.0), ("w2", 30.0)),
            effects=(("threads", (("1", 0.0), ("2", -3.0), ("4", -4.5))),),
            object_offsets=(("o", 2.0),),
        )
        mu = population_mean(model, space, "o").mean
        ref = brute_force_population_mean(space.to_dict(), model.to_dict(), "o")
        assert mu == pytest.approx(ref, rel=1e-12)

    def test_interactions_included(self):
        from ecbench.model import Interaction
        space = build_space([
            Factor("workload", ("w1",)),
            Factor("flags", ("-O1", "-O2")),
            Factor("threads", ("1", "2")),
        ])
        model = SyntheticModel(
            stratum_factor="workload", base=(("w1", 100.0),),
            interactions=(Interaction("flags", "threads",
                                      (("-O1", "2", 7.0),)),),
        )
        mu = population_mean(model, space, "o").mean
        ref = brute_force_population_mean(space.to_dict(), model.to_dict(), "o")
        assert mu == pytest.approx(ref, rel=1e-12)
        assert mu == pytest.approx(100.0 + 7.0 / 4.0)

    def test_enumeration_cap(self):
        model = SyntheticModel(stratum_factor="workload", base=(("wl01", 1.0),))
        with pytest.raises(SpaceError):
            population_mean(model, demo.demo_space_billion(), "o")


def stratified_methodology(iterations=32):
    return Methodology(kind="stratified", params={
        "stratum_factor": "workload", "iterations": iterations,
    })


class TestCoverageExperiment:
    def test_deterministic_given_master_seed(self):
        space = demo.demo_space_720()
        model = demo.gaussian_model()
        a = coverage_experiment(model, space, stratified_methodology(), 50,
                                0.95, 99, ("cpu_a", "cpu_b"))
        b = coverage_experiment(model, space, stratified_methodology(), 50,
                                0.95, 99, ("cpu_a", "cpu_b"))
        assert (a.hits, a.cost_per_object) == (b.hits, b.cost_per_object)

    def test_different_seed_changes_outcomes(self):
        # hit counts of a few dozen iterations can collide; a run of seeds
        # producing identical counts would mean the master seed is ignored
        space = demo.demo_space_720()
        model = demo.gaussian_model()
        hits = {
            coverage_experiment(model, space, stratified_methodology(), 40,
                                0.8, seed, ("cpu_a", "cpu_b")).hits
            for seed in range(6)
        }
        assert len(hits) > 1

    def test_zero_noise_homogeneous_model_always_covers(self):
        # constant difference, no noise: every interval is the point truth
        space = demo.demo_space_720()
        model = SyntheticModel(
            stratum_factor="workload", base=((demo.WORKLOAD_720, 100.0),),
            object_offsets=(("cpu_a", 0.0), ("cpu_b", -10.0)),
            sigma=0.0,
        )
        r = coverage_experiment(model, space, stratified_methodology(8), 25,
                                0.95, 7, ("cpu_a", "cpu_b"))
        assert r.coverage == 1.0

    def test_cost_accounting(self):
        space = demo.demo_space_720()
        model = demo.gaussian_model()
        pairs = [
            (stratified_methodology(32), 32),
            (Methodology(kind="factorial2k", params={
                "split": demo.demo_factor_split(), "defaults": {"workload": 0},
            }), 8),
            (Methodology(kind="full_factorial"), 720),
            (Methodology(kind="rct", params={"per_arm": 50}), 50),
            (Methodology(kind="spec_point", params={
                "recommended_index": demo.demo_recommended_index(space),
                "margin": 5.0,
            }), 1),
        ]
        for m, want in pairs:
            r = coverage_experiment(model, space, m, 5, 0.95, 3,
                                    ("cpu_a", "cpu_b"))
            assert r.cost_per_object == want, m.kind

    def test_full_factorial_zero_noise_hits_truth_exactly(self):
        space = demo.demo_space_720()
        model = SyntheticModel(
            stratum_factor="workload", base=((demo.WORKLOAD_720, 500.0),),
            effects=demo.skewed_model().effects,
            object_offsets=demo.skewed_model().object_offsets,
            object_effects=demo.skewed_model().object_effects,
            sigma=0.0,
        )
        r = coverage_experiment(model, space, Methodology(kind="full_factorial"),
                                10, 0.95, 3, ("cpu_a", "cpu_b"))
        assert r.coverage == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(PlanError):
            coverage_experiment(demo.gaussian_model(), demo.demo_space_720(),
                                Methodology(kind="latin_hypercube"), 2, 0.95,
                                0, ("cpu_a", "cpu_b"))

    @pytest.mark.parametrize("kind, params", [
        ("full_factorial", {}),
        ("stratified", {"stratum_factor": "workload", "iterations": 4}),
        ("factorial2k", {"split": demo.demo_factor_split(),
                         "defaults": {"workload": 0}}),
        ("rct", {"per_arm": 4}),
    ])
    def test_zero_reps_rejected(self, kind, params):
        with pytest.raises(PlanError):
            coverage_experiment(demo.gaussian_model(), demo.demo_space_720(),
                                Methodology(kind=kind, params={**params, "reps": 0}),
                                2, 0.95, 0, ("cpu_a", "cpu_b"))

    @pytest.mark.parametrize("kind, params", [
        ("full_factorial", {}),
        ("rct", {"per_arm": 4}),
        ("spec_point", {"recommended_index": 0}),
    ])
    @pytest.mark.parametrize("iterations, level, error, message", [
        (0, 0.95, PlanError, "iterations must be >= 1"),
        (-2, 0.95, PlanError, "iterations must be >= 1"),
        (2, 1.5, StatsError, "confidence level must be in (0, 1)"),
        (2, 1.0, StatsError, "confidence level must be in (0, 1)"),
        (2, 0.0, StatsError, "confidence level must be in (0, 1)"),
        (2, float("nan"), StatsError, "confidence level must be in (0, 1)"),
    ])
    def test_arguments_checked_as_in_a_comparison(self, kind, params,
                                                   iterations, level, error,
                                                   message):
        m = Methodology(kind=kind, params=params)
        for run in (coverage_experiment, lambda *a: methodology_comparison(
                a[0], a[1], [a[2]], *a[3:])):
            with pytest.raises(error) as e:
                run(demo.gaussian_model(), demo.demo_space_720(), m,
                    iterations, level, 0, ("cpu_a", "cpu_b"))
            assert str(e.value) == message

    def test_negative_master_seed_refused_as_by_seed_sequence(self):
        with pytest.raises(ValueError) as want:
            np.random.SeedSequence([-1, 0])
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            coverage_experiment(demo.gaussian_model(), demo.demo_space_720(),
                                Methodology(kind="full_factorial"), 2, 0.95,
                                -1, ("cpu_a", "cpu_b"))

    def test_comparison_preserves_order(self):
        space = demo.demo_space_720()
        model = demo.gaussian_model()
        ms = [Methodology(kind="full_factorial"), stratified_methodology(4)]
        rows = methodology_comparison(model, space, ms, 3, 0.95, 0,
                                      ("cpu_a", "cpu_b"))
        assert [r.methodology for r in rows] == ["full_factorial", "stratified"]


MASTER_SEEDS = (st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64,
                                 2**96, 2**128 + 5, 2**200])
                | st.integers(0, 2**200))
PLAN_SEEDS = (st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1])
              | st.integers(0, 2**32 - 1) | st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(master=MASTER_SEEDS,
       first=st.integers(0, 300) | st.integers(2**32 - 130, 2**32 + 130),
       count=st.integers(1, 129))
def test_block_seeds_match_seed_sequence(master, first, count):
    # near 2^32 an iteration number goes from one entropy word to two
    words, noise = oracle._block_seeds(master, first, count)
    assert words.shape == (count, 4) and noise.shape == (count,)
    for row in range(count):
        plan_seed, noise_seed = iteration_seeds_reference(master, first + row)
        assert int(noise[row]) == noise_seed
        assert words[row].tolist() == np.random.SeedSequence(
            plan_seed).generate_state(4, np.uint64).tolist()


@settings(max_examples=60, deadline=None)
@given(plan_seeds=st.lists(PLAN_SEEDS, min_size=1, max_size=8))
def test_precomputed_plan_seeds_give_the_pcg64_stream(plan_seeds):
    # seeds below 2^32 are one entropy word to SeedSequence
    words = oracle._pcg64_words(np.array(plan_seeds, dtype=np.uint64))
    for seed, row in zip(plan_seeds, words):
        got = np.random.Generator(np.random.PCG64(oracle._PlanSeed(row)))
        want = np.random.Generator(np.random.PCG64(seed))
        assert got.bit_generator.state == want.bit_generator.state
        assert (got.integers(0, [2, 7, 2**40], (5, 3)).tolist()
                == want.integers(0, [2, 7, 2**40], (5, 3)).tolist())
        assert got.permutation(33).tolist() == want.permutation(33).tolist()


class TestBestLevelReport:
    def space(self):
        return build_space([
            Factor("workload", ("w1",)),
            Factor("dataset", ("d1", "d2")),
            Factor("threads", ("1", "2", "4")),
        ])

    def results(self, table):
        rs = ResultSet(object_id="o", plan_fingerprint="t")
        space = self.space()
        for i in range(space.cardinality):
            cfg = space.config_at(i)
            d = cfg.level_index("dataset")
            t = cfg.level_index("threads")
            v = table[d][t]
            rs.add((i, 0), Measurement(ec_index=i, object_id="o",
                                       replicates=(v,), aggregate=v,
                                       policy="mean"))
        return rs

    def test_per_group_minimum(self):
        rs = self.results([[9.0, 3.0, 5.0], [2.0, 8.0, 7.0]])
        rows = best_level_report(rs, self.space(), "threads", "dataset")
        assert rows == [("d1", "2"), ("d2", "1")]

    def test_tie_broken_by_lowest_level_index(self):
        rs = self.results([[4.0, 4.0, 4.0], [5.0, 5.0, 1.0]])
        rows = best_level_report(rs, self.space(), "threads", "dataset")
        assert rows == [("d1", "1"), ("d2", "4")]

    def test_groups_without_data_skipped(self):
        space = self.space()
        rs = ResultSet(object_id="o", plan_fingerprint="t")
        cfg = space.config_from_labels(
            {"workload": "w1", "dataset": "d2", "threads": "4"})
        rs.add((cfg.index, 0), Measurement(ec_index=cfg.index, object_id="o",
                                           replicates=(1.0,), aggregate=1.0,
                                           policy="mean"))
        rows = best_level_report(rs, space, "threads", "dataset")
        assert rows == [("d2", "4")]

    def test_decodes_columns_past_2_pow_64(self, monkeypatch):
        # 64 binary factors below dataset and threads: every index is held
        # in an object array, and the report reads levels from the columns
        space = build_space([*self.space().factors, *(
            Factor(f"b{i}", ("0", "1")) for i in range(64))])
        rs = ResultSet(object_id="o", plan_fingerprint="t")
        for d, row in enumerate([[9.0, 3.0, 5.0], [2.0, 8.0, 7.0]]):
            for t, v in enumerate(row):
                for low, shift in ((0, 0.0), (2**64 - 1, 1.0)):
                    i = (d * 3 + t) * 2**64 + low
                    rs.add((i, 0), Measurement(i, "o", (v + shift,), v + shift,
                                               "mean"))
        assert rs.measurements.indices.dtype == object

        def no_scalar_decode(self, index):
            raise AssertionError("config_at called")
        monkeypatch.setattr(ConfigSpace, "config_at", no_scalar_decode)
        rows = best_level_report(rs, space, "threads", "dataset")
        assert rows == [("d1", "2"), ("d2", "1")]


def test_gaussian_stratified_coverage_sane_small_run():
    # smoke-scale version of the calibration experiment (full scale lives in
    # the acceptance suite)
    space = demo.demo_space_720()
    model = demo.gaussian_model()
    r = coverage_experiment(model, space, stratified_methodology(32), 300,
                            0.95, 2024, ("cpu_a", "cpu_b"))
    assert 0.90 <= r.coverage <= 0.99


def test_skewed_factorial2k_undercovers_stratified():
    space = demo.demo_space_720()
    model = demo.skewed_model()
    strat = coverage_experiment(model, space, stratified_methodology(32), 200,
                                0.99, 7, ("cpu_a", "cpu_b"))
    f2k = coverage_experiment(
        model, space,
        Methodology(kind="factorial2k", params={
            "split": demo.demo_factor_split(), "defaults": {"workload": 0},
        }),
        200, 0.99, 7, ("cpu_a", "cpu_b"))
    assert f2k.coverage < strat.coverage - 0.1


def bench_tracing():
    """benchmarks/tracing.py, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_names_patched_by_the_benchmark_tracer_stay_bound():
    # benchmarks/tracing.py rebinds module and class attributes by name; each
    # must stay bound, also where ecbench itself no longer calls it
    tracing = bench_tracing()
    names = [(owner, attr) for owner, attr, _, _ in tracing._span_table()]
    names += [(owner, attr) for owner, attr, _ in tracing._COUNTER_TABLE]
    for owner, attr in names:
        raw = (owner.__dict__.get(attr) if isinstance(owner, type)
               else getattr(owner, attr, None))
        if isinstance(raw, classmethod):
            raw = raw.__func__
        assert callable(raw), f"{owner.__name__}.{attr}"
    before = [getattr(owner, attr) for owner, attr in names]
    with tracing.installed(tracing.Tracer()):
        pass
    assert [getattr(owner, attr) for owner, attr in names] == before


def test_simulate_noise_stays_visible_to_the_benchmark_tracer(tmp_path):
    # the oracle's noise must keep going through CompiledModel.noisy_values
    # and model.counter_normal, and every noise value must be counted
    tracing = bench_tracing()
    space = demo.demo_space_720()
    space.save(tmp_path / "space.json")
    demo.skewed_model().save(tmp_path / "model.json")
    split = {n: {"low": list(lo), "high": list(hi)}
             for n, lo, hi in demo.demo_factor_split().splits}
    (tmp_path / "meth.json").write_text(json.dumps({
        "objects": ["cpu_a", "cpu_b"],
        "methodologies": [
            {"kind": "full_factorial"},
            {"kind": "stratified",
             "params": {"stratum_factor": "workload", "iterations": 4}},
            {"kind": "factorial2k",
             "params": {"split": split, "defaults": {"workload": 0}}},
            {"kind": "rct", "params": {"per_arm": 8}},
            {"kind": "spec_point",
             "params": {"recommended_index": demo.demo_recommended_index(space)}},
        ],
    }))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert main(["simulate", "--space", str(tmp_path / "space.json"),
                     "--model", str(tmp_path / "model.json"),
                     "--methodologies", str(tmp_path / "meth.json"),
                     "--iterations", "5", "--level", "0.99", "--seed", "3",
                     "--out", str(tmp_path / "cov.csv")]) == 0
    assert tracer.counts["model.values"] == SIMULATE_NOISE_VALUES
    assert tracer.calls["model.noisy_values"] > 0
    assert tracer.calls["model.counter_normal"] > 0

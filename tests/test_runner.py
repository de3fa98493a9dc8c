import dataclasses

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecbench import demo, oracle
from ecbench.design import PlanEntry, SamplePlan, full_factorial, stratified_sample
from ecbench.errors import ExecutionError, FingerprintError, SpaceError
from ecbench.fingerprints import fingerprint
from ecbench.manifest import measurement_line, parse_results
from ecbench.model import Interaction, SyntheticModel, counter_normal, synth_time
from ecbench.runner import (
    ExecutorSpec,
    Measurement,
    ResultSet,
    aggregate,
    execute_plan,
    measure,
    occurrence_ordinals,
)
from ecbench.space import Factor, ObjectConfig, build_space, index_column
from oracles import (
    flat_noise_layout,
    keyed_rows,
    occurrence_keys_reference,
    simulate_aggregates_reference,
)


def constant_model(value=100.0):
    return SyntheticModel(stratum_factor="workload",
                          base=(("w1", value),), sigma=0.0)


def one_point_space():
    return build_space([Factor("workload", ("w1",)), Factor("threads", ("1", "2"))])


class TestAggregate:
    def test_mean(self):
        assert aggregate([1, 2, 3], "mean") == 2

    def test_median_odd(self):
        assert aggregate([3, 1, 2], "median") == 2

    def test_median_even_averages_middle_pair(self):
        assert aggregate([1, 2, 3, 10], "median") == 2.5

    def test_unknown_policy(self):
        with pytest.raises(ExecutionError):
            aggregate([1.0], "mode")


class TestSynthTime:
    def effect_model(self):
        return SyntheticModel(
            stratum_factor="workload",
            base=(("w1", 10.0),),
            effects=(("threads", (("1", 0.0), ("2", 2.0), ("4", 4.0), ("8", 6.0))),),
            sigma=0.0,
        )

    def space(self):
        return build_space([
            Factor("workload", ("w1",)),
            Factor("threads", ("1", "2", "4", "8")),
        ])

    def test_direct_sum(self):
        space = self.space()
        ec = space.config_at(3)  # threads level index 3 -> +6
        val = synth_time(self.effect_model(), space, ObjectConfig("o"), ec, 0)
        assert val == 16.0

    def test_sigma_zero_identical_across_replicates(self):
        space = self.space()
        ec = space.config_at(1)
        vals = {synth_time(self.effect_model(), space, ObjectConfig("o"), ec, r)
                for r in range(5)}
        assert len(vals) == 1

    def test_deterministic_across_calls(self):
        model = SyntheticModel(stratum_factor="workload", base=(("w1", 50.0),),
                               sigma=2.0, noise_seed=9)
        space = self.space()
        ec = space.config_at(2)
        a = synth_time(model, space, ObjectConfig("o"), ec, 1)
        b = synth_time(model, space, ObjectConfig("o"), ec, 1)
        assert a == b
        assert a != 50.0  # noise actually applied

    def test_noise_varies_by_replicate_and_object(self):
        model = SyntheticModel(stratum_factor="workload", base=(("w1", 50.0),),
                               sigma=2.0, noise_seed=9)
        space = self.space()
        ec = space.config_at(0)
        v0 = synth_time(model, space, ObjectConfig("o"), ec, 0)
        v1 = synth_time(model, space, ObjectConfig("o"), ec, 1)
        w0 = synth_time(model, space, ObjectConfig("p"), ec, 0)
        assert v0 != v1 and v0 != w0

    def test_missing_effect_level_rejected(self):
        model = SyntheticModel(
            stratum_factor="workload", base=(("w1", 10.0),),
            effects=(("threads", (("1", 0.0),)),),
        )
        with pytest.raises(Exception):
            model.compile(self.space())

    @pytest.mark.parametrize("change, message", [
        ({"base": (("w1", 1.0), ("w9", 2.0))},
         "model base references unknown level 'w9' of factor 'workload'"),
        ({"base": ()},
         "model base table for factor 'workload' misses level 'w1'"),
        ({"effects": (("threads", (("1", 0.0), ("2", 1.0))),)},
         "model effect table for factor 'threads' misses level '4'"),
        ({"effects": (("threads", (("16", 1.0),)),)},
         "model effect references unknown level '16' of factor 'threads'"),
        ({"object_effects": (("o", (("threads", (("16", 1.0),)),)),)},
         "object effect references unknown level '16' of factor 'threads'"),
    ])
    def test_tables_naming_unknown_or_missing_levels_rejected(self, change,
                                                              message):
        model = dataclasses.replace(self.effect_model(), **change)
        with pytest.raises(SpaceError) as e:
            model.compile(self.space())
        assert str(e.value) == message

    def test_object_effects_are_sparse(self):
        # levels an object's table leaves out contribute 0.0
        model = dataclasses.replace(self.effect_model(), object_effects=(
            ("o", (("threads", (("2", 0.5),)),)),))
        values = model.compile(self.space()).deterministic_values(
            np.arange(4), "o")
        assert values.tolist() == [10.0, 12.5, 14.0, 16.0]

    def test_noise_is_mean_zero(self):
        model = SyntheticModel(stratum_factor="workload", base=(("w1", 100.0),),
                               sigma=3.0, noise_seed=123)
        space = self.space()
        compiled = model.compile(space)
        n = 10**5
        vals = compiled.noisy_values(
            np.zeros(n, dtype=np.int64), "o", np.arange(n, dtype=np.int64)
        )
        assert abs(vals.mean() - 100.0) < 5 * 3.0 / np.sqrt(n)
        assert abs(vals.std() - 3.0) < 0.05


def binary_space(n_factors):
    """2^n_factors points; the stratum factor comes first."""
    return build_space([Factor("workload", ("w1", "w2"))] + [
        Factor(f"f{i}", ("0", "1")) for i in range(n_factors - 1)
    ])


class TestCardinalityLimit:
    model = SyntheticModel(stratum_factor="workload",
                           base=(("w1", 10.0), ("w2", 20.0)),
                           sigma=1.0, noise_seed=5)

    def test_space_of_2_pow_63_points_rejected(self):
        space = binary_space(63)
        with pytest.raises(SpaceError, match=r"limit of 2\^63 - 1"):
            self.model.compile(space)
        with pytest.raises(SpaceError, match=r"limit of 2\^63 - 1"):
            synth_time(self.model, space, ObjectConfig("o"),
                       space.config_at(space.cardinality - 1), 0)

    def test_space_of_2_pow_62_points_runs_to_its_last_index(self):
        space = binary_space(62)
        last = space.cardinality - 1
        plan = SamplePlan(
            design="stratified", entries=(PlanEntry(last, "w2"),), reps=2,
            seed=0, space_fingerprint=fingerprint(space.to_dict()),
        )
        ex = ExecutorSpec(kind="synthetic", model=self.model)
        rs = execute_plan(ex, ObjectConfig("o"), space, plan)
        expected = tuple(synth_time(self.model, space, ObjectConfig("o"),
                                    space.config_at(last), r) for r in range(2))
        assert keyed_rows(rs)[(last, 0)].replicates == expected
        assert all(v != 20.0 for v in expected)


def measured_once(ex: ExecutorSpec, space, reps: int) -> Measurement:
    """The one measurement of a one-entry plan at index 0."""
    plan = SamplePlan(design="full_factorial", entries=(PlanEntry(0, None),),
                      reps=reps, seed=0,
                      space_fingerprint=fingerprint(space.to_dict()))
    (m,) = keyed_rows(execute_plan(ex, ObjectConfig("o"), space, plan)).values()
    return m


class TestMeasure:
    # a synthetic executor is evaluated a plan at a time, by execute_plan
    def test_constant_model_any_reps(self):
        space = one_point_space()
        ex = ExecutorSpec(kind="synthetic", model=constant_model())
        m = measured_once(ex, space, 5)
        assert m.aggregate == 100.0
        assert m.replicates == (100.0,) * 5

    def test_synthetic_timestamps_zeroed(self):
        space = one_point_space()
        ex = ExecutorSpec(kind="synthetic", model=constant_model())
        m = measured_once(ex, space, 1)
        assert m.started_at == 0.0 and m.ended_at == 0.0

    def test_synthetic_executor_refused(self):
        space = one_point_space()
        ex = ExecutorSpec(kind="synthetic", model=constant_model())
        with pytest.raises(ExecutionError, match="execute_plan"):
            measure(ex, ObjectConfig("o"), space, space.config_at(0), 1, "mean")

    def test_command_executor_times_process(self):
        space = one_point_space()
        ex = ExecutorSpec(kind="command", templates=(("*", "sleep 0.0{threads}"),))
        m = measure(ex, ObjectConfig("o"), space, space.config_at(0), 1, "mean")
        assert m.aggregate > 0.005
        assert m.ended_at >= m.started_at

    def test_command_failure_raises(self):
        space = one_point_space()
        ex = ExecutorSpec(kind="command", templates=(("*", "false"),))
        with pytest.raises(ExecutionError):
            measure(ex, ObjectConfig("o"), space, space.config_at(0), 1, "mean")

    def test_launch_failure_raises(self):
        space = one_point_space()
        ex = ExecutorSpec(kind="command",
                          templates=(("*", "no-such-binary-xyz"),))
        with pytest.raises(ExecutionError):
            measure(ex, ObjectConfig("o"), space, space.config_at(0), 1, "mean")


class TestExecutePlan:
    def test_one_measurement_per_entry(self):
        space = demo.demo_space_720()
        plan = stratified_sample(space, "workload", 32, 3, seed=6)
        ex = ExecutorSpec(kind="synthetic", model=demo.gaussian_model())
        rs = execute_plan(ex, demo.OBJECT_A, space, plan)
        assert len(rs.measurements) == 32

    def test_deterministic_given_seeded_model(self):
        space = demo.demo_space_720()
        plan = stratified_sample(space, "workload", 8, 3, seed=6)
        ex = ExecutorSpec(kind="synthetic", model=demo.gaussian_model())
        r1 = execute_plan(ex, demo.OBJECT_A, space, plan)
        r2 = execute_plan(ex, demo.OBJECT_A, space, plan)
        assert keyed_rows(r1) == keyed_rows(r2)

    def test_fingerprint_mismatch_rejected(self):
        space = demo.demo_space_720()
        other = one_point_space()
        plan = full_factorial(other, reps=1)
        ex = ExecutorSpec(kind="synthetic", model=demo.gaussian_model())
        with pytest.raises(FingerprintError):
            execute_plan(ex, demo.OBJECT_A, space, plan)

    def test_template_referencing_unknown_factor_rejected(self):
        space = one_point_space()
        plan = full_factorial(space, reps=1)
        ex = ExecutorSpec(kind="command", templates=(("*", "echo {bogus}"),))
        with pytest.raises(ExecutionError):
            execute_plan(ex, ObjectConfig("o"), space, plan)

    def test_failures_abort_by_default(self):
        space = one_point_space()
        plan = full_factorial(space, reps=1)
        ex = ExecutorSpec(kind="command", templates=(("*", "false"),))
        with pytest.raises(ExecutionError):
            execute_plan(ex, ObjectConfig("o"), space, plan)

    def test_skip_failures_records_and_continues(self):
        space = one_point_space()
        plan = full_factorial(space, reps=1)
        ex = ExecutorSpec(kind="command", templates=(("*", "false"),))
        rs = execute_plan(ex, ObjectConfig("o"), space, plan, skip_failures=True)
        assert len(rs.measurements) == 0
        assert len(rs.failures) == 2
        assert all(m.error for m in rs.failures)

    def test_duplicate_entries_get_distinct_ordinals(self):
        space = one_point_space()
        plan = full_factorial(space, reps=1)
        # duplicate every entry by executing a handcrafted plan
        dup = SamplePlan(
            design="stratified",
            entries=tuple(
                PlanEntry(e.ec_index, stratum="w1")
                for e in plan.entries for _ in range(2)
            ),
            reps=1, seed=0, space_fingerprint=plan.space_fingerprint,
        )
        ex = ExecutorSpec(kind="synthetic", model=constant_model())
        seen = []
        rs = execute_plan(ex, ObjectConfig("o"), space, dup,
                          on_measurements=seen.extend)
        assert set(keyed_rows(rs)) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        # every entry reported, in plan order, with the row the set holds
        assert [key for key, _ in seen] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(keyed_rows(rs)[key] == m for key, m in seen)

    def test_already_done_keys_are_skipped(self):
        space = one_point_space()
        plan = full_factorial(space, reps=2)
        ex = ExecutorSpec(kind="synthetic", model=constant_model())
        seen = []
        rs = execute_plan(ex, ObjectConfig("o"), space, plan,
                          on_measurements=seen.extend,
                          already_done={(0, 0)})
        assert [key for key, _ in seen] == [(1, 0)] and set(keyed_rows(rs)) == {(1, 0)}

    @pytest.mark.parametrize("skip_failures", [False, True])
    def test_out_of_range_entry_fails_before_any_measurement(self, skip_failures):
        space = one_point_space()
        plan = SamplePlan(
            design="stratified",
            entries=(PlanEntry(0, "w1"), PlanEntry(1, "w1"), PlanEntry(2, "w1")),
            reps=1, seed=0, space_fingerprint=fingerprint(space.to_dict()),
        )
        ex = ExecutorSpec(kind="synthetic", model=constant_model())
        seen = []
        with pytest.raises(SpaceError, match="index 2 out of range for cardinality 2"):
            execute_plan(ex, ObjectConfig("o"), space, plan,
                         skip_failures=skip_failures,
                         on_measurements=seen.extend)
        assert seen == []

    def test_unknown_policy_recorded_per_entry_when_skipping(self):
        space = one_point_space()
        plan = full_factorial(space, reps=1)
        ex = ExecutorSpec(kind="synthetic", model=constant_model())
        rs = execute_plan(ex, ObjectConfig("o"), space, plan,
                          skip_failures=True, policy="mode")
        assert len(rs.measurements) == 0
        assert [m.ec_index for m in rs.failures] == [0, 1]
        assert all("mode" in m.error for m in rs.failures)


def on_billion_space(model: SyntheticModel) -> SyntheticModel:
    """The demo model's structure carried onto the billion-point space: tables
    cycle their values over the larger factors' levels. The shared dataset
    effect is left out, because a full table over 60,000 levels is slow to
    compile; cpu_b's sparse dataset deltas stay on the first ten datasets."""
    space = demo.demo_space_billion()

    def cover(factor, table, sparse=False):
        labels = space.factor(factor).levels
        values = [v for _, v in table]
        n = len(values) if sparse else len(labels)
        return tuple((labels[i], values[i % len(values)]) for i in range(n))

    return dataclasses.replace(
        model,
        base=cover("workload", model.base),
        effects=tuple((f, cover(f, tab)) for f, tab in model.effects
                      if f != "dataset"),
        object_effects=tuple(
            (oid, tuple((f, cover(f, tab, sparse=True)) for f, tab in eff))
            for oid, eff in model.object_effects
        ),
    )


@pytest.mark.parametrize("model_name", ["gaussian", "skewed"])
@pytest.mark.parametrize("obj", [demo.OBJECT_A, demo.OBJECT_B],
                         ids=lambda o: o.object_id)
@pytest.mark.parametrize("plan_kind", ["full_factorial_720", "stratified_billion"])
def test_batched_plan_matches_scalar_reference(model_name, obj, plan_kind):
    # the runner evaluates a plan in one call; every replicate must equal the
    # per-replicate scalar path bit for bit, under either aggregation policy
    model = {"gaussian": demo.gaussian_model, "skewed": demo.skewed_model}[model_name]()
    if plan_kind == "full_factorial_720":
        space = demo.demo_space_720()
        plan = full_factorial(space, reps=3)
    else:
        space = demo.demo_space_billion()
        model = on_billion_space(model)
        plan = stratified_sample(space, "workload", 2, 3, seed=17)
        assert max(e.ec_index for e in plan.entries) > 10**8
    ex = ExecutorSpec(kind="synthetic", model=model)
    expected = {
        e.ec_index: tuple(synth_time(model, space, obj, space.config_at(e.ec_index), r)
                          for r in range(plan.reps))
        for e in plan.entries
    }
    for policy in ("mean", "median"):
        rs = execute_plan(ex, obj, space, plan, policy=policy)
        assert len(rs.measurements) == len(plan.entries)
        for (idx, _), m in keyed_rows(rs).items():
            assert m.replicates == expected[idx]
            assert m.aggregate == aggregate(list(expected[idx]), policy)
            assert m.policy == policy
        for e in plan.entries[:3]:
            alone = dataclasses.replace(plan, entries=(e,))
            (single,) = keyed_rows(
                execute_plan(ex, obj, space, alone, policy=policy)).values()
            assert single == keyed_rows(rs)[(e.ec_index, 0)]


def test_added_rows_join_the_columns_in_order():
    rs = ResultSet(object_id="o", plan_fingerprint="p")
    rs.add((3, 0), Measurement(3, "o", (1.0, 2.0), 1.5, "mean", 0.5, 0.75))
    assert rs.measurements.indices.dtype == np.int64
    # a second batch, past int64, joins the columns the first one made
    for key in ((2**64, 0), (3, 1)):
        rs.add(key, Measurement(key[0], "o", (4.0, 5.0), 4.5, "median"))
    assert len(rs.measurements) == 3
    m = rs.measurements
    assert m.indices.tolist() == [3, 2**64, 3] and m.indices.dtype == object
    assert m.ordinals.tolist() == [0, 0, 1]
    assert m.replicates.tolist() == [[1.0, 2.0], [4.0, 5.0], [4.0, 5.0]]
    assert m.policies.tolist() == ["mean", "median", "median"]
    assert m.started_at.tolist() == [0.5, 0.0, 0.0]


def test_result_set_refuses_a_duplicate_key_or_another_objects_row():
    rs = ResultSet(object_id="o", plan_fingerprint="p")
    rs.add((3, 0), Measurement(3, "o", (1.0,), 1.0, "mean"))
    with pytest.raises(ExecutionError, match=r"duplicate measurement key \(3, 0\)"):
        rs.add((3, 0), Measurement(3, "o", (2.0,), 2.0, "mean"))
    with pytest.raises(ExecutionError, match="of object 'x' added to the "
                                             "result set of 'o'"):
        rs.add((4, 0), Measurement(4, "x", (2.0,), 2.0, "mean"))
    assert len(rs.measurements) == 1


def test_result_set_refuses_replicates_a_file_could_not_hold():
    refused = r"measurement key \({}, 0\): a measured row holds as many " \
              r"replicates as the first, each a number"
    rs = ResultSet(object_id="o", plan_fingerprint="p")
    for bad in (("1.5", 2.0), (True, 2.0), (np.True_, 2.0), (None,),
                (10**400, 2.0)):
        with pytest.raises(ExecutionError, match=refused.format(3)):
            rs.add((3, 0), Measurement(3, "o", bad, 1.5, "mean"))
    # the key is still free; ints and numpy numbers are numbers
    rs.add((3, 0), Measurement(3, "o", (np.float64(1.0), 2), 1.5, "mean"))
    for bad in ((1.0,), (1.0, 2.0, 3.0)):
        with pytest.raises(ExecutionError, match=refused.format(4)):
            rs.add((4, 0), Measurement(4, "o", bad, 1.0, "mean"))
    assert rs.measurements.replicates.tolist() == [[1.0, 2.0]]
    # a set loaded from a file takes its width from the file's rows
    loaded = parse_results(measurement_line(
        Measurement(5, "o", (1.0, 2.0, 3.0), 2.0, "mean")).encode(),
        "r.jsonl", "o", "p")
    with pytest.raises(ExecutionError, match=refused.format(6)):
        loaded.add((6, 0), Measurement(6, "o", (1.0, 2.0), 1.5, "mean"))
    loaded.add((6, 0), Measurement(6, "o", (4.0, 5.0, 6.0), 5.0, "mean"))
    assert loaded.measurements.replicates.tolist() == [[1.0, 2.0, 3.0],
                                                       [4.0, 5.0, 6.0]]


@pytest.mark.parametrize("field", ["aggregate", "started_at", "ended_at"])
def test_result_set_refuses_an_aggregate_or_time_a_file_could_not_hold(field):
    # the rule `parse_results` applies to a file's numbers: a string, a
    # bool and an int past float range are refused, naming the key
    rs = ResultSet(object_id="o", plan_fingerprint="p")
    row = {"ec_index": 3, "object_id": "o", "replicates": (1.0, 2.0),
           "aggregate": 1.5, "policy": "mean"}
    for bad in ("1.5", True, 10**400):
        with pytest.raises(ExecutionError, match=(
                r"measurement key \(3, 0\): a measured row's aggregate, "
                r"started_at and ended_at are numbers within float range")):
            rs.add((3, 0), Measurement(**{**row, field: bad}))
    # the key is still free; ints and numpy numbers are numbers
    rs.add((3, 0), Measurement(**{**row, field: 2}))
    rs.add((4, 0), Measurement(**{**row, "ec_index": 4,
                                  field: np.float64(2.5)}))
    assert getattr(rs.measurements, field + "s" * (field == "aggregate")
                   ).tolist() == [2.0, 2.5]


def test_full_factorial_sigma_zero_matches_analytic():
    # oracle equivalence: noiseless execution reproduces the model surface
    space = demo.demo_space_720()
    model = demo.skewed_model()
    noiseless = SyntheticModel(
        stratum_factor=model.stratum_factor, base=model.base,
        effects=model.effects, interactions=model.interactions,
        object_offsets=model.object_offsets, object_effects=model.object_effects,
        sigma=0.0, noise_seed=model.noise_seed,
    )
    plan = full_factorial(space, reps=2)
    ex = ExecutorSpec(kind="synthetic", model=noiseless)
    rs = execute_plan(ex, demo.OBJECT_B, space, plan)
    compiled = noiseless.compile(space)
    expected = compiled.deterministic_values(
        np.arange(720, dtype=np.int64), "cpu_b"
    )
    for (idx, _), m in keyed_rows(rs).items():
        assert m.aggregate == pytest.approx(expected[idx], rel=1e-12)


def test_counter_normal_per_element_seeds_match_scalar_seeds():
    rng = np.random.Generator(np.random.PCG64(31))
    ec = rng.integers(0, 2**62, 500)
    rep = rng.integers(0, 4, 500)
    seeds = [0, 1, 2**63 + 11, 2**64 - 1]
    per_element = np.repeat(np.array(seeds, dtype=np.uint64), 125)
    got = counter_normal(per_element, ec, "cpu_a", rep)
    want = np.concatenate([
        counter_normal(s, ec[125 * j:125 * (j + 1)], "cpu_a",
                       rep[125 * j:125 * (j + 1)])
        for j, s in enumerate(seeds)])
    assert np.array_equal(got, want)
    # negative seeds wrap into 64 bits
    assert np.array_equal(counter_normal(-1, ec, "o", rep),
                          counter_normal(2**64 - 1, ec, "o", rep))


@pytest.mark.parametrize("index_dtype", [np.int64, np.uint64])
def test_counter_normal_leaves_its_inputs_alone(index_dtype):
    # the mixing rounds run in place: on copies, never on what is passed in
    rng = np.random.Generator(np.random.PCG64(8))
    noise_seeds = rng.integers(0, 2**63, 6).astype(np.uint64)
    indices = rng.integers(0, 2**62, (6, 5)).astype(index_dtype)
    for seed, index, replicate in [
            (2**64 - 1, indices[0][:, None], np.arange(3)),
            (np.array(7, np.uint64), indices[:, :1], np.arange(2)),
            (noise_seeds[:, None], indices, np.arange(3).reshape(3, 1, 1)),
            (noise_seeds.reshape(6, 1), indices,
             np.arange(4, dtype=np.uint64).reshape(4, 1, 1))]:
        inputs = [a for a in (seed, index, replicate, noise_seeds, indices)
                  if isinstance(a, np.ndarray)]
        before = [a.copy() for a in inputs]
        z = counter_normal(seed, index, "cpu_a", replicate)
        for a, copy in zip(inputs, before):
            assert same_bits(a, copy)
            assert not np.shares_memory(z, a)


def test_counter_normal_raises_no_overflow_warning():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counter_normal(2**64 - 1, np.arange(10), "cpu_b", np.zeros(10, dtype=np.int64))
        counter_normal(7, np.array([2**62]), "cpu_b", np.array([0]))


# Broadcast noise calls against the flat layout: the oracle passes (k, 1)
# seeds, (k, n) indices and (reps, 1, 1) replicates, the runner (n, 1) indices
# and (reps,) replicates; both must give the bits of one element per
# (index, replicate) pair.

OBJECTS = ("cpu_a", "cpu_b")
SCALAR_SEEDS = st.sampled_from([-1, 0, 2**64 - 1]) | st.integers(0, 2**64 - 1)
ROW_SEEDS = st.sampled_from([0, 1, 2**63 + 11, 2**64 - 1]) | st.integers(0, 2**64 - 1)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def replicate_major(reps: int) -> np.ndarray:
    return np.arange(reps, dtype=np.int64).reshape(reps, 1, 1)


def to_flat(vals: np.ndarray) -> np.ndarray:
    """(reps, k, n) -> the flat (k, n, reps) order."""
    return np.moveaxis(vals, 0, -1).ravel()


def per_row(seeds):
    return seeds if np.ndim(seeds) == 0 else seeds[:, None]


@st.composite
def noise_layouts(draw, max_index: int, scalar_seeds: bool = True):
    """(k, n) indices up to max_index, reps, and one scalar seed or a (k,)
    uint64 array of per-row seeds."""
    k, n = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    reps = draw(st.integers(1, 10))
    indices = np.array(draw(st.lists(st.integers(0, max_index),
                                     min_size=k * n, max_size=k * n)),
                       dtype=np.int64).reshape(k, n)
    if scalar_seeds and draw(st.booleans()):
        return indices, reps, draw(SCALAR_SEEDS)
    seeds = draw(st.lists(ROW_SEEDS, min_size=k, max_size=k))
    return indices, reps, np.array(seeds, dtype=np.uint64)


def wide_model() -> SyntheticModel:
    """Every kind of model term on binary_space(62)."""
    return SyntheticModel(
        stratum_factor="workload", base=(("w1", 10.0), ("w2", 20.0)),
        effects=(("f0", (("0", 0.0), ("1", 1.5))),),
        interactions=(Interaction("f1", "f2", (("1", "1", 0.25),)),),
        object_offsets=(("cpu_b", 3.0),),
        object_effects=(("cpu_b", (("f3", (("1", -0.5),)),)),),
        sigma=1.0, noise_seed=5,
    )


NOISE_CASES = {
    "skewed_720": (demo.demo_space_720, demo.skewed_model),
    "wide_2_pow_62": (lambda: binary_space(62), wide_model),
}


@functools.cache
def compiled_case(case: str, noisy: bool):
    space_of, model_of = NOISE_CASES[case]
    model = model_of()
    if not noisy:
        model = dataclasses.replace(model, sigma=0.0)
    return model.compile(space_of())


@settings(max_examples=80, deadline=None)
@given(layout=noise_layouts(2**62), object_id=st.sampled_from(OBJECTS))
def test_broadcast_counter_normal_matches_flat_layout(layout, object_id):
    indices, reps, seeds = layout
    got = counter_normal(per_row(seeds), indices, object_id, replicate_major(reps))
    assert got.shape == (reps,) + indices.shape
    idx, rep, flat_seeds = flat_noise_layout(indices, reps, seeds)
    assert same_bits(to_flat(got), counter_normal(flat_seeds, idx, object_id, rep))


@pytest.mark.parametrize("noisy", [True, False], ids=["sigma", "sigma0"])
@pytest.mark.parametrize("case", list(NOISE_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_broadcast_noisy_values_match_flat_layout(case, noisy, data):
    compiled = compiled_case(case, noisy)
    indices, reps, seeds = data.draw(
        noise_layouts(compiled.space.cardinality - 1), label="layout")
    object_id = data.draw(st.sampled_from(OBJECTS), label="object_id")
    k, n = indices.shape

    levels = compiled.space.level_columns(indices)
    assert same_bits(levels, compiled.space.level_columns(
        indices.ravel()).reshape((len(compiled.space.factors), k, n)))
    det = compiled.deterministic_values(indices, object_id)
    assert same_bits(det, compiled.deterministic_values(
        indices.ravel(), object_id).reshape(k, n))

    got = compiled.noisy_values(indices, object_id, replicate_major(reps),
                                noise_seed=per_row(seeds))
    assert got.shape == (reps, k, n)  # also with sigma 0
    idx, rep, flat_seeds = flat_noise_layout(indices, reps, seeds)
    want = compiled.noisy_values(idx, object_id, rep, noise_seed=flat_seeds)
    assert same_bits(to_flat(got), want)
    # noise-free values handed in give the same bits and are left unchanged
    handed = det.copy()
    assert same_bits(compiled.noisy_values(indices, object_id, replicate_major(reps),
                                           noise_seed=per_row(seeds), values=handed),
                     got)
    assert same_bits(handed, det)

    # the runner's layout: one row per index, the model's own seed
    rows = compiled.noisy_values(indices.reshape(-1, 1), object_id,
                                 np.arange(reps, dtype=np.int64))
    assert rows.shape == (k * n, reps)
    idx, rep, _ = flat_noise_layout(indices, reps, 0)
    assert same_bits(rows.ravel(), compiled.noisy_values(idx, object_id, rep))


@pytest.mark.parametrize("noisy", [True, False], ids=["sigma", "sigma0"])
@settings(max_examples=40, deadline=None)
@given(layout=noise_layouts(719, scalar_seeds=False),
       object_id=st.sampled_from(OBJECTS),
       policy=st.sampled_from(["mean", "median"]))
def test_simulate_aggregates_match_flat_layout(noisy, layout, object_id, policy):
    # reps up to 10 crosses numpy's switch to pairwise summation at 8 terms
    indices, reps, seeds = layout
    compiled = compiled_case("skewed_720", noisy)
    table = oracle._value_table(compiled, object_id)
    got = oracle._simulate_aggregates(compiled, table, indices, object_id,
                                      reps, seeds, policy)
    want = simulate_aggregates_reference(compiled, indices, object_id, reps,
                                         seeds, policy)
    assert same_bits(got, want)


@pytest.mark.parametrize("model_of", [demo.gaussian_model, demo.skewed_model])
def test_value_table_matches_decode_on_the_720_point_space(model_of):
    compiled = model_of().compile(demo.demo_space_720())
    every = np.arange(720, dtype=np.int64)
    for object_id in OBJECTS:
        table = oracle._value_table(compiled, object_id)
        shuffled = np.random.default_rng(5).permutation(every).reshape(24, 30)
        assert same_bits(table[shuffled],
                         compiled.deterministic_values(shuffled, object_id))
        one_by_one = [compiled.deterministic_values(np.array([i]), object_id)[0]
                      for i in every]
        assert same_bits(table, np.array(one_by_one))


@st.composite
def small_models(draw):
    """A random space of 2 to 4 factors and a model using every term kind."""
    value = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    factors = [Factor(f"f{i}", tuple(f"l{j}" for j in range(draw(st.integers(1, 5)))))
               for i in range(draw(st.integers(2, 4)))]
    first, last = factors[0], factors[-1]
    model = SyntheticModel(
        stratum_factor=first.name,
        base=tuple((lab, draw(value)) for lab in first.levels),
        effects=tuple((f.name, tuple((lab, draw(value)) for lab in f.levels))
                      for f in factors[1:] if draw(st.booleans())),
        interactions=(Interaction(first.name, last.name, tuple(
            (a, b, draw(value)) for a in first.levels for b in last.levels
            if draw(st.booleans()))),),
        object_offsets=(("cpu_b", draw(value)),),
        object_effects=(("cpu_b", ((last.name, tuple(
            (lab, draw(value)) for lab in last.levels if draw(st.booleans()))),)),),
    )
    return build_space(factors), model


@settings(max_examples=60, deadline=None)
@given(case=small_models(), data=st.data())
def test_value_table_matches_decode_on_small_spaces(case, data):
    space, model = case
    compiled = model.compile(space)
    shape = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 6)), label="shape")
    indices = np.array(data.draw(st.lists(
        st.integers(0, space.cardinality - 1),
        min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]),
        label="indices"), dtype=np.int64).reshape(shape)
    for object_id in OBJECTS:
        table = oracle._value_table(compiled, object_id)
        assert same_bits(table[indices],
                         compiled.deterministic_values(indices, object_id))


# a few distinct indices, int64 or up to 2^128 - 1, each drawn many times
repeated_indices = st.lists(
    st.integers(-2**63, 2**63 - 1) | st.integers(0, 2**128 - 1),
    min_size=1, max_size=6, unique=True,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=60))


@settings(max_examples=300, deadline=None)
@given(indices=repeated_indices)
def test_occurrence_ordinals_match_counting_loop(indices):
    column = index_column(indices)
    assert column.tolist() == indices
    assert column.dtype == (np.int64 if all(-2**63 <= i < 2**63 for i in indices)
                            else object)
    assert list(zip(indices, occurrence_ordinals(column).tolist())) \
        == occurrence_keys_reference(indices)

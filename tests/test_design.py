import collections
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecbench.design
from ecbench import demo
from ecbench.design import (
    FactorSplit,
    SamplePlan,
    factorial_2k,
    full_factorial,
    rct_assign,
    spec_point,
    stratified_sample,
)
from ecbench.errors import PlanError
from ecbench.fingerprints import fingerprint
from ecbench.space import Factor, build_space
from oracles import factorial_2k_reference, rct_reference, stratified_reference


def small_space():
    return build_space([
        Factor("workload", ("w1", "w2", "w3")),
        Factor("dataset", ("d1", "d2")),
        Factor("threads", ("1", "2", "4", "8")),
    ])


class TestStratified:
    def test_43_strata_32_iterations_is_1376(self):
        space = demo.demo_space_billion()
        plan = stratified_sample(space, "workload", 32, 3, seed=7)
        assert len(plan.entries) == 1376

    def test_one_stratum_five_iterations(self):
        space = demo.demo_space_720()
        plan = stratified_sample(space, "workload", 5, 3, seed=7)
        assert len(plan.entries) == 5

    def test_same_seed_identical_plans(self):
        space = small_space()
        p1 = stratified_sample(space, "workload", 10, 3, seed=99)
        p2 = stratified_sample(space, "workload", 10, 3, seed=99)
        assert p1.to_dict() == p2.to_dict()

    def test_different_seed_differs(self):
        space = small_space()
        p1 = stratified_sample(space, "workload", 10, 3, seed=1)
        p2 = stratified_sample(space, "workload", 10, 3, seed=2)
        assert p1.to_dict() != p2.to_dict()

    def test_per_stratum_counts_equal(self):
        space = small_space()
        plan = stratified_sample(space, "workload", 17, 1, seed=3)
        counts = collections.Counter(e.stratum for e in plan.entries)
        assert set(counts.values()) == {17}

    def test_stratum_level_pinned(self):
        space = small_space()
        plan = stratified_sample(space, "dataset", 9, 1, seed=5)
        for entry in plan.entries:
            cfg = space.config_at(entry.ec_index)
            label = space.factor("dataset").levels[cfg.level_index("dataset")]
            assert label == entry.stratum

    def test_nonstratum_levels_near_uniform(self):
        # chi-square style sanity: each level within 5 sigma of uniform
        space = small_space()
        n = 10**4
        plan = stratified_sample(space, "workload", n, 1, seed=11)
        per_stratum = [e for e in plan.entries if e.stratum == "w1"]
        counts = collections.Counter(
            space.config_at(e.ec_index).level_index("threads")
            for e in per_stratum
        )
        p = 1 / 4
        sigma = math.sqrt(n * p * (1 - p))
        for level in range(4):
            assert abs(counts[level] - n * p) < 5 * sigma

    def test_unknown_stratum_factor_rejected(self):
        with pytest.raises(Exception):
            stratified_sample(small_space(), "nope", 5, 1, seed=0)

    def test_zero_iterations_rejected(self):
        with pytest.raises(PlanError):
            stratified_sample(small_space(), "workload", 0, 1, seed=0)


class TestFactorial2k:
    def split(self):
        return FactorSplit(splits=(
            ("dataset", (0,), (1,)),
            ("threads", (0, 1), (2, 3)),
        ))

    def test_k2_gives_4_distinct(self):
        plan = factorial_2k(small_space(), self.split(), {"workload": 0},
                            reps=3, seed=21)
        indices = [e.ec_index for e in plan.entries]
        assert len(indices) == 4 and len(set(indices)) == 4

    def test_k3_gives_8(self):
        space = demo.demo_space_720()
        plan = factorial_2k(space, demo.demo_factor_split(), {"workload": 0},
                            reps=3, seed=21)
        assert len(plan.entries) == 8
        assert len({e.ec_index for e in plan.entries}) == 8

    def test_k1_gives_2(self):
        split = FactorSplit(splits=(("threads", (0, 1), (2, 3)),))
        plan = factorial_2k(small_space(), split,
                            {"workload": 1, "dataset": 0}, reps=1, seed=0)
        assert len(plan.entries) == 2

    def test_each_factor_takes_one_low_one_high(self):
        space = small_space()
        plan = factorial_2k(space, self.split(), {"workload": 0}, reps=3, seed=5)
        seen = collections.defaultdict(set)
        for e in plan.entries:
            cfg = space.config_at(e.ec_index)
            seen["dataset"].add(cfg.level_index("dataset"))
            seen["threads"].add(cfg.level_index("threads"))
        assert seen["dataset"] == {0, 1}
        lo, hi = sorted(seen["threads"])
        assert lo in (0, 1) and hi in (2, 3)

    def test_unselected_factor_pinned(self):
        space = small_space()
        plan = factorial_2k(space, self.split(), {"workload": 2}, reps=1, seed=5)
        for e in plan.entries:
            assert space.config_at(e.ec_index).level_index("workload") == 2

    def test_missing_default_rejected(self):
        with pytest.raises(PlanError):
            factorial_2k(small_space(), self.split(), {}, reps=1, seed=0)

    def test_empty_low_set_rejected(self):
        with pytest.raises(PlanError):
            FactorSplit(splits=(("threads", (), (2,)),))

    def test_overlapping_split_rejected(self):
        with pytest.raises(PlanError):
            FactorSplit(splits=(("threads", (0, 1), (1, 2)),))

    def test_same_seed_identical(self):
        a = factorial_2k(small_space(), self.split(), {"workload": 0}, 3, seed=8)
        b = factorial_2k(small_space(), self.split(), {"workload": 0}, 3, seed=8)
        assert a.to_dict() == b.to_dict()


class TestFullFactorial:
    def test_720_entries(self):
        plan = full_factorial(demo.demo_space_720(), reps=3)
        assert len(plan.entries) == 720
        assert plan.reps == 3

    def test_2x3_space(self):
        space = build_space([Factor("a", ("x", "y")), Factor("b", ("1", "2", "3"))])
        plan = full_factorial(space, reps=1)
        assert [e.ec_index for e in plan.entries] == list(range(6))

    def test_every_index_exactly_once(self):
        plan = full_factorial(small_space(), reps=2)
        indices = sorted(e.ec_index for e in plan.entries)
        assert indices == list(range(24))

    def test_cap_enforced(self):
        with pytest.raises(PlanError):
            full_factorial(demo.demo_space_billion(), reps=1)


class TestRct:
    def test_arms_disjoint_equal_size(self):
        assignment = rct_assign(demo.demo_space_720(), per_arm=300, reps=3, seed=13)
        c = {e.ec_index for e in assignment.control.entries}
        t = {e.ec_index for e in assignment.treatment.entries}
        assert len(c) == len(t) == 300
        assert not (c & t)

    def test_exact_partition(self):
        space = small_space()  # cardinality 24
        assignment = rct_assign(space, per_arm=12, reps=1, seed=4)
        union = {e.ec_index for e in assignment.control.entries}
        union |= {e.ec_index for e in assignment.treatment.entries}
        assert union == set(range(24))

    def test_same_seed_identical(self):
        a = rct_assign(small_space(), per_arm=5, reps=1, seed=77)
        b = rct_assign(small_space(), per_arm=5, reps=1, seed=77)
        assert a.control.to_dict() == b.control.to_dict()
        assert a.treatment.to_dict() == b.treatment.to_dict()

    def test_per_arm_too_large_rejected(self):
        with pytest.raises(PlanError):
            rct_assign(small_space(), per_arm=13, reps=1, seed=0)


class TestSpecPoint:
    def test_single_entry_three_reps_median(self):
        space = demo.demo_space_720()
        cfg = space.config_at(demo.demo_recommended_index(space))
        plan = spec_point(space, cfg)
        assert len(plan.entries) == 1
        assert plan.reps == 3
        assert plan.policy == "median"
        assert plan.entries[0].stratum == demo.WORKLOAD_720

    def test_recommended_flag_level(self):
        space = demo.demo_space_720()
        cfg = space.config_from_labels({
            "workload": demo.WORKLOAD_720, "dataset": "d10",
            "flags": "-O3", "threads": "56",
        })
        plan = spec_point(space, cfg)
        assert plan.entries[0].ec_index == cfg.index

    def test_invalid_configuration_rejected(self):
        from ecbench.space import Configuration
        space = small_space()
        bad = Configuration(assignments=(("workload", 5), ("dataset", 0),
                                         ("threads", 0)), index=0)
        with pytest.raises(Exception):
            spec_point(space, bad)


def test_plan_json_roundtrip(tmp_path):
    space = small_space()
    plan = stratified_sample(space, "workload", 6, 2, seed=42)
    path = tmp_path / "plan.json"
    plan.save(path)
    loaded = SamplePlan.load(path)
    assert loaded == plan
    assert loaded.fingerprint == plan.fingerprint


def test_plan_fingerprint_is_hashed_once_per_plan(monkeypatch):
    # through design's module-level fingerprint, which the benchmark tracer
    # counts
    calls = []

    def counted(doc):
        calls.append(doc)
        return fingerprint(doc)

    monkeypatch.setattr(ecbench.design, "fingerprint", counted)
    plan = stratified_sample(small_space(), "workload", 6, 2, seed=42)
    calls.clear()  # the generator hashed the space
    first, second = plan.fingerprint, plan.fingerprint
    assert len(calls) == 1
    assert first == second == fingerprint(plan.to_dict())
    replaced = dataclasses.replace(plan, reps=3)
    assert replaced.fingerprint == fingerprint(replaced.to_dict()) != first


def test_plans_fingerprint_changes_with_space():
    plan_a = stratified_sample(small_space(), "workload", 3, 1, seed=1)
    plan_b = stratified_sample(demo.demo_space_720(), "workload", 3, 1, seed=1)
    assert plan_a.space_fingerprint != plan_b.space_fingerprint


# Bit-identity of the vectorised samplers against the scalar per-factor loop.

def space_4_pow_40():
    space = build_space([Factor(f"f{i:02d}", ("a", "b", "c", "d"))
                         for i in range(40)])
    assert space.cardinality == 4**40 > 2**64
    return space


@st.composite
def small_spaces(draw):
    radices = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    return build_space([Factor(f"f{i}", tuple(f"l{j}" for j in range(m)))
                        for i, m in enumerate(radices)])


def stratified_entries(plan):
    return [(e.ec_index, e.stratum) for e in plan.entries]


def rct_arms(assignment):
    return ([e.ec_index for e in assignment.control.entries],
            [e.ec_index for e in assignment.treatment.entries])


@settings(max_examples=60, deadline=None)
@given(space=small_spaces(), data=st.data(), seed=st.integers(0, 2**64 - 1),
       iterations=st.integers(1, 6))
def test_stratified_matches_scalar_reference_on_small_spaces(space, data, seed,
                                                              iterations):
    factor = data.draw(st.sampled_from([f.name for f in space.factors]))
    plan = stratified_sample(space, factor, iterations, 1, seed)
    assert stratified_entries(plan) == stratified_reference(space, factor,
                                                            iterations, seed)


@settings(max_examples=60, deadline=None)
@given(space=small_spaces(), data=st.data(), seed=st.integers(0, 2**64 - 1))
def test_rct_matches_scalar_reference_on_small_spaces(space, data, seed):
    per_arm = data.draw(st.integers(1, max(1, space.cardinality // 2)))
    if 2 * per_arm > space.cardinality:
        return
    assert rct_arms(rct_assign(space, per_arm, 1, seed)) == rct_reference(
        space, per_arm, seed)


@settings(max_examples=60, deadline=None)
@given(space=small_spaces(), data=st.data(), seed=st.integers(0, 2**64 - 1))
def test_factorial_2k_matches_scalar_reference_on_small_spaces(space, data, seed):
    splits, defaults = [], {}
    for f in space.factors:
        m = len(f.levels)
        if m >= 2 and data.draw(st.booleans()):
            cut = data.draw(st.integers(1, m - 1))
            splits.append((f.name, tuple(range(cut)), tuple(range(cut, m))))
        else:
            defaults[f.name] = data.draw(st.integers(0, m - 1))
    split = FactorSplit(splits=tuple(splits))
    plan = factorial_2k(space, split, defaults, 1, seed)
    assert [e.ec_index for e in plan.entries] == factorial_2k_reference(
        space, split, defaults, seed)


@pytest.mark.parametrize("make_space, factor", [
    (demo.demo_space_720, "workload"),  # one stratum
    (demo.demo_space_billion, "workload"),  # 43 strata
    (space_4_pow_40, "f07"),  # indices beyond 2^64
])
def test_stratified_matches_scalar_reference_on_demo_spaces(make_space, factor):
    space = make_space()
    for seed in (0, 1, 2**63 + 5):
        plan = stratified_sample(space, factor, 4, 3, seed)
        assert stratified_entries(plan) == stratified_reference(space, factor,
                                                                4, seed)


@pytest.mark.parametrize("make_space, per_arm", [
    (demo.demo_space_720, 360),  # every point: duplicate-heavy rejection
    (demo.demo_space_720, 32),
    (demo.demo_space_billion, 32),
    (space_4_pow_40, 16),
])
def test_rct_matches_scalar_reference_on_demo_spaces(make_space, per_arm):
    space = make_space()
    for seed in (3, 4):
        assert rct_arms(rct_assign(space, per_arm, 1, seed)) == rct_reference(
            space, per_arm, seed)


def test_factorial_2k_matches_scalar_reference_on_demo_spaces():
    big = space_4_pow_40()
    cases = [
        (demo.demo_space_720(), demo.demo_factor_split(), {"workload": 0}),
        (demo.demo_space_billion(),
         FactorSplit(splits=(("dataset", (0, 1), (59998, 59999)),
                             ("threads", (0,), (130,)))),
         {"workload": 42, "flags": 1}),
        (big, FactorSplit(splits=(("f00", (0,), (3,)), ("f39", (1,), (2,)))),
         {f.name: 3 for f in big.factors}),
    ]
    for space, split, defaults in cases:
        for seed in (5, 6):
            plan = factorial_2k(space, split, defaults, 1, seed)
            assert [e.ec_index for e in plan.entries] == factorial_2k_reference(
                space, split, defaults, seed)


def test_indices_beyond_int64_are_python_ints():
    space = space_4_pow_40()
    plan = stratified_sample(space, "f00", 2, 1, seed=9)
    assert all(type(e.ec_index) is int for e in plan.entries)
    assert any(e.ec_index > 2**63 for e in plan.entries)
    assert all(0 <= e.ec_index < space.cardinality for e in plan.entries)

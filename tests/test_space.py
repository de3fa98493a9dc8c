import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecbench.space
from ecbench import demo
from ecbench.errors import SpaceError
from ecbench.space import (
    MAX_CARDINALITY,
    ConfigSpace,
    Configuration,
    Factor,
    ObjectConfig,
    build_space,
    index_column,
)


def _space(*sizes: int) -> ConfigSpace:
    return build_space([
        Factor(chr(ord("A") + i), tuple(f"v{j}" for j in range(n)))
        for i, n in enumerate(sizes)
    ])


class TestBuildSpace:
    def test_demo_sizes_720(self):
        assert _space(10, 3, 24).cardinality == 720

    def test_single_factor(self):
        assert _space(7).cardinality == 7

    def test_empty_factor_list_is_empty_product(self):
        assert build_space([]).cardinality == 1

    def test_duplicate_factor_name_rejected(self):
        with pytest.raises(SpaceError):
            build_space([Factor("A", ("x",)), Factor("A", ("y",))])

    def test_empty_levels_rejected(self):
        with pytest.raises(SpaceError):
            Factor("A", ())

    def test_duplicate_level_labels_rejected(self):
        with pytest.raises(SpaceError):
            Factor("A", ("x", "x"))

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(SpaceError):
            Factor("A", ("x", "y"), weights=(1.0,))

    def test_zero_weight_sum_rejected(self):
        with pytest.raises(SpaceError):
            Factor("A", ("x", "y"), weights=(0.0, 0.0))

    def test_billion_scale_without_materialization(self):
        assert demo.demo_space_billion().cardinality > 10**9


class TestIndexing:
    def test_last_factor_varies_fastest(self):
        space = _space(2, 3)
        cfg = space.config_at(4)  # 4 = 1*3 + 1
        assert cfg.assignments == (("A", 1), ("B", 1))
        assert cfg.index == 4

    def test_index_zero_is_all_level_zero(self):
        cfg = _space(2, 3, 4).config_at(0)
        assert all(level == 0 for _, level in cfg.assignments)

    def test_index_of_mirrors_decode(self):
        space = _space(2, 3)
        cfg = Configuration(assignments=(("A", 1), ("B", 1)), index=0)
        assert space.index_of(cfg) == 4

    def test_roundtrip_exhaustive_six_points(self):
        space = _space(2, 3)
        for i in range(6):
            assert space.index_of(space.config_at(i)) == i

    def test_out_of_range_rejected(self):
        with pytest.raises(SpaceError):
            _space(2, 3).config_at(6)
        with pytest.raises(SpaceError):
            _space(2, 3).config_at(-1)

    def test_bad_level_index_rejected(self):
        space = _space(2, 3)
        with pytest.raises(SpaceError):
            space.index_of(Configuration(assignments=(("A", 2), ("B", 0)), index=0))

    def test_unknown_factor_rejected(self):
        space = _space(2, 3)
        with pytest.raises(SpaceError):
            space.index_of(Configuration(assignments=(("X", 0), ("B", 0)), index=0))

    def test_spot_check_huge_space(self):
        space = _space(*([4] * 30))  # 4^30 > 2^60
        assert space.cardinality == 4**30
        for i in (0, 1, 4**30 - 1, 123456789012345678):
            assert space.index_of(space.config_at(i)) == i

    def test_labels_roundtrip(self):
        space = demo.demo_space_720()
        cfg = space.config_from_labels({
            "workload": demo.WORKLOAD_720, "dataset": "d03",
            "flags": "-O2", "threads": "56",
        })
        assert space.labels_of(cfg)["threads"] == "56"
        assert space.config_at(cfg.index) == cfg


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=50), min_size=0, max_size=8)
)
@settings(max_examples=100)
def test_cardinality_is_product_of_level_counts(sizes):
    space = _space(*sizes)
    expected = 1
    for n in sizes:
        expected *= n
    assert space.cardinality == expected


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=4),
    data=st.data(),
)
@settings(max_examples=100)
def test_bijection_on_random_indices(sizes, data):
    space = _space(*sizes)
    index = data.draw(st.integers(min_value=0, max_value=space.cardinality - 1))
    assert space.index_of(space.config_at(index)) == index


# level counts of spaces at the int64 edge: 2^62, 3^39 * 2 and 2^63 - 2^60
# (a little under 2^63), then 2^63, 3^40 and 2^64, and up to 2^127 and 255^16
EDGE_SIZES = ([2] * 62, [3] * 39 + [2], [2] * 60 + [7], [2] * 63, [3] * 40,
              [2] * 64, [2] * 127, [255] * 16)


@st.composite
def large_spaces(draw):
    """A space of up to 2^128 - 1 points: factors of 1 to 300 levels, taken
    in order while the product stays within the limit, or an `EDGE_SIZES`
    space."""
    sizes = draw(st.lists(st.integers(1, 300), min_size=1, max_size=40)
                 | st.sampled_from(EDGE_SIZES))
    kept, card = [], 1
    for size in sizes:
        if card * size > MAX_CARDINALITY:
            break
        kept.append(size)
        card *= size
    return _space(*kept)


@settings(max_examples=100, deadline=None)
@given(space=large_spaces(), data=st.data())
def test_index_columns_match_the_scalar_codec(space, data):
    card = space.cardinality
    assert space.index_dtype is (np.int64 if card <= 2**63 - 1 else object)
    indices = data.draw(st.lists(st.integers(0, card - 1), max_size=8),
                        label="indices")
    levels = space.level_columns(index_column(indices))
    assert levels.dtype == np.int64
    assert levels.shape == (len(space.factors), len(indices))
    for i, index in enumerate(indices):
        assert levels[:, i].tolist() == [
            level for _, level in space.config_at(index).assignments]
    assert space.indices_of(levels).tolist() == indices  # the round trip
    twice = space.level_columns(index_column(indices * 2).reshape(2, -1))
    assert twice.tolist() == np.stack([levels, levels], axis=1).tolist()

    names = [f.name for f in space.factors]
    rows = data.draw(st.lists(st.tuples(*(st.integers(0, len(f.levels) - 1)
                                          for f in space.factors)),
                              min_size=1, max_size=8), label="levels")
    composed = space.indices_of([np.array(col) for col in zip(*rows)])
    assert composed.dtype == space.index_dtype
    assert composed.tolist() == [
        space.index_of(Configuration(tuple(zip(names, row)), 0))
        for row in rows]
    assert space.level_columns(composed).T.tolist() == [list(r) for r in rows]


@settings(max_examples=100, deadline=None)
@given(space=large_spaces(), data=st.data())
def test_index_columns_refuse_an_index_outside_the_space(space, data):
    card = space.cardinality
    inside = st.integers(0, card - 1)
    outside = st.integers(max_value=-1) | st.integers(min_value=card)
    first = data.draw(outside, label="first outside")
    before = data.draw(st.lists(inside, max_size=4), label="before")
    after = data.draw(st.lists(inside | outside, max_size=4), label="after")
    indices = before + [first] + after
    with pytest.raises(SpaceError) as scalar:
        space.config_at(first)
    with pytest.raises(SpaceError) as columns:
        space.level_columns(index_column(indices))
    assert str(columns.value) == str(scalar.value)


class TestRestrictTopN:
    def _weighted(self, weights):
        return build_space([
            Factor("A", tuple(f"v{i}" for i in range(len(weights))),
                   weights=tuple(weights))
        ])

    def test_full_coverage_is_identity(self):
        space = self._weighted([0.5, 0.3, 0.2])
        assert space.restrict_top_n(1.0).cardinality == 3

    def test_cdf_cutoff(self):
        space = self._weighted([0.5, 0.3, 0.2])
        restricted = space.restrict_top_n(0.8)
        assert restricted.factors[0].levels == ("v0", "v1")

    def test_uniform_half(self):
        space = self._weighted([1, 1, 1, 1])
        assert len(space.restrict_top_n(0.5).factors[0].levels) == 2

    def test_tie_break_by_original_order(self):
        space = self._weighted([0.25, 0.5, 0.25])
        restricted = space.restrict_top_n(0.75)
        assert restricted.factors[0].levels == ("v0", "v1")

    def test_idempotent(self):
        space = self._weighted([0.4, 0.3, 0.2, 0.1])
        once = space.restrict_top_n(0.7)
        twice = once.restrict_top_n(0.7)
        assert once.factors == twice.factors

    def test_missing_weights_rejected(self):
        with pytest.raises(SpaceError):
            _space(3).restrict_top_n(0.5)

    def test_cardinality_never_grows(self):
        space = self._weighted([0.6, 0.25, 0.1, 0.05])
        for cov in (0.2, 0.5, 0.9, 1.0):
            assert space.restrict_top_n(cov).cardinality <= space.cardinality


def test_empty_object_id_rejected():
    with pytest.raises(SpaceError):
        ObjectConfig("")


def test_space_json_roundtrip(tmp_path):
    space = demo.demo_space_720()
    path = tmp_path / "space.json"
    space.save(path)
    assert ConfigSpace.load(path) == space
    doc = json.loads(path.read_text())
    assert [f["name"] for f in doc["factors"]] == [
        "workload", "dataset", "flags", "threads"
    ]


def test_duplicate_check_builds_the_set_when_every_hash_collides(
        monkeypatch):
    # a constant hash makes every pair of labels neighbours in the sorted
    # hashes, so the set alone tells a collision from a duplicate; the
    # labels are out of order, so the hashes are taken
    hashed = []
    monkeypatch.setattr(ecbench.space, "hash", lambda label: hashed.append(
        label) or 0, raising=False)
    assert Factor("A", ("y", "x", "z")).levels == ("y", "x", "z")
    assert hashed == ["y", "x", "z"]
    with pytest.raises(SpaceError) as e:
        Factor("A", ("x", "y", "x"))
    assert str(e.value) == "factor 'A' has duplicate level labels"


@given(st.lists(st.one_of(st.sampled_from(["a", "b", "c", "", "s000001"]),
                          st.text(max_size=4)), min_size=1, max_size=40),
       st.sampled_from([list, sorted, lambda x: sorted(x, reverse=True)]))
@settings(max_examples=300)
def test_duplicate_check_agrees_with_a_set(labels, order):
    labels = order(labels)
    duplicated = len(set(labels)) != len(labels)
    try:
        Factor("A", tuple(labels))
    except SpaceError as e:
        assert (duplicated, str(e)) == (
            True, "factor 'A' has duplicate level labels")
    else:
        assert not duplicated


def test_loading_the_billion_point_space_holds_little_beside_it(tmp_path):
    # the decoded document and the space, not a set of 60,000 labels
    # beside them: the load peaks at most 1.5 file sizes above what it keeps
    path = tmp_path / "space.json"
    demo.demo_space_billion().save(path)
    gc.collect()
    tracemalloc.start()
    try:
        space = ConfigSpace.load(path)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space == demo.demo_space_billion()
    assert peak - live <= 1.5 * path.stat().st_size

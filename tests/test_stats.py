import math
import statistics

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ecbench.stats
from ecbench.compare import paired_differences, ratio_diagnostics
from ecbench.errors import PairingError
from ecbench.runner import Measurement, ResultSet
from ecbench.stats import (
    DF_FLOOR,
    Interval,
    StatsError,
    confidence_interval,
    exact_stdev,
    geometric_mean,
    mean_ci_from_array,
    mean_intervals,
    ratio_summary,
    t_quantile,
    welch_bounds,
    welch_interval,
)
from oracles import (
    T_TABLE,
    T_TABLE_PS,
    confidence_interval_reference,
    stdev_reference,
    t_quantile_oracle,
    welch_reference,
)


def result_set(object_id: str, values: list[float]) -> ResultSet:
    rs = ResultSet(object_id=object_id, plan_fingerprint="test")
    for i, v in enumerate(values):
        rs.add((i, 0), Measurement(ec_index=i, object_id=object_id,
                                   replicates=(v,), aggregate=v, policy="mean"))
    return rs


class TestSample:
    # a sample is a 1-D float64 array
    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            confidence_interval(np.array([]), 0.95)

    def test_nonfinite_rejected(self):
        with pytest.raises(StatsError):
            confidence_interval(np.array([1.0, float("nan")]), 0.95)

    def test_geometric_mean_function(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(StatsError):
            geometric_mean([1.0, 0.0])


class TestTQuantile:
    def test_median_is_zero(self):
        assert t_quantile(0.5, 7) == 0.0

    def test_known_value_df10(self):
        assert t_quantile(0.975, 10) == pytest.approx(2.2281388519, abs=1e-9)

    def test_large_df_approaches_normal(self):
        assert t_quantile(0.975, 10**6) == pytest.approx(1.959964, abs=1e-4)

    def test_symmetry(self):
        assert t_quantile(0.025, 10) == pytest.approx(-t_quantile(0.975, 10))

    def test_matches_quadrature_oracle(self):
        for df in (1, 3, 30, 120):
            for p in (0.9, 0.975, 0.995):
                assert t_quantile(p, df) == pytest.approx(
                    t_quantile_oracle(p, df), abs=1e-9)

    def test_matches_reference_table(self):
        # relative error against 50-digit roots of the CDF, from df 0.05
        # (quantiles up to 1e39) to df 1e10
        for df, quantiles in T_TABLE:
            for p, text in zip(T_TABLE_PS, quantiles):
                want = float(text)
                assert abs(t_quantile(p, df) - want) <= 1e-14 * want, (p, df)

    def test_df_below_the_floor_is_refused(self):
        # 0.05 is the lowest df of the 50-digit table, where stdtrit is
        # checked to 1e-14; below it, stdtrit misses that by about 6e-16 / df
        assert DF_FLOOR == 0.05 == T_TABLE[0][0]
        for df in (0.0499, 0.02, 1e-3, 1e-300, 5e-324, 0.0, -0.0, -1.0,
                   -math.inf):
            for p in (0.975, 0.025, 0.5):
                with pytest.raises(StatsError,
                                   match=f"at least 0.05, not {df}$"):
                    t_quantile(p, df)
            with pytest.raises(StatsError, match=f"not {df}$"):
                t_quantile(0.975, np.array([[1.0, 2.0], [df, 0.01]]))

    def test_nan_df_is_refused(self):
        for p in (0.975, 0.025, 0.5):
            for df in (math.nan, np.array([1.0, math.nan]),
                       np.array([[math.nan]])):
                with pytest.raises(StatsError, match="df .* not nan$"):
                    t_quantile(p, df)

    def test_inf_df_is_the_normal_limit(self):
        assert t_quantile(0.975, math.inf) == 1.9599639845400538
        assert t_quantile(0.025, np.array([math.inf])).tolist() == [
            -1.9599639845400538]

    def test_fractional_df(self):
        assert t_quantile(0.975, 12.5) == pytest.approx(
            t_quantile_oracle(0.975, 12.5), abs=1e-9)

    def test_monotone_in_p(self):
        qs = [t_quantile(p, 9) for p in (0.6, 0.7, 0.8, 0.9, 0.99)]
        assert qs == sorted(qs) and len(set(qs)) == len(qs)

    def test_monotone_decreasing_in_df(self):
        qs = [t_quantile(0.975, df) for df in (1, 2, 5, 20, 100)]
        assert qs == sorted(qs, reverse=True)

    def test_domain_errors(self):
        with pytest.raises(StatsError):
            t_quantile(0.0, 5)
        with pytest.raises(StatsError):
            t_quantile(1.0, 5)
        with pytest.raises(StatsError):
            t_quantile(0.9, 0)
        with pytest.raises(StatsError):
            t_quantile(0.9, np.array([3.0, -1.0]))

    def test_scalar_df_returns_float(self):
        for df in (7, 7.5, np.float64(7.5), np.array(7.5)):
            assert type(t_quantile(0.975, df)) is float
        assert type(t_quantile(0.5, 7)) is float

    def test_array_df_keeps_shape(self):
        dfs = np.array([[1.0, 2.5], [30.0, 400.0]])
        q = t_quantile(0.95, dfs)
        assert q.dtype == np.float64 and q.shape == (2, 2)
        for got, df in zip(q.ravel().tolist(), dfs.ravel().tolist()):
            assert got.hex() == t_quantile(0.95, df).hex()
        assert t_quantile(0.05, dfs).tolist() == (-q).tolist()
        assert t_quantile(0.5, dfs).tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert t_quantile(0.95, np.array([])).shape == (0,)


class TestConfidenceInterval:
    def test_hand_computed_five_points(self):
        # {1..5}: mean 3, s = sqrt(2.5), t(0.975, 4) = 2.7764451
        iv = confidence_interval(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 0.95)
        half = 2.7764451052 * math.sqrt(2.5) / math.sqrt(5)
        assert iv.center == pytest.approx(3.0)
        assert iv.low == pytest.approx(3.0 - half, abs=1e-8)
        assert iv.high == pytest.approx(3.0 + half, abs=1e-8)

    def test_zero_variance_degenerates(self):
        iv = confidence_interval(np.array([4.0, 4.0, 4.0]), 0.99)
        assert iv.low == iv.high == 4.0

    def test_nesting_of_levels(self):
        s = np.arange(12.0)
        iv95 = confidence_interval(s, 0.95)
        iv99 = confidence_interval(s, 0.99)
        assert iv99.low < iv95.low and iv95.high < iv99.high

    def test_needs_two_points(self):
        with pytest.raises(StatsError):
            confidence_interval(np.array([1.0]), 0.95)

    def test_level_domain(self):
        with pytest.raises(StatsError):
            confidence_interval(np.array([1.0, 2.0]), 1.0)

    def test_array_fast_path_matches(self):
        vals = (3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0)
        iv = confidence_interval(np.array(vals), 0.95)
        lo, mean, hi = mean_ci_from_array(np.array(vals), 0.95)
        assert (lo, mean, hi) == pytest.approx((iv.low, iv.center, iv.high))

    def test_width_scales_inverse_sqrt_n(self):
        # average half-widths over many draws; ratio -> sqrt(4) when n -> 4n
        rng = np.random.Generator(np.random.PCG64(5))
        widths = {}
        for n in (30, 120, 480):
            hw = []
            for _ in range(400):
                s = rng.normal(0.0, 1.0, n)
                hw.append(confidence_interval(s, 0.95).half_width)
            widths[n] = statistics.fmean(hw)
        assert widths[120] / widths[480] == pytest.approx(2.0, rel=0.05)
        assert widths[30] / widths[120] == pytest.approx(2.0, rel=0.05)

    def test_coverage_calibration_10k(self):
        # Gaussian data: empirical coverage must sit at the nominal level
        rng = np.random.Generator(np.random.PCG64(77))
        hits = 0
        trials = 10_000
        for _ in range(trials):
            x = rng.normal(10.0, 3.0, 16)
            lo, _, hi = mean_ci_from_array(x, 0.95)
            hits += lo <= 10.0 <= hi
        assert 0.94 <= hits / trials <= 0.96

    def test_interval_contains(self):
        iv = Interval(low=-1.0, high=2.0, level=0.95, center=0.5, n=3)
        assert iv.contains(-1.0) and iv.contains(2.0) and iv.contains(0.0)
        assert not iv.contains(2.0001)
        assert iv.half_width == 1.5


class TestWelch:
    def test_equal_arms_centered(self):
        rng = np.random.Generator(np.random.PCG64(3))
        a = rng.normal(5.0, 1.0, 50)
        b = rng.normal(2.0, 2.0, 40)
        iv = welch_interval(a, b, 0.95)
        assert iv.center == pytest.approx(a.mean() - b.mean())
        assert iv.low < 3.0 < iv.high

    def test_zero_variance(self):
        iv = welch_interval(np.array([2.0, 2.0]), np.array([1.0, 1.0]), 0.95)
        assert iv.low == iv.high == 1.0

    def test_needs_two_per_arm(self):
        with pytest.raises(StatsError):
            welch_interval(np.array([1.0]), np.array([1.0, 2.0]), 0.95)

    def test_rows_match_scalar_reference(self):
        rng = np.random.Generator(np.random.PCG64(21))
        a = rng.normal(0.0, 1.0, (400, 32)) * rng.uniform(0.1, 5.0, (400, 1))
        b = rng.normal(1.0, 3.0, (400, 32))
        b[7] = 4.0  # zero spread in one arm
        a[9], b[9] = 2.0, 1.0  # zero spread in both: a degenerate interval
        low, center, high = welch_bounds(a, b, 0.99)
        for i in range(400):
            ref = welch_reference(a[i], b[i], 0.99, t_quantile)
            assert (low[i], center[i], high[i]) == ref, i
            iv = welch_interval(a[i], b[i], 0.99)
            assert (iv.low, iv.center, iv.high) == ref
        assert low[9] == center[9] == high[9] == 1.0


    def test_small_spread_keeps_its_df(self, monkeypatch):
        # below a scale of about 1e-77, se2^2 is subnormal, so the textbook
        # df is a ratio of few bits (2.5714 for 2.56 at 10^-80.5), inf or
        # 0/0; the df asked is the unscaled samples' at every scale
        a, b = np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 5.0])
        asked = []
        monkeypatch.setattr(ecbench.stats, "t_quantile", lambda p, df: (
            asked.extend(df.tolist()) or t_quantile(p, df)))
        for scale in (1.0, 1e-78, 10**-80.5, 1e-81, 1e-100):
            welch_interval(a * scale, b * scale, 0.95)
        assert asked == pytest.approx([2.56] * 5, rel=1e-12)
        monkeypatch.undo()
        # at 1e-160 se2 itself is subnormal, about 1e-320: the interval is
        # that of the samples scaled by 1e160, to the digits it keeps
        scaled = welch_interval(a, b, 0.95)
        assert scaled.high == pytest.approx(5.7407, abs=1e-4)
        iv = welch_interval(a * 1e-160, b * 1e-160, 0.95)
        assert iv.center == 0.0
        assert iv.high == -iv.low == pytest.approx(scaled.high * 1e-160,
                                                   rel=1e-4)

    def test_variance_past_the_float_range_is_refused(self):
        # the half-width, about 2.9e300, is in range; the variances are not
        a = np.array([1e300, -1e300, 1e300])
        b = np.array([-1e300, 1e300, 0.0])
        with pytest.raises(StatsError,
                           match="^sample variance overflows the float range$"):
            welch_interval(a, b, 0.95)
        with pytest.raises(StatsError, match="overflows the float range"):
            welch_bounds(np.array([[1.0, 2.0], [1e300, -1e300]]),
                         np.array([[1.0, 3.0], [0.0, 1.0]]), 0.95)
        for bad in (math.inf, math.nan):
            with pytest.raises(StatsError, match="non-finite values"):
                welch_interval(np.array([1.0, bad]), b, 0.95)


arms = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=40)


@given(arms, arms, st.integers(-200, 200), st.integers(-200, 200))
@settings(max_examples=300, deadline=None)
def test_welch_df_lies_in_its_range_at_every_scale(a, b, scale_a, scale_b):
    # the df floor of t_quantile rests on this: Welch df is at least
    # min(na, nb) - 1 >= 1, whatever the scale of either arm
    a, b = np.array([a]) * 10.0**scale_a, np.array([b]) * 10.0**scale_b
    asked = []

    def recording(p, df):
        asked.extend(np.asarray(df).tolist())
        return t_quantile(p, df)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ecbench.stats, "t_quantile", recording)
        try:
            welch_bounds(a, b, 0.95)
        except StatsError as e:
            assert str(e) == "sample variance overflows the float range"
            return
    low = min(a.size, b.size) - 1
    high = a.size + b.size - 2
    assert all(low * (1 - 1e-12) <= df <= high * (1 + 1e-12) for df in asked)


def test_confidence_intervals_match_one_sample_reference():
    rng = np.random.Generator(np.random.PCG64(5))
    samples = [np.array(values) for values in (
        (1.0, 2.0), (-3.5, 7.25), (4.0, 4.0), (-0.0, -0.0), (2.0,) * 9)]
    samples += [rng.normal(m, sd, n)
                for m, sd, n in ((300.0, 6.0, 3), (-2.0, 0.5, 31),
                                 (0.0, 1e-9, 465), (50.0, 20.0, 2000))]
    for level in (0.9, 0.95, 0.99):
        expected = [tuple(map(repr, confidence_interval_reference(
            s.tolist(), level, t_quantile))) for s in samples]
        batch = mean_intervals(samples, level)
        assert [tuple(map(repr, (iv.low, iv.high, iv.center)))
                for iv in batch] == expected
        assert [(iv.n, iv.level) for iv in batch] == [(s.size, level)
                                                      for s in samples]
        assert [confidence_interval(s, level) for s in samples] == batch
    assert mean_intervals([], 0.95) == []


def test_mean_ci_rows_match_one_dimensional_calls():
    rng = np.random.Generator(np.random.PCG64(22))
    values = rng.normal(5.0, 2.0, (300, 96))
    low, mean, high = mean_ci_from_array(values, 0.99)
    for i in range(300):
        assert mean_ci_from_array(values[i], 0.99) == (low[i], mean[i], high[i])


def test_mean_ci_refuses_what_welch_refuses():
    # s of ±1e300 overflows, though `confidence_interval` answers finitely;
    # an inf or NaN value is refused before any overflow
    wide = np.array([1e300, -1e300, 1e300])
    assert np.isfinite(confidence_interval(wide, 0.95).half_width)
    for bad, message in ((wide, "sample variance overflows the float range"),
                         (np.array([1.0, math.inf, 1e300]),
                          "sample contains non-finite values"),
                         (np.array([1.0, math.nan, 2.0]),
                          "sample contains non-finite values")):
        rows = np.array([[1.0, 2.0, 4.0], bad])
        for values in (bad, rows):
            with pytest.raises(StatsError, match=f"^{message}$"):
                mean_ci_from_array(values, 0.95)


def assert_exact_stdev(values: np.ndarray) -> None:
    s = exact_stdev(values)
    assert s == stdev_reference(values.tolist())
    assert exact_stdev(values[::-1].copy()) == s  # order does not matter
    assert s == statistics.stdev(values.tolist())


finite_floats = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True),
    st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0),
              st.integers(min_value=-1074, max_value=996)))


@st.composite
def float_arrays(draw):
    """Length 2-3000: repeats from a pool of up to 64 drawn floats (exact
    ties, all-equal arrays, subnormals to 1e300), optionally half replaced by
    distinct values spread over a drawn band of binades. Hypothesis draws the
    pool and the band; numpy fills the array, which keeps long arrays cheap."""
    n = draw(st.integers(min_value=2, max_value=3000))
    pool = np.array(draw(st.lists(finite_floats, min_size=1, max_size=64)))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32))))
    values = pool[rng.integers(0, pool.size, n)]
    if draw(st.booleans()):
        low = draw(st.integers(min_value=-1074, max_value=996))
        high = draw(st.integers(min_value=low, max_value=996))
        spread = np.ldexp(rng.uniform(-1.0, 1.0, n),
                          rng.integers(low, high + 1, n))
        values = np.where(rng.random(n) < 0.5, values, spread)
    return values


class TestExactStdev:
    @given(float_arrays())
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, values):
        assert_exact_stdev(values)

    @given(st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True),
           st.integers(min_value=2, max_value=3000))
    @settings(max_examples=50, deadline=None)
    def test_all_equal_is_zero_and_degenerate(self, x, n):
        values = np.full(n, x)
        assert exact_stdev(values) == 0.0
        iv, = mean_intervals([values], 0.95)
        assert iv.low == iv.high == iv.center == math.fsum([x] * n) / n

    def test_fixed_20k_sample(self):
        rng = np.random.Generator(np.random.PCG64(20_000))
        values = rng.normal(300.0, 6.0, 20_000) - rng.normal(295.0, 6.0, 20_000)
        assert_exact_stdev(values)

    def test_largest_mantissas_at_one_exponent(self):
        # |m| = 2^53 - 1 maximises every int64 partial sum of a 256-value chunk
        big = float(2**53 - 1)
        for n in (256, 257, 512, 3000):
            values = np.full(n, big)
            values[0] = -big
            assert_exact_stdev(values)
            assert_exact_stdev(values * 2.0**-1000)
            assert_exact_stdev(-np.abs(values))

    def test_subnormal_spread_rounds_to_nearest(self):
        # one 5e-324 among zeros: s = 5e-324 / sqrt(n) rounds to 5e-324 for
        # n < 4, ties to even (0) at n = 4 and rounds to 0 beyond
        for n in range(2, 9):
            values = np.zeros(n)
            values[-1] = 5e-324
            assert exact_stdev(values) == (5e-324 if n < 4 else 0.0)
            assert_exact_stdev(values)

    @given(float_arrays(), st.sampled_from([1, 7, 256, 1000]))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_blocks_change_no_bit(self, monkeypatch, values, block):
        # the moments and the mean's fsum, a block of values at a time,
        # against one block holding every value
        def bits():
            iv, = mean_intervals([values], 0.95)
            return exact_stdev(values), iv
        monkeypatch.setattr(ecbench.stats, "_BLOCK", values.size)
        whole = bits()
        monkeypatch.setattr(ecbench.stats, "_BLOCK", block)
        assert bits() == whole

    def test_several_default_blocks_match_the_reference(self):
        # past three blocks of the default size, with exponents that differ
        # from block to block
        n = 3 * ecbench.stats._BLOCK + 5
        rng = np.random.Generator(np.random.PCG64(3))
        values = np.ldexp(rng.normal(1.0, 0.5, n),
                          np.repeat(rng.integers(-30, 30, 4), n // 4 + 1)[:n])
        assert_exact_stdev(values)
        iv, = mean_intervals([values], 0.95)
        assert iv.center == statistics.fmean(values.tolist())

    def test_rejects_short_and_nonfinite(self):
        with pytest.raises(StatsError):
            exact_stdev(np.array([1.0]))
        with pytest.raises(StatsError):
            exact_stdev(np.array([1.0, np.inf]))


class TestPairedDifferences:
    def test_elementwise(self):
        a = result_set("a", [5.0, 7.0, 9.0])
        b = result_set("b", [1.0, 2.0, 3.0])
        assert paired_differences(a, b).tolist() == [4.0, 5.0, 6.0]

    def test_antisymmetric(self):
        a = result_set("a", [5.0, 7.0])
        b = result_set("b", [1.0, 9.0])
        d_ab = paired_differences(a, b).tolist()
        d_ba = paired_differences(b, a).tolist()
        assert [-x for x in d_ab] == d_ba

    def test_mismatched_keys_rejected(self):
        a = result_set("a", [5.0, 7.0])
        b = result_set("b", [1.0])
        with pytest.raises(PairingError):
            paired_differences(a, b)

    def test_different_plans_rejected(self):
        a = result_set("a", [5.0, 7.0])
        b = result_set("b", [1.0, 2.0])
        b.plan_fingerprint = "another"
        with pytest.raises(PairingError, match="test.*another"):
            paired_differences(a, b)
        with pytest.raises(PairingError, match="test.*another"):
            ratio_diagnostics(a, b)


class TestRatioDiagnostics:
    def test_two_point_example(self):
        # ratios {2, 0.5}: mean 1.25, mean reciprocal 1.25, product 1.5625
        a = result_set("a", [2.0, 1.0])
        b = result_set("b", [1.0, 2.0])
        d = ratio_diagnostics(a, b, baseline="b")
        assert d.mean_ratio == pytest.approx(1.25)
        assert d.mean_reciprocal == pytest.approx(1.25)
        assert d.asymmetry_product == pytest.approx(1.5625)

    def test_baseline_selects_denominator(self):
        a = result_set("a", [4.0])
        b = result_set("b", [2.0])
        assert ratio_diagnostics(a, b, baseline="b").ratios.tolist() == [2.0]
        assert ratio_diagnostics(a, b, baseline="a").ratios.tolist() == [0.5]

    def test_constant_ratio_product_is_one(self):
        a = result_set("a", [2.0, 4.0, 6.0])
        b = result_set("b", [1.0, 2.0, 3.0])
        d = ratio_diagnostics(a, b)
        assert d.asymmetry_product == pytest.approx(1.0)

    def test_nonpositive_rejected(self):
        a = result_set("a", [1.0])
        b = result_set("b", [0.0])
        with pytest.raises(StatsError):
            ratio_diagnostics(a, b)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_refusals_in_order(self):
        # a non-positive aggregate is named before a ratio past float range
        num, den = np.array([1e300, 2.0, 1.0]), np.array([1e-300, 1.0, 1.0])
        with pytest.raises(StatsError, match="non-finite"):
            ratio_summary(num, den)
        den[1] = -1.0
        with pytest.raises(StatsError, match="positive aggregates"):
            ratio_summary(num, den)

    def test_bad_baseline_rejected(self):
        a = result_set("a", [1.0])
        b = result_set("b", [1.0])
        with pytest.raises(StatsError):
            ratio_diagnostics(a, b, baseline="c")


@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1,
                max_size=40))
@settings(max_examples=200)
def test_jensen_product_at_least_one(ratios):
    a = result_set("a", ratios)
    b = result_set("b", [1.0] * len(ratios))
    d = ratio_diagnostics(a, b)
    assert d.asymmetry_product >= 1.0 - 1e-12
    if len(set(ratios)) == 1:
        assert d.asymmetry_product == pytest.approx(1.0)


@given(st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1,
                max_size=40),
       st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1,
                max_size=40))
@settings(max_examples=200)
@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:divide by zero encountered")
def test_asymmetry_product_is_the_fmean_product(num, den):
    # the bits of fmean(r) * fmean(1/r) (NaN or inf where a ratio underflows
    # to 0), or the refusal of a ratio, or of a sum, past float range
    num, den = np.array(num), np.resize(np.array(den), len(num))
    ratios = num / den

    def outcome(product):
        try:
            return repr(product())
        except OverflowError:  # fsum's, which ratio_summary refuses
            return StatsError, "sample sum overflows the float range"
        except StatsError as e:
            return type(e), str(e)

    expected = (outcome(lambda: statistics.fmean(ratios.tolist())
                        * statistics.fmean((1.0 / ratios).tolist()))
                if np.isfinite(ratios).all()
                else (StatsError, "sample contains non-finite values"))
    assert outcome(lambda: ratio_summary(num, den).asymmetry_product) == expected

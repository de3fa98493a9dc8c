"""Paired comparison of two evaluated objects under equivalent conditions.

Pairing happens here: `paired_aggregates` aligns two result sets into arrays,
and everything after it is `stats` over arrays. Verdicts are read off
difference confidence intervals relative to zero; the minuend is always the
first argument and both object ids appear in the report so signs cannot be
misread.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

from .design import SamplePlan
from .errors import EcbenchError, PairingError, check_type
from .runner import ResultSet
from .stats import (
    Interval,
    RatioDiagnostics,
    StatsError,
    geometric_mean,
    mean_intervals,
    ratio_summary,
)
from .stats import confidence_interval  # noqa: F401  (benchmarks/tracing.py patches it here)


class Verdict(enum.Enum):
    NO_SIGNIFICANT_DIFFERENCE = "NoSignificantDifference"
    MINUEND_OUTPERFORMS = "MinuendOutperforms"
    SUBTRAHEND_OUTPERFORMS = "SubtrahendOutperforms"


def verdict_of(interval: Interval) -> Verdict:
    """Zero on either endpoint counts as containing zero (conservative)."""
    if interval.high < 0:
        return Verdict.MINUEND_OUTPERFORMS
    if interval.low > 0:
        return Verdict.SUBTRAHEND_OUTPERFORMS
    return Verdict.NO_SIGNIFICANT_DIFFERENCE


_VERDICTS = [v.value for v in Verdict]
# the type of each field of a report group, as `ComparisonReport.from_dict`
# checks it; bools are neither integers nor numbers here
_GROUP_FIELDS = (("group", str), ("n", numbers.Integral),
                 ("mean_diff", numbers.Real), ("ci_lo", numbers.Real),
                 ("ci_hi", numbers.Real), ("level", numbers.Real))


@dataclass(frozen=True)
class GroupResult:
    group: str
    n: int
    interval: Interval
    verdict: Verdict


@dataclass(frozen=True)
class ComparisonReport:
    minuend_id: str
    subtrahend_id: str
    level: float
    overall: GroupResult
    groups: tuple[GroupResult, ...]
    aggregation_policy: str
    ci_family: str = "student-t"

    def to_dict(self) -> dict:
        def group_doc(g: GroupResult) -> dict:
            return {
                "group": g.group,
                "n": g.n,
                "mean_diff": g.interval.center,
                "ci_lo": g.interval.low,
                "ci_hi": g.interval.high,
                "level": g.interval.level,
                "verdict": g.verdict.value,
            }

        return {
            "minuend": self.minuend_id,
            "subtrahend": self.subtrahend_id,
            "level": self.level,
            "aggregation_policy": self.aggregation_policy,
            "ci_family": self.ci_family,
            "overall": group_doc(self.overall),
            "groups": [group_doc(g) for g in self.groups],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ComparisonReport":
        def group(d: dict, what: str) -> GroupResult:
            for field, wanted in _GROUP_FIELDS:
                check_type(f"{what} {field}", d[field], wanted, EcbenchError)
            if d["verdict"] not in _VERDICTS:
                raise EcbenchError(f"{what} verdict must be one of "
                                   f"{', '.join(_VERDICTS)}, not "
                                   f"{d['verdict']!r}")
            iv = Interval(low=d["ci_lo"], high=d["ci_hi"], level=d["level"],
                          center=d["mean_diff"], n=d["n"])
            return GroupResult(group=d["group"], n=d["n"], interval=iv,
                               verdict=Verdict(d["verdict"]))

        return cls(
            minuend_id=doc["minuend"],
            subtrahend_id=doc["subtrahend"],
            level=doc["level"],
            overall=group(doc["overall"], "report overall"),
            groups=tuple(group(g, f"report group {i}")
                         for i, g in enumerate(doc["groups"])),
            aggregation_policy=doc.get("aggregation_policy", "mean"),
            ci_family=doc.get("ci_family", "student-t"),
        )


# the keys both sets cover, sorted, as index and ordinal columns, with each
# set's aggregates in that order
Aligned = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _keys(indices: np.ndarray, ordinals: np.ndarray) -> list[tuple[int, int]]:
    return list(zip(indices.tolist(), ordinals.tolist()))


def paired_aggregates(a: ResultSet, b: ResultSet) -> Aligned:
    """The sorted (ec_index, ordinal) keys both result sets cover, with each
    set's aggregates in that order as float64 arrays. Result sets from
    different plans, or covering different keys, do not pair."""
    if a.plan_fingerprint != b.plan_fingerprint:
        raise PairingError(
            "result sets come from different plans: plan fingerprint "
            f"{a.plan_fingerprint} (a) vs {b.plan_fingerprint} (b)"
        )
    ca, cb = a.measurements, b.measurements
    oa = np.lexsort((ca.ordinals, ca.indices))
    ob = np.lexsort((cb.ordinals, cb.indices))
    indices, ordinals = ca.indices[oa], ca.ordinals[oa]
    # keys within a set are distinct: equal sorted keys are equal key sets
    if not (len(oa) == len(ob) and np.array_equal(indices, cb.indices[ob])
            and np.array_equal(ordinals, cb.ordinals[ob])):
        ka = set(_keys(ca.indices, ca.ordinals))
        kb = set(_keys(cb.indices, cb.ordinals))
        raise PairingError(
            "result sets cover different (ec_index, ordinal) keys; "
            f"examples missing from a: {sorted(kb - ka)[:5]}, "
            f"from b: {sorted(ka - kb)[:5]}"
        )
    return indices, ordinals, ca.aggregates[oa], cb.aggregates[ob]


def _plan_groups(plan: SamplePlan, indices: np.ndarray, ordinals: np.ndarray
                 ) -> tuple[list[str], np.ndarray]:
    """The sorted labels, None read as "", of the plan entries that the keys
    (indices[i], ordinals[i]) name, and the position of each key's label in
    them; a PairingError names the first keys the plan lacks. An entry's key
    is its index and the number of earlier entries with that index, so in a
    stable sort of the plan's indices it sits at the start of its index's
    run plus its ordinal."""
    order = np.argsort(plan.indices, kind="stable")
    start = np.searchsorted(plan.indices, indices, sorter=order)
    run = np.searchsorted(plan.indices, indices, side="right", sorter=order)
    run -= start
    missing = (ordinals < 0) | (ordinals >= run)
    if missing.any():
        raise PairingError(
            "group map misses keys, e.g. "
            f"{_keys(indices[missing][:5], ordinals[missing][:5])}")
    # the search columns go before the label step: alive beside it, at 20k
    # keys, they would lift `ecbench compare` past the plan load's peak
    del run, missing
    start += ordinals
    entries = order[start]
    del order, start
    names = sorted({label or "" for label in plan.labels})
    code = {name: i for i, name in enumerate(names)}
    label_codes = np.array([code[label or ""] for label in plan.labels],
                           dtype=np.intp)
    used, codes = np.unique(label_codes[plan.codes[entries]],
                            return_inverse=True)
    return [names[c] for c in used.tolist()], codes


def paired_differences(a: ResultSet, b: ResultSet) -> np.ndarray:
    """Per matched key, aggregate(a) - aggregate(b), in sorted key order."""
    *_, xa, xb = paired_aggregates(a, b)
    return xa - xb


def compare_objects(a: ResultSet, b: ResultSet, level: float,
                    group_by: SamplePlan | None = None,
                    aligned: Aligned | None = None) -> ComparisonReport:
    """Paired differences a - b with an overall CI/verdict and, when the
    plan both sets ran is given, one CI/verdict per stratum label.
    `aligned` is `paired_aggregates(a, b)` when the caller has already
    computed it."""
    indices, ordinals, xa, xb = (paired_aggregates(a, b) if aligned is None
                                 else aligned)
    diffs = xa - xb
    samples, labels = [diffs], []
    if group_by is not None:
        labels, codes = _plan_groups(group_by, indices, ordinals)
        sizes = np.bincount(codes, minlength=len(labels))
        # fsum and exact_stdev ignore the order of values within a group
        samples += np.split(diffs[np.argsort(codes, kind="stable")],
                            np.cumsum(sizes)[:-1])
    overall_iv, *group_ivs = mean_intervals(samples, level)
    overall = GroupResult(group="overall", n=overall_iv.n, interval=overall_iv,
                          verdict=verdict_of(overall_iv))
    groups = [GroupResult(group=label, n=iv.n, interval=iv,
                          verdict=verdict_of(iv))
              for label, iv in zip(labels, group_ivs)]

    policies = {*a.measurements.policies, *b.measurements.policies}
    return ComparisonReport(
        minuend_id=a.object_id,
        subtrahend_id=b.object_id,
        level=level,
        overall=overall,
        groups=tuple(groups),
        aggregation_policy="/".join(sorted(policies)) or "mean",
    )


@dataclass(frozen=True)
class AsymmetryReport:
    """Side-by-side demonstration of difference symmetry vs ratio asymmetry."""

    diff_ab: Interval        # CI of a - b
    diff_ba: Interval        # CI of b - a; mirrors diff_ab exactly
    ratio_base_b: Interval   # CI of a/b
    ratio_base_a: Interval   # CI of b/a; generally NOT the reciprocal
    jensen_base_b: float     # mean(r) * mean(1/r) for r = a/b; >= 1
    jensen_base_a: float     # the same for r = b/a

    def to_dict(self) -> dict:
        def iv(i: Interval) -> dict:
            return {"lo": i.low, "hi": i.high, "center": i.center,
                    "level": i.level, "n": i.n}

        return {
            "difference_a_minus_b": iv(self.diff_ab),
            "difference_b_minus_a": iv(self.diff_ba),
            "ratio_baseline_b": iv(self.ratio_base_b),
            "ratio_baseline_a": iv(self.ratio_base_a),
            "jensen_product_baseline_b": self.jensen_base_b,
            "jensen_product_baseline_a": self.jensen_base_a,
        }


def ratio_diagnostics(a: ResultSet, b: ResultSet,
                      baseline: str = "b") -> RatioDiagnostics:
    """Per-key ratios with the chosen baseline as denominator, plus the
    Jensen asymmetry product that quantifies why ratios mislead."""
    if baseline not in ("a", "b"):
        raise StatsError("baseline must be 'a' or 'b'")
    *_, xa, xb = paired_aggregates(a, b)
    return ratio_summary(xa, xb) if baseline == "b" else ratio_summary(xb, xa)


def asymmetry_report(a: ResultSet, b: ResultSet, level: float,
                     aligned: Aligned | None = None) -> AsymmetryReport:
    """`aligned` is `paired_aggregates(a, b)` when the caller has already
    computed it."""
    *_, xa, xb = paired_aggregates(a, b) if aligned is None else aligned
    jensen_b = ratio_summary(xa, xb).asymmetry_product
    jensen_a = ratio_summary(xb, xa).asymmetry_product
    diff_ab, diff_ba, ratio_b, ratio_a = mean_intervals(
        [xa - xb, xb - xa, xa / xb, xb / xa], level)
    return AsymmetryReport(
        diff_ab=diff_ab,
        diff_ba=diff_ba,
        ratio_base_b=ratio_b,
        ratio_base_a=ratio_a,
        jensen_base_b=jensen_b,
        jensen_base_a=jensen_a,
    )


def spec_composite(per_workload_scores: list[tuple[str, tuple[float, float, float]]],
                   ) -> float:
    """Median of each workload's three runs, combined by geometric mean."""
    medians = []
    for stratum, runs in per_workload_scores:
        if len(runs) != 3:
            raise StatsError(
                f"stratum {stratum!r}: expected exactly 3 runs, got {len(runs)}"
            )
        if any(v <= 0 for v in runs):
            raise StatsError(f"stratum {stratum!r}: non-positive score")
        medians.append(sorted(runs)[1])
    return geometric_mean(medians)

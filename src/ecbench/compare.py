"""Paired comparison of two evaluated objects under equivalent conditions.

Pairing happens here: `paired_aggregates` aligns two result sets into arrays,
and everything after it is `stats` over arrays. Verdicts are read off
difference confidence intervals relative to zero; the minuend is always the
first argument and both object ids appear in the report so signs cannot be
misread.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import PairingError
from .runner import ResultSet, index_column
from .stats import (
    Interval,
    RatioDiagnostics,
    Sample,
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
        def group(d: dict) -> GroupResult:
            iv = Interval(low=d["ci_lo"], high=d["ci_hi"], level=d["level"],
                          center=d["mean_diff"], n=d["n"])
            return GroupResult(group=d["group"], n=d["n"], interval=iv,
                               verdict=Verdict(d["verdict"]))

        return cls(
            minuend_id=doc["minuend"],
            subtrahend_id=doc["subtrahend"],
            level=doc["level"],
            overall=group(doc["overall"]),
            groups=tuple(group(g) for g in doc["groups"]),
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
    ca, cb = a.measurements.columns, b.measurements.columns
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


class GroupMap:
    """A group label per (ec_index, ordinal) key, held as columns: distinct
    keys, and for each the code of its label in the sorted `names`.
    Iterating it gives the keys."""

    def __init__(self, indices: np.ndarray, ordinals: np.ndarray,
                 labels: list[str]):
        self.indices, self.ordinals = indices, ordinals
        self.names = sorted(set(labels))
        code = {name: i for i, name in enumerate(self.names)}
        self.codes = np.fromiter(map(code.__getitem__, labels), dtype=np.intp,
                                 count=len(labels))

    @classmethod
    def of(cls, mapping: "GroupMap | Mapping[tuple[int, int], str]"
           ) -> "GroupMap":
        if isinstance(mapping, GroupMap):
            return mapping
        return cls(index_column([index for index, _ in mapping]),
                   np.array([ordinal for _, ordinal in mapping], dtype=np.int64),
                   list(mapping.values()))

    def groups_of(self, indices: np.ndarray, ordinals: np.ndarray
                  ) -> tuple[list[str], np.ndarray]:
        """The sorted labels of the distinct keys (indices[i], ordinals[i]),
        and the position of each key's label in them; a PairingError names
        the first keys the map lacks."""
        n = len(self.codes)
        keys_i = np.concatenate([self.indices, indices])
        keys_o = np.concatenate([self.ordinals, ordinals])
        # lexsort is stable: a key asked for that the map holds sorts
        # straight after the map's copy of it
        order = np.lexsort((keys_o, keys_i))
        keys_i, keys_o, before = keys_i[order], keys_o[order], np.roll(order, 1)
        held = np.zeros(len(order), dtype=bool)
        held[1:] = (keys_i[1:] == keys_i[:-1]) & (keys_o[1:] == keys_o[:-1])
        asked = order >= n
        at = np.empty(len(indices), dtype=np.intp)  # the map row, or -1
        at[order[asked] - n] = np.where(held & (before < n), before, -1)[asked]
        missing = at < 0
        if missing.any():
            raise PairingError(
                "group map misses keys, e.g. "
                f"{_keys(indices[missing][:5], ordinals[missing][:5])}")
        used, codes = np.unique(self.codes[at], return_inverse=True)
        return [self.names[c] for c in used.tolist()], codes

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return iter(_keys(self.indices, self.ordinals))


def paired_differences(a: ResultSet, b: ResultSet,
                       label: str | None = None) -> Sample:
    """Per matched key, aggregate(a) - aggregate(b), in sorted key order."""
    *_, xa, xb = paired_aggregates(a, b)
    return Sample(values=tuple((xa - xb).tolist()), label=label)


def compare_objects(a: ResultSet, b: ResultSet, level: float,
                    group_by: GroupMap | Mapping[tuple[int, int], str]
                    | None = None,
                    aligned: Aligned | None = None) -> ComparisonReport:
    """Paired differences a - b with an overall CI/verdict and, when a
    grouping map is given, one CI/verdict per group. `aligned` is
    `paired_aggregates(a, b)` when the caller has already computed it."""
    indices, ordinals, xa, xb = (paired_aggregates(a, b) if aligned is None
                                 else aligned)
    diffs = xa - xb
    samples, labels = [diffs], []
    if group_by is not None:
        labels, codes = GroupMap.of(group_by).groups_of(indices, ordinals)
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

    policies = a.measurements.columns.policies | b.measurements.columns.policies
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
    diag_base_b: RatioDiagnostics
    diag_base_a: RatioDiagnostics

    def to_dict(self) -> dict:
        def iv(i: Interval) -> dict:
            return {"lo": i.low, "hi": i.high, "center": i.center,
                    "level": i.level, "n": i.n}

        return {
            "difference_a_minus_b": iv(self.diff_ab),
            "difference_b_minus_a": iv(self.diff_ba),
            "ratio_baseline_b": iv(self.ratio_base_b),
            "ratio_baseline_a": iv(self.ratio_base_a),
            "jensen_product_baseline_b": self.diag_base_b.asymmetry_product,
            "jensen_product_baseline_a": self.diag_base_a.asymmetry_product,
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
    diag_b = ratio_summary(xa, xb)
    diag_a = ratio_summary(xb, xa)
    diff_ab, diff_ba, ratio_b, ratio_a = mean_intervals(
        [xa - xb, xb - xa, xa / xb, xb / xa], level)
    return AsymmetryReport(
        diff_ab=diff_ab,
        diff_ba=diff_ba,
        ratio_base_b=ratio_b,
        ratio_base_a=ratio_a,
        diag_base_b=diag_b,
        diag_base_a=diag_a,
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

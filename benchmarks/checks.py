"""Output checks that recompute ecbench's results independently.

Nothing here imports ecbench: result files are parsed with `json`, hashes are
taken with `hashlib`, and intervals are recomputed with numpy and
`scipy.stats.t`. Every check returns `Check` records instead of raising, so a
failed check is counted and reported, and `self_test_*` can prove that each
checker trips on tampered input.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import stats as scipy_stats

REL_TOL = 1e-9
BINOMIAL_Z = 5.0  # a correct run leaves the band with probability ~1e-6


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def read_rows(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.decode().splitlines() if line.strip()]


def manifest_hash_check(name: str, data: bytes, manifest: dict) -> Check:
    actual = hashlib.sha256(data).hexdigest()
    recorded = manifest.get("results_sha256")
    return Check(f"manifest_sha256[{name}]", actual == recorded,
                 f"file {actual[:12]} manifest {str(recorded)[:12]}")


def lines_per_entry_check(name: str, rows: list[dict], plan: dict) -> Check:
    """Exactly one result line per plan entry: equal multisets of ec index."""
    want = Counter(e["index"] for e in plan["entries"])
    got = Counter(r["ec_index"] for r in rows)
    return Check(f"one_line_per_entry[{name}]", want == got,
                 f"{sum(got.values())} lines for {sum(want.values())} entries")


def failure_lines(rows: list[dict]) -> int:
    return sum(1 for r in rows if r.get("error") is not None)


def _keyed(rows: list[dict]) -> dict[tuple[int, int], float]:
    """Aggregate per (ec index, occurrence ordinal), skipping failure lines."""
    seen: Counter = Counter()
    out = {}
    for r in rows:
        if r.get("error") is not None:
            continue
        key = (r["ec_index"], seen[r["ec_index"]])
        seen[r["ec_index"]] += 1
        out[key] = r["aggregate"]
    return out


def plan_groups(plan: dict) -> dict[tuple[int, int], str]:
    seen: Counter = Counter()
    out = {}
    for e in plan["entries"]:
        out[(e["index"], seen[e["index"]])] = e.get("stratum") or ""
        seen[e["index"]] += 1
    return out


def paired_arrays(rows_a: list[dict], rows_b: list[dict]):
    ka, kb = _keyed(rows_a), _keyed(rows_b)
    if ka.keys() != kb.keys():
        raise ValueError("result files cover different keys")
    keys = sorted(ka)
    return keys, np.array([ka[k] for k in keys]), np.array([kb[k] for k in keys])


def t_interval(values: np.ndarray, level: float) -> tuple[int, float, float, float]:
    """(n, mean, low, high) of the Student-t mean interval."""
    n = values.size
    mean = float(values.mean())
    half = float(scipy_stats.t.ppf((1.0 + level) / 2.0, n - 1)
                 * values.std(ddof=1) / math.sqrt(n))
    return n, mean, mean - half, mean + half


def _close(got: float, want: float, scale: float) -> bool:
    """Relative agreement; an endpoint near zero is judged against the
    interval's own scale (its centre or half-width)."""
    return abs(got - want) <= REL_TOL * max(abs(want), scale)


def _verdict(low: float, high: float) -> str:
    if high < 0:
        return "MinuendOutperforms"
    if low > 0:
        return "SubtrahendOutperforms"
    return "NoSignificantDifference"


def _group_check(name: str, doc: dict, values: np.ndarray, level: float) -> Check:
    n, mean, low, high = t_interval(values, level)
    scale = max(abs(mean), (high - low) / 2.0)
    problems = []
    if doc["n"] != n:
        problems.append(f"n {doc['n']} != {n}")
    for key, want in (("mean_diff", mean), ("ci_lo", low), ("ci_hi", high)):
        if not _close(doc[key], want, scale):
            problems.append(f"{key} {doc[key]!r} != {want!r}")
    near_zero = min(abs(low), abs(high)) <= REL_TOL * scale
    if not near_zero and doc["verdict"] != _verdict(low, high):
        problems.append(f"verdict {doc['verdict']} != {_verdict(low, high)}")
    return Check(f"ci[{name}]", not problems, "; ".join(problems) or f"n={n}")


def report_checks(report: dict, rows_a: list[dict], rows_b: list[dict],
                  plan: dict, level: float) -> list[Check]:
    """Overall and per-group paired mean intervals against report.json."""
    keys, a, b = paired_arrays(rows_a, rows_b)
    diffs = a - b
    checks = [_group_check("overall", report["overall"], diffs, level)]
    groups = plan_groups(plan)
    labels = np.array([groups[k] for k in keys])
    names = sorted(set(labels.tolist()))
    got_names = [g["group"] for g in report["groups"]]
    checks.append(Check("group_names", got_names == names,
                        f"{len(got_names)} groups, expected {len(names)}"))
    for doc in report["groups"]:
        checks.append(_group_check(doc["group"], doc,
                                   diffs[labels == doc["group"]], level))
    return checks


def report_csv_check(report: dict, text: str) -> Check:
    """The CSV report carries the JSON report's numbers at 6 decimals."""
    rows = list(csv.reader(io.StringIO(text)))
    want = [["group", "n", "mean_diff", "ci_lo", "ci_hi", "level", "verdict"]]
    for g in (report["overall"], *report["groups"]):
        want.append([g["group"], str(g["n"]), f"{g['mean_diff']:.6f}",
                     f"{g['ci_lo']:.6f}", f"{g['ci_hi']:.6f}",
                     f"{g['level']:.6f}", g["verdict"]])
    return Check("report_csv", rows == want, f"{len(rows)} rows")


def asymmetry_checks(doc: dict, rows_a: list[dict], rows_b: list[dict],
                     level: float) -> list[Check]:
    """Difference intervals in both directions, ratio intervals for both
    baselines, and the Jensen products mean(r) * mean(1/r)."""
    _, a, b = paired_arrays(rows_a, rows_b)
    checks = []
    for key, values in (("difference_a_minus_b", a - b),
                        ("difference_b_minus_a", b - a),
                        ("ratio_baseline_b", a / b),
                        ("ratio_baseline_a", b / a)):
        n, mean, low, high = t_interval(values, level)
        got = doc[key]
        scale = max(abs(mean), (high - low) / 2.0)
        ok = (got["n"] == n and _close(got["center"], mean, scale)
              and _close(got["lo"], low, scale) and _close(got["hi"], high, scale))
        checks.append(Check(f"asymmetry[{key}]", ok,
                            f"[{got['lo']:.6g}, {got['hi']:.6g}]"))
    for key, r in (("jensen_product_baseline_b", a / b),
                   ("jensen_product_baseline_a", b / a)):
        want = float(r.mean() * (1.0 / r).mean())
        checks.append(Check(f"asymmetry[{key}]", _close(doc[key], want, 1.0),
                            f"{doc[key]:.9f}"))
    return checks


def model_band_check(name: str, rows: list[dict], space: dict, model: dict,
                     object_id: str, reps: int) -> Check:
    """Every replicate lies within the noise clip (6 sigma) of the model's
    deterministic value, recomputed by decoding the index with Python ints,
    and every aggregate is the mean of its replicates."""
    factors = [(f["name"], f["levels"]) for f in space["factors"]]
    tables = dict(model.get("effects", {}))
    extra = model.get("object_effects", {}).get(object_id, {})
    offset = model.get("object_offsets", {}).get(object_id, 0.0)
    limit = 6.0 * model["sigma"] * (1 + 1e-12) + 1e-9
    worst = 0.0
    for r in rows:
        rem, labels = r["ec_index"], {}
        for fname, levels in reversed(factors):
            rem, pos = divmod(rem, len(levels))
            labels[fname] = levels[pos]
        det = model["base"][labels[model["stratum_factor"]]] + offset
        for fname, table in tables.items():
            det += table[labels[fname]]
        for fname, table in extra.items():
            det += table.get(labels[fname], 0.0)
        reps_seen = r["replicates"]
        if len(reps_seen) != reps or r["aggregate"] != math.fsum(reps_seen) / reps:
            return Check(f"model_band[{name}]", False,
                         f"bad replicates at index {r['ec_index']}")
        worst = max(worst, *(abs(v - det) for v in reps_seen))
    return Check(f"model_band[{name}]", worst <= limit,
                 f"max |replicate - model| = {worst:.4f}, limit {limit:.4f}")


def coverage_checks(text: str, expected_rows: list[tuple[str, int]],
                    iterations: int, level: float) -> list[Check]:
    """The coverage CSV: methodology order, cost per object, iteration
    counts, coverage = hits / iterations, full factorial coverage of
    exactly 1, and stratified coverage within a binomial band of `level`."""
    rows = list(csv.DictReader(io.StringIO(text)))
    got = [(r["methodology"], int(r["cost_per_object"])) for r in rows]
    checks = [
        Check("coverage_cost_per_object", got == expected_rows, str(got)),
        Check("coverage_iterations",
              all(int(r["iterations"]) == iterations for r in rows),
              f"{iterations} each"),
    ]
    cov = {r["methodology"]: float(r["coverage"]) for r in rows}
    checks.append(Check(
        "coverage_is_hit_fraction",
        all(abs(c * iterations - round(c * iterations)) < 1e-3 and 0 <= c <= 1
            for c in cov.values()), ""))
    checks.append(Check("coverage_full_factorial_is_1",
                        cov.get("full_factorial") == 1.0,
                        str(cov.get("full_factorial"))))
    band = BINOMIAL_Z * math.sqrt(level * (1 - level) / iterations)
    strat = cov.get("stratified", -1.0)
    checks.append(Check("coverage_stratified_in_binomial_band",
                        abs(strat - level) <= band,
                        f"{strat:.4f} within {level} +/- {band:.4f}"))
    return checks


def self_test_hash(data: bytes, manifest: dict) -> Check:
    """Flip one bit of the first digit in the file; the hash check must fail."""
    pos = next(i for i, ch in enumerate(data) if chr(ch).isdigit())
    tampered = bytearray(data)
    tampered[pos] ^= 1
    tripped = not manifest_hash_check("tampered", bytes(tampered), manifest).ok
    return Check("self_test[flipped_byte_trips_hash]", tripped)


def self_test_ci(report: dict, rows_a: list[dict], rows_b: list[dict],
                 plan: dict, level: float) -> Check:
    """Perturb one aggregate by 1e-3 relative; the recomputed overall
    interval must then disagree with report.json."""
    rows = [dict(r) for r in rows_a]
    target = next(r for r in rows if r.get("error") is None)
    target["aggregate"] *= 1 + 1e-3
    failed = [c.name for c in report_checks(report, rows, rows_b, plan, level)
              if not c.ok]
    return Check("self_test[perturbed_aggregate_trips_ci]",
                 "ci[overall]" in failed, ", ".join(failed))


def self_test_coverage(text: str, expected_rows: list[tuple[str, int]],
                       iterations: int, level: float) -> Check:
    """Lower the full-factorial coverage and raise a cost in the CSV; both
    checks must fail."""
    lines = text.splitlines()
    fields = lines[1].split(",")
    fields[-1] = f"{1 - 1 / iterations:.6f}"
    fields[2] = str(int(fields[2]) + 1)
    lines[1] = ",".join(fields)
    failed = {c.name for c in coverage_checks("\n".join(lines) + "\n",
                                              expected_rows, iterations, level)
              if not c.ok}
    want = {"coverage_full_factorial_is_1", "coverage_cost_per_object"}
    return Check("self_test[tampered_csv_trips_coverage]", want <= failed,
                 ", ".join(sorted(failed)))

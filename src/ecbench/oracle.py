"""Ground-truth machinery: exact population means over enumerable synthetic
spaces and Monte Carlo coverage experiments comparing sampling methodologies.

Each Monte Carlo iteration derives its own plan seed and noise seed from
(master seed, iteration index), so iterations are independent, order-stable,
and reproducible regardless of execution order. Iterations are evaluated in
chunks: the design's index draw runs once per iteration, then each object's
noise for the whole chunk is one model call with per-iteration noise seeds,
and intervals and hits are computed row-wise. Results do not depend on the
chunk size.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

from .design import (
    FactorSplit,
    factorial_2k_indices,
    full_factorial_indices,
    rct_indices,
    stratified_indices,
)
from .errors import PlanError, SpaceError
from .fingerprints import fingerprint
from .model import CompiledModel, SyntheticModel
from .runner import ResultSet
from .space import ConfigSpace
from .stats import mean_ci_from_array, t_quantile, welch_bounds
from .stats import welch_interval  # noqa: F401  (benchmarks/tracing.py patches it here)

ENUMERATION_CAP = 10**6
# Noise values per model call in the Monte Carlo loop (a chunk holds at least
# one iteration). Larger chunks amortise per-call overhead but raise peak
# memory: on the coverage benchmark, 2048 raised it by 10% over 1024 and 4096
# by 63%.
CHUNK_VALUES = 1024


@dataclass(frozen=True)
class PopulationTruth:
    mean: float
    space_fingerprint: str
    model_fingerprint: str
    object_ids: tuple[str, ...]


@dataclass(frozen=True)
class Methodology:
    """A design kind plus its parameters, as one row of a comparison."""

    kind: str  # stratified | factorial2k | full_factorial | rct | spec_point
    params: dict = field(default_factory=dict)

    def describe(self) -> str:
        return ";".join(
            f"{k}={v}" for k, v in sorted(self.params.items())
            if not isinstance(v, (dict, list, FactorSplit))
        )


@dataclass(frozen=True)
class CoverageResult:
    methodology: str
    params: str
    cost_per_object: int
    iterations: int
    hits: int

    @property
    def coverage(self) -> float:
        return self.hits / self.iterations

    def to_row(self) -> dict:
        return {
            "methodology": self.methodology,
            "params": self.params,
            "cost_per_object": self.cost_per_object,
            "iterations": self.iterations,
            "coverage": self.coverage,
        }


def population_mean(model: SyntheticModel, space: ConfigSpace,
                    objects: str | tuple[str, str]) -> PopulationTruth:
    """Exact noiseless mean over every space point: the single object's value,
    or the per-point difference for an object pair."""
    if space.cardinality > ENUMERATION_CAP:
        raise SpaceError(
            f"cardinality {space.cardinality} exceeds enumeration cap"
        )
    compiled = model.compile(space)
    indices = np.arange(space.cardinality, dtype=np.int64)
    if isinstance(objects, str):
        mu = float(compiled.deterministic_values(indices, objects).mean())
        ids: tuple[str, ...] = (objects,)
    else:
        a, b = objects
        da = compiled.deterministic_values(indices, a)
        db = compiled.deterministic_values(indices, b)
        mu = float((da - db).mean())
        ids = (a, b)
    return PopulationTruth(
        mean=mu,
        space_fingerprint=fingerprint(space.to_dict()),
        model_fingerprint=fingerprint(model.to_dict()),
        object_ids=ids,
    )


def _iteration_seeds(master_seed: int, iteration: int) -> tuple[int, int]:
    state = np.random.SeedSequence([master_seed, iteration]).generate_state(4)
    plan_seed = (int(state[0]) << 32) | int(state[1])
    noise_seed = (int(state[2]) << 32) | int(state[3])
    return plan_seed, noise_seed


def _chunks(draw, iterations: int, reps: int, master_seed: int):
    """Consecutive chunks of iterations as (indices for object a, indices for
    object b, noise seeds): two (k, n) index arrays drawn by `draw(plan_seed)`
    and one noise seed per iteration. A chunk holds as many iterations as fit
    in CHUNK_VALUES noise values, and at least one."""
    i = 0
    while i < iterations:
        rows, noise = [], []
        while i < iterations and (
                not rows or (len(rows) + 1) * rows[0][0].size * reps <= CHUNK_VALUES):
            plan_seed, noise_seed = _iteration_seeds(master_seed, i)
            rows.append(draw(plan_seed))
            noise.append(noise_seed)
            i += 1
        yield (np.stack([a for a, _ in rows]), np.stack([b for _, b in rows]),
               np.array(noise, dtype=np.uint64))


def _simulate_aggregates(compiled: CompiledModel, indices: np.ndarray,
                         object_id: str, reps: int, noise_seeds: np.ndarray,
                         policy: str = "mean") -> np.ndarray:
    """Replicate aggregates of a (k, n) index array whose row r is noised by
    noise_seeds[r]; shape (k, n), in one noisy_values call."""
    k, n = indices.shape
    vals = compiled.noisy_values(
        np.repeat(indices.ravel(), reps), object_id,
        np.tile(np.arange(reps, dtype=np.int64), k * n),
        noise_seed=np.repeat(noise_seeds, n * reps),
    ).reshape(k, n, reps)
    if policy == "median":
        return np.median(vals, axis=2)
    return vals.mean(axis=2)


def _default_spec_margin(compiled: CompiledModel, space: ConfigSpace,
                         model: SyntheticModel, objects: tuple[str, str],
                         level: float, master_seed: int,
                         probe_iterations: int = 200) -> float:
    """Margin for scoring the single-point methodology: the average half-width
    of the stratified (n=32 per stratum) paired-difference CI on this model."""

    def draw(plan_seed: int) -> tuple[np.ndarray, np.ndarray]:
        indices = stratified_indices(space, model.stratum_factor, 32, plan_seed)
        return indices, indices

    half_widths: list[float] = []
    t_crit = None
    for idx, _, noise in _chunks(draw, probe_iterations, 3, master_seed ^ 0x5BEC):
        agg_a = _simulate_aggregates(compiled, idx, objects[0], 3, noise)
        agg_b = _simulate_aggregates(compiled, idx, objects[1], 3, noise)
        if t_crit is None:
            t_crit = t_quantile((1.0 + level) / 2.0, idx.shape[1] - 1)
        lo, _, hi = mean_ci_from_array(agg_a - agg_b, level, t_crit=t_crit)
        half_widths.extend(((hi - lo) / 2.0).tolist())
    return statistics.fmean(half_widths)


def coverage_experiment(model: SyntheticModel, space: ConfigSpace,
                        methodology: Methodology, iterations: int, level: float,
                        master_seed: int, objects: tuple[str, str],
                        ) -> CoverageResult:
    """Fraction of iterations whose interval (or single-point margin test)
    contains the exact population difference mean. Iterations run in chunks:
    each draws its plan from its own seed, and each chunk's noise for one
    object is a single model call."""
    truth = population_mean(model, space, objects)
    mu = truth.mean
    compiled = model.compile(space)
    kind = methodology.kind
    p = methodology.params
    reps = p.get("reps", 3)
    policy = "mean"
    t_crit_cache: dict[int, float] = {}

    def ci_hits(agg_a: np.ndarray, agg_b: np.ndarray) -> np.ndarray:
        n = agg_a.shape[1]
        if n not in t_crit_cache:
            t_crit_cache[n] = t_quantile((1.0 + level) / 2.0, n - 1)
        lo, _, hi = mean_ci_from_array(agg_a - agg_b, level,
                                       t_crit=t_crit_cache[n])
        return (lo <= mu) & (mu <= hi)

    def welch_hits(agg_a: np.ndarray, agg_b: np.ndarray) -> np.ndarray:
        lo, _, hi = welch_bounds(agg_a, agg_b, level)
        return (lo <= mu) & (mu <= hi)

    def margin_hits(agg_a: np.ndarray, agg_b: np.ndarray) -> np.ndarray:
        return np.abs((agg_a[:, 0] - agg_b[:, 0]) - mu) <= margin

    hits_of = ci_hits
    if kind == "full_factorial":
        fixed = full_factorial_indices(space)
    elif kind == "rct":
        hits_of = welch_hits
    elif kind == "spec_point":
        fixed = np.array([p["recommended_index"]], dtype=np.int64)
        margin = p.get("margin")
        if margin is None:
            margin = _default_spec_margin(compiled, space, model, objects,
                                          level, master_seed)
        reps, policy, hits_of = 3, "median", margin_hits
    elif kind not in ("stratified", "factorial2k"):
        raise PlanError(f"unknown methodology kind {kind!r}")
    if reps < 1:
        raise PlanError("reps must be >= 1")

    def draw(plan_seed: int) -> tuple[np.ndarray, np.ndarray]:
        if kind == "rct":
            return rct_indices(space, p["per_arm"], plan_seed)
        if kind == "stratified":
            indices = stratified_indices(space, p["stratum_factor"],
                                         p["iterations"], plan_seed)
        elif kind == "factorial2k":
            indices = factorial_2k_indices(space, p["split"], p["defaults"],
                                           plan_seed)
        else:
            indices = fixed
        return indices, indices

    hits = 0
    cost = 0
    for idx_a, idx_b, noise in _chunks(draw, iterations, reps, master_seed):
        agg_a = _simulate_aggregates(compiled, idx_a, objects[0], reps, noise,
                                     policy)
        agg_b = _simulate_aggregates(compiled, idx_b, objects[1], reps, noise,
                                     policy)
        hits += int(np.count_nonzero(hits_of(agg_a, agg_b)))
        cost = idx_a.shape[1]

    return CoverageResult(
        methodology=methodology.kind,
        params=methodology.describe(),
        cost_per_object=cost,
        iterations=iterations,
        hits=hits,
    )


def methodology_comparison(model: SyntheticModel, space: ConfigSpace,
                           methodologies: list[Methodology], iterations: int,
                           level: float, master_seed: int,
                           objects: tuple[str, str]) -> list[CoverageResult]:
    """One coverage row per methodology, in the given order."""
    return [
        coverage_experiment(model, space, m, iterations, level, master_seed,
                            objects)
        for m in methodologies
    ]


def best_level_report(results: ResultSet, space: ConfigSpace,
                      target_factor: str, group_by_factor: str,
                      ) -> list[tuple[str, str]]:
    """Per group level, the target-factor level with the lowest mean aggregate
    time; ties broken by the lowest level index."""
    t_pos = space.factor_position(target_factor)
    g_pos = space.factor_position(group_by_factor)
    target = space.factor(target_factor)
    group = space.factor(group_by_factor)

    sums: dict[tuple[int, int], list[float]] = {}
    for m in results.measurements.values():
        cfg = space.config_at(m.ec_index)
        g = cfg.assignments[g_pos][1]
        t = cfg.assignments[t_pos][1]
        sums.setdefault((g, t), []).append(m.aggregate)

    rows: list[tuple[str, str]] = []
    for g_level, g_label in enumerate(group.levels):
        candidates = {
            t: statistics.fmean(vals)
            for (g, t), vals in sums.items() if g == g_level
        }
        if not candidates:
            continue
        best = min(candidates, key=lambda t: (candidates[t], t))
        rows.append((g_label, target.levels[best]))
    return rows

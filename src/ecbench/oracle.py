"""Ground-truth machinery: exact population means over enumerable synthetic
spaces and Monte Carlo coverage experiments comparing sampling methodologies.

Each Monte Carlo iteration derives its own plan seed and noise seed from
(master seed, iteration index), so iterations are independent, order-stable,
and reproducible regardless of execution order. Iterations are evaluated in
chunks: the design's index draw (`Design.draw` in `design.DESIGNS`) runs once
per iteration, then each object's noise for the whole chunk is one model call
with per-iteration noise seeds, and intervals and hits are computed row-wise.
Results do not depend on the chunk size. The hit rule follows from what the
draw returns: two arms are scored by a Welch interval, a single point by a
margin around the truth, and anything else by the paired-difference CI.

Noise-free values come from one table per object over the enumerated space,
built once per experiment with the model's own element-wise expression, so a
gathered value has the bits a decode would give. The noise call broadcasts
(k, 1) seeds, (k, n) indices and (reps, 1, 1) replicates into a
replicate-major (reps, k, n) array, so the seed and index mixing rounds run
once per (iteration, index) rather than once per replicate, and numpy's inner
loops stay n long.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

from .design import FactorSplit, design_of, stratified_indices
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
# memory: on the coverage benchmark (seed 12, replicate-major layout) peak
# memory reads 0.28 MB at 512, 0.29 MB at 1024, 0.31 MB at 2048 and 0.39 MB
# at 4096, for 8% fewer, 4% more and 8% more iterations per second than at
# 1024 (2-core x86_64 host).
CHUNK_VALUES = 1024
# Iterations of the stratified n = 32 probe that sets a spec_point
# methodology's default margin
SPEC_MARGIN_PROBE_ITERATIONS = 200


@dataclass(frozen=True)
class PopulationTruth:
    mean: float
    space_fingerprint: str
    model_fingerprint: str
    object_ids: tuple[str, ...]


@dataclass(frozen=True)
class Methodology:
    """A design kind plus its parameters, as one row of a comparison."""

    kind: str  # a name or alias in design.DESIGNS, e.g. stratified or rct
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        design_of(self.kind, self.params)

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
    ids = (objects,) if isinstance(objects, str) else tuple(objects)
    _, _, mu = _enumerate(model, space, ids)
    return PopulationTruth(
        mean=mu,
        space_fingerprint=fingerprint(space.to_dict()),
        model_fingerprint=fingerprint(model.to_dict()),
        object_ids=ids,
    )


def _enumerate(model: SyntheticModel, space: ConfigSpace, objects: tuple[str, ...],
               ) -> tuple[CompiledModel, list[np.ndarray], float]:
    """The compiled model, each object's `_value_table`, and the exact mean of
    the one object's values or of the pair's per-point difference."""
    if space.cardinality > ENUMERATION_CAP:
        raise SpaceError(
            f"cardinality {space.cardinality} exceeds enumeration cap"
        )
    compiled = model.compile(space)
    tables = [_value_table(compiled, oid) for oid in objects]
    vals = tables[0] if len(tables) == 1 else tables[0] - tables[1]
    return compiled, tables, float(vals.mean())


def _value_table(compiled: CompiledModel, object_id: str) -> np.ndarray:
    """Noise-free value of every point of an enumerable space, by index."""
    indices = np.arange(compiled.space.cardinality, dtype=np.int64)
    return compiled.deterministic_values(indices, object_id)


def _iteration_seeds(master_seed: int, iteration: int) -> tuple[int, int]:
    state = np.random.SeedSequence([master_seed, iteration]).generate_state(4)
    plan_seed = (int(state[0]) << 32) | int(state[1])
    noise_seed = (int(state[2]) << 32) | int(state[3])
    return plan_seed, noise_seed


def _chunks(draw, iterations: int, reps: int, master_seed: int):
    """Consecutive chunks of iterations as (arms, noise seeds): one (k, n)
    index array per arm of what `draw(plan_seed)` returns (an array, or a
    tuple of two), and one noise seed per iteration. A chunk holds as many
    iterations as fit in CHUNK_VALUES noise values, and at least one."""
    i = 0
    while i < iterations:
        draws, noise, n = [], [], 0
        while i < iterations and (
                not draws or (len(draws) + 1) * n * reps <= CHUNK_VALUES):
            plan_seed, noise_seed = _iteration_seeds(master_seed, i)
            draws.append(draw(plan_seed))
            noise.append(noise_seed)
            i += 1
            n = len(draws[0][0] if isinstance(draws[0], tuple) else draws[0])
        arms = (tuple(map(np.stack, zip(*draws))) if isinstance(draws[0], tuple)
                else (np.stack(draws),))
        seeds = np.array(noise, dtype=np.uint64)
        # dropped before the caller works on the chunk, where it may run the
        # single-point margin probe: held, they would add to its peak memory
        del draws, noise
        yield arms, seeds


def _simulate_aggregates(compiled: CompiledModel, table: np.ndarray,
                         indices: np.ndarray, object_id: str, reps: int,
                         noise_seeds: np.ndarray, policy: str = "mean") -> np.ndarray:
    """Replicate aggregates of a (k, n) index array whose row r is noised by
    noise_seeds[r]; shape (k, n), in one noisy_values call. `table` is the
    object's `_value_table`."""
    vals = compiled.noisy_values(
        indices, object_id, np.arange(reps, dtype=np.int64).reshape(reps, 1, 1),
        noise_seed=noise_seeds[:, None], values=table[indices],
    )
    if policy == "median":
        return np.median(vals, axis=0)
    if reps < 8:
        # numpy adds fewer than 8 terms in order along any axis, so axis 0
        # gives the bits of a contiguous replicate axis; against always
        # taking the path below, on coverage (reps 3, seeds 61-70, 10 pairs,
        # 2-core x86_64 host): items_per_s x1.09 (9/10) and peak_mem_mb
        # 0.384 -> 0.289 (10/10), the length-3 buffered reduction's cost
        return vals.mean(axis=0)
    # 8 or more terms numpy adds pairwise along a contiguous axis but in
    # order along axis 0: replicates innermost keep those bits
    return np.moveaxis(vals, 0, -1).copy().mean(axis=-1)


def _default_spec_margin(compiled: CompiledModel, tables: list[np.ndarray],
                         space: ConfigSpace, model: SyntheticModel,
                         objects: tuple[str, str], level: float,
                         master_seed: int) -> float:
    """Margin for scoring the single-point methodology: the average half-width
    of the stratified (n=32 per stratum) paired-difference CI on this model."""
    half_widths: list[float] = []
    t_crit = None
    for (idx,), noise in _chunks(
            lambda seed: stratified_indices(space, model.stratum_factor, 32,
                                            seed),
            SPEC_MARGIN_PROBE_ITERATIONS, 3, master_seed ^ 0x5BEC):
        agg_a = _simulate_aggregates(compiled, tables[0], idx, objects[0], 3, noise)
        agg_b = _simulate_aggregates(compiled, tables[1], idx, objects[1], 3, noise)
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
    compiled, tables, mu = _enumerate(model, space, objects)
    design = design_of(methodology.kind)
    p = methodology.params
    reps = design.reps or p.get("reps", 3)
    margin = p.get("margin")
    t_crit = None
    hits = 0
    cost = 0
    for arms, noise in _chunks(lambda seed: design.draw(space, p, seed),
                               iterations, reps, master_seed):
        agg_a = _simulate_aggregates(compiled, tables[0], arms[0], objects[0],
                                     reps, noise, design.policy)
        agg_b = _simulate_aggregates(compiled, tables[1], arms[-1], objects[1],
                                     reps, noise, design.policy)
        cost = arms[0].shape[1]
        if len(arms) == 2:  # two independent arms: a Welch interval
            lo, _, hi = welch_bounds(agg_a, agg_b, level)
        elif cost == 1:  # one point: within a margin of the truth
            if margin is None:
                margin = _default_spec_margin(compiled, tables, space, model,
                                              objects, level, master_seed)
            hits += int(np.count_nonzero(
                np.abs((agg_a[:, 0] - agg_b[:, 0]) - mu) <= margin))
            continue
        else:  # the paired-difference CI; every draw has the same size
            if t_crit is None:
                t_crit = t_quantile((1.0 + level) / 2.0, cost - 1)
            lo, _, hi = mean_ci_from_array(agg_a - agg_b, level, t_crit=t_crit)
        hits += int(np.count_nonzero((lo <= mu) & (mu <= hi)))

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
    if iterations < 1:
        raise PlanError("iterations must be >= 1")
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
    m = results.measurements
    levels = space.level_columns(m.indices)
    for g, t, aggregate in zip(levels[g_pos].tolist(), levels[t_pos].tolist(),
                               m.aggregates.tolist()):
        sums.setdefault((g, t), []).append(aggregate)

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

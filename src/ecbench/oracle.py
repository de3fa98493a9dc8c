"""Ground-truth machinery: exact population means over enumerable synthetic
spaces and Monte Carlo coverage experiments comparing sampling methodologies.

Each Monte Carlo iteration derives its own plan seed and noise seed from
(master seed, iteration index), as `np.random.SeedSequence([master seed,
index]).generate_state(4)` gives them, so iterations are independent,
order-stable, and reproducible regardless of execution order.
SeedSequence's hash runs over a block of iterations at once, and then over
their plan seeds, for the words from which `PCG64(plan_seed)` seeds; a
design's draw gets each plan seed as a numpy `ISeedSequence` that hands PCG64
those words. Iterations are evaluated in chunks: the design's index draw
(`Design.draw` in `design.DESIGNS`) runs once per iteration, then each
object's noise for the whole chunk is one model call with per-iteration noise
seeds, and intervals and hits are computed row-wise. Results depend on
neither the chunk size nor the seed block size. The hit rule follows from
what the draw returns: two arms are scored by a Welch interval, a single
point by a margin around the truth, and anything else by the
paired-difference CI.

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
from numpy.random.bit_generator import ISeedSequence

from .design import FactorSplit, design_of, stratified_indices
from .errors import PlanError, SpaceError
from .fingerprints import fingerprint
from .model import CompiledModel, SyntheticModel
from .runner import ResultSet
from .space import ConfigSpace
from .stats import StatsError, mean_ci_from_array, welch_bounds
from .stats import (  # noqa: F401  (benchmarks/tracing.py patches them here)
    t_quantile, welch_interval)

ENUMERATION_CAP = 10**6
# Noise values per model call in the Monte Carlo loop (a chunk holds at least
# one iteration). Larger chunks amortise per-call overhead but raise peak
# memory: on the coverage benchmark (seed 12, three 15 s runs each, the
# in-place noise kernel) peak memory reads 0.281 MB at 512, 1024 and 2048
# and 0.355 MB at 4096, for 12% fewer, 7% more and 5% more iterations per
# second than at 1024 (2-core x86_64 host).
CHUNK_VALUES = 1024
# Iterations of the stratified n = 32 probe that sets a spec_point
# methodology's default margin
SPEC_MARGIN_PROBE_ITERATIONS = 200
# Iterations whose seeds are derived at once; a block's plan seeds are kept
# as one (SEED_BLOCK, 4) array of PCG64 words
SEED_BLOCK = 128

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx); a constant that
# meets an array is a 0-d array, which a ufunc takes without a conversion
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.array(0xCA01F9DD, np.uint32)
_MIX_MULT_R = np.array(0x4973F715, np.uint32)
_XSHIFT = np.array(16, np.uint32)
_MASK32 = 0xFFFFFFFF
_SHIFT32 = np.array(32, np.uint64)


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


def _hash_constants(const: int, mult: int):
    """The constants of numpy SeedSequence's successive hashes: each hash
    xors in its constant, multiplies it by `mult` (mod 2^32) and multiplies
    by the product. They do not depend on the data hashed."""
    while True:
        xor, const = const, const * mult & _MASK32
        yield np.array(xor, np.uint32), np.array(const, np.uint32)


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    value = value ^ xor
    value *= mult
    value ^= value >> _XSHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x
    out -= _MIX_MULT_R * y
    out ^= out >> _XSHIFT
    return out


def _seed_sequence_state(entropy: list[np.ndarray], n_words: int
                         ) -> np.ndarray:
    """Row-wise `np.random.SeedSequence(words).generate_state(n_words)`, as
    a (rows, n_words) uint32 array: a row's words are its entries of the
    uint32 columns `entropy`, in the order in which SeedSequence assembles
    an entropy's 32-bit words. Zero words that pad the entropy to the pool
    size change nothing."""
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(entropy[i] if i < len(entropy) else
                     np.zeros_like(entropy[0]), consts) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    consts = _hash_constants(_INIT_B, _MULT_B)
    state = np.empty((len(entropy[0]), n_words), np.uint32)
    for i in range(n_words):
        state[:, i] = _hashmix(pool[i % _POOL], consts)
    return state


def _pcg64_words(plan_seeds: np.ndarray) -> np.ndarray:
    """Per plan seed, the words `np.random.SeedSequence(plan_seed)
    .generate_state(4, np.uint64)` gives, from which PCG64 seeds: a
    (len(plan_seeds), 4) uint64 array. SeedSequence reads a seed as its
    low word then its high word, one word for a seed below 2^32."""
    low, high = plan_seeds.astype(np.uint32), plan_seeds >> _SHIFT32
    state = _seed_sequence_state([low, high.astype(np.uint32)], 8)
    # pairs of words, low word first, as SeedSequence joins them
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64,
                                                               copy=False)


def _block_seeds(master_seed: int, first: int, count: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The PCG64 words (`_pcg64_words`) of the plan seeds and the noise seeds
    of iterations first to first + count - 1 (below 2^64), as
    `np.random.SeedSequence([master_seed, i]).generate_state(4)` derives
    them: the plan seed from its first two words, the noise seed from the
    last two, each high word first."""
    if master_seed < 0:  # SeedSequence's own error
        raise ValueError("expected non-negative integer")
    master = [master_seed >> s & _MASK32
              for s in range(0, max(master_seed.bit_length(), 1), 32)]
    iterations = np.arange(first, first + count, dtype=np.uint64)
    state = np.empty((count, 4), np.uint32)
    below = min(max(2**32 - first, 0), count)  # one word each, then two
    for rows, width in ((slice(0, below), 1), (slice(below, count), 2)):
        its = iterations[rows]
        if len(its):
            state[rows] = _seed_sequence_state(
                [np.full(len(its), w, np.uint32) for w in master]
                + [its.astype(np.uint32), (its >> _SHIFT32).astype(np.uint32)
                   ][:width], 4)
    plan_hi, plan_lo, noise_hi, noise_lo = state.T.astype(np.uint64)
    return (_pcg64_words(plan_hi << _SHIFT32 | plan_lo),
            noise_hi << _SHIFT32 | noise_lo)


class _PlanSeed(ISeedSequence):
    """A plan seed as PCG64 reads it: the 4 words that
    `np.random.SeedSequence(plan_seed).generate_state(4, np.uint64)` gives,
    precomputed by `_pcg64_words`."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a plan seed holds 4 uint64 words only")
        return self.words


def _iteration_seeds(master_seed: int, iterations: int):
    """Per iteration, in order, its plan seed, a `_PlanSeed`, and its noise
    seed, a numpy uint64, derived SEED_BLOCK iterations at a time."""
    for first in range(0, iterations, SEED_BLOCK):
        plan, noise = _block_seeds(master_seed, first,
                                   min(SEED_BLOCK, iterations - first))
        yield from zip(map(_PlanSeed, plan), noise)


def _chunks(draw, iterations: int, reps: int, master_seed: int):
    """Consecutive chunks of iterations as (arms, noise seeds): a list of one
    (k, n) index array per arm of what `draw(plan_seed)` returns (an array,
    or a tuple of two), and one noise seed per iteration. A plan seed is an
    int or a numpy `ISeedSequence`, here a `_PlanSeed`, which PCG64 takes as
    it takes the int it stands for. A chunk holds as many iterations as fit
    in CHUNK_VALUES noise values, and at least one; each draw is copied into
    the chunk's arrays as it is made, so a chunk's draws are not held one
    array each."""
    stream = _iteration_seeds(master_seed, iterations)
    left = iterations
    while left:
        j, k = 0, 1  # k is set by the chunk's first draw
        while j < k:
            plan_seed, noise_seed = next(stream)
            drawn = draw(plan_seed)
            parts = drawn if isinstance(drawn, tuple) else (drawn,)
            if j == 0:
                n = len(parts[0])
                k = min(left, max(1, CHUNK_VALUES // (n * reps)))
                # a list: CPython resizes a tuple built from a generator
                # instead of taking one from its free list, to which the
                # tuple goes when freed, so one a chunk would pile up there,
                # held memory to tracemalloc
                arms = [np.empty((k, n), part.dtype) for part in parts]
                seeds = np.empty(k, np.uint64)
            for arm, part in zip(arms, parts):
                arm[j] = part
            seeds[j] = noise_seed
            j += 1
        left -= k
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
    for (idx,), noise in _chunks(
            lambda seed: stratified_indices(space, model.stratum_factor, 32,
                                            seed),
            SPEC_MARGIN_PROBE_ITERATIONS, 3, master_seed ^ 0x5BEC):
        agg_a = _simulate_aggregates(compiled, tables[0], idx, objects[0], 3, noise)
        agg_b = _simulate_aggregates(compiled, tables[1], idx, objects[1], 3, noise)
        lo, _, hi = mean_ci_from_array(agg_a - agg_b, level)
        half_widths.extend(((hi - lo) / 2.0).tolist())
    return statistics.fmean(half_widths)


def _check_run(iterations: int, level: float) -> None:
    """Refuse fewer than one iteration, and a level outside (0, 1) or NaN,
    also where no methodology asks for a quantile."""
    if iterations < 1:
        raise PlanError("iterations must be >= 1")
    if not 0 < level < 1:
        raise StatsError("confidence level must be in (0, 1)")


def coverage_experiment(model: SyntheticModel, space: ConfigSpace,
                        methodology: Methodology, iterations: int, level: float,
                        master_seed: int, objects: tuple[str, str],
                        ) -> CoverageResult:
    """Fraction of iterations whose interval (or single-point margin test)
    contains the exact population difference mean. Iterations run in chunks:
    each draws its plan from its own seed, and each chunk's noise for one
    object is a single model call."""
    _check_run(iterations, level)
    compiled, tables, mu = _enumerate(model, space, objects)
    design = design_of(methodology.kind)
    p = methodology.params
    reps = design.reps or p.get("reps", 3)
    margin = p.get("margin")
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
        else:  # the paired-difference CI
            lo, _, hi = mean_ci_from_array(agg_a - agg_b, level)
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
    _check_run(iterations, level)
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

"""Experiment-plan generators for the five sampling methodologies.

All generators are deterministic functions of (space, parameters, seed); the
seeded stream is a PCG64 generator, which produces identical draws on every
platform, so plan files are reproducible byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PlanError
from .fingerprints import fingerprint
from .space import ConfigSpace, Configuration

FULL_FACTORIAL_CAP = 10**6

DESIGN_KINDS = ("stratified", "factorial2k", "full_factorial", "rct_arm", "spec_point")


@dataclass(frozen=True)
class PlanEntry:
    ec_index: int
    stratum: str | None = None


@dataclass(frozen=True)
class SamplePlan:
    design: str
    entries: tuple[PlanEntry, ...]
    reps: int
    seed: int
    space_fingerprint: str
    policy: str = "mean"  # replicate aggregation; spec_point plans use median

    def __post_init__(self) -> None:
        if self.design not in DESIGN_KINDS:
            raise PlanError(f"unknown design kind {self.design!r}")
        if self.reps < 1:
            raise PlanError("reps must be >= 1")
        if self.policy not in ("mean", "median"):
            raise PlanError(f"unknown aggregation policy {self.policy!r}")

    @property
    def fingerprint(self) -> str:
        return fingerprint(self.to_dict())

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "seed": self.seed,
            "reps": self.reps,
            "policy": self.policy,
            "space_fingerprint": self.space_fingerprint,
            "entries": [
                {"index": e.ec_index}
                if e.stratum is None
                else {"index": e.ec_index, "stratum": e.stratum}
                for e in self.entries
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SamplePlan":
        return cls(
            design=doc["design"],
            entries=tuple(
                PlanEntry(ec_index=e["index"], stratum=e.get("stratum"))
                for e in doc["entries"]
            ),
            reps=doc["reps"],
            seed=doc["seed"],
            space_fingerprint=doc["space_fingerprint"],
            policy=doc.get("policy", "mean"),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
        )

    @classmethod
    def load(cls, path: str | Path) -> "SamplePlan":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class FactorSplit:
    """Low/high level-index sets per selected factor, for the 2^kr design."""

    splits: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        for name, low, high in self.splits:
            if not low or not high:
                raise PlanError(f"factor {name!r}: empty low or high set")
            if set(low) & set(high):
                raise PlanError(f"factor {name!r}: low and high sets overlap")

    @property
    def factor_names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.splits)

    @classmethod
    def from_dict(cls, doc: dict) -> "FactorSplit":
        return cls(
            splits=tuple(
                (name, tuple(v["low"]), tuple(v["high"])) for name, v in doc.items()
            )
        )


@dataclass(frozen=True)
class RctAssignment:
    control: SamplePlan
    treatment: SamplePlan


def _check_space_fingerprint(space: ConfigSpace) -> str:
    return fingerprint(space.to_dict())


def _random_index(space: ConfigSpace, rng: np.random.Generator,
                  pinned: dict[str, int] | None = None) -> int:
    """Uniform index over the space: one uniform level draw per factor, so
    arbitrary cardinalities never hit integer-width limits."""
    index = 0
    for f in space.factors:
        m = len(f.levels)
        if pinned is not None and f.name in pinned:
            level = pinned[f.name]
        else:
            level = int(rng.integers(0, m))
        index = index * m + level
    return index


def stratified_sample(space: ConfigSpace, stratum_factor: str, iterations: int,
                      reps: int, seed: int) -> SamplePlan:
    """Per iteration, one uniform draw of every non-stratum factor for each
    stratum level; draws across iterations are independent (duplicates kept)."""
    if iterations < 1:
        raise PlanError("iterations must be >= 1")
    strat = space.factor(stratum_factor)
    rng = np.random.Generator(np.random.PCG64(seed))
    entries: list[PlanEntry] = []
    for _ in range(iterations):
        for s_level, s_label in enumerate(strat.levels):
            idx = _random_index(space, rng, pinned={stratum_factor: s_level})
            entries.append(PlanEntry(ec_index=idx, stratum=s_label))
    return SamplePlan(
        design="stratified",
        entries=tuple(entries),
        reps=reps,
        seed=seed,
        space_fingerprint=_check_space_fingerprint(space),
    )


def factorial_2k(space: ConfigSpace, split: FactorSplit,
                 defaults: dict[str, int], reps: int, seed: int) -> SamplePlan:
    """2^k design: one random representative from each factor's low and high
    sets, all 2^k combinations emitted; unselected factors pinned to defaults."""
    selected = split.factor_names
    if len(selected) > len(space.factors):
        raise PlanError("more selected factors than the space has")
    for name, low, high in split.splits:
        f = space.factor(name)
        for i in low + high:
            if not 0 <= i < len(f.levels):
                raise PlanError(f"factor {name!r}: level index {i} out of range")
    for f in space.factors:
        if f.name not in selected and f.name not in defaults:
            raise PlanError(f"no default level for unselected factor {f.name!r}")

    rng = np.random.Generator(np.random.PCG64(seed))
    reps_levels: dict[str, tuple[int, int]] = {}
    for name, low, high in split.splits:  # draws in split order, part of the stream
        lo = int(rng.choice(np.array(low)))
        hi = int(rng.choice(np.array(high)))
        reps_levels[name] = (lo, hi)

    k = len(selected)
    entries = []
    for combo in range(2**k):
        pinned = dict(defaults)
        for j, name in enumerate(selected):
            bit = (combo >> (k - 1 - j)) & 1
            pinned[name] = reps_levels[name][bit]
        index = 0
        for f in space.factors:
            index = index * len(f.levels) + pinned[f.name]
        entries.append(PlanEntry(ec_index=index))
    return SamplePlan(
        design="factorial2k",
        entries=tuple(entries),
        reps=reps,
        seed=seed,
        space_fingerprint=_check_space_fingerprint(space),
    )


def full_factorial(space: ConfigSpace, reps: int,
                   cap: int = FULL_FACTORIAL_CAP) -> SamplePlan:
    if space.cardinality > cap:
        raise PlanError(
            f"cardinality {space.cardinality} exceeds the full-factorial cap {cap}"
        )
    entries = tuple(PlanEntry(ec_index=i) for i in range(space.cardinality))
    return SamplePlan(
        design="full_factorial",
        entries=entries,
        reps=reps,
        seed=0,
        space_fingerprint=_check_space_fingerprint(space),
    )


def rct_assign(space: ConfigSpace, per_arm: int, reps: int, seed: int) -> RctAssignment:
    """Without-replacement draw of 2*per_arm distinct indices, randomly split
    into equal control and treatment arms."""
    if per_arm < 1:
        raise PlanError("per_arm must be >= 1")
    if 2 * per_arm > space.cardinality:
        raise PlanError(
            f"2*per_arm = {2 * per_arm} exceeds cardinality {space.cardinality}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    drawn: list[int] = []
    seen: set[int] = set()
    while len(drawn) < 2 * per_arm:  # rejection sampling; works at any cardinality
        idx = _random_index(space, rng)
        if idx not in seen:
            seen.add(idx)
            drawn.append(idx)
    perm = rng.permutation(2 * per_arm)
    shuffled = [drawn[i] for i in perm]
    fp = _check_space_fingerprint(space)

    def arm(indices: list[int]) -> SamplePlan:
        return SamplePlan(
            design="rct_arm",
            entries=tuple(PlanEntry(ec_index=i) for i in indices),
            reps=reps,
            seed=seed,
            space_fingerprint=fp,
        )

    return RctAssignment(control=arm(shuffled[:per_arm]),
                         treatment=arm(shuffled[per_arm:]))


def spec_point(space: ConfigSpace, recommended: Configuration,
               stratum_factor: str | None = None) -> SamplePlan:
    """Single-point plan mirroring the vendor-recommended configuration:
    3 runs, median aggregation."""
    index = space.index_of(recommended)  # validates the configuration
    sf = stratum_factor or space.factors[0].name
    label = space.factor(sf).levels[recommended.level_index(sf)]
    return SamplePlan(
        design="spec_point",
        entries=(PlanEntry(ec_index=index, stratum=label),),
        reps=3,
        seed=0,
        space_fingerprint=_check_space_fingerprint(space),
        policy="median",
    )

"""Experiment-plan generators for the five sampling methodologies, and
`DESIGNS`, the one registry of their names, params, index draws and fixed
reps, which plan files, `ecbench plan`, methodology files and the Monte Carlo
oracle all read.

All generators are deterministic functions of (space, parameters, seed); the
seeded stream is a PCG64 generator, which produces identical draws on every
platform, so plan files are reproducible byte-for-byte.

Each random design has one draw path, a function that returns index arrays
(`stratified_indices`, `factorial_2k_indices`, `rct_indices`); the plan
generators wrap it, and the Monte Carlo oracle calls it directly. A stratified
draw, and each rct rejection round, makes one `rng.integers` call over the
radices of every free factor of every index; a 2^k draw makes one call per
low set and one per high set, to pick each representative. The indices are
composed by `ConfigSpace.indices_of`: `ecbench.space` owns their format.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (PlanError, check_objects, check_type, fits_float,
                     read_object)
from .fingerprints import canonical_column, fingerprint, fingerprint_pieces
from .space import ConfigSpace, Configuration, index_column

FULL_FACTORIAL_CAP = 10**6


@dataclass(frozen=True, slots=True)
class PlanEntry:
    ec_index: int
    stratum: str | None = None


_SLICE = 1024  # plan entries per piece of `SamplePlan._json`'s text
_DECODED = object()  # what `SamplePlan.load`'s object hook leaves of an entry
_STRATA = (str, type(None))  # the types of a stratum label


@dataclass(frozen=True, init=False)
class SamplePlan:
    """A plan's settings, and its entries as columns: `indices`, as
    `index_column` gives them, and per entry the position (`codes`) of its
    stratum, a string or None, in `labels`. `entries` is a view of them."""

    design: str
    reps: int
    seed: int
    space_fingerprint: str
    policy: str  # replicate aggregation; spec_point plans use median
    indices: np.ndarray = field(compare=False)
    codes: np.ndarray = field(compare=False)
    labels: tuple[str | None, ...] = field(compare=False)

    def __init__(self, design: str, entries: Sequence[PlanEntry] | None = None,
                 *, reps: int, seed: int, space_fingerprint: str,
                 policy: str = "mean", indices: np.ndarray | None = None,
                 codes: np.ndarray | None = None, labels: tuple = ()) -> None:
        """The columns as another plan holds them or, in their place, the
        `PlanEntry`s of `entries`, which are checked."""
        # frozen: the fields are set through the instance dict
        vars(self).update(design=design, reps=reps, seed=seed, policy=policy,
                          space_fingerprint=space_fingerprint)
        for name, wanted in (("design", str), ("space_fingerprint", str),
                             ("reps", int), ("seed", int)):
            check_type(f"plan {name}", getattr(self, name), wanted, PlanError)
        if self.design not in DESIGNS:
            raise PlanError(f"unknown design kind {self.design!r}")
        if self.reps < 1:
            raise PlanError("reps must be >= 1")
        if self.policy not in ("mean", "median"):
            raise PlanError(f"unknown aggregation policy {self.policy!r}")
        if entries is not None or indices is None:
            indices, codes, labels = _columns(entries or ())
        vars(self).update(indices=indices, codes=codes, labels=labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SamplePlan):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    @functools.cached_property
    def entries(self) -> tuple[PlanEntry, ...]:
        return tuple(map(PlanEntry, self.indices.tolist(), self._strata()))

    def _strata(self) -> list[str | None]:
        return list(map(self.labels.__getitem__, self.codes.tolist()))

    @functools.cached_property
    def fingerprint(self) -> str:
        # hashed once per plan object, a piece at a time, from the text
        # `canonical_json` gives `to_dict()`; the cache sits in the instance
        # dict, which a frozen dataclass leaves writable to cached_property
        return fingerprint_pieces(self._json(indent=False))

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "seed": self.seed,
            "reps": self.reps,
            "policy": self.policy,
            "space_fingerprint": self.space_fingerprint,
            "entries": [
                {"index": index}
                if stratum is None
                else {"index": index, "stratum": stratum}
                for index, stratum in zip(self.indices.tolist(),
                                          self._strata())
            ],
        }

    def _json(self, indent: bool) -> Iterator[str]:
        """The text of `canonical_json(self.to_dict())`, or with `indent` of
        `json.dumps(self.to_dict(), sort_keys=True, indent=2)`, in pieces of
        at most `_SLICE` entries, built from the columns: each piece's
        indices in one encoder call, each stratum label once."""
        design, policy, reps, seed, space = canonical_column(
            [self.design, self.policy, self.reps, self.seed,
             self.space_fingerprint])
        nl, pad, sep = ("\n", "  ", ": ") if indent else ("", "", ":")
        i1, i2, i3 = nl + pad, nl + pad * 2, nl + pad * 3
        ends = [("" if label is None else f',{i3}"stratum"{sep}{text}')
                + i2 + "}" for label, text in zip(
                    self.labels, canonical_column(list(self.labels)))]
        start = "{" + i3 + '"index"' + sep
        yield "{" + i1 + f'"design"{sep}{design},{i1}"entries"{sep}'
        opening = "[" + i2  # before the first entry, then between slices
        for first in range(0, len(self.indices), _SLICE):
            part = slice(first, first + _SLICE)
            yield opening + ("," + i2).join([
                start + index + ends[code] for index, code in zip(
                    canonical_column(self.indices[part].tolist()),
                    self.codes[part].tolist())])
            opening = "," + i2
        yield (i1 + "]" if len(self.indices) else "[]") + "".join(
            f',{i1}"{key}"{sep}{text}' for key, text in (
                ("policy", policy), ("reps", reps), ("seed", seed),
                ("space_fingerprint", space))) + nl + "}"

    @classmethod
    def from_dict(cls, doc: dict, **columns) -> "SamplePlan":
        """The plan of `doc`; its entries are read from doc["entries"], or
        given as `columns`, as `load` decodes them."""
        if not columns:
            check_objects("plan entries", doc["entries"], PlanError)
        return cls(
            design=doc["design"],
            entries=None if columns else tuple(
                PlanEntry(e["index"], e.get("stratum"))
                for e in doc["entries"]),
            reps=doc["reps"],
            seed=doc["seed"],
            space_fingerprint=doc["space_fingerprint"],
            policy=doc.get("policy", "mean"),
            **columns,
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text("".join(self._json(indent=True)) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "SamplePlan":
        """The plan in the file at `path`, its entry objects decoded straight
        to columns (no dict or `PlanEntry` kept per entry): each index into a
        list, and each stratum, a string or null, into a code, with one str
        per distinct label. A file in which an object with an "index" member
        is not such an entry, or an index is not a non-negative integer, is
        read again as plain JSON, so that `from_dict` sees, and its errors
        name, what `json.loads` gives."""
        indices: list = []
        codes: list[int] = []
        labels: dict[str | None, int] = {}

        def hook(obj: dict):
            stratum = obj.get("stratum")
            if "index" not in obj or type(stratum) not in _STRATA:
                return obj
            indices.append(obj["index"])
            codes.append(labels.setdefault(stratum, len(labels)))
            return _DECODED

        doc = json.loads(Path(path).read_text(), object_hook=hook)
        entries = doc.get("entries") if type(doc) is dict else None
        if (type(entries) is list
                and entries.count(_DECODED) == len(entries) == len(indices)
                and {int}.issuperset(map(type, indices))):
            column = index_column(indices)
            if not (column < 0).any():
                return cls.from_dict(doc, indices=column, codes=np.array(
                    codes, dtype=np.intp), labels=tuple(labels))
        return cls.from_dict(read_object(path, PlanError))


def _columns(entries: Sequence[PlanEntry]
             ) -> tuple[np.ndarray, np.ndarray, tuple[str | None, ...]]:
    """`SamplePlan`'s columns of `entries`, after naming the first entry
    whose index is not a non-negative int or whose stratum is not a string
    or None; labels are coded in order of first use."""
    for n, e in enumerate(entries):
        if type(e.ec_index) is not int or e.ec_index < 0:
            raise PlanError(f"plan entry {n}: index must be a non-negative "
                            f"integer, not {e.ec_index!r}")
        if type(e.stratum) not in _STRATA:
            raise PlanError(f"plan entry {n}: stratum must be a string or "
                            f"null, not {e.stratum!r}")
    codes: dict[str | None, int] = {}
    column = [codes.setdefault(e.stratum, len(codes)) for e in entries]
    return (index_column([e.ec_index for e in entries]),
            np.array(column, dtype=np.intp), tuple(codes))


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


def space_fingerprint(space: ConfigSpace) -> str:
    """The space's fingerprint, hashed once per space object, through this
    module's `fingerprint` (the name the benchmark tracer counts)."""
    if space._fingerprint is None:
        space._fingerprint = fingerprint(space.to_dict())
    return space._fingerprint


def _random_indices(space: ConfigSpace, rng: np.random.Generator, count: int,
                    pinned: dict | None = None) -> np.ndarray:
    """`count` uniform indices from one draw: a level for every free factor of
    every index, index-major then factor order. PCG64 gives the same stream
    for an array of bounds as for one bound at a time, so this equals a
    per-factor scalar loop. `pinned` maps a factor name to a level index, or
    to one level index per draw."""
    pinned = pinned or {}
    free = [len(f.levels) for f in space.factors if f.name not in pinned]
    draws = iter(rng.integers(0, free, size=(count, len(free))).T if free else ())
    return space.indices_of([pinned[f.name] if f.name in pinned
                             else next(draws) for f in space.factors])


def _plan(design: str, indices: np.ndarray, reps: int, seed: int, fp: str,
          labels: tuple = (None,), codes: np.ndarray | None = None,
          policy: str = "mean") -> SamplePlan:
    """A plan of one entry per index, entry n labelled `labels[codes[n]]`,
    or each `labels[0]` without `codes`."""
    return SamplePlan(
        design=design, reps=reps, seed=seed, space_fingerprint=fp,
        policy=policy, indices=index_column(indices.tolist()), labels=labels,
        codes=np.zeros(len(indices), np.intp) if codes is None else codes)


def stratified_indices(space: ConfigSpace, stratum_factor: str,
                       iterations: int, seed: int) -> np.ndarray:
    """Per iteration, one uniform draw of every non-stratum factor for each
    stratum level, iteration-major; draws across iterations are independent
    (duplicates kept)."""
    if iterations < 1:
        raise PlanError("iterations must be >= 1")
    strata = len(space.factor(stratum_factor).levels)
    rng = np.random.Generator(np.random.PCG64(seed))
    return _random_indices(
        space, rng, iterations * strata,
        pinned={stratum_factor: np.arange(iterations * strata) % strata},
    )


def stratified_sample(space: ConfigSpace, stratum_factor: str, iterations: int,
                      reps: int, seed: int) -> SamplePlan:
    indices = stratified_indices(space, stratum_factor, iterations, seed)
    labels = space.factor(stratum_factor).levels
    return _plan("stratified", indices, reps, seed, space_fingerprint(space),
                 labels, np.arange(len(indices)) % len(labels))


def factorial_2k_indices(space: ConfigSpace, split: FactorSplit,
                         defaults: dict[str, int], seed: int) -> np.ndarray:
    """2^k design: one random representative from each factor's low and high
    sets, all 2^k combinations in binary order (first selected factor is the
    most significant bit); unselected factors pinned to defaults."""
    selected = split.factor_names
    for name in defaults:
        space.factor(name)  # refuses a default for a factor the space lacks
    if len(selected) > len(space.factors):
        raise PlanError("more selected factors than the space has")
    for name, low, high in split.splits:
        f = space.factor(name)
        for i in low + high:
            if not 0 <= i < len(f.levels):
                raise PlanError(f"factor {name!r}: level index {i} out of range")
    for f in space.factors:
        if f.name in selected:
            continue
        if f.name not in defaults:
            raise PlanError(f"no default level for unselected factor {f.name!r}")
        level = defaults[f.name]
        check_type(f"factor {f.name!r}: default level index", level,
                   numbers.Integral, PlanError)
        if not 0 <= level < len(f.levels):
            raise PlanError(f"factor {f.name!r}: default level index {level} "
                            "out of range")

    rng = np.random.Generator(np.random.PCG64(seed))
    reps_levels: dict[str, tuple[int, int]] = {}
    for name, low, high in split.splits:  # draws in split order, part of the stream
        # the same draw as rng.choice(np.array(low)), without building an array
        lo = low[int(rng.integers(0, len(low)))]
        hi = high[int(rng.integers(0, len(high)))]
        reps_levels[name] = (lo, hi)

    k = len(selected)
    combos = np.arange(2**k)
    levels = []
    for f in space.factors:
        if f.name in reps_levels:
            lo, hi = reps_levels[f.name]
            bit = (combos >> (k - 1 - selected.index(f.name))) & 1
            levels.append(np.where(bit == 1, hi, lo))
        else:
            levels.append(np.full(2**k, defaults[f.name]))
    return space.indices_of(levels)


def factorial_2k(space: ConfigSpace, split: FactorSplit,
                 defaults: dict[str, int], reps: int, seed: int) -> SamplePlan:
    return _plan("factorial2k", factorial_2k_indices(space, split, defaults, seed),
                 reps, seed, space_fingerprint(space))


def full_factorial_indices(space: ConfigSpace) -> np.ndarray:
    if space.cardinality > FULL_FACTORIAL_CAP:
        raise PlanError(f"cardinality {space.cardinality} exceeds the "
                        f"full-factorial cap {FULL_FACTORIAL_CAP}")
    return np.arange(space.cardinality, dtype=np.int64)


def full_factorial(space: ConfigSpace, reps: int) -> SamplePlan:
    return _plan("full_factorial", full_factorial_indices(space), reps, 0,
                 space_fingerprint(space))


def rct_indices(space: ConfigSpace, per_arm: int,
                seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Without-replacement draw of 2*per_arm distinct indices, randomly split
    into equal (control, treatment) arms."""
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
        # exactly the missing count: the stream stops where one-at-a-time would
        for idx in _random_indices(space, rng, 2 * per_arm - len(drawn)).tolist():
            if idx not in seen:
                seen.add(idx)
                drawn.append(idx)
    shuffled = np.array(drawn, dtype=space.index_dtype)[
        rng.permutation(2 * per_arm)]
    return shuffled[:per_arm], shuffled[per_arm:]


def rct_assign(space: ConfigSpace, per_arm: int, reps: int, seed: int) -> RctAssignment:
    control, treatment = rct_indices(space, per_arm, seed)
    fp = space_fingerprint(space)
    return RctAssignment(control=_plan("rct_arm", control, reps, seed, fp),
                         treatment=_plan("rct_arm", treatment, reps, seed, fp))


def spec_point(space: ConfigSpace, recommended: Configuration,
               stratum_factor: str | None = None) -> SamplePlan:
    """Single-point plan mirroring the vendor-recommended configuration, with
    the reps and policy the design fixes (3 runs, median aggregation)."""
    index = space.index_of(recommended)  # validates the configuration
    sf = stratum_factor or space.factors[0].name
    label = space.factor(sf).levels[recommended.level_index(sf)]
    design = DESIGNS["spec_point"]
    return _plan(design.name, index_column([index]), design.reps, 0,
                 space_fingerprint(space), (label,), policy=design.policy)


@dataclass(frozen=True)
class Design:
    """One sampling design: its plan-file `name`, the `alias` that `ecbench
    plan` or a methodology file may use instead, the methodology params it
    reads, and `draw(space, params, seed)`, which returns the indices of one
    plan or a tuple of its two arms. `reps` (and `policy`) are set where the
    design fixes them; otherwise param `reps` sets the reps."""

    name: str
    alias: str | None
    required: tuple[str, ...]
    optional: tuple[str, ...]
    draw: Callable[[ConfigSpace, dict, int], np.ndarray | tuple]
    reps: int | None = None
    policy: str = "mean"


DESIGNS = {d.name: d for d in (
    Design("stratified", None, ("stratum_factor", "iterations"), ("reps",),
           lambda space, p, seed: stratified_indices(
               space, p["stratum_factor"], p["iterations"], seed)),
    Design("factorial2k", None, ("split", "defaults"), ("reps",),
           lambda space, p, seed: factorial_2k_indices(
               space, p["split"], p["defaults"], seed)),
    Design("full_factorial", "full-factorial", (), ("reps",),
           lambda space, p, seed: full_factorial_indices(space)),
    Design("rct_arm", "rct", ("per_arm",), ("reps",),
           lambda space, p, seed: rct_indices(space, p["per_arm"], seed)),
    Design("spec_point", "spec-point", ("recommended_index",), ("margin",),
           lambda space, p, seed: space.check_indices(
               index_column([p["recommended_index"]])),
           reps=3, policy="median"),
)}


# the methodology params of a fixed type; bools are not integers or
# numbers here
PARAM_TYPES = {"iterations": numbers.Integral, "per_arm": numbers.Integral,
               "reps": numbers.Integral, "recommended_index": numbers.Integral,
               "stratum_factor": str, "margin": numbers.Real}


def design_of(kind: str, params: dict | None = None) -> Design:
    """The design whose name or alias is `kind`. With `params`, first check
    them as a methodology's: each required one given, none the design does
    not read, each of its `PARAM_TYPES` type, reps >= 1 and a finite
    margin >= 0."""
    for design in DESIGNS.values():
        if kind in (design.name, design.alias):
            break
    else:
        raise PlanError(f"unknown design kind {kind!r}")
    if params is not None:
        missing = [k for k in design.required if k not in params]
        unused = sorted(params.keys() - {*design.required, *design.optional})
        for what, names in (("missing", missing), ("unused", unused)):
            if names:
                raise PlanError(f"design {kind!r}: {what} param(s) "
                                + ", ".join(map(repr, names)))
        for name, value in params.items():
            if name in PARAM_TYPES:
                check_type(f"design {kind!r}: param {name!r}", value,
                           PARAM_TYPES[name], PlanError)
        if params.get("reps", 1) < 1:
            raise PlanError("reps must be >= 1")
        margin = params.get("margin", 0.0)
        if not (fits_float(margin) and math.isfinite(margin) and margin >= 0):
            raise PlanError(f"design {kind!r}: param 'margin' must be a "
                            f"finite number >= 0, not {margin!r}")
    return design

"""Configuration spaces as lazy cartesian products of named factors.

A space is never materialized: points are addressed by a mixed-radix index
(declared factor order, last factor varies fastest), so billion-scale spaces
cost nothing beyond their factor definitions.

This module alone knows the index format: `ConfigSpace` decodes, encodes
and range-checks indices, one at a time or as arrays, which hold int64 up to
2^63 - 1 points and Python ints beyond (`index_dtype`, `index_column`).
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import SpaceError, check_objects, check_type, read_object
from .fingerprints import indented_json

MAX_CARDINALITY = 2**128 - 1
INT64_MAX = 2**63 - 1


def _has_duplicates(labels: tuple[str, ...]) -> bool:
    """`len(set(labels)) != len(labels)`, holding one int64 per label:
    strictly increasing labels hold none, in one pass of comparisons; other
    labels' hashes are sorted, and the set is built only when two of them
    are equal, for a duplicate or a hash collision."""
    if all(map(operator.lt, labels, islice(labels, 1, None))):
        return False
    hashes = np.fromiter(map(hash, labels), dtype=np.int64, count=len(labels))
    hashes.sort()
    return bool((hashes[1:] == hashes[:-1]).any()) and len(
        set(labels)) != len(labels)


@dataclass(frozen=True)
class Factor:
    """One indispensable component: a name, its ordered levels, and optional
    real-world usage weights (used only by top-N restriction)."""

    name: str
    levels: tuple[str, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        check_type("factor name", self.name, str, SpaceError)
        if not self.name:
            raise SpaceError("factor name must be non-empty")
        if not self.levels:
            raise SpaceError(f"factor {self.name!r} has an empty level list")
        try:
            "".join(self.levels)  # a scan in C that every label is a str
        except TypeError:
            for label in self.levels:
                check_type(f"factor {self.name!r}: level label", label, str,
                           SpaceError)
        if _has_duplicates(self.levels):
            raise SpaceError(f"factor {self.name!r} has duplicate level labels")
        if self.weights is not None:
            if len(self.weights) != len(self.levels):
                raise SpaceError(
                    f"factor {self.name!r}: {len(self.weights)} weights for "
                    f"{len(self.levels)} levels"
                )
            what = f"factor {self.name!r}: weight"
            for w in self.weights:
                check_type(what, w, numbers.Real, SpaceError)
            if any(w < 0 for w in self.weights):
                raise SpaceError(f"factor {self.name!r} has a negative weight")
            if sum(self.weights) <= 0:
                raise SpaceError(f"factor {self.name!r} weights sum to zero")


@dataclass(frozen=True)
class Configuration:
    """One point of a space: (factor name, level index) per factor, in factor
    order, plus its mixed-radix index within the owning space."""

    assignments: tuple[tuple[str, int], ...]
    index: int

    def level_index(self, factor_name: str) -> int:
        for name, idx in self.assignments:
            if name == factor_name:
                return idx
        raise SpaceError(f"no assignment for factor {factor_name!r}")


@dataclass(frozen=True)
class ObjectConfig:
    """One configuration of an evaluated object (e.g. a CPU with turbo on)."""

    object_id: str
    settings: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        check_type("object id", self.object_id, str, SpaceError)
        if not self.object_id:
            raise SpaceError("object id must be non-empty")

    @classmethod
    def load(cls, path: str | Path) -> "ObjectConfig":
        doc = read_object(path, SpaceError)
        settings = doc.get("settings", {})
        check_type("object settings", settings, dict, SpaceError)
        return cls(doc["object_id"], tuple(settings.items()))


class ConfigSpace:
    """Cartesian product of factors with lazy index arithmetic."""

    def __init__(self, factors: tuple[Factor, ...]):
        names = [f.name for f in factors]
        if len(set(names)) != len(names):
            raise SpaceError("duplicate factor names")
        card = 1
        for f in factors:
            card *= len(f.levels)
            if card > MAX_CARDINALITY:
                raise SpaceError("cardinality exceeds 2^128 - 1")
        self.factors = tuple(factors)
        self.cardinality = card
        self.index_dtype = np.int64 if card <= INT64_MAX else object
        self._by_name = {f.name: f for f in self.factors}
        self._fingerprint: str | None = None  # design.space_fingerprint's cache

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConfigSpace) and self.factors == other.factors

    def __repr__(self) -> str:
        shape = "x".join(str(len(f.levels)) for f in self.factors)
        return f"ConfigSpace({shape}, cardinality={self.cardinality})"

    def factor(self, name: str) -> Factor:
        try:
            return self._by_name[name]
        except KeyError:
            raise SpaceError(f"unknown factor {name!r}") from None

    def factor_position(self, name: str) -> int:
        for i, f in enumerate(self.factors):
            if f.name == name:
                return i
        raise SpaceError(f"unknown factor {name!r}")

    def config_at(self, index: int) -> Configuration:
        """Decode a mixed-radix index; the last factor varies fastest."""
        levels = self.level_columns(index_column([index]))[:, 0].tolist()
        return Configuration(assignments=tuple(zip(self._by_name, levels)),
                             index=index)

    def check_indices(self, indices) -> np.ndarray:
        """`indices` as an array, after a range check of each: the first (in
        C order) outside the space raises a SpaceError naming it."""
        idx = np.asarray(indices)
        bad = (idx < 0) | (idx >= self.cardinality)
        if bad.any():
            raise SpaceError(f"index {idx.flat[np.argmax(bad)]} out of range "
                             f"for cardinality {self.cardinality}")
        return idx

    def level_columns(self, indices) -> np.ndarray:
        """The levels of each index, after `check_indices`: the int64 level of
        each factor at each index, shape (n_factors, *indices.shape)."""
        rem = self.check_indices(indices).astype(self.index_dtype)
        out = np.empty((len(self.factors),) + rem.shape, dtype=np.int64)
        for pos, f in reversed(list(enumerate(self.factors))):
            out[pos] = rem % len(f.levels)
            rem //= len(f.levels)
        return out

    def index_of(self, config: Configuration) -> int:
        """Inverse of config_at (ignores the config's own index field)."""
        if len(config.assignments) != len(self.factors):
            raise SpaceError(
                f"configuration has {len(config.assignments)} assignments, "
                f"space has {len(self.factors)} factors"
            )
        index = 0
        for f, (name, level) in zip(self.factors, config.assignments):
            if name != f.name:
                raise SpaceError(f"unknown or misordered factor {name!r}")
            if not 0 <= level < len(f.levels):
                raise SpaceError(
                    f"level index {level} out of range for factor {name!r}"
                )
            index = index * len(f.levels) + level
        return index

    def indices_of(self, levels) -> np.ndarray:
        """Vectorised `index_of`: the index of each row of per-factor level
        index arrays (one per factor, in factor order, broadcast against
        each other), as `index_dtype`. The levels are not range-checked."""
        index = np.zeros((), dtype=self.index_dtype)
        for f, level in zip(self.factors, levels):
            level = np.asarray(level).astype(self.index_dtype, copy=False)
            index = index * len(f.levels) + level
        return index

    def config_from_labels(self, labels: dict[str, str]) -> Configuration:
        """Build a configuration from {factor name: level label}, one for
        each factor of the space and none for another."""
        for name in labels:
            self.factor(name)  # refuses a factor the space lacks
        assignments = []
        for f in self.factors:
            if f.name not in labels:
                raise SpaceError(f"missing level for factor {f.name!r}")
            label = labels[f.name]
            try:
                assignments.append((f.name, f.levels.index(label)))
            except ValueError:
                raise SpaceError(
                    f"unknown level {label!r} for factor {f.name!r}"
                ) from None
        cfg = Configuration(assignments=tuple(assignments), index=0)
        return Configuration(assignments=cfg.assignments, index=self.index_of(cfg))

    def labels_of(self, config: Configuration) -> dict[str, str]:
        return {
            name: self.factor(name).levels[level]
            for name, level in config.assignments
        }

    def restrict_top_n(self, coverage: float) -> "ConfigSpace":
        """Keep, per factor, the smallest prefix of levels (by descending
        weight, ties by original order) whose normalized cumulative weight
        reaches `coverage`."""
        if not 0 < coverage <= 1:
            raise SpaceError("coverage must be in (0, 1]")
        restricted = []
        for f in self.factors:
            if f.weights is None:
                raise SpaceError(f"factor {f.name!r} has no weights")
            total = sum(f.weights)
            order = sorted(range(len(f.levels)), key=lambda i: (-f.weights[i], i))
            keep: list[int] = []
            cum = 0.0
            for i in order:
                keep.append(i)
                cum += f.weights[i] / total
                if cum >= coverage - 1e-12:
                    break
            keep.sort()  # preserve original level order in the restricted factor
            restricted.append(
                Factor(
                    name=f.name,
                    levels=tuple(f.levels[i] for i in keep),
                    weights=tuple(f.weights[i] for i in keep),
                )
            )
        return ConfigSpace(tuple(restricted))

    def to_dict(self) -> dict:
        doc: dict = {"factors": []}
        for f in self.factors:
            entry: dict = {"name": f.name, "levels": list(f.levels)}
            if f.weights is not None:
                entry["weights"] = list(f.weights)
            doc["factors"].append(entry)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ConfigSpace":
        factors = []
        check_objects("space factors", doc["factors"], SpaceError)
        for entry in doc["factors"]:
            name, levels = entry["name"], entry["levels"]
            for what, value in (("levels", levels),
                                ("weights", entry.get("weights", []))):
                if type(value) is not list:
                    raise SpaceError(f"factor {name!r}: {what} must be a list, "
                                     f"not {value!r}")
            factors.append(
                Factor(
                    name=name,
                    levels=tuple(levels),
                    weights=tuple(entry["weights"]) if "weights" in entry else None,
                )
            )
        return cls(tuple(factors))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(indented_json(self.to_dict()) + "\n",
                              encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ConfigSpace":
        return cls.from_dict(read_object(path, SpaceError))


def index_column(indices: list[int]) -> np.ndarray:
    """The non-negative int indices as int64, or, when one is 2^63 or more,
    as an object array of the values themselves."""
    try:
        return np.array(indices, dtype=np.int64)
    except OverflowError:
        return np.fromiter(indices, dtype=object, count=len(indices))


def build_space(factors: list[Factor] | tuple[Factor, ...]) -> ConfigSpace:
    return ConfigSpace(tuple(factors))


"""Synthetic performance models: a deterministic structure plus seeded noise.

The noise stream is counter-based (splitmix64 mixing + Box-Muller), so each
replicate's perturbation is a pure function of (noise seed, ec index, object
id, replicate ordinal). That makes measurements bit-reproducible across runs
and platforms, and lets the Monte Carlo oracle evaluate whole plans as single
vectorized numpy expressions. Seeds, indices and replicate ordinals broadcast
against each other, and every step is element-wise, so a value does not depend
on the shape of the call that made it: the oracle passes (k, 1) seeds, (k, n)
indices and (reps, 1, 1) replicates, the runner (n, 1) indices and (reps,)
replicates, and each gets the bits of the flat one-value-per-element call.
"""

from __future__ import annotations

import functools
import hashlib
import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SpaceError, check_type, read_object
from .space import ConfigSpace, Configuration, ObjectConfig

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

MIN_DURATION = 1e-9
NOISE_CLIP_SIGMA = 6.0
MAX_CARDINALITY = 2**63 - 1


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array; full avalanche on 64-bit
    inputs. Array arithmetic wraps modulo 2^64 without warnings."""
    z = x + _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


@functools.lru_cache(maxsize=256)
def _object_key(object_id: str) -> np.uint64:
    digest = hashlib.sha256(object_id.encode("utf-8")).digest()
    return np.uint64(int.from_bytes(digest[:8], "little"))


def counter_normal(seed: int | np.ndarray, ec_index: np.ndarray, object_id: str,
                   replicate: np.ndarray) -> np.ndarray:
    """Standard-normal draws addressed by (seed, ec index, object, replicate),
    truncated at +/- NOISE_CLIP_SIGMA. `seed` is one noise seed (wrapped into
    64 bits; it counts as shape (1,)) or a uint64 array of seeds. Seeds,
    indices and replicates broadcast, and the result has their broadcast
    shape. Each mixing round runs at the broadcast shape of the inputs it has
    used so far: seed, then seed x index (also the object round), then x
    replicate, so inputs that vary along fewer axes are mixed only once."""
    if np.ndim(seed) == 0:
        seeds = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    else:
        seeds = np.asarray(seed, dtype=np.uint64)
    h = _mix64(seeds)
    h = _mix64(h ^ np.asarray(ec_index, dtype=np.uint64))
    h = _mix64(h ^ _object_key(object_id))
    h = _mix64(h ^ np.asarray(replicate, dtype=np.uint64))
    u1 = (_mix64(h) >> np.uint64(11)).astype(np.float64)
    u1 += 0.5
    u1 *= 2.0**-53
    h ^= _GOLDEN
    u2 = (_mix64(h) >> np.uint64(11)).astype(np.float64)
    u2 += 0.5
    u2 *= 2.0**-53
    # z = sqrt(-2 ln u1) cos(2 pi u2), evaluated in place
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return np.clip(u1, -NOISE_CLIP_SIGMA, NOISE_CLIP_SIGMA, out=u1)


@dataclass(frozen=True)
class Interaction:
    factor_a: str
    factor_b: str
    table: tuple[tuple[str, str, float], ...]  # (level label a, level label b, seconds)


@dataclass(frozen=True)
class SyntheticModel:
    """Additive performance surface: per-stratum base + per-factor effects
    + optional pairwise interactions + per-object offset + Gaussian noise.

    `object_effects` adds object-specific per-factor terms on top of the
    shared tables; without them the difference between two objects would be
    constant over the whole space and sampling designs could never disagree.
    """

    stratum_factor: str
    base: tuple[tuple[str, float], ...]  # (stratum level label, seconds)
    effects: tuple[tuple[str, tuple[tuple[str, float], ...]], ...] = ()
    interactions: tuple[Interaction, ...] = ()
    object_offsets: tuple[tuple[str, float], ...] = ()
    object_effects: tuple[
        tuple[str, tuple[tuple[str, tuple[tuple[str, float], ...]], ...]], ...
    ] = ()
    sigma: float = 0.0
    noise_seed: int = 0

    def __post_init__(self) -> None:
        tables = [("base", self.base), ("object offset", self.object_offsets),
                  *((f"effect {f!r}", tab) for f, tab in self.effects),
                  *((f"object {oid!r} effect {f!r}", tab)
                    for oid, eff in self.object_effects for f, tab in eff),
                  *((f"interaction {it.factor_a!r} x {it.factor_b!r}",
                     [((a, b), v) for a, b, v in it.table])
                    for it in self.interactions)]
        for what, table in tables:
            for label, value in table:
                if type(value) is not float:  # a float needs no message built
                    check_type(f"model {what} {label!r}", value, numbers.Real,
                               SpaceError)
        check_type("noise sigma", self.sigma, numbers.Real, SpaceError)
        check_type("noise seed", self.noise_seed, numbers.Integral, SpaceError)
        if not self.sigma >= 0:  # nor is NaN
            raise SpaceError("noise sigma must be non-negative")

    def offset_of(self, object_id: str) -> float:
        for oid, off in self.object_offsets:
            if oid == object_id:
                return off
        return 0.0

    def compile(self, space: ConfigSpace) -> "CompiledModel":
        return CompiledModel(self, space)

    def to_dict(self) -> dict:
        return {
            "stratum_factor": self.stratum_factor,
            "base": {k: v for k, v in self.base},
            "effects": {f: {k: v for k, v in tab} for f, tab in self.effects},
            "interactions": [
                {
                    "factors": [it.factor_a, it.factor_b],
                    "table": [[a, b, v] for a, b, v in it.table],
                }
                for it in self.interactions
            ],
            "object_offsets": {k: v for k, v in self.object_offsets},
            "object_effects": {
                oid: {f: {k: v for k, v in tab} for f, tab in eff}
                for oid, eff in self.object_effects
            },
            "sigma": self.sigma,
            "noise_seed": self.noise_seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SyntheticModel":
        return cls(
            stratum_factor=doc["stratum_factor"],
            base=tuple(doc["base"].items()),
            effects=tuple(
                (f, tuple(tab.items())) for f, tab in doc.get("effects", {}).items()
            ),
            interactions=tuple(
                Interaction(
                    factor_a=it["factors"][0],
                    factor_b=it["factors"][1],
                    table=tuple((a, b, v) for a, b, v in it["table"]),
                )
                for it in doc.get("interactions", [])
            ),
            object_offsets=tuple(doc.get("object_offsets", {}).items()),
            object_effects=tuple(
                (oid, tuple((f, tuple(tab.items())) for f, tab in eff.items()))
                for oid, eff in doc.get("object_effects", {}).items()
            ),
            sigma=doc.get("sigma", 0.0),
            noise_seed=doc.get("noise_seed", 0),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "SyntheticModel":
        return cls.from_dict(read_object(path, SpaceError))


def _level_vectors(space: ConfigSpace, tables, what: str,
                   sparse: bool) -> list[tuple[int, np.ndarray]]:
    """(factor position, value per level index) of each (factor, ((level
    label, seconds), ...)) table. A label the factor lacks is refused; so is
    a level the table lacks, unless `sparse`, where it gets 0.0."""
    vectors = []
    for fname, table in tables:
        f = space.factor(fname)
        tmap = dict(table)
        for lab in tmap:
            if lab not in f.levels:
                raise SpaceError(f"{what} references unknown level {lab!r} "
                                 f"of factor {fname!r}")
        missing = [lab for lab in f.levels if lab not in tmap]
        if missing and not sparse:
            raise SpaceError(f"{what} table for factor {fname!r} misses "
                             f"level {missing[0]!r}")
        vectors.append((space.factor_position(fname), np.array(
            [tmap.get(lab, 0.0) for lab in f.levels], dtype=np.float64)))
    return vectors


class CompiledModel:
    """Model bound to a space: effect tables turned into per-level-index
    numpy vectors for vectorized evaluation over arrays of ec indices."""

    def __init__(self, model: SyntheticModel, space: ConfigSpace):
        # indices are decoded and keyed into the noise stream as 64-bit ints
        if space.cardinality > MAX_CARDINALITY:
            raise SpaceError(
                f"cardinality {space.cardinality} exceeds the synthetic "
                f"model limit of 2^63 - 1 points"
            )
        self.model = model
        self.space = space
        self._radices = np.array(
            [len(f.levels) for f in space.factors], dtype=np.int64
        )
        # the stratum bases, then the per-factor effects: dense tables
        ((self._strat_pos, self._base),) = _level_vectors(
            space, ((model.stratum_factor, model.base),), "model base",
            sparse=False)
        self._effect_vectors = _level_vectors(space, model.effects,
                                              "model effect", sparse=False)
        # object-specific deltas are sparse: unlisted levels contribute 0
        self._object_effect_vectors = {
            oid: _level_vectors(space, eff, "object effect", sparse=True)
            for oid, eff in model.object_effects}

        self._interaction_mats: list[tuple[int, int, np.ndarray]] = []
        for it in model.interactions:
            fa, fb = space.factor(it.factor_a), space.factor(it.factor_b)
            mat = np.zeros((len(fa.levels), len(fb.levels)))
            for la, lb, val in it.table:
                if la not in fa.levels or lb not in fb.levels:
                    raise SpaceError(
                        f"interaction references unknown level pair ({la!r}, {lb!r})"
                    )
                mat[fa.levels.index(la), fb.levels.index(lb)] = val
            self._interaction_mats.append(
                (space.factor_position(it.factor_a),
                 space.factor_position(it.factor_b), mat)
            )

    def decode_levels(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized mixed-radix decode; shape (n_factors, *indices.shape)."""
        idx = np.asarray(indices, dtype=np.int64)
        out = np.empty((len(self._radices),) + idx.shape, dtype=np.int64)
        rem = idx.copy()
        for pos in range(len(self._radices) - 1, -1, -1):
            m = self._radices[pos]
            out[pos] = rem % m
            rem //= m
        return out

    def deterministic_values(self, indices: np.ndarray, object_id: str) -> np.ndarray:
        """Noise-free model value at each index (the per-point true value), in
        the shape of `indices`."""
        levels = self.decode_levels(indices)
        vals = self._base[levels[self._strat_pos]].copy()
        for pos, vec in self._effect_vectors:
            vals += vec[levels[pos]]
        for pa, pb, mat in self._interaction_mats:
            vals += mat[levels[pa], levels[pb]]
        for pos, vec in self._object_effect_vectors.get(object_id, ()):
            vals += vec[levels[pos]]
        vals += self.model.offset_of(object_id)
        return vals

    def noisy_values(self, indices: np.ndarray, object_id: str,
                     replicate: np.ndarray, noise_seed: int | np.ndarray | None = None,
                     values: np.ndarray | None = None) -> np.ndarray:
        """Model value plus seeded noise at each (index, replicate) pair.
        `noise_seed` overrides the model's seed: one seed, or an array of
        seeds. Indices, replicates and seeds broadcast as in `counter_normal`,
        and the result has their broadcast shape, also when sigma is 0.
        `values`, if given, are the noise-free values at `indices` (e.g.
        gathered from a table of `deterministic_values` over the space), so
        the indices need not be decoded again."""
        det = values if values is not None else self.deterministic_values(
            indices, object_id)
        seed = self.model.noise_seed if noise_seed is None else noise_seed
        if self.model.sigma == 0.0:
            shape = np.broadcast_shapes(np.shape(indices), np.shape(replicate),
                                        np.shape(seed) or (1,))
            return np.maximum(np.broadcast_to(det, shape), MIN_DURATION)
        z = counter_normal(seed, np.asarray(indices), object_id,
                           np.asarray(replicate))
        z *= self.model.sigma
        z += det
        return np.maximum(z, MIN_DURATION, out=z)


def synth_time(model: SyntheticModel, space: ConfigSpace, obj: ObjectConfig,
               ec: Configuration, replicate_ordinal: int) -> float:
    """Scalar reference: one compile per replicate, same numeric path as the
    vectorized evaluator that the runner uses for whole plans."""
    compiled = model.compile(space)
    val = compiled.noisy_values(
        np.array([ec.index], dtype=np.int64), obj.object_id,
        np.array([replicate_ordinal], dtype=np.int64),
    )
    return float(val[0])

"""Independent reference implementations used only by the test suite.

Deliberately written on different mathematical routes from the package code:
the t quantile comes from direct numerical integration of the density (no
incomplete beta function), the population enumerator walks the raw JSON
documents with itertools.product (no numpy, no mixed-radix decode), the
samplers draw one level at a time with scalar rng calls and compose indices
in Python ints, the Welch interval is plain float64-scalar arithmetic on
one pair of samples, the standard deviation is a two-pass Fraction variance
whose root is rounded by exact comparison with float midpoints, and the
noise references spell out one element per (index, replicate) pair instead
of broadcasting, result-set keys are tuples counted in a dict and paired
by sorting them, and a results line is typed field by field with
`isinstance`.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import struct
from fractions import Fraction

import numpy as np

from ecbench.errors import PairingError
from ecbench.runner import Measurement

# Gauss-Legendre nodes/weights on [-1, 1]; 400 nodes resolve cos^(df-1)
# far past 1e-9 for df up to a few hundred.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(400)


def _t_density_integral(a: float, b: float, df: float) -> float:
    """Integral of cos^(df-1)(theta) over (a, b): under the substitution
    T = sqrt(df) tan(theta) the t density is proportional to it on
    (-pi/2, pi/2)."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    theta = mid + half * _NODES
    return half * float(np.sum(_WEIGHTS * np.cos(theta) ** (df - 1.0)))


def t_quantile_oracle(p: float, df: float) -> float:
    """Inverse t CDF by bisection on the quadrature CDF."""
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile_oracle(1.0 - p, df)
    total = _t_density_integral(-math.pi / 2, math.pi / 2, df)  # df only

    def cdf(t: float) -> float:
        upper = math.atan(t / math.sqrt(df))
        return _t_density_integral(-math.pi / 2, upper, df) / total

    lo, hi = 0.0, 1.0
    while cdf(hi) < p:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_force_population_mean(space_doc: dict, model_doc: dict,
                                objects) -> float:
    """Noise-free mean over every configuration, straight from the JSON
    documents: nested loops over level labels, dict lookups, plain floats."""
    factors = [(f["name"], list(f["levels"])) for f in space_doc["factors"]]
    names = [n for n, _ in factors]
    level_lists = [ls for _, ls in factors]

    def value_at(labels: dict[str, str], object_id: str) -> float:
        total = model_doc["base"][labels[model_doc["stratum_factor"]]]
        for fname, table in model_doc.get("effects", {}).items():
            total += table[labels[fname]]
        for it in model_doc.get("interactions", []):
            fa, fb = it["factors"]
            for la, lb, v in it["table"]:
                if labels[fa] == la and labels[fb] == lb:
                    total += v
        total += model_doc.get("object_offsets", {}).get(object_id, 0.0)
        for fname, table in model_doc.get("object_effects", {}).get(
                object_id, {}).items():
            total += table.get(labels[fname], 0.0)
        return total

    if isinstance(objects, str):
        objects = (objects,)
    values = []
    for combo in itertools.product(*level_lists):
        labels = dict(zip(names, combo))
        if len(objects) == 1:
            values.append(value_at(labels, objects[0]))
        else:
            values.append(value_at(labels, objects[0])
                          - value_at(labels, objects[1]))
    return statistics.fmean(values)


def random_index_reference(space, rng, pinned=None) -> int:
    """One uniform index: a scalar level draw per unpinned factor, in factor
    order, composed in Python ints."""
    index = 0
    for f in space.factors:
        m = len(f.levels)
        if pinned is not None and f.name in pinned:
            level = pinned[f.name]
        else:
            level = int(rng.integers(0, m))
        index = index * m + level
    return index


def stratified_reference(space, stratum_factor, iterations, seed):
    """[(index, stratum label)], iteration-major then stratum order."""
    strat = space.factor(stratum_factor)
    rng = np.random.Generator(np.random.PCG64(seed))
    return [(random_index_reference(space, rng, {stratum_factor: s}), label)
            for _ in range(iterations)
            for s, label in enumerate(strat.levels)]


def rct_reference(space, per_arm, seed):
    """(control, treatment) index lists: one candidate at a time until
    2*per_arm distinct indices, then a permutation split in half."""
    rng = np.random.Generator(np.random.PCG64(seed))
    drawn: list[int] = []
    while len(drawn) < 2 * per_arm:
        idx = random_index_reference(space, rng)
        if idx not in drawn:
            drawn.append(idx)
    shuffled = [drawn[i] for i in rng.permutation(2 * per_arm)]
    return shuffled[:per_arm], shuffled[per_arm:]


def factorial_2k_reference(space, split, defaults, seed):
    """All 2^k combinations of one drawn low and one drawn high level per
    selected factor, first selected factor as the most significant bit."""
    rng = np.random.Generator(np.random.PCG64(seed))
    chosen = {}
    for name, low, high in split.splits:
        chosen[name] = (int(rng.choice(np.array(low))),
                        int(rng.choice(np.array(high))))
    names = [name for name, _, _ in split.splits]
    k = len(names)
    out = []
    for combo in range(2**k):
        levels = dict(defaults)
        for j, name in enumerate(names):
            levels[name] = chosen[name][(combo >> (k - 1 - j)) & 1]
        index = 0
        for f in space.factors:
            index = index * len(f.levels) + levels[f.name]
        out.append(index)
    return out


def welch_reference(a: np.ndarray, b: np.ndarray, level: float, t_quantile):
    """(low, center, high) of the Welch interval for one pair of samples,
    in float64 scalar arithmetic, with the given t quantile function."""
    na, nb = a.size, b.size
    va, vb = a.var(ddof=1), b.var(ddof=1)
    se2 = va / na + vb / nb
    center = float(a.mean() - b.mean())
    if se2 == 0.0:
        return center, center, center
    df = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    half = t_quantile((1.0 + level) / 2.0, float(df)) * math.sqrt(se2)
    return center - half, center, center + half


class LineParseError(Exception):
    """A results line that `json.loads` rejects: "line number: message"."""


def parse_lines_reference(data: bytes):
    """Yield (line number, value) for each line of a results file, one
    `json.loads` call per line, skipping the lines `str.strip` finds blank;
    raise LineParseError at the first line that does not parse."""
    for lineno, line in enumerate(data.decode().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            value = json.loads(line)
        except json.JSONDecodeError as e:
            raise LineParseError(f"{lineno}: parse failure: {e}") from e
        yield lineno, value


class LineTypeError(Exception):
    """A results line that `json.loads` accepts but that is not a
    well-typed measurement."""


def measurement_reference(value):
    """`Measurement.from_dict(value)` for the value of a well-typed results
    line. Raise LineTypeError when the value is not an object, or when it
    has every field `from_dict` reads (KeyError otherwise, at the first
    missing one) but ec_index is not a non-negative integer, object_id or
    policy not a string, replicates not a list, aggregate not a number, or
    aggregate, started_at or ended_at not a number, or error neither a
    string nor null. A bool is not a number here."""
    if not isinstance(value, dict):
        raise LineTypeError(value)
    index, owner, replicates, aggregate, policy = (
        value["ec_index"], value["object_id"], value["replicates"],
        value["aggregate"], value["policy"])
    error = value.get("error")
    if not (_number(index) and not isinstance(index, float) and index >= 0
            and isinstance(owner, str) and isinstance(replicates, list)
            and _number(aggregate) and isinstance(policy, str)
            and _number(value.get("started_at", 0.0))
            and _number(value.get("ended_at", 0.0))
            and (error is None or isinstance(error, str))):
        raise LineTypeError(value)
    return Measurement.from_dict(value)


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def line_in_file_reference(m, lines_before) -> None:
    """Raise LineTypeError when `m`, the measurement of a well-typed line,
    does not fit the well-typed lines before it in its file (`lines_before`,
    measurements in file order): its object_id is not the first line's, or,
    for a measured line (error null), a replicate is not a number or it has
    not as many replicates as the first measured line."""
    if lines_before and m.object_id != lines_before[0].object_id:
        raise LineTypeError(m)
    if m.error is None:
        measured = [x for x in lines_before if x.error is None]
        if not all(map(_number, m.replicates)) or (
                measured and len(m.replicates) != len(measured[0].replicates)):
            raise LineTypeError(m)


def keyed_rows(results) -> dict[tuple[int, int], Measurement]:
    """The measured rows of a result set as (ec_index, ordinal) ->
    Measurement, in row order, each built from its row of the columns."""
    m = results.measurements
    return {(index, ordinal): Measurement(index, results.object_id,
                                          tuple(reps), agg, policy, start, end)
            for index, ordinal, reps, agg, policy, start, end in zip(
                m.indices.tolist(), m.ordinals.tolist(), m.replicates.tolist(),
                m.aggregates.tolist(), m.policies.tolist(),
                m.started_at.tolist(), m.ended_at.tolist())}


def occurrence_keys_reference(indices) -> list[tuple[int, int]]:
    """The (ec_index, occurrence ordinal) key of each index in order, with
    the earlier occurrences of each index counted in a dict."""
    seen: dict[int, int] = {}
    keys = []
    for index in indices:
        ordinal = seen.get(index, 0)
        seen[index] = ordinal + 1
        keys.append((index, ordinal))
    return keys


def paired_aggregates_reference(a, b):
    """The sorted (ec_index, ordinal) keys two result sets both cover, as
    tuples, with each set's aggregates in that order: dict key sets compared,
    the keys sorted as tuples, one row looked up per key. Raises PairingError
    with the messages `ecbench compare` prints."""
    if a.plan_fingerprint != b.plan_fingerprint:
        raise PairingError(
            "result sets come from different plans: plan fingerprint "
            f"{a.plan_fingerprint} (a) vs {b.plan_fingerprint} (b)"
        )
    ma, mb = (dict(zip(zip(m.indices.tolist(), m.ordinals.tolist()),
                       m.aggregates.tolist()))
              for m in (a.measurements, b.measurements))
    if ma.keys() != mb.keys():
        missing_a = sorted(mb.keys() - ma.keys())[:5]
        missing_b = sorted(ma.keys() - mb.keys())[:5]
        raise PairingError(
            "result sets cover different (ec_index, ordinal) keys; "
            f"examples missing from a: {missing_a}, from b: {missing_b}"
        )
    keys = sorted(ma)
    return (keys, np.array([ma[k] for k in keys], dtype=np.float64),
            np.array([mb[k] for k in keys], dtype=np.float64))


def _odd(x: float) -> bool:
    return struct.unpack("<q", struct.pack("<d", x))[0] & 1 == 1


def nearest_float_sqrt(v: Fraction) -> float:
    """The float nearest sqrt(v), ties to even: start from a float estimate,
    then step to a neighbour while v lies beyond the square of the midpoint
    between the two, compared exactly in Fractions."""
    if v == 0:
        return 0.0
    k = (v.numerator.bit_length() - v.denominator.bit_length()) // 2
    r = math.ldexp(math.sqrt(float(v / Fraction(4) ** k)), k)
    while True:
        down, up = math.nextafter(r, 0.0), math.nextafter(r, math.inf)
        low = ((Fraction(down) + Fraction(r)) / 2) ** 2
        high = ((Fraction(r) + Fraction(up)) / 2) ** 2
        if v < low or (v == low and _odd(r)):
            r = down
        elif v > high or (v == high and _odd(r)):
            r = up
        else:
            return r


def stdev_reference(values) -> float:
    """Sample standard deviation without `statistics`: the exact two-pass
    variance sum((x - mean)^2) / (n - 1) in Fractions, and its square root
    rounded to the nearest float."""
    xs = [Fraction(x) for x in values]
    mean = sum(xs) / len(xs)
    return nearest_float_sqrt(sum((x - mean) ** 2 for x in xs) / (len(xs) - 1))


def confidence_interval_reference(values, level: float, t_quantile):
    """(low, high, center) of the one-sample mean CI, one scalar t quantile
    per sample: fmean, `stdev_reference`, and a degenerate interval at zero
    spread."""
    n = len(values)
    mean = statistics.fmean(values)
    s = stdev_reference(values)
    if s == 0.0:
        return mean, mean, mean
    half = t_quantile((1.0 + level) / 2.0, n - 1) * s / math.sqrt(n)
    return mean - half, mean + half, mean


def flat_noise_layout(indices: np.ndarray, reps: int, seeds):
    """One element per (row, index, replicate) in row-major order: indices
    and replicate ordinals spelled out with repeat/tile, and per-row seeds
    repeated to match; a scalar seed stays scalar."""
    k, n = indices.shape
    flat_seeds = seeds if np.ndim(seeds) == 0 else np.repeat(seeds, n * reps)
    return (np.repeat(indices.ravel(), reps),
            np.tile(np.arange(reps, dtype=np.int64), k * n), flat_seeds)


def simulate_aggregates_reference(compiled, indices: np.ndarray, object_id: str,
                                  reps: int, noise_seeds: np.ndarray,
                                  policy: str) -> np.ndarray:
    """Replicate aggregates of a (k, n) index array from one flat noisy_values
    call, every value decoded from its index and reduced over a contiguous
    replicate axis."""
    k, n = indices.shape
    idx, rep, seeds = flat_noise_layout(indices, reps, noise_seeds)
    vals = compiled.noisy_values(idx, object_id, rep,
                                 noise_seed=seeds).reshape(k, n, reps)
    if policy == "median":
        return np.median(vals, axis=2)
    return vals.mean(axis=2)

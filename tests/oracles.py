"""Independent reference implementations used only by the test suite.

Deliberately written on different mathematical routes from the package code:
the t quantile comes from direct numerical integration of the density (no
incomplete beta function), the population enumerator walks the raw JSON
documents with itertools.product (no numpy, no mixed-radix decode), the
samplers draw one level at a time with scalar rng calls and compose indices
in Python ints, and the Welch interval is plain float64-scalar arithmetic on
one pair of samples.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics

import numpy as np

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


def confidence_interval_reference(values, level: float, t_quantile):
    """(low, high, center) of the one-sample mean CI, one scalar t quantile
    per sample: fmean, exact stdev, and a degenerate interval at zero
    spread."""
    n = len(values)
    mean = statistics.fmean(values)
    s = statistics.stdev(values)
    if s == 0.0:
        return mean, mean, mean
    half = t_quantile((1.0 + level) / 2.0, n - 1) * s / math.sqrt(n)
    return mean - half, mean + half, mean

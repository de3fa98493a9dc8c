"""Independent reference implementations used only by the test suite.

Deliberately written on different mathematical routes from the package code:
the t quantile comes from direct numerical integration of the density (no
incomplete beta function) or from a table of 50-digit mpmath roots, the
population enumerator walks the raw JSON documents with itertools.product
(no numpy, no mixed-radix decode), the
samplers draw one level at a time with scalar rng calls and compose indices
in Python ints, the Welch interval is plain float64-scalar arithmetic on
one pair of samples, the standard deviation is a two-pass Fraction variance
whose root is rounded by exact comparison with float midpoints, and the
noise references spell out one element per (index, replicate) pair instead
of broadcasting, result-set keys are tuples counted in a dict and paired
by sorting them, a results line is typed field by field with
`isinstance`, and the Monte Carlo seeds come from numpy's own
`SeedSequence`, one iteration at a time.
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


# Student-t quantiles t_p(df), to 20 significant digits, for each p in
# T_TABLE_PS: the root in t of 1 - I_x(df/2, 1/2) / 2 = p with
# x = df / (df + t^2), for the float values of p and df, found once with
# mpmath 1.3.0 at 50 digits (`mp.findroot` on `mp.betainc`, the complement
# I_{1-x}(1/2, df/2) where x >= 1/2) and bracketed to 1e-30 relative. The df
# cover the criterion-8 range, df below 1 and df from 2e4 to 1e10.
T_TABLE_PS = (0.9, 0.95, 0.975, 0.995)
T_TABLE = (
    (0.05, ("1.08760446760019835e+13", "1.1404359422183193847e+19",
            "1.1958337585475155469e+25", "1.1404359422183164693e+39")),
    (0.1, ("1604425.7056665548298", "1.642931922602549989e+9",
           "1.6823622887450105415e+12", "1.6429319226025478891e+19")),
    (0.25, ("170.46892571212422134", "2727.5093038874717828",
            "43640.149267980317895", "2.7275093293482256847e+7")),
    (0.5, ("10.270324410234510724", "41.13600009287820237",
           "164.5576734804882408", "4113.9645888041738438")),
    (0.9, ("3.4738457420241535923", "7.645346698104868106",
           "16.580058171327139128", "99.236516821931705036")),
    (1, ("3.0776835371752541331", "6.3137515146750373979",
         "12.706204736174693314", "63.656741162871524447")),
    (2, ("1.8856180831641270225", "2.9199855803537241703",
         "4.3026527297494617894", "9.9248432009182886403")),
    (3, ("1.6377443536962103222", "2.353363434801822899",
         "3.1824463052837084359", "5.8409093097333554113")),
    (5, ("1.4758840488244812516", "2.0150483733330235417",
         "2.5705818356363147828", "4.0321429835552271793")),
    (10, ("1.3721836411103357746", "1.8124611228116758693",
          "2.2281388519862742245", "3.1692726726169507118")),
    (12.5, ("1.3530668727547328475", "1.7763662212470301171",
            "2.1691859427125406168", "3.0324366528705624889")),
    (31, ("1.3094635494946456388", "1.6955187825458650989",
          "2.0395134463964080672", "2.7440419192942689588")),
    (61.789, ("1.2954034173550035446", "1.6698906593576713326",
              "1.9991073124900669544", "2.6577656182861049231")),
    (100, ("1.2900747613465160976", "1.660234326085339115",
           "1.9839715185235518946", "2.625890521438017607")),
    (200, ("1.285798793994801202", "1.6525081009108771121",
           "1.9718962236339089963", "2.6006344361915576429")),
    (2e4, ("1.2815938962102156111", "1.6449298189594813079",
           "1.9600826051581348142", "2.5760751530172547008")),
    (1e6, ("1.2815524121299386069", "1.644855150722040062",
           "1.9599663568141066553", "2.5758342201053338472")),
    (1e8, ("1.2815515740104483218", "1.644853642189163902",
           "1.9599640082627664408", "2.5758293527143773235")),
    (1e10, ("1.2815515656292590702", "1.644853627103849199",
            "1.9599639847772809787", "2.5758293040405552138")),
)


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
    not as many replicates as the first measured line; or when its
    aggregate, started_at, ended_at or, on a measured line, a replicate
    overflows `float`."""
    if lines_before and m.object_id != lines_before[0].object_id:
        raise LineTypeError(m)
    if m.error is None:
        measured = [x for x in lines_before if x.error is None]
        if not all(map(_number, m.replicates)) or (
                measured and len(m.replicates) != len(measured[0].replicates)):
            raise LineTypeError(m)
    try:
        for x in (m.aggregate, m.started_at, m.ended_at,
                  *(m.replicates if m.error is None else ())):
            float(x)
    except OverflowError:
        raise LineTypeError(m) from None


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


def columns_reference(measured) -> dict[str, np.ndarray]:
    """The columns of `Measurements` (by attribute name) for `measured`,
    the measurements of a file's measured lines in file order, each array
    built from a Python list of the values: int64 indices, or objects when
    one is 2^63 or more, float64 numbers and a row of replicates per
    measurement."""
    indices = [m.ec_index for m in measured]
    width = len(measured[0].replicates) if measured else 0
    return {
        "indices": np.array(indices, dtype=object if any(
            i >= 2**63 for i in indices) else np.int64),
        "ordinals": np.array([k[1] for k in occurrence_keys_reference(
            indices)], dtype=np.int64),
        "aggregates": np.array([m.aggregate for m in measured], np.float64),
        "replicates": np.array([m.replicates for m in measured],
                               np.float64).reshape(len(measured), width),
        "policies": np.array([m.policy for m in measured], dtype=object),
        "started_at": np.array([m.started_at for m in measured], np.float64),
        "ended_at": np.array([m.ended_at for m in measured], np.float64),
    }


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


def plan_groups_reference(plan, keys) -> tuple[list[str], list[int]]:
    """The sorted labels, None read as "", of the plan entries that the
    (ec_index, ordinal) `keys` name, and the position of each key's label in
    them, looked up in a dict from each entry's occurrence key to its label.
    Raises PairingError with the message `ecbench compare` prints."""
    label_of = dict(zip(occurrence_keys_reference(plan.indices.tolist()),
                        (plan.labels[c] or "" for c in plan.codes.tolist())))
    missing = [k for k in keys if k not in label_of]
    if missing:
        raise PairingError(f"group map misses keys, e.g. {missing[:5]}")
    names = sorted({label_of[k] for k in keys})
    return names, [names.index(label_of[k]) for k in keys]


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


def iteration_seeds_reference(master_seed: int, iteration: int
                              ) -> tuple[int, int]:
    """(plan seed, noise seed) of one Monte Carlo iteration, from numpy's
    SeedSequence: its first two generated words, then its last two, each
    pair high word first."""
    words = np.random.SeedSequence([master_seed, iteration]).generate_state(4)
    hi1, lo1, hi2, lo2 = words.tolist()
    return hi1 << 32 | lo1, hi2 << 32 | lo2


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

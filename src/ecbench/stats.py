"""Statistical kernel over numbers and arrays: summaries, Student-t
quantiles, mean confidence intervals, Welch intervals, and ratio-asymmetry
diagnostics. Pairing result sets into arrays is `compare`'s job.

Intervals use Student's t with n-1 degrees of freedom: conservative at the
n ~ 32 sample sizes the sampling designs produce, and converging to the
normal-limit interval for large n.

The s of a mean interval is exact: `exact_stdev` sums each value's integer
mantissa and its square in integer arithmetic, so the sums carry no rounding
error and do not depend on the order of the values, and then rounds the
square root of the exact variance once, correctly. The one-pass formula
n*sum(x^2) - sum(x)^2 it uses is unstable in floating point but exact in
integers. A correctly rounded result is unique, so the bits equal
`statistics.stdev` (which rounds the same way) and are the same on every
supported Python.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy import special

from .errors import EcbenchError


class StatsError(EcbenchError):
    pass


@dataclass(frozen=True)
class Interval:
    low: float
    high: float
    level: float
    center: float
    n: int

    def contains(self, x: float) -> bool:
        return self.low <= x <= self.high

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0


def geometric_mean(values: tuple[float, ...] | list[float]) -> float:
    if any(v <= 0 for v in values):
        raise StatsError("geometric mean requires all values > 0")
    return math.exp(statistics.fmean(math.log(v) for v in values))


# The least df `t_quantile` answers for: the lowest df of the tests' 50-digit
# table, where `stdtrit` is checked to 1e-14. Below it `stdtrit` misses by
# about 6e-16 / df relative; Welch df is at least 1 for n >= 2 per arm.
DF_FLOOR = 0.05


def t_quantile(p: float, df: float | np.ndarray) -> float | np.ndarray:
    """Inverse CDF of Student's t, from `scipy.special.stdtrit`, for df >=
    `DF_FLOOR` (inf gives the normal limit); fractional df is accepted for
    Welch intervals. Any other df, NaN too, raises a StatsError naming it.
    The median is 0.0 and a lower quantile is the reflected upper one,
    t_p = -t_{1-p}, so the symmetry is exact. A scalar `df` returns a float,
    an array `df` an array of its shape."""
    if not 0 < p < 1:
        raise StatsError("p must be in (0, 1)")
    dfs = np.asarray(df, dtype=np.float64)
    answered = dfs >= DF_FLOOR  # False for NaN
    if not answered.all():
        raise StatsError(f"df must be at least {DF_FLOOR}, not "
                         f"{float(dfs[~answered].flat[0])}")
    if p == 0.5:
        t = np.zeros(dfs.shape)
    elif p < 0.5:
        t = -special.stdtrit(dfs, 1.0 - p)
    else:
        t = special.stdtrit(dfs, p)
    return float(t) if dfs.ndim == 0 else t


def confidence_interval(values: np.ndarray, level: float) -> Interval:
    """The mean CI of one 1-D float64 array; see `mean_intervals`."""
    return mean_intervals([values], level)[0]


def mean_intervals(samples: Sequence[np.ndarray],
                   level: float) -> list[Interval]:
    """The mean CI of each 1-D float64 array, x_bar +/- t_{(1+level)/2, n-1}
    * s / sqrt(n), a point at x_bar when s = 0. The t quantiles of all
    samples come from one array `t_quantile` call, each element equal to a
    scalar call; x_bar is fsum / n as in `statistics.fmean` and s is
    `exact_stdev`, so the bits depend neither on how samples are batched nor
    on the order of the values within a sample. Neither builds more than
    `_BLOCK` Python floats or values' worth of arrays at a time."""
    if not 0 < level < 1:
        raise StatsError("confidence level must be in (0, 1)")
    if any(values.size < 2 for values in samples):
        raise StatsError("confidence interval needs n >= 2")
    crit = t_quantile((1.0 + level) / 2.0,
                      np.array([v.size - 1 for v in samples], dtype=np.float64))
    out = []
    for values, t in zip(samples, crit.tolist()):
        n = values.size
        s = exact_stdev(values)  # first: it rejects non-finite values
        mean = _fmean(values)
        if s == 0.0:
            out.append(Interval(low=mean, high=mean, level=level, center=mean,
                                n=n))
            continue
        half = t * s / math.sqrt(n)
        out.append(Interval(low=mean - half, high=mean + half, level=level,
                            center=mean, n=n))
    return out


# frexp writes a finite float64 as m * 2**e with |m| < 2**53 an integer once
# scaled by 2**53. Split |m| = hi * 2**27 + lo (hi < 2**26, lo < 2**27): then
# |m| < 2**53, hi*hi < 2**52, hi*lo < 2**53 and lo*lo < 2**54, so a sum of at
# most 2**8 of any of them is below 2**62 and cannot overflow int64. The chunk
# length is that proven bound, not a tuning knob.
_MANT_BITS = 53
_LO_BITS = 27
_CHUNK = 256
# values whose floats or integer moments are built at a time: integer sums
# are exact, so blocks change no bit, only how much memory is live at once
_BLOCK = 16 * _CHUNK
# bits of the scaled variance whose integer square root keeps >= 55 bits: two
# more than a float64 mantissa, as round-to-odd needs (as in CPython 3.11+)
_SQRT_BITS = 2 * _MANT_BITS + 3


def _fmean(values: np.ndarray) -> float:
    """`statistics.fmean(values.tolist())` for a 1-D float64 array, its
    fsum taken over `_BLOCK` Python floats at a time; a StatsError where
    that sum is past float range."""
    if not values.size:
        return statistics.fmean(())  # raises its error for no data
    try:
        return math.fsum(chain.from_iterable(
            values[i:i + _BLOCK].tolist()
            for i in range(0, values.size, _BLOCK))) / values.size
    except OverflowError:
        raise StatsError("sample sum overflows the float range") from None


def exact_stdev(values: np.ndarray) -> float:
    """The sample standard deviation of a 1-D array of finite float64 values,
    correctly rounded: the float nearest sqrt(sum((x - x_bar)^2) / (n - 1))
    computed exactly.

    Each value is m * 2**(e - 53) with an integer |m| < 2**53 (`np.frexp`).
    Within one exponent e, sum(m) and sum(m^2) are exact int64 sums
    (`np.add.reduceat`) over chunks of at most 256 values, m^2 taken in three
    partial products of 27-bit halves; see `_CHUNK` for why none overflows.
    Python ints then shift each chunk to the smallest exponent E and add them,
    giving S1 = sum(x) / 2**E and S2 = sum(x^2) / 2**(2E) exactly; a block
    of `_BLOCK` values is summed at a time (`_moments`), and the blocks'
    sums are shifted and added alike. The variance is
    (n*S2 - S1^2) * 4**E / (n*(n-1)) exactly, and its square root is rounded
    once: an integer square root with round-to-odd keeps at least 55 bits,
    so the final int / int division (itself correctly rounded) rounds to the
    nearest float. Integer addition is exact and associative, so the result
    does not depend on the order of the values.
    """
    n = values.size
    if n < 2:
        raise StatsError("standard deviation needs n >= 2")
    if not np.isfinite(values).all():
        raise StatsError("sample contains non-finite values")
    values = values.ravel()
    blocks = [_moments(values[i:i + _BLOCK]) for i in range(0, n, _BLOCK)]
    low = min(e for _, _, e in blocks)
    s1 = sum(m1 << e - low for m1, _, e in blocks)
    s2 = sum(m2 << 2 * (e - low) for _, m2, e in blocks)
    num, den = n * s2 - s1 * s1, n * (n - 1)
    shift = 2 * (low - _MANT_BITS)
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    return _sqrt_of_ratio(num, den)


def _moments(values: np.ndarray) -> tuple[int, int, int]:
    """(S1, S2, E) of `exact_stdev` for a non-empty block of finite values:
    E is the block's smallest frexp exponent."""
    frac, exp = np.frexp(values)
    # exponents lie in [-1073, 1024]; as int16 they sort by radix
    order = np.argsort(exp.astype(np.int16), kind="stable")
    exp = exp[order]
    mant = np.ldexp(frac[order], _MANT_BITS).astype(np.int64)
    # chunks break at every change of exponent and every _CHUNK positions
    starts = np.union1d(np.flatnonzero(np.diff(exp)) + 1,
                        np.arange(0, values.size, _CHUNK))
    mag = np.abs(mant)
    hi, lo = mag >> _LO_BITS, mag & ((1 << _LO_BITS) - 1)
    sums = zip(np.add.reduceat(mant, starts).tolist(),
               np.add.reduceat(hi * hi, starts).tolist(),
               np.add.reduceat(hi * lo, starts).tolist(),
               np.add.reduceat(lo * lo, starts).tolist())
    low = int(exp[0])
    s1 = s2 = 0
    for (m, hh, hl, ll), e in zip(sums, (exp[starts] - low).tolist()):
        s1 += m << e
        s2 += ((hh << 2 * _LO_BITS) + (hl << _LO_BITS + 1) + ll) << 2 * e
    return s1, s2, low


def _sqrt_of_ratio(num: int, den: int) -> float:
    """sqrt(num / den) correctly rounded, for integers num >= 0 and den > 0:
    scale by an even power of two so the integer square root has at least 55
    bits, round it to odd (a set last bit records an inexact root), and let
    the correctly rounded int / int division round it to a float."""
    q = (num.bit_length() - den.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        root, scale = _isqrt_rto(num, den << 2 * q) << q, 1
    else:
        root, scale = _isqrt_rto(num << -2 * q, den), 1 << -q
    return root / scale


def _isqrt_rto(num: int, den: int) -> int:
    """floor(sqrt(num / den)) with its last bit set when it is not exact."""
    root = math.isqrt(num // den)
    return root | (root * root * den != num)


def mean_ci_from_array(values: np.ndarray, level: float) -> tuple:
    """Fast-path CI over the last axis of a numpy array: (low, mean, high),
    floats for a 1-D array and one element per row for a 2-D array. Used by
    the Monte Carlo oracle on a chunk of iterations at a time. A row whose s
    is not finite raises the StatsError that `welch_bounds` raises."""
    n = values.shape[-1]
    if n < 2:
        raise StatsError("confidence interval needs n >= 2")
    mean = values.mean(axis=-1)
    s = values.std(ddof=1, axis=-1)
    if not np.isfinite(s).all():
        if not np.isfinite(values).all():
            raise StatsError("sample contains non-finite values")
        raise StatsError("sample variance overflows the float range")
    half = t_quantile((1.0 + level) / 2.0, n - 1) * s / math.sqrt(n)
    if values.ndim == 1:
        mean, half = float(mean), float(half)
    return mean - half, mean, mean + half


_TINY = np.finfo(np.float64).tiny  # the smallest normal float64


def welch_bounds(a: np.ndarray, b: np.ndarray,
                 level: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise two-independent-sample CI for mean(a) - mean(b) with Welch
    df, over the last axis of 2-D arrays: (low, center, high) per row. The
    df lies in [min(na, nb) - 1, na + nb - 2] at every scale, so it is at
    least 1; a variance past the float range raises a StatsError."""
    na, nb = a.shape[-1], b.shape[-1]
    if na < 2 or nb < 2:
        raise StatsError("Welch interval needs n >= 2 per arm")
    ea, eb = a.var(ddof=1, axis=-1) / na, b.var(ddof=1, axis=-1) / nb
    se2 = ea + eb
    if not np.isfinite(se2).all():
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise StatsError("sample contains non-finite values")
        raise StatsError("sample variance overflows the float range")
    center = a.mean(axis=-1) - b.mean(axis=-1)
    half = np.zeros(se2.shape)
    spread = se2 != 0.0  # zero spread: a degenerate interval at the center
    ea, eb, se2 = ea[spread], eb[spread], se2[spread]
    # float_power squares through pow(), as float64 scalar `**` does; the
    # ndarray `**` squares by multiplication, which can differ in the last bit
    sq = np.float_power
    with np.errstate(all="ignore"):
        num = sq(se2, 2)
        df = num / (sq(ea, 2) / (na - 1) + sq(eb, 2) / (nb - 1))
    # where se2^2 is not a normal float, that df is 0/0, inf/inf or a ratio
    # of a few bits: take it from the shares of se2, in [0, 1], instead
    off = ~(np.isfinite(df) & (num >= _TINY))
    if off.any():
        fa, fb = ea[off] / se2[off], eb[off] / se2[off]
        df[off] = 1.0 / (fa * fa / (na - 1) + fb * fb / (nb - 1))
    half[spread] = t_quantile((1.0 + level) / 2.0, df) * np.sqrt(se2)
    return center - half, center, center + half


def welch_interval(a: np.ndarray, b: np.ndarray, level: float) -> Interval:
    """Two-independent-sample CI for mean(a) - mean(b) with Welch df."""
    low, center, high = welch_bounds(a[np.newaxis], b[np.newaxis], level)
    return Interval(low=float(low[0]), high=float(high[0]), level=level,
                    center=float(center[0]), n=a.size + b.size)


@dataclass(frozen=True)
class RatioDiagnostics:
    ratios: np.ndarray  # float64, num / den per aligned pair
    mean_ratio: float
    mean_reciprocal: float
    asymmetry_product: float  # mean(r) * mean(1/r); >= 1, = 1 iff constant


def ratio_summary(num: np.ndarray, den: np.ndarray) -> RatioDiagnostics:
    """Ratio diagnostics of aligned aggregate arrays, numerator over
    denominator: refused unless every aggregate is positive, then unless
    every ratio is finite."""
    if np.any(den <= 0) or np.any(num <= 0):
        raise StatsError("ratios require positive aggregates")
    ratios = num / den
    if not np.isfinite(ratios).all():
        raise StatsError("sample contains non-finite values")
    mean_r, mean_inv = _fmean(ratios), _fmean(1.0 / ratios)
    return RatioDiagnostics(ratios=ratios, mean_ratio=mean_r,
                            mean_reciprocal=mean_inv,
                            asymmetry_product=mean_r * mean_inv)

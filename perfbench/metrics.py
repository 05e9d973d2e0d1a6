"""Latency statistics of a run."""

from __future__ import annotations

import math
from fractions import Fraction

# candidate tail percentiles, highest first
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile of n samples.
    Exact arithmetic: in floats, 99.9 / 100 * 10000 rounds up past 9990."""
    return n - math.ceil(Fraction(str(p)) * n / 100)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    for p in PERCENTILES:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    raise ValueError(f"{n} samples leave fewer than {MIN_BEYOND} beyond the median")


def describe_tail(n: int, p: float) -> str:
    return f"Harrell-Davis p{p:g}, n={n}, {beyond(n, p)} beyond"


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile: a weighted mean of all
    order statistics, with Beta(p(n+1), (1-p)(n+1)) weights.  Where the tail
    is sparse, one op's noise moves the nearest-rank value by the gap to its
    neighbour; here it moves the estimate by its weight."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], ordered))


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1 - front * _beta_fraction(b, a, 1 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300

    def clamp(v: float) -> float:
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1 / clamp(1 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 / clamp(1 + num * d)
            c = clamp(1 + num / c)
            h *= d * c
        if abs(d * c - 1) < 1e-13:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


"""Harrell-Davis quantile estimates, standard library only.

A run's op latencies spread over three decades, so neighbouring order
statistics near the median or the 90th percentile can differ by tens of
percent and a single order statistic jumps from run to run.  The
Harrell-Davis estimate weights every order statistic by a Beta kernel
centred on the quantile, which estimates the same quantile with much
less run-to-run variance.
"""

from __future__ import annotations

from math import exp, lgamma, log

_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 1000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = exp(lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log(1.0 - x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of `values` (0 < p < 1)."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))

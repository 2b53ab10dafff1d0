"""Order statistics for the benchmark: percentiles and the tail rule.

A timing is reported as its median and the highest percentile that still
has at least ``MIN_TAIL`` samples beyond it, together with the sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MIN_TAIL = 10
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    values = sorted(samples)
    if not values:
        raise ValueError("percentile of an empty sample")
    pos = (len(values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def supported_percentile(n: int, wanted: float = 99.0, min_tail: int = MIN_TAIL) -> float:
    """The highest ladder percentile at most ``wanted`` that leaves at least
    ``min_tail`` of ``n`` samples beyond it."""
    for q in PERCENTILE_LADDER:
        if q <= wanted and n * (100.0 - q) / 100.0 >= min_tail:
            return q
    raise ValueError(f"{n} samples cannot support any percentile with {min_tail} beyond it")


@dataclass(frozen=True)
class Tail:
    percentile: float
    value: float
    samples: int
    beyond: int


def tail(samples, wanted: float = 99.0, min_tail: int = MIN_TAIL) -> Tail:
    """The supported tail percentile of ``samples`` and how many lie beyond it."""
    values = list(samples)
    q = supported_percentile(len(values), wanted, min_tail)
    value = percentile(values, q)
    return Tail(q, value, len(values), sum(1 for v in values if v > value))


def median(samples) -> float:
    return percentile(samples, 50.0)

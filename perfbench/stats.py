"""Arithmetic of the benchmark's end-to-end metrics.

Kept apart from the runner so that the self-tests can check it without
timing anything.
"""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only where at least this many ops lie beyond it.
TAIL_BEYOND = 10


def p50(times, sizes: int = 1) -> float:
    """Median op time.  When ops rotate over `sizes` problem sizes (op i has
    size i % sizes), the geometric mean of the per-size medians: a pooled
    median would be the middle size's median alone, blind to the others.
    """
    if sizes == 1:
        return statistics.median(times)
    return statistics.geometric_mean(
        statistics.median(times[k::sizes]) for k in range(sizes))


def _rank(q: float, n: int) -> int:
    """0-based nearest rank of percentile q among n sorted samples."""
    return max(math.ceil(q / 100 * n) - 1, 0)


def min_ops(q: float) -> int:
    """Fewest samples that leave TAIL_BEYOND samples beyond percentile q."""
    n = TAIL_BEYOND + 1
    while n - 1 - _rank(q, n) < TAIL_BEYOND:
        n += 1
    return n


def tail(times, q: float) -> float:
    """Nearest-rank percentile q, which must have TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    value = ordered[_rank(q, len(ordered))]
    if sum(1 for t in ordered if t > value) < TAIL_BEYOND:
        raise ValueError(f"p{q:g} of {len(ordered)} samples has fewer than "
                         f"{TAIL_BEYOND} samples beyond it")
    return value


def failed(problems_per_op) -> int:
    """Number of ops that raised or failed their output check.

    Each entry holds the problems found for one op; an empty entry is a
    passing op.
    """
    return sum(1 for problems in problems_per_op if problems)


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2

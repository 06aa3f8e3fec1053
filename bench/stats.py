"""Pure numeric helpers: percentiles, the tail choice, interval algebra."""

from __future__ import annotations

import math

#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (70.0, 75.0, 80.0, 85.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (the 'inclusive' method)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    if rank == lo:
        return ordered[lo]
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * (rank - lo)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of ``n`` samples beyond
    it; the median when there are too few samples for any of them."""
    best = 50.0
    for pct in TAIL_LADDER:
        if round(n * (100.0 - pct) / 100.0, 6) >= 10.0:
            best = pct
    return best


def merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of closed intervals as sorted, disjoint intervals."""
    out: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of the intervals."""
    return sum(end - start for start, end in merge(intervals))


def waves(intervals: list[tuple[float, float]]) -> int:
    """Sequential waves on the critical path: the longest chain of calls
    each starting after the previous one finished. Sequential calls count
    one wave each; calls in flight together count once."""
    count = 0
    last_end = -math.inf
    for start, end in sorted(intervals, key=lambda iv: iv[1]):
        if start >= last_end:
            count += 1
            last_end = end
    return count


def speed_scales(loop_ms: list[float], reference_ms: float) -> list[float]:
    """Per-op factors that rescale a time to the host speed at which the
    calibration loop takes ``reference_ms``.

    ``loop_ms[0]`` is the loop timed before the first op and
    ``loop_ms[i + 1]`` the one timed right after op ``i``; op ``i`` is
    scaled by the mean of the loops just before and just after it."""
    return [
        2.0 * reference_ms / (before + after)
        for before, after in zip(loop_ms, loop_ms[1:])
    ]

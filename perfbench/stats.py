"""Statistics the benchmark reports: tail percentiles, pass time and goodput."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple


def tail_percentile(
    samples: Sequence[float], want: float = 0.99, min_beyond: int = 10
) -> Tuple[float, float]:
    """(level, value) of the highest percentile <= `want` with >= `min_beyond` samples above it.

    The value is the order statistic with `beyond` larger samples, where
    `beyond` is n * (1 - want) rounded up but at least `min_beyond`; its
    level is 1 - beyond / n. Returns (0.0, nan) when there are not more than
    `min_beyond` samples.
    """
    n = len(samples)
    if n <= min_beyond:
        return 0.0, float("nan")
    beyond = max(min_beyond, math.ceil(n * (1.0 - want) - 1e-9))
    ordered = sorted(samples)
    return 1.0 - beyond / n, float(ordered[n - 1 - beyond])


def pass_seconds(kinds: Dict[str, dict]) -> float:
    """Wall time of one pass of a workload: one op of every kind at its mean wall time.

    Each kind carries its repeat wall times ("times"). The mean rather than
    the median, because a shared machine changes speed in phases of seconds
    to minutes: the mean is the throughput over the whole run and varies less
    from run to run (interquartile range over median of ten 30 s runs on a
    2-core shared machine: 0.24 against 0.30 on terrain-eval, 0.13 against
    0.14 on balance).
    """
    return sum(statistics.mean(k["times"]) for k in kinds.values())


def goodput(kinds: Dict[str, dict]) -> float:
    """Frames of completed ops per wall second over one pass of the workload.

    Each kind also carries its input frame count ("frames") and the share of
    its repeats that completed ("ok_share"); failed ops add their time and no
    frames.
    """
    return sum(k["frames"] * k["ok_share"] for k in kinds.values()) / pass_seconds(kinds)

"""Order statistics and interval arithmetic behind the reported metrics."""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

#: A tail percentile is reported only with this many samples beyond it.
TAIL_BEYOND = 10
#: Consecutive samples per block in ``block_tail``.
TAIL_BLOCK = 200


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample_count)``.  With fewer than
    ``2 * beyond + 1`` samples that rank would fall below the median, so the
    median rank is used instead: the tail is never reported below p50.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    rank = max(n - beyond, (n + 1) // 2)  # 1-based
    return float(xs[rank - 1]), 100.0 * rank / n, n


def block_tail(
    values: Sequence[float], block: int = TAIL_BLOCK, beyond: int = TAIL_BEYOND
) -> tuple[float, float, int, int]:
    """Median over blocks of ``block`` consecutive samples of each block's ``tail``.

    Returns ``(value, percentile, sample_count, blocks)``.  A trailing partial
    block is left out; with fewer than ``block`` samples the whole sample is
    one block.  On a shared host a single block's extreme samples come from
    whatever else ran at the time; the median over blocks keeps the tail of
    the op itself.
    """
    chunks = [values[k:k + block] for k in range(0, len(values) - block + 1, block)]
    tails = [tail(chunk, beyond) for chunk in chunks or [values]]
    return median([t[0] for t in tails]), tails[0][1], len(values), len(tails)


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - covered(start, end, children)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0

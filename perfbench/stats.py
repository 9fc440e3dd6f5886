"""Pure arithmetic shared by the benchmark and its tests.

Nothing here imports the program under test, so the helpers can be
checked on their own (``python3 -m pytest perfbench``).
"""

import math
from typing import Iterable, List, Sequence, Tuple

#: A tail percentile needs at least this many samples strictly beyond it.
MIN_TAIL_SAMPLES = 10

Interval = Tuple[float, float]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q < 1) of ``samples``.

    Refuses (raises ``ValueError``) when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond the requested rank: a
    p90 of 50 samples rests on 5 values and is not reported.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile q must be in (0, 1), got {q!r}")
    ordered = sorted(samples)
    count = len(ordered)
    rank = max(1, math.ceil(q * count - 1e-9))
    beyond = count - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{100 * q:g} of {count} samples leaves {beyond} beyond it; "
            f"at least {MIN_TAIL_SAMPLES} are needed"
        )
    return ordered[rank - 1]


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def clip(intervals: Iterable[Interval], lo: float, hi: float) -> List[Interval]:
    """The parts of ``intervals`` inside ``[lo, hi]``."""
    return [
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    ]


def self_time(span: Interval, children: Iterable[Interval]) -> float:
    """A span's duration minus the part of it its children cover.

    Children may nest, overlap each other or stick out of the parent;
    only their union inside the parent is subtracted.
    """
    start, end = span
    return (end - start) - union_length(clip(children, start, end))

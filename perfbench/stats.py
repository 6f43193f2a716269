"""Pure arithmetic of the benchmark: percentiles, self time, coverage.

Nothing here imports the program under test, so ``test_arith.py``
checks these rules in isolation.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def first_call(pairs: Sequence[Tuple[float, float]],
               warm: Sequence[float]) -> float:
    """Typical time of a first (cold) call: the median warm time plus
    the median excess of each cold call over the warm call made right
    after it.

    ``pairs`` holds ``(cold, following warm)`` times, ``warm`` every
    warm time.  Host speed drifts over seconds; the two calls of a pair
    see the same speed, so their difference carries the first-call cost
    (compile, first touch of new tables) without the drift, and the
    warm median, taken over many more calls, carries the execution.
    """
    if not pairs:
        raise ValueError("first_call needs at least one cold/warm pair")
    return median(warm) + median([c - w for c, w in pairs])


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile (``0 < q < 1``), or ``None`` when
    fewer than :data:`MIN_BEYOND` samples lie beyond that rank.

    The nearest rank is ``ceil(q * n)``; the samples beyond it number
    ``n - rank``, so a p99 needs at least 1000 samples.
    """
    n = len(values)
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return float(sorted(values)[rank - 1])


def tail(values: Sequence[float], q: float) -> Tuple[float, bool]:
    """``(value, supported)``: the ``q``-quantile when the samples
    support it (see :func:`percentile`), else their maximum."""
    value = percentile(values, q)
    if value is None:
        return float(max(values)), False
    return value, True


def error_rate(attempted: int, refused: int, wrong: int,
               errors: int = 0) -> float:
    """Failures over attempts: a refused request, a wrong output and
    an error each count as one failure."""
    if attempted < 1:
        raise ValueError("error_rate needs at least one attempt")
    return (refused + wrong + errors) / attempted


# -- spans -------------------------------------------------------------------
#
# A span is a tuple ``(sid, parent, root, name, start, end)``: ``sid``
# unique, ``parent`` the causing span's sid (``0`` for none), ``root``
# the request/call id every span of one unit of work shares.


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Iterable[tuple]) -> Dict[int, float]:
    """``{sid: self time}``: each span's duration minus the part of its
    interval that its children cover (children clipped to the parent,
    overlapping children counted once)."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, parent, _root, _name, start, end in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _root, _name, start, end in spans:
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(sid, ())
            if min(e, end) > max(s, start)
        ]
        out[sid] = (end - start) - _union_length(clipped)
    return out


def per_name(spans: Iterable[tuple]) -> Dict[str, Tuple[float, int]]:
    """``{name: (summed self time, number of spans)}``."""
    spans = list(spans)
    own = self_times(spans)
    out: Dict[str, Tuple[float, int]] = {}
    for sid, _p, _r, name, _s, _e in spans:
        total, count = out.get(name, (0.0, 0))
        out[name] = (total + own[sid], count + 1)
    return out


def mean_self_ms(totals: Dict[str, Tuple[float, int]], name: str) -> float:
    """Mean self time of one ``name`` span in ms (0 when none ran)."""
    total, count = totals.get(name, (0.0, 0))
    return 1e3 * total / count if count else 0.0


def coverage(spans: Iterable[tuple], wall: float) -> float:
    """Summed self time of every span over the measured wall time.

    For a properly nested tree the self times add up to the root
    durations, so the ratio is the share of the wall the traced layers
    account for.
    """
    if wall <= 0:
        raise ValueError("coverage needs a positive wall time")
    return sum(self_times(spans).values()) / wall

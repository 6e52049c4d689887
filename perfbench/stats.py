"""Arithmetic of the benchmark: medians, tail percentiles, rates, self time.

Kept free of the program and of numpy so that ``selftest.py`` can check it
in isolation. MB means 2**20 bytes throughout, the unit ``ru_maxrss`` is
reported in on Linux (as KiB) once divided by 1024.
"""

from __future__ import annotations

import math
import statistics

MB = 2**20
TAIL_SAMPLES = 10


def median(values):
    return statistics.median(values)


def nearest_rank(sorted_values, percent: float):
    """The ``percent``-th percentile by nearest rank of an ascending list."""
    rank = max(1, math.ceil(percent / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count: int, preferred: int = 90) -> int | None:
    """Highest whole percentile, at most ``preferred``, with at least
    ``TAIL_SAMPLES`` of ``count`` samples above its nearest-rank position.

    Returns ``None`` when even the median has fewer than that beyond it.
    """
    for percent in range(preferred, 49, -1):
        if count - math.ceil(percent / 100.0 * count) >= TAIL_SAMPLES:
            return percent
    return None


def summary(values) -> dict:
    """Median and rule-compliant tail of timing samples, with the count."""
    ordered = sorted(values)
    out = {"n": len(ordered), "p50": median(ordered) if ordered else None,
           "tail_pct": None, "tail": None}
    percent = tail_percentile(len(ordered))
    if percent is not None:
        out["tail_pct"] = percent
        out["tail"] = nearest_rank(ordered, percent)
    return out


def tokens_per_s(tokens: int, seconds: float) -> float:
    return tokens / seconds


def mb_per_s(nbytes: int, seconds: float) -> float:
    return nbytes / MB / seconds


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi)
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


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(child_intervals, start, end)


def children_index(spans) -> dict:
    """Map span id -> list of its direct children."""
    index: dict = {}
    for span in spans:
        index.setdefault(span["parent"], []).append(span)
    return index


def span_self_time(span, index) -> float:
    kids = index.get(span["id"], [])
    return self_time(span["start"], span["end"], [(k["start"], k["end"]) for k in kids])


def train_steps(train_span, index, step_marker: str):
    """Split one training call into steps.

    Step ``i`` runs from the start of the ``i``-th ``step_marker`` child (the
    step's forward pass) to the start of the next one, the last step to the
    end of the call. Returns ``(start, end, children)`` per step, where
    children are the call's direct child spans that start inside the step.
    """
    kids = sorted(index.get(train_span["id"], []), key=lambda s: s["start"])
    marks = [k["start"] for k in kids if k["name"] == step_marker]
    bounds = marks + [train_span["end"]]
    steps = []
    for lo, hi in zip(bounds, bounds[1:]):
        inside = [k for k in kids if lo <= k["start"] < hi]
        steps.append((lo, hi, inside))
    return steps

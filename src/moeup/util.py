"""Small shared helpers."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .config import ValidationError

THREADS_ENV_VAR = "MOEUP_THREADS"


def thread_cap() -> int:
    """Internal-parallelism cap from ``MOEUP_THREADS`` (default 1)."""
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
    return max(1, value)


def parallel_map(fn, items):
    """Order-preserving map, threaded when ``MOEUP_THREADS`` allows it.

    Results are assembled in input order, so output is independent of
    scheduling; only pure functions should be passed.
    """
    items = list(items)
    cap = thread_cap()
    if cap <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(cap, len(items))) as pool:
        return list(pool.map(fn, items))

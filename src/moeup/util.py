"""Small shared helpers."""

from __future__ import annotations

import ctypes
import functools
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from .config import ValidationError

THREADS_ENV_VAR = "MOEUP_THREADS"

# glibc ``mallopt`` parameters (malloc.h), and the values at which glibc's own
# dynamic thresholds top out on 64-bit builds: blocks under 32 MiB come from
# the heap, and free heap memory goes back to the system past 64 MiB.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


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


@functools.cache
def keep_freed_memory() -> bool:
    """Have glibc malloc keep freed memory for reuse; returns whether it applied.

    Each forward pass frees its activations, at their last use, before the
    next pass allocates as much again. glibc's thresholds start at 128 KiB and
    rise only as large blocks are freed, so it hands most of that memory back
    to the system and the next pass faults it in afresh, page by page: about
    10,000 page faults per toy MoE train step, 10-20% of the step's time.
    Fixing the thresholds at the top of glibc's own range keeps the memory in
    the heap for the next pass; the peak is unchanged. It is set once per
    process, and left alone on systems without ``mallopt``.
    """
    if not sys.platform.startswith("linux"):
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))

"""Small shared helpers: the thread pool and the one-time process set-up."""

from __future__ import annotations

import contextvars
import ctypes
import functools
import glob
import os
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .config import ValidationError

THREADS_ENV_VAR = "MOEUP_THREADS"

# glibc ``mallopt`` parameters (malloc.h), and the values at which glibc's own
# dynamic thresholds top out on 64-bit builds: blocks under 32 MiB come from
# the heap, and free heap memory goes back to the system past 64 MiB.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20

# Thread-count setters of numpy's bundled OpenBLAS (the 64-bit-integer builds
# of numpy 2 and numpy 1 wheels mangle the name) and of a plain OpenBLAS.
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "openblas_set_num_threads")


def thread_cap() -> int:
    """Internal-parallelism cap from ``MOEUP_THREADS``; by default the number
    of CPUs this process may run on."""
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
    return max(1, value)


# One persistent pool, resized when the cap changes. Its threads mark
# themselves, so that a map inside a task runs inline instead of waiting on
# the pool it occupies.
_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_worker = threading.local()


def _mark_worker() -> None:
    _worker.active = True


def _run_task(context: contextvars.Context, errors: dict, fn, item):
    """``fn(item)`` in the submitter's context and numpy error state; numpy
    1 keeps the error state per thread, outside the context."""
    with np.errstate(**errors):
        return context.run(fn, item)


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: it starts a new pool."""
    global _pool, _pool_lock, _pool_size
    _pool, _pool_lock, _pool_size = None, threading.Lock(), 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _get_pool(size: int) -> ThreadPoolExecutor:
    global _pool, _pool_size
    with _pool_lock:
        if _pool_size != size:
            setup_process()  # before the pool's first thread starts
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(size, thread_name_prefix="moeup",
                                       initializer=_mark_worker)
            _pool_size = size
        return _pool


def ordered_map(fn, items, pool: bool = True):
    """Yield ``fn(item)`` for each item, in input order, from the thread pool.

    At most ``thread_cap()`` items are in flight: submitted and not yet
    yielded. The next item is submitted only when the oldest result has been
    taken, so a caller that drops each result before taking the next bounds
    the live results as well. Each call runs in a copy of the caller's
    ``contextvars`` context and under its numpy error state. When ``pool``
    is false, for a single item, at a cap of 1 or inside a pool task, items
    run inline one at a time, each when it is taken, as with ``map``. Only
    functions whose results do not depend on scheduling belong here.
    """
    items = list(items)
    cap = thread_cap() if pool else 1
    if cap <= 1 or len(items) <= 1 or getattr(_worker, "active", False):
        yield from map(fn, items)
        return
    executor = _get_pool(cap)
    errors = np.geterr()
    window: deque = deque()
    try:
        for item in items:
            if len(window) == cap:
                yield window.popleft().result()
            window.append(executor.submit(_run_task, contextvars.copy_context(), errors,
                                          fn, item))
        while window:
            yield window.popleft().result()
    finally:  # an abandoned or failed map leaves no task running behind it
        for future in window:
            future.cancel()
        wait(window)


@functools.cache
def keep_freed_memory() -> bool:
    """Have glibc malloc keep freed memory for reuse; returns whether it applied.

    Each forward pass frees its activations, at their last use, before the
    next pass allocates as much again. glibc's thresholds start at 128 KiB and
    rise only as large blocks are freed, so it hands most of that memory back
    to the system and the next pass faults it in afresh, page by page: about
    10,000 page faults per toy MoE train step, 10-20% of the step's time.
    Fixing the thresholds at the top of glibc's own range keeps the memory in
    the heap for the next pass; the peak is unchanged. Malloc is also held to
    one arena: by default each pool thread gets an arena of its own, which
    keeps its own freed memory, and the toy train peak rose by 18 MB. It is
    set once per process, and left alone on systems without ``mallopt``.
    """
    if not sys.platform.startswith("linux"):
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
                and mallopt(_M_ARENA_MAX, 1))


@functools.cache
def pin_blas_threads() -> bool:
    """Run numpy's OpenBLAS on one thread; returns whether a setter was found.

    A GEMM's bits can depend on how many threads BLAS splits it over, so
    with BLAS pinned, results do not depend on ``OPENBLAS_NUM_THREADS`` or on
    the core count, and the thread pool is the only parallelism: nothing is
    oversubscribed. Other BLAS builds are left alone.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in [*sorted(glob.glob(os.path.join(libs, "*openblas*"))), None]:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = (ctypes.c_int,)
                setter.restype = None
                setter(1)
                return True
    return False


def setup_process() -> None:
    """One-time process set-up, before the first pass or pool thread: malloc
    keeps freed memory in one arena, and BLAS runs on one thread."""
    keep_freed_memory()
    pin_blas_threads()

"""Process-wide knobs: the thread count of the box FFTs, and their threads."""

from __future__ import annotations

import os
import threading

from .errors import InvariantViolation

# a job of fewer entries than this runs on the calling thread alone
# (measured; README "Numerical choices")
SLAB_MIN_ENTRIES = 2 ** 15

_THREADS = 1
_POOL = None  # (thread count, executor of count - 1 workers), made on first use
_POOL_LOCK = threading.Lock()  # held by the run_slabs call that spreads over the pool


def set_thread_count(n: int | None):
    """Set the number of threads that a large box FFT stage runs on
    (None = all cores); a count below 1 is refused."""
    global _THREADS
    if n is not None and n < 1:
        raise InvariantViolation(f"thread count must be at least 1, got {n}")
    _THREADS = int(n) if n is not None else os.cpu_count() or 1


def run_slabs(fn, length: int, entries: int):
    """fn(lo, hi) over near-equal slabs of range(length), one per thread of
    the set count, for a job that touches ``entries`` array entries.

    The calling thread runs the last slab and pool workers the others; the
    call returns when every slab is done and re-raises the first error.
    numpy releases the GIL in its FFT and array loops, so the slabs run at
    once.  A call made while another one holds the pool, from a slab or
    from another thread, runs on its own thread: a worker waiting for the
    pool would wait forever.
    """
    global _POOL
    t = min(_THREADS, length) if entries >= SLAB_MIN_ENTRIES else 1
    if t == 1 or not _POOL_LOCK.acquire(blocking=False):
        fn(0, length)
        return
    try:
        if _POOL is None or _POOL[0] != _THREADS:
            from concurrent.futures import ThreadPoolExecutor  # deferred: threaded runs only

            if _POOL is not None:
                _POOL[1].shutdown(wait=False)
            _POOL = (_THREADS, ThreadPoolExecutor(_THREADS - 1))
        bounds = [length * i // t for i in range(t + 1)]
        jobs = [_POOL[1].submit(fn, lo, hi) for lo, hi in zip(bounds[:-2], bounds[1:-1])]
        try:
            fn(bounds[-2], bounds[-1])
        finally:
            for job in jobs:
                job.result()
    finally:
        _POOL_LOCK.release()

"""Process-wide knobs: worker threads for the grid FFTs."""

from __future__ import annotations

import os

_THREADS = 1


def set_thread_count(n: int | None):
    """Set the scipy.fft worker count (None = all cores)."""
    global _THREADS
    _THREADS = max(1, int(n) if n else (os.cpu_count() or 1))


def thread_count() -> int:
    return _THREADS

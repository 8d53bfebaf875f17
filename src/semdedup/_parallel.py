"""Chunked thread parallelism whose results never depend on thread count.

Work is split on a fixed grid decided by the caller; partial results are
returned in grid order so any reduction the caller performs is ordered the
same way no matter how many workers ran.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import InvalidArgumentError

THREADS_ENV_VAR = "SEMDEDUP_THREADS"

T = TypeVar("T")
R = TypeVar("R")


def resolve_threads(threads: int = 0) -> int:
    """Turn a thread-count knob into a concrete worker count (0 = auto)."""
    if threads > 0:
        return threads
    env = os.environ.get(THREADS_ENV_VAR, "")
    if env.strip():
        try:
            value = int(env)
        except ValueError:
            raise InvalidArgumentError(f"{THREADS_ENV_VAR}={env!r} is not an integer") from None
        if value < 0:
            raise InvalidArgumentError(f"{THREADS_ENV_VAR}={env!r} must be >= 0 (0 = auto)")
        if value > 0:
            return value
    return os.cpu_count() or 1


def chunk_ranges(n: int, chunk: int) -> list[tuple[int, int]]:
    """Half-open [lo, hi) ranges covering [0, n) in fixed-size chunks."""
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def map_ordered(fn: Callable[[T], R], items: Sequence[T], threads: int) -> list[R]:
    """Apply ``fn`` to items, in parallel when threads > 1, preserving order."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))

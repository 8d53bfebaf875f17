"""Chunked thread parallelism whose results never depend on thread count.

Work is split on a fixed grid decided by the caller; partial results are
returned in grid order so any reduction the caller performs is ordered the
same way no matter how many workers ran.

``threads`` is the whole CPU budget of a pass, and ``map_ordered`` is the one
place that resolves it: 0 means the CPUs this process may run on (its
affinity mask, which taskset or a cpuset narrows) and a negative count is an
error, in every library ``threads`` parameter. While ``map_ordered`` runs,
numpy's bundled OpenBLAS runs single-threaded, on the serial path too, and
the caller's OpenBLAS thread count is restored afterwards (nested and
concurrent calls share one pin). The workers then keep ``threads`` cores busy
instead of queueing on OpenBLAS's own pool, and no GEMM is split across
OpenBLAS threads, so what ``fn`` computes depends on neither ``threads`` nor
the machine's core count. Without a bundled OpenBLAS the count is left alone.

``SCRATCH_BYTES`` is the memory budget beside it: a row-blocked loop takes as
many rows as fit it (``budget_rows``) and allocates that scratch once per
call. It sets memory only, never a result, and is not a user option. A
command's peak memory is then the interpreter, plus one normalized corpus
(see ``embedding_store``), plus for ``cluster`` the k-means seeding's float64
race sample of min(n, 256k, max(16384, 4k)) * d * 8 bytes (Lloyd reads its
training sample from the corpus by row index and holds no copy of it), plus
per worker thread the budget and what the similarity kernel holds: one block
of at most tile and one panel of at most 256 rows read from the corpus by row
index (float32, plus their float64 casts for the histogram), never a whole
cluster, and one similarity panel of 256 * tile entries with a 64 KiB mask,
float32 (1 MiB by default) for the prefix maxima and the threshold pass or
float64 (2 MiB) for the histogram. The prefix maxima's screen also holds one
block's candidate pairs (at most 256 * tile, 20 bytes each) and the candidates
of the panels still open (about 1.2 per point of the cluster), which it cuts
or hands to float64 once they outgrow the budget; the threshold pass holds one
block's band pairs (about 32 bytes each) and marks the points that have a
duplicate in one n-byte array. ``write_keep_list`` holds a sorted copy of the
ids and writes them in chunks of 16,384, which at about 123 bytes per 20-digit
id fit the budget.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import InvalidArgumentError

# Symbol families of numpy's bundled OpenBLAS, newest wheels first.
_BLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads")

# Bytes of row-blocked scratch one worker holds at a time.
SCRATCH_BYTES = 2 << 20

T = TypeVar("T")
R = TypeVar("R")

# OpenBLAS's thread count is process-wide, so the pin that saves and restores it is too.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 0


def resolve_threads(threads: int = 0) -> int:
    """``threads`` if positive, for 0 the CPUs this process may run on; below 0 an error."""
    if threads < 0:
        raise InvalidArgumentError(f"threads must be >= 0 (0 = auto), got {threads}")
    if threads > 0:
        return threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def budget_rows(row_bytes: int) -> int:
    """Rows whose scratch, ``row_bytes`` each, fits in SCRATCH_BYTES (at least one)."""
    return max(1, SCRATCH_BYTES // max(row_bytes, 1))


def chunk_ranges(n: int, chunk: int, min_rows: int = 1) -> list[tuple[int, int]]:
    """Half-open [lo, hi) ranges covering [0, n) in fixed-size chunks.

    A last range shorter than ``min_rows`` joins the one before it.
    """
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    spans = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    if len(spans) > 1 and spans[-1][1] - spans[-1][0] < min_rows:
        spans[-2:] = [(spans[-2][0], n)]
    return spans


@functools.cache
def _blas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)  # numpy has already loaded it
        for family in _BLAS_SYMBOLS:
            get = getattr(lib, family.format("get"), None)
            set_ = getattr(lib, family.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _blas_single_threaded():
    """Run the body with OpenBLAS at one thread, then restore the count the first entrant saw."""
    global _pin_depth, _pin_saved
    blas = _blas()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_saved)


def map_ordered(fn: Callable[[T], R], items: Sequence[T], threads: int) -> list[R]:
    """Apply ``fn`` to items on ``resolve_threads(threads)`` workers, preserving order.

    ``threads = 0`` means the CPUs this process may run on; a negative count
    raises InvalidArgumentError before ``fn`` runs. One worker or one item runs
    serially, without a pool. OpenBLAS runs single-threaded until this returns.
    """
    threads = resolve_threads(threads)
    with _blas_single_threaded():
        if threads == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))

"""The thread budget: results never depend on the worker or OpenBLAS thread count."""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import semdedup
from semdedup import _parallel
from semdedup._parallel import map_ordered, resolve_threads
from semdedup.analysis_metrics import dedup_efficiency, duplicate_incidence, similarity_histogram
from semdedup.dedup_core import KeepStrategy, prefix_maxima
from semdedup.embedding_store import normalize_rows, write_embeddings
from semdedup.errors import InvalidArgumentError
from semdedup.spherical_kmeans import fit

from conftest import generate_planted

BLAS = _parallel._blas()
needs_blas = pytest.mark.skipif(BLAS is None, reason="numpy has no bundled OpenBLAS")


@pytest.fixture
def blas_threads():
    """Set OpenBLAS's thread count for one test, restoring the original after it."""
    get, set_ = BLAS
    original = get()
    yield set_
    set_(original)


@pytest.fixture(scope="module")
def planted():
    sizes = [3, 40, 7, 25, 1, 60, 12, 30, 2, 18, 45, 9]
    corpus = generate_planted(len(sizes), sizes, 48, 0.93, seed=3)
    e = normalize_rows(corpus.embeddings)
    return e, fit(e, 5, 6, seed=2)


def _outputs(e, model, threads):
    # A tile smaller than the largest cluster puts off-diagonal tiles in the sweep.
    return (
        prefix_maxima(e, model, KeepStrategy.LOW_CENTROID_SIM, 4, tile=16, threads=threads),
        similarity_histogram(e, model, 50, tile=16, threads=threads),
        duplicate_incidence(e, model, 0.08, tile=16, threads=threads),
        dedup_efficiency(e, model, 0.08, 2, tile=16, threads=threads),
    )


@needs_blas
def test_outputs_invariant_to_worker_and_blas_threads(planted, blas_threads):
    e, model = planted
    runs = []
    for preset in (1, 2):
        blas_threads(preset)
        for threads in (1, 2, 3):
            runs.append(((preset, threads), _outputs(e, model, threads)))
    _, (pmax, hist, incidence, eta) = runs[0]
    assert np.count_nonzero(pmax) > 0 and incidence > 0
    for key, (p, h, inc, et) in runs[1:]:
        assert np.array_equal(p, pmax), key
        assert np.array_equal(h, hist), key
        assert inc == incidence and et == eta, key


@needs_blas
@pytest.mark.parametrize("threads", [1, 3])
def test_map_ordered_pins_blas_and_restores_it(blas_threads, threads):
    get, _ = BLAS
    blas_threads(2)
    assert map_ordered(lambda _: get(), range(4), threads) == [1, 1, 1, 1]
    assert get() == 2


@needs_blas
@pytest.mark.parametrize("threads", [1, 3])
def test_map_ordered_restores_blas_when_fn_raises(blas_threads, threads):
    get, _ = BLAS
    blas_threads(2)

    def fail(item):
        if item == 2:
            raise ValueError("boom")
        return item

    with pytest.raises(ValueError, match="boom"):
        map_ordered(fail, range(4), threads)
    assert get() == 2


@needs_blas
def test_concurrent_map_ordered_calls_keep_the_pin(blas_threads):
    get, _ = BLAS
    blas_threads(2)
    seen, errors = [], []

    def caller():
        try:
            for _ in range(40):
                seen.extend(map_ordered(lambda _: get(), range(3), 2))
        except Exception as exc:  # reported below, on the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers) and not errors
    assert seen == [1] * (6 * 40 * 3)
    assert get() == 2


def test_map_ordered_without_blas_library(monkeypatch):
    monkeypatch.setattr(_parallel.glob, "glob", lambda pattern: [])
    lookup = _parallel._blas.__wrapped__
    assert lookup() is None
    monkeypatch.setattr(_parallel, "_blas", lookup)
    for threads in (1, 3):
        assert map_ordered(lambda x: x * x, range(5), threads) == [0, 1, 4, 9, 16]


def test_resolve_threads_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(_parallel.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert resolve_threads(0) == 1
    assert resolve_threads(5) == 5


def test_resolve_threads_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(_parallel.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 3)
    assert resolve_threads(0) == 3
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: None)
    assert resolve_threads(0) == 1


@pytest.fixture
def opened(monkeypatch):
    """The worker count of each pool ``map_ordered`` opens during the test."""
    counts = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            counts.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", Recording)
    return counts


@pytest.mark.parametrize("cpus, pools", [({0, 1}, [2]), ({5}, [])])
def test_map_ordered_resolves_zero_threads(monkeypatch, opened, cpus, pools):
    monkeypatch.setattr(_parallel.os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert map_ordered(lambda x: x * x, range(5), 0) == [0, 1, 4, 9, 16]
    assert opened == pools


def test_map_ordered_rejects_negative_threads(opened):
    called = []
    with pytest.raises(InvalidArgumentError):
        map_ordered(called.append, [1, 2], -1)
    assert called == [] and opened == []


def test_prefix_maxima_rejects_negative_threads(planted):
    e, model = planted
    with pytest.raises(InvalidArgumentError):
        prefix_maxima(e, model, KeepStrategy.LOW_CENTROID_SIM, 4, threads=-1)


def test_setup_does_not_resolve_blas(tmp_path, rng):
    from conftest import random_unit

    path = tmp_path / "corpus.semd"
    write_embeddings(random_unit(rng, 20, 8), path)
    src = str(Path(semdedup.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import sys, semdedup\n"
        "from semdedup import _parallel\n"
        "from semdedup.embedding_store import load_embeddings, normalize_rows\n"
        "normalize_rows(load_embeddings(sys.argv[1]))\n"
        "print(_parallel._blas.cache_info().misses)\n"
    )
    out = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "0"

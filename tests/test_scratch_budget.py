"""The scratch budget: it bounds memory and changes no result."""

import tracemalloc

import numpy as np
import pytest

from semdedup import _parallel
from semdedup.analysis_metrics import dedup_efficiency, duplicate_incidence, similarity_histogram
from semdedup.cli import PipelineConfig, _load_corpus
from semdedup.dedup_core import _PANEL, DEFAULT_TILE, KeepStrategy, prefix_maxima, write_keep_list
from semdedup.embedding_store import (
    EmbeddingMatrix,
    load_embeddings,
    normalize_rows,
    normalize_rows_in_place,
    write_embeddings,
)
from semdedup.oracle import brute_force_greedy_dedup
from semdedup.spherical_kmeans import _INIT_SAMPLE_CAP, _POINTS_PER_CENTROID, _assign_pass, fit

from conftest import random_unit, single_cluster_model, unit_rows


@pytest.fixture
def one_row_budget(monkeypatch):
    """Shrink the budget so that every row-blocked loop takes a single row per block."""
    return lambda: monkeypatch.setattr(_parallel, "SCRATCH_BYTES", 1)


def _results(e, threads):
    model = fit(e, 64, 4, seed=5, threads=threads)
    low = KeepStrategy.LOW_CENTROID_SIM
    return (
        model.centroids.tobytes(),
        model.assignment.tobytes(),
        # The winning cosines: their low bits show how the GEMM was blocked.
        _assign_pass(e.data, model.centroids.astype(np.float64), threads)[1].tobytes(),
        prefix_maxima(e, model, low, 2, tile=16, threads=threads).tobytes(),
        similarity_histogram(e, model, 40, tile=16, threads=threads).tobytes(),
        duplicate_incidence(e, model, 0.3, tile=16, threads=threads),
        dedup_efficiency(e, model, 0.3, 2, tile=16, threads=threads),
    )


@pytest.mark.parametrize("threads", [1, 2])
def test_clustering_and_dedup_ignore_the_budget(one_row_budget, threads):
    # k * d = 4096: the assignment GEMM runs on sub-blocks of 245 rows at the
    # one-row budget and on the whole 3000-row chunk at the default one.
    e = random_unit(np.random.default_rng(8), 3000, 64)
    default = _results(e, threads)
    one_row_budget()
    assert _results(e, threads) == default


def _magnitude_corpora():
    """Rows spanning 1e-6..1e6, and 1e-9..1e30 (1e-3..1e30 across rows, 1e-6..1 within one)."""
    local = np.random.default_rng(9)
    yield (local.standard_normal((50, 13)) * 10.0 ** local.uniform(-6, 6, (50, 1))).astype(np.float32)
    for shape in [(40, 1), (40, 2048), (300, 24)]:
        local = np.random.default_rng(shape[1])
        scale = 10.0 ** local.uniform(-3, 30, shape[0])[:, None] * 10.0 ** local.uniform(-6, 0, shape)
        yield (local.choice([-1.0, 1.0], shape) * scale).astype(np.float32)


@pytest.mark.parametrize("index", range(4))
def test_normalization_ignores_the_budget(tmp_path, one_row_budget, index):
    data = list(_magnitude_corpora())[index]
    path = tmp_path / "m.semd"
    write_embeddings(EmbeddingMatrix(data), path)

    def both():
        copy = normalize_rows(load_embeddings(path))
        in_place = normalize_rows_in_place(load_embeddings(path))
        assert np.array_equal(in_place.data.view(np.uint32), copy.data.view(np.uint32))
        assert np.array_equal(in_place.ids, copy.ids)
        return copy.data.tobytes()

    default = both()
    one_row_budget()
    assert both() == default


def _traced_peak(fn):
    """Peak bytes traced while ``fn`` runs, above what was held before it; numpy's buffers count."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


def test_cli_loader_holds_one_corpus_plus_the_budget(tmp_path):
    n, d = 20_000, 64
    path = tmp_path / "corpus.semd"
    write_embeddings(EmbeddingMatrix(np.random.default_rng(3).standard_normal((n, d))), path)
    corpus = n * d * 4 + n * 8
    peak, e = _traced_peak(lambda: _load_corpus(PipelineConfig(input=str(path))))
    # The ids' uniqueness check sorts a copy of them; the rest is slack.
    assert peak <= corpus + _parallel.SCRATCH_BYTES + 4 * n * 8
    assert e.data.shape == (n, d)


# At n = 60,000 and k = 100 Lloyd trains on 25,600 rows: a copy of them (6.25 MiB)
# would exceed the slack the bound leaves.
@pytest.mark.parametrize("n, k", [(20_000, 20), (20_000, 200), (60_000, 100)], ids=["20", "200", "60000-100"])
def test_fit_holds_the_init_sample_plus_a_budget_per_worker(n, k):
    d, threads = 64, 2
    e = random_unit(np.random.default_rng(4), n, d)
    peak, _ = _traced_peak(lambda: fit(e, k, 3, seed=1, threads=threads))
    # The seeding's float64 race sample; the training sample is read by row index.
    sample = min(n, _POINTS_PER_CENTROID * k, max(_INIT_SAMPLE_CAP, 4 * k)) * d * 8
    # Per-point vectors (assignment, best cosine, the init race) and per-chunk cluster sums.
    assert peak <= sample + threads * _parallel.SCRATCH_BYTES + 4 * n * 8 + 8 * k * d * 8


def test_keep_list_holds_one_sorted_copy_plus_the_budget(tmp_path):
    # 20-digit ids give the longest lines and the largest Python ints.
    ids = np.random.default_rng(6).integers(10**19, 2**64, 100_000, dtype=np.uint64)
    peak, _ = _traced_peak(lambda: write_keep_list(tmp_path / "keep.txt", ids))
    assert peak <= ids.nbytes + _parallel.SCRATCH_BYTES


def _kernel_bytes(d):
    """One worker's float32 ``_panels`` buffers: the rows of a block and a panel, a panel
    of scores, a mask of one byte per score and the 64 KiB diagonal mask."""
    return (DEFAULT_TILE + _PANEL) * d * 4 + _PANEL * DEFAULT_TILE * 5 + _PANEL * _PANEL


def _four_clusters(n=12_000, d=256, threads=2):
    e = random_unit(np.random.default_rng(4), n, d)
    return e, fit(e, 4, 3, seed=1, threads=threads)


def test_efficiency_holds_a_tile_and_a_panel_per_worker():
    e, model = _four_clusters()
    threads = 2
    peak, _ = _traced_peak(lambda: dedup_efficiency(e, model, 0.3, 1, threads=threads))
    # Rows are read from the corpus a tile and a panel at a time: even a task
    # that pairs two clusters holds no cluster's rows (3.1 MiB at most here).
    # Plus the n-byte marks of the points that have a duplicate.
    assert peak <= threads * (_kernel_bytes(e.d) + _parallel.SCRATCH_BYTES) + e.n


def test_histogram_holds_what_the_float32_passes_hold_per_worker():
    e, model = _four_clusters()
    threads = 2
    peak, _ = _traced_peak(lambda: similarity_histogram(e, model, 200, threads=threads))
    # A float64 block and panel hold half the rows of a float32 one: with their
    # float32 staging rows, a float64 panel of cosines and the binning's
    # temporaries, which fit the budget, they take the efficiency test's bound.
    assert peak <= threads * (_kernel_bytes(e.d) + _parallel.SCRATCH_BYTES) + e.n


def test_prefix_maxima_holds_a_tile_not_a_cluster_per_worker():
    # One cluster of 8,000 x 256 rows (8.2 MB) that the sweep reads a tile at a time.
    n, d = 8_000, 256
    e = random_unit(np.random.default_rng(7), n, d)
    model = single_cluster_model(e)
    peak, _ = _traced_peak(lambda: prefix_maxima(e, model, KeepStrategy.LOW_CENTROID_SIM, 0, threads=2))
    # One sweep runs; its candidates (about 1.2 per point), the best scores so
    # far, the keep order, its keys and pmax are a few n-sized arrays.
    assert peak <= _kernel_bytes(d) + _parallel.SCRATCH_BYTES + 8 * n * 8


def test_exact_copies_hold_a_working_set_that_does_not_grow():
    # Every earlier copy is a winning candidate, so O(copies^2) pairs reach
    # float64, but no more than the budget and one panel's block of them are
    # held at once.
    peaks = []
    for copies in (3_000, 6_000):
        e = unit_rows(np.repeat(np.random.default_rng(1).standard_normal((1, 128)), copies, axis=0))
        model = single_cluster_model(e)
        peak, pmax = _traced_peak(lambda: prefix_maxima(e, model, KeepStrategy.LOW_CENTROID_SIM, 0, threads=2))
        # All keys tie, so the keep order is by id: the row order here.
        wide = e.data.astype(np.float64)
        want = np.einsum("ij,ij->i", wide, wide)
        want[0] = 0.0
        assert np.array_equal(pmax, want)
        if copies == 3_000:  # the oracle holds the whole float64 similarity matrix
            assert np.array_equal(pmax <= 0.95, brute_force_greedy_dedup(e, np.arange(copies), 0.05))
        # A candidate of one panel's block takes at most 64 bytes: its flat index,
        # row pair and score, its best so far, the pair's corpus rows and its dot.
        assert peak <= _PANEL * DEFAULT_TILE * 64 + 2 * _parallel.SCRATCH_BYTES
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) <= 2 << 20

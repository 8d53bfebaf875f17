"""Diagnostics computed over a clustered corpus.

Covers the redundancy instruments: the within-cluster pairwise cosine
histogram, the fraction of points with at least one within-cluster
duplicate, per-cluster removal statistics, the intersection percentage
between two equal-size keep-sets, and the detection-efficiency percentage
(share of threshold pairs found within clusters out of all threshold pairs
in the neighbor-cluster-approximated universe).

Two passes over the clusters' pairs, each one ``map_ordered`` call, and each
reads a cluster's rows from the corpus by index through ``dedup_core._panels``,
a block and a panel at a time, never a whole cluster. The binning pass,
``similarity_histogram``, takes no epsilon and bins float64 panel entries.
The threshold pass, ``threshold_pass``, judges each pair once at cosine >=
1 - epsilon on the float64 row-wise dot pmax is made of, ``dedup_core._dots``,
read only where a float32 panel score lies within ``_screen_margin`` of
1 - epsilon; no tile, thread count or BLAS changes a verdict. Within-cluster
hits give both eta's detected pairs and the points that have a duplicate, so
the two agree on every verdict, and every point ``dedup`` removes at epsilon
is marked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._parallel import budget_rows, chunk_ranges, map_ordered
from .dedup_core import DEFAULT_TILE, _check_epsilon, _dots, _panels, _screen_margin
from .embedding_store import UnitEmbeddingMatrix
from .errors import InvalidArgumentError
from .spherical_kmeans import KMeansModel, _nearest

DEFAULT_BINS = 200
DEFAULT_NEIGHBORS = 20


@dataclass
class ClusterStat:
    cluster: int
    size: int
    removed: int
    removed_fraction: float


def histogram_bin_edges(bins: int) -> np.ndarray:
    """bins+1 edges covering [-1, 1]; the last bin is closed at 1."""
    return -1.0 + 2.0 * np.arange(bins + 1) / bins


def _bin_indices(sims: np.ndarray, bins: int) -> np.ndarray:
    idx = np.floor((sims + 1.0) * (bins / 2.0)).astype(np.int64)
    return np.clip(idx, 0, bins - 1)


def similarity_histogram(
    e: UnitEmbeddingMatrix,
    model: KMeansModel,
    bins: int = DEFAULT_BINS,
    tile: int = DEFAULT_TILE,
    threads: int = 1,
) -> np.ndarray:
    """Counts of within-cluster unordered pairs per cosine bin over [-1, 1].

    Bin b covers [-1 + 2b/bins, -1 + 2(b+1)/bins), except the last bin which
    is closed at 1. Counts total exactly sum over clusters of n_c(n_c-1)/2.
    The binning pass: one task per cluster, and no epsilon.
    """
    if bins < 2:
        raise InvalidArgumentError("bins must be >= 2")
    model.check_matches(e)

    def one(c: int) -> np.ndarray:
        counts = np.zeros(bins, dtype=np.int64)
        for _, _, sims in _panels(e.data, model.members[c], tile=tile, dtype=np.float64):
            # About four float64 temporaries per cosine while binning.
            for lo, hi in chunk_ranges(sims.shape[0], budget_rows(32 * sims.shape[1])):
                block = sims[lo:hi]
                counts += np.bincount(_bin_indices(block[block > -np.inf], bins), minlength=bins)
        return counts

    return sum(map_ordered(one, range(model.k), threads)).astype(np.uint64)


def threshold_pass(
    e: UnitEmbeddingMatrix,
    model: KMeansModel,
    epsilon: float,
    m_neighbors: int,
    tile: int = DEFAULT_TILE,
    threads: int = 1,
) -> tuple[float, float]:
    """``(eta, incidence)`` from one verdict per pair at cosine >= 1-epsilon.

    The threshold pass: each cluster with itself, then each pair of clusters
    within one of the two's m nearest-centroid lists (0 <= m < k). A
    within-cluster hit counts towards eta's detected pairs and marks both its
    ends, so the incidence covers every point ``dedup`` removes at epsilon; a
    pair exactly at 1-epsilon marks but removes nothing. No verdict depends on
    tile, threads or BLAS, though eta's neighbor lists come from a float64 GEMV.
    """
    _check_epsilon(epsilon)
    k = model.k
    if m_neighbors < 0 or m_neighbors >= max(k, 1):
        raise InvalidArgumentError(f"m_neighbors={m_neighbors} must be in [0, k-1]={k - 1}")
    model.check_matches(e)
    threshold, margin = 1.0 - epsilon, _screen_margin(e.d)
    sure = np.nextafter(np.float32(threshold + margin), np.float32(np.inf))
    below = np.nextafter(np.float32(threshold - margin), np.float32(-np.inf))  # both rounded outwards
    cents64 = model.centroids.astype(np.float64)
    pairs = {tuple(sorted((c, int(b)))) for c in range(k) if m_neighbors
             for b in _nearest(cents64, c, m_neighbors)}
    tasks = [(c, c) for c in range(k)] + sorted(pairs)
    near = np.zeros(e.n, dtype=bool)

    def count(task: tuple[int, int]) -> int:
        a, b = task
        rows = model.members[a]
        cols = rows if a == b else model.members[b]
        hits = 0
        for i0, j0, sims in _panels(e.data, rows, None if a == b else cols, tile=tile, dtype=np.float32):
            hit = sims >= sure
            band = np.flatnonzero(np.not_equal(sims >= below, hit))
            i, j = np.divmod(band, sims.shape[1])
            hit.ravel()[band[_dots(e.data, e.data, rows[i0 + i], cols[j0 + j]) >= threshold]] = True
            hits += int(np.count_nonzero(hit))
            if a == b:  # tasks own disjoint rows
                near[rows[i0:i0 + hit.shape[0]][hit.any(axis=1)]] = True
                near[rows[j0:j0 + hit.shape[1]][hit.any(axis=0)]] = True
        return hits

    counts = map_ordered(count, tasks, threads)
    detected, universe = sum(counts[:k]), sum(counts)
    eta = 100.0 if universe == 0 else 100.0 * detected / universe
    return eta, int(np.count_nonzero(near)) / e.n


def duplicate_incidence(
    e: UnitEmbeddingMatrix,
    model: KMeansModel,
    epsilon: float,
    tile: int = DEFAULT_TILE,
    threads: int = 1,
) -> float:
    """Fraction of points with a same-cluster neighbor at cosine >= 1-epsilon.

    Symmetric in the pair and independent of any keep ordering: the incidence
    of ``threshold_pass`` with no neighbor clusters, so it bins nothing.
    """
    return threshold_pass(e, model, epsilon, 0, tile, threads)[1]


def intersection_pct(keep_a: Iterable[int], keep_b: Iterable[int], n: int) -> float:
    """100 * |keep_a intersect keep_b| / n for equal-size id sets of size n >= 1."""
    set_a = {int(x) for x in keep_a}
    set_b = {int(x) for x in keep_b}
    if len(set_a) != n or len(set_b) != n:
        raise InvalidArgumentError(
            f"both keep-sets must have size n={n}, got {len(set_a)} and {len(set_b)}"
        )
    if n < 1:
        raise InvalidArgumentError("keep-sets must not be empty")
    return 100.0 * len(set_a & set_b) / n


def dedup_efficiency(
    e: UnitEmbeddingMatrix,
    model: KMeansModel,
    epsilon: float,
    m_neighbors: int = DEFAULT_NEIGHBORS,
    tile: int = DEFAULT_TILE,
    threads: int = 1,
) -> float:
    """Percentage of threshold pairs detected within clusters.

    The reference universe counts every unordered pair at cosine >= 1-epsilon
    whose endpoints share a cluster or sit in clusters that are within each
    other's m nearest-centroid lists (counted if either cluster lists the
    other). Returns 100.0 when the universe is empty. The eta of
    ``threshold_pass``.
    """
    return threshold_pass(e, model, epsilon, m_neighbors, tile, threads)[0]


def per_cluster_stats(removed_counts: np.ndarray, model: KMeansModel) -> list:
    """Size, removed count, and removed fraction per cluster.

    ``removed_counts`` holds one count per cluster, as in
    ``DedupResult.per_cluster_removed``.
    """
    removed_counts = np.asarray(removed_counts)
    if removed_counts.shape != (model.k,):
        raise InvalidArgumentError(
            f"{removed_counts.shape} removed counts do not match the model's k={model.k}"
        )
    stats = []
    for c in range(model.k):
        size = int(model.members[c].size)
        removed = int(removed_counts[c])
        fraction = removed / size if size else 0.0
        stats.append(ClusterStat(cluster=c, size=size, removed=removed, removed_fraction=fraction))
    return stats


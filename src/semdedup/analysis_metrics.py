"""Diagnostics computed over a clustered corpus.

Covers the redundancy instruments: the within-cluster pairwise cosine
histogram, the fraction of points with at least one within-cluster
duplicate, per-cluster removal statistics, the intersection percentage
between two equal-size keep-sets, and the detection-efficiency percentage
(share of threshold pairs found within clusters out of all threshold pairs
in the neighbor-cluster-approximated universe).

The histogram and nmax, each point's largest cosine to another member of
its cluster, come from one sweep of every cluster's pairs,
``within_cluster_pass``. nmax does not depend on epsilon, and the incidence
at any epsilon thresholds it (``incidence_at``). The detection efficiency
counts its own pairs, within and across clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._parallel import map_ordered
from .dedup_core import pair_tiles
from .embedding_store import UnitEmbeddingMatrix
from .errors import InvalidArgumentError
from .spherical_kmeans import KMeansModel, nearest_clusters

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


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise InvalidArgumentError(f"epsilon must be in (0, 1), got {epsilon}")


def within_cluster_pass(
    e: UnitEmbeddingMatrix,
    model: KMeansModel,
    bins: int = DEFAULT_BINS,
    tile: int = 1024,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram counts and row-aligned nmax from one sweep of each cluster's pairs.

    The counts are those of ``similarity_histogram``. A point's nmax is its
    largest float64 cosine to another member of its cluster, -inf for a
    singleton; it is the row and column maximum of the cluster's tiles.
    """
    if bins < 2:
        raise InvalidArgumentError("bins must be >= 2")
    model.check_matches(e)
    nmax = np.full(e.n, -np.inf)

    def one(c: int) -> np.ndarray:
        members = model.members[c]
        counts = np.zeros(bins, dtype=np.int64)
        near = np.full(members.size, -np.inf)
        for i0, j0, sims in pair_tiles(e.data[members], tile=tile):
            counts += np.bincount(_bin_indices(sims[sims > -np.inf], bins), minlength=bins)
            rows = near[i0:i0 + sims.shape[0]]
            np.maximum(rows, sims.max(axis=1), out=rows)
            cols = near[j0:j0 + sims.shape[1]]
            np.maximum(cols, sims.max(axis=0), out=cols)
        nmax[members] = near
        return counts

    counts = sum(map_ordered(one, range(model.k), threads))
    return counts.astype(np.uint64), nmax


def incidence_at(nmax: np.ndarray, epsilon: float) -> float:
    """Share of points whose nmax (see ``within_cluster_pass``) is >= 1 - epsilon."""
    _check_epsilon(epsilon)
    return int(np.count_nonzero(nmax >= 1.0 - epsilon)) / nmax.size


def similarity_histogram(
    e: UnitEmbeddingMatrix,
    model: KMeansModel,
    bins: int = DEFAULT_BINS,
    tile: int = 1024,
    threads: int = 1,
) -> np.ndarray:
    """Counts of within-cluster unordered pairs per cosine bin over [-1, 1].

    Bin b covers [-1 + 2b/bins, -1 + 2(b+1)/bins), except the last bin which
    is closed at 1. Counts total exactly sum over clusters of n_c(n_c-1)/2.
    The counts of ``within_cluster_pass``; a caller that also wants the
    incidence runs that pass once instead.
    """
    return within_cluster_pass(e, model, bins, tile, threads)[0]


def duplicate_incidence(
    e: UnitEmbeddingMatrix,
    model: KMeansModel,
    epsilon: float,
    tile: int = 1024,
    threads: int = 1,
) -> float:
    """Fraction of points with a same-cluster neighbor at cosine >= 1-epsilon.

    Symmetric in the pair and independent of any keep ordering: ``incidence_at``
    on the nmax of ``within_cluster_pass``, with epsilon checked before the sweep.
    """
    _check_epsilon(epsilon)
    return incidence_at(within_cluster_pass(e, model, tile=tile, threads=threads)[1], epsilon)


def intersection_pct(keep_a: Iterable[int], keep_b: Iterable[int], n: int) -> float:
    """100 * |keep_a intersect keep_b| / n for equal-size id sets of size n."""
    set_a = {int(x) for x in keep_a}
    set_b = {int(x) for x in keep_b}
    if len(set_a) != n or len(set_b) != n:
        raise InvalidArgumentError(
            f"both keep-sets must have size n={n}, got {len(set_a)} and {len(set_b)}"
        )
    return 100.0 * len(set_a & set_b) / n


def _count_pairs(a: np.ndarray, b: np.ndarray | None, threshold: float, tile: int) -> int:
    """Pairs at cosine >= threshold: unordered within ``a`` if ``b`` is None, else a x b."""
    return sum(int(np.count_nonzero(sims >= threshold)) for _, _, sims in pair_tiles(a, b, tile))


def dedup_efficiency(
    e: UnitEmbeddingMatrix,
    model: KMeansModel,
    epsilon: float,
    m_neighbors: int = DEFAULT_NEIGHBORS,
    tile: int = 1024,
    threads: int = 1,
) -> float:
    """Percentage of threshold pairs detected within clusters.

    The reference universe counts every unordered pair at cosine >= 1-epsilon
    whose endpoints share a cluster or sit in clusters that are within each
    other's m nearest-centroid lists (counted if either cluster lists the
    other). Returns 100.0 when the universe is empty. ``m_neighbors`` may be
    0 (mandatory when k == 1, where no neighbor clusters exist).
    """
    _check_epsilon(epsilon)
    k = model.k
    if m_neighbors < 0 or m_neighbors >= max(k, 1):
        raise InvalidArgumentError(f"m_neighbors={m_neighbors} must be in [0, k-1]={k - 1}")
    model.check_matches(e)
    threshold = 1.0 - epsilon

    def within(c: int) -> int:
        return _count_pairs(e.data[model.members[c]], None, threshold, tile)

    detected = int(sum(map_ordered(within, range(k), threads)))

    cluster_pairs: set[tuple[int, int]] = set()
    if m_neighbors >= 1:
        for c in range(k):
            for b in nearest_clusters(model, c, m_neighbors):
                cluster_pairs.add((min(c, int(b)), max(c, int(b))))

    def across(pair: tuple[int, int]) -> int:
        a, b = pair
        return _count_pairs(e.data[model.members[a]], e.data[model.members[b]], threshold, tile)

    missed = int(sum(map_ordered(across, sorted(cluster_pairs), threads)))
    universe = detected + missed
    if universe == 0:
        return 100.0
    return 100.0 * detected / universe


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


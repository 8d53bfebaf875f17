"""Diagnostics computed over a clustered corpus.

Covers the redundancy instruments: the within-cluster pairwise cosine
histogram, the fraction of points with at least one within-cluster
duplicate, per-cluster removal statistics, the intersection percentage
between two equal-size keep-sets, and the detection-efficiency percentage
(share of threshold pairs found within clusters out of all threshold pairs
in the neighbor-cluster-approximated universe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

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
    cluster_id: int
    size: int
    removed: int
    removed_fraction: float


@dataclass
class MetricsReport:
    bins: int
    histogram_counts: np.ndarray
    duplicate_incidence: float
    per_cluster: list
    eta: float
    intersection: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "similarity_histogram": {
                "bins": self.bins,
                "counts": self.histogram_counts.tolist(),
            },
            "duplicate_incidence": self.duplicate_incidence,
            "per_cluster": [
                {
                    "cluster": s.cluster_id,
                    "size": s.size,
                    "removed": s.removed,
                    "removed_fraction": s.removed_fraction,
                }
                for s in self.per_cluster
            ],
            "eta": self.eta,
            "intersection": self.intersection,
        }


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
    tile: int = 1024,
    threads: int = 1,
) -> np.ndarray:
    """Counts of within-cluster unordered pairs per cosine bin over [-1, 1].

    Bin b covers [-1 + 2b/bins, -1 + 2(b+1)/bins), except the last bin which
    is closed at 1. Counts total exactly sum over clusters of n_c(n_c-1)/2.
    """
    if bins < 2:
        raise InvalidArgumentError("bins must be >= 2")
    model.check_matches(e)

    def one(c: int) -> np.ndarray:
        counts = np.zeros(bins, dtype=np.int64)
        for _, _, sims in pair_tiles(e.data[model.members[c]], tile=tile):
            counts += np.bincount(_bin_indices(sims[sims > -np.inf], bins), minlength=bins)
        return counts

    parts = map_ordered(one, range(model.k), threads)
    total = np.zeros(bins, dtype=np.int64)
    for part in parts:
        total += part
    return total.astype(np.uint64)


def duplicate_incidence(
    e: UnitEmbeddingMatrix,
    model: KMeansModel,
    epsilon: float,
    tile: int = 1024,
    threads: int = 1,
) -> float:
    """Fraction of points with a same-cluster neighbor at cosine >= 1-epsilon.

    Symmetric in the pair and independent of any keep ordering.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidArgumentError(f"epsilon must be in (0, 1), got {epsilon}")
    model.check_matches(e)
    threshold = 1.0 - epsilon

    def one(c: int) -> int:
        members = model.members[c]
        has_dup = np.zeros(members.size, dtype=bool)
        for i0, j0, sims in pair_tiles(e.data[members], tile=tile):
            hit = sims >= threshold
            has_dup[i0:i0 + hit.shape[0]] |= hit.any(axis=1)
            has_dup[j0:j0 + hit.shape[1]] |= hit.any(axis=0)
        return int(np.count_nonzero(has_dup))

    counts = map_ordered(one, range(model.k), threads)
    return int(sum(counts)) / e.n


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
    if not 0.0 < epsilon < 1.0:
        raise InvalidArgumentError(f"epsilon must be in (0, 1), got {epsilon}")
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
        stats.append(ClusterStat(cluster_id=c, size=size, removed=removed, removed_fraction=fraction))
    return stats


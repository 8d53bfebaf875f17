"""Within-cluster greedy cosine-threshold deduplication.

A cluster is ordered by the keep strategy, then a point is kept iff its
maximum cosine similarity to all earlier points in the ordering is at most
1 - epsilon (the empty maximum counts as 0, so the first point always
survives). Removed points still block later ones, which makes the rule a
pure prefix test: on a chain a~b, b~c with a and c dissimilar, both b and c
are removed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._parallel import map_ordered
from .embedding_store import UnitEmbeddingMatrix
from .errors import FormatError, InvalidArgumentError
from .rng import hash_u64, stream_for
from .spherical_kmeans import KMeansModel

DEFAULT_TILE = 1024


class KeepStrategy(enum.Enum):
    """Which member of a duplicate group survives."""

    LOW_CENTROID_SIM = "low"
    HIGH_CENTROID_SIM = "high"
    RANDOM = "random"

    @classmethod
    def parse(cls, text: str) -> "KeepStrategy":
        for member in cls:
            if member.value == text:
                return member
        choices = ", ".join(m.value for m in cls)
        raise InvalidArgumentError(f"unknown strategy {text!r} (choose from: {choices})")


@dataclass(frozen=True)
class DedupConfig:
    epsilon: float
    strategy: KeepStrategy = KeepStrategy.LOW_CENTROID_SIM
    seed: int = 0
    tile: int = DEFAULT_TILE

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidArgumentError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.tile < 1:
            raise InvalidArgumentError("tile must be >= 1")


@dataclass
class DedupResult:
    keep: np.ndarray
    kept_fraction: float
    per_cluster_removed: np.ndarray
    comparisons: int

    @property
    def kept_count(self) -> int:
        return int(np.count_nonzero(self.keep))


def order_cluster(
    e: UnitEmbeddingMatrix,
    members: np.ndarray,
    centroid: np.ndarray,
    strategy: KeepStrategy,
    seed: int,
) -> np.ndarray:
    """Order cluster members for the greedy pass.

    LOW_CENTROID_SIM ascends by cosine to the centroid (the default: the
    survivor of a duplicate group is the one least like the centroid),
    HIGH_CENTROID_SIM descends, RANDOM applies a seeded uniform permutation.
    Cosine ties resolve to the lower point index. For RANDOM, pass a
    per-cluster seed (see dedup_dataset) so the permutation is independent
    of cluster processing order.
    """
    members = np.sort(np.asarray(members, dtype=np.int64))
    if members.size == 0:
        raise InvalidArgumentError("cluster has no members")
    if strategy is KeepStrategy.RANDOM:
        ordered = members.copy()
        stream_for(seed).shuffle(ordered)
        return ordered
    cos = e.data[members].astype(np.float64) @ np.asarray(centroid, dtype=np.float64)
    if strategy is KeepStrategy.LOW_CENTROID_SIM:
        order = np.argsort(cos, kind="stable")
    else:
        order = np.argsort(-cos, kind="stable")
    return members[order]


def _prefix_max(e: UnitEmbeddingMatrix, ordered: np.ndarray, tile: int) -> np.ndarray:
    """For each position p, max cosine to positions q < p (0 when empty).

    Similarities are evaluated tile-by-tile in ascending position order with
    float64 accumulation; only the tiles on or below each column block are
    touched, so the full m x m matrix is never materialized.
    """
    m = ordered.size
    rows = e.data[ordered].astype(np.float64)
    prefix = np.zeros(m, dtype=np.float64)
    for j0 in range(0, m, tile):
        j1 = min(j0 + tile, m)
        cols = rows[j0:j1]
        for i0 in range(0, j1, tile):
            i1 = min(i0 + tile, j1)
            sims = rows[i0:i1] @ cols.T
            if i0 == j0:
                # Diagonal block: only strictly-earlier rows may contribute.
                np.copyto(sims, -np.inf, where=np.tri(i1 - i0, j1 - j0, dtype=bool))
            np.maximum(prefix[j0:j1], sims.max(axis=0, initial=-np.inf), out=prefix[j0:j1])
    return prefix


def dedup_cluster(
    e: UnitEmbeddingMatrix,
    ordered: np.ndarray,
    epsilon: float,
    tile: int = DEFAULT_TILE,
) -> tuple[np.ndarray, int]:
    """Greedy keep flags (aligned with ``ordered``) and the comparison count.

    The comparison count is the number of unordered pairs in the cluster,
    m*(m-1)/2, independent of tiling.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidArgumentError(f"epsilon must be in (0, 1), got {epsilon}")
    ordered = np.asarray(ordered, dtype=np.int64)
    m = ordered.size
    if m == 0:
        return np.zeros(0, dtype=bool), 0
    keep = _prefix_max(e, ordered, tile) <= 1.0 - epsilon
    return keep, m * (m - 1) // 2


def cluster_seed(seed: int, cluster_id: int) -> int:
    """Seed for one cluster's random ordering, stable across processing order."""
    return hash_u64(seed, cluster_id)


def dedup_dataset(
    e: UnitEmbeddingMatrix,
    model: KMeansModel,
    cfg: DedupConfig,
    threads: int = 1,
) -> DedupResult:
    """Run the per-cluster greedy pass over the whole corpus.

    Clusters are independent work units; verdicts are assembled in cluster-id
    order, so the result does not depend on the thread count.
    """
    if model.n != e.n:
        raise InvalidArgumentError(f"model has {model.n} points, embeddings have {e.n}")
    if model.d != e.d:
        raise InvalidArgumentError(f"model dimension {model.d} != embedding dimension {e.d}")

    keep = np.zeros(e.n, dtype=bool)
    removed = np.zeros(model.k, dtype=np.int64)
    centroids = model.centroids

    def one(c: int) -> int:
        members = model.members[c]
        if members.size == 0:
            return 0
        if members.size == 1:
            keep[members[0]] = True
            return 0
        ordered = order_cluster(e, members, centroids[c], cfg.strategy, cluster_seed(cfg.seed, c))
        flags, comparisons = dedup_cluster(e, ordered, cfg.epsilon, cfg.tile)
        keep[ordered] = flags
        removed[c] = members.size - int(np.count_nonzero(flags))
        return comparisons

    comparison_counts = map_ordered(one, range(model.k), threads)
    total = int(sum(comparison_counts))
    kept = int(np.count_nonzero(keep))
    return DedupResult(
        keep=keep,
        kept_fraction=kept / e.n,
        per_cluster_removed=removed,
        comparisons=total,
    )


def kept_ids(e: UnitEmbeddingMatrix, result: DedupResult) -> np.ndarray:
    """External ids of kept points, ascending."""
    return np.sort(e.ids[result.keep])


def write_keep_list(path, ids: np.ndarray) -> None:
    """One kept external id per line, ascending."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for value in np.sort(np.asarray(ids, dtype=np.uint64)):
            fh.write(f"{int(value)}\n")


def read_keep_list(path) -> np.ndarray:
    path = Path(path)
    if not path.is_file():
        raise InvalidArgumentError(f"no such file: {path}")
    try:
        values = [int(line) for line in path.read_text(encoding="utf-8").split()]
        return np.asarray(values, dtype=np.uint64)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: keep-list entries must be u64 ids ({exc})") from None


def summary_dict(result: DedupResult, cfg: DedupConfig, n: int, k: int) -> dict:
    """JSON-ready run summary."""
    return {
        "n": n,
        "kept": result.kept_count,
        "kept_fraction": result.kept_fraction,
        "epsilon": cfg.epsilon,
        "strategy": cfg.strategy.value,
        "k": k,
        "comparisons": result.comparisons,
        "per_cluster_removed": result.per_cluster_removed.tolist(),
    }

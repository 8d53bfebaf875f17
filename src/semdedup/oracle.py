"""Independent brute-force references and a planted-duplicate generator.

Everything here favors simplicity over speed and shares no code with the
tiled kernels it is used to check; intended for corpora up to a few
thousand points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding_store import EmbeddingMatrix, UnitEmbeddingMatrix
from .errors import ConstructionError, InvalidArgumentError

# Planted group centers keep pairwise |cosine| below this.
_MAX_CENTER_COS = 0.4
# Constructions tried, each with half the spread of the one before, before giving up.
_MAX_ATTEMPTS = 6


@dataclass
class PlantedCorpus:
    """Synthetic corpus with known duplicate groups and verified margins."""

    embeddings: EmbeddingMatrix
    groups: list
    within_sim: float
    across_sim: float


def brute_force_greedy_dedup(e: UnitEmbeddingMatrix, ordered: np.ndarray, epsilon: float) -> np.ndarray:
    """Reference greedy pass over a full ordering of the corpus.

    Position p is kept iff the max cosine to all earlier positions is at
    most 1 - epsilon (empty max counts as 0). Computed from the full,
    untiled similarity matrix with a per-position scan.
    """
    ordered = np.asarray(ordered, dtype=np.int64)
    if np.unique(ordered).size != ordered.size or ordered.size != e.n:
        raise InvalidArgumentError("ordered must be a permutation of all points")
    rows = e.data[ordered].astype(np.float64)
    sims = rows @ rows.T
    keep = np.zeros(e.n, dtype=bool)
    for p in range(e.n):
        earlier_max = sims[:p, p].max(initial=0.0)
        keep[p] = earlier_max <= 1.0 - epsilon
    return keep


def brute_force_duplicate_pairs(e: UnitEmbeddingMatrix, epsilon: float) -> set:
    """All unordered id pairs with cosine >= 1 - epsilon, by full n^2 scan."""
    rows = e.data.astype(np.float64)
    sims = rows @ rows.T
    r, c = np.triu_indices(e.n, k=1)
    hits = sims[r, c] >= 1.0 - epsilon
    pairs = set()
    for i, j in zip(r[hits], c[hits]):
        a, b = int(e.ids[i]), int(e.ids[j])
        pairs.add((min(a, b), max(a, b)))
    return pairs


def _sample_centers(rng, n_groups: int, d: int, max_abs_cos: float, tries_per_center: int):
    centers = np.empty((n_groups, d), dtype=np.float64)
    count = 0
    while count < n_groups:
        for _ in range(tries_per_center):
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            if count == 0 or np.abs(centers[:count] @ v).max() < max_abs_cos:
                centers[count] = v
                count += 1
                break
        else:
            return None
    return centers


def generate_planted(
    n_groups: int,
    group_size,
    d: int,
    within_sim_target: float,
    seed: int,
) -> PlantedCorpus:
    """Build a corpus of near-duplicate groups with verified margins.

    Group centers are random unit vectors rejection-sampled to pairwise
    |cosine| < ``_MAX_CENTER_COS``; members sit within half the target angle
    of their center, which guarantees every within-group pair meets
    ``within_sim_target`` (up to float32 rounding, which the post-check
    covers). ``group_size`` may be an int or one size per group. A target of
    exactly 1.0 produces bit-identical copies. All pairwise margins are
    re-measured on the stored float32 rows; if they fail, the spread is
    halved and construction retried, up to ``_MAX_ATTEMPTS`` times in all,
    then ConstructionError is raised.
    """
    if d < 8:
        raise InvalidArgumentError("d must be >= 8")
    if n_groups < 1:
        raise InvalidArgumentError("n_groups must be >= 1")
    if not 0.0 < within_sim_target <= 1.0:
        raise InvalidArgumentError("within_sim_target must be in (0, 1]")
    if np.isscalar(group_size):
        sizes = np.full(n_groups, int(group_size), dtype=np.int64)
    else:
        sizes = np.asarray(group_size, dtype=np.int64)
        if sizes.shape != (n_groups,):
            raise InvalidArgumentError("group_size list must have one entry per group")
    if (sizes < 1).any():
        raise InvalidArgumentError("group sizes must be >= 1")

    rng = np.random.default_rng(seed)
    half_angle = float(np.arccos(np.clip(within_sim_target, -1.0, 1.0))) / 2.0
    # Slight shrink keeps the measured minimum strictly above the target.
    spread = half_angle * 0.95

    for _ in range(_MAX_ATTEMPTS):
        centers = _sample_centers(rng, n_groups, d, _MAX_CENTER_COS, tries_per_center=500)
        if centers is None:
            raise ConstructionError(
                f"could not draw {n_groups} centers with pairwise |cos| < {_MAX_CENTER_COS} in d={d}"
            )
        rows = []
        groups = []
        next_id = 0
        for g in range(n_groups):
            group_ids = list(range(next_id, next_id + int(sizes[g])))
            next_id += int(sizes[g])
            groups.append(group_ids)
            for _ in group_ids:
                if spread == 0.0:
                    rows.append(centers[g])
                    continue
                tangent = rng.standard_normal(d)
                tangent -= (tangent @ centers[g]) * centers[g]
                tangent /= np.linalg.norm(tangent)
                theta = spread * rng.random()
                rows.append(np.cos(theta) * centers[g] + np.sin(theta) * tangent)
        data = np.asarray(rows, dtype=np.float32)
        matrix = EmbeddingMatrix(data)

        within, across = _measure_margins(matrix, groups)
        if within >= within_sim_target - 1e-6 and within > across:
            return PlantedCorpus(
                embeddings=matrix, groups=groups, within_sim=within, across_sim=across
            )
        spread *= 0.5

    raise ConstructionError(
        f"margins failed after {_MAX_ATTEMPTS} attempts "
        f"(target within >= {within_sim_target})"
    )


def _measure_margins(matrix: EmbeddingMatrix, groups: list) -> tuple[float, float]:
    """Exhaustively measured (min within-group, max across-group) cosines."""
    rows = matrix.data.astype(np.float64)
    group_of = np.empty(matrix.n, dtype=np.int64)
    for g, ids in enumerate(groups):
        group_of[ids] = g
    n = matrix.n
    within, across = 1.0, -1.0
    block = 2048
    cols = np.arange(n)
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        sims = rows[i0:i1] @ rows.T
        later = cols[None, :] > np.arange(i0, i1)[:, None]  # each pair once
        same = group_of[i0:i1, None] == group_of[None, :]
        w = sims[same & later]
        if w.size:
            within = min(within, float(w.min()))
        a = sims[~same & later]
        if a.size:
            across = max(across, float(a.max()))
    return within, across

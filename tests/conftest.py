"""Shared builders for test corpora.

The planted-duplicate generator, ``generate_planted``, lives here: no
pipeline step calls it, so the package does not ship it. Its output must
stay byte-stable for a given seed, because the acceptance thresholds were
set on its corpora.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from semdedup.embedding_store import EmbeddingMatrix, UnitEmbeddingMatrix, normalize_rows
from semdedup.errors import DataError, InvalidArgumentError
from semdedup.spherical_kmeans import KMeansModel, fit


def unit_rows(rows, ids=None) -> UnitEmbeddingMatrix:
    """Unit matrix from a row list (rows are normalized on the way in)."""
    return normalize_rows(EmbeddingMatrix(np.asarray(rows, dtype=np.float32), ids))


def random_unit(rng: np.random.Generator, n: int, d: int, ids=None) -> UnitEmbeddingMatrix:
    data = rng.standard_normal((n, d)).astype(np.float32)
    return normalize_rows(EmbeddingMatrix(data, ids))


def single_cluster_model(e: UnitEmbeddingMatrix) -> KMeansModel:
    """k=1 model over the whole corpus."""
    return fit(e, 1, 2, seed=0)


def fixed_band_groups(n_groups: int, group_size: int, d: int, theta: float,
                      seed: int, singletons: int = 0):
    """Corpus of groups whose within-group cosine is exactly cos(theta)^2.

    Each group's members sit at angle ``theta`` from the group center along
    mutually orthonormal tangents, so every within-group pair has the same
    similarity: a sharp step for threshold tests. Requires
    group_size + 1 <= d. Returns (UnitEmbeddingMatrix, groups) where groups
    lists member ids; singleton points are appended after the groups.
    """
    assert group_size + 1 <= d
    rng = np.random.default_rng(seed)
    rows = []
    groups = []
    next_id = 0

    def random_center():
        v = rng.standard_normal(d)
        return v / np.linalg.norm(v)

    for _ in range(n_groups):
        center = random_center()
        # Orthonormal tangent frame at the center.
        basis = rng.standard_normal((d, group_size))
        basis -= center[:, None] * (center @ basis)
        q, _ = np.linalg.qr(basis)
        member_ids = list(range(next_id, next_id + group_size))
        next_id += group_size
        groups.append(member_ids)
        for j in range(group_size):
            rows.append(np.cos(theta) * center + np.sin(theta) * q[:, j])
    for _ in range(singletons):
        rows.append(random_center())
        next_id += 1

    matrix = normalize_rows(EmbeddingMatrix(np.asarray(rows, dtype=np.float32)))
    return matrix, groups


def exact_step_pairs() -> UnitEmbeddingMatrix:
    """32 rows in d = 16 forming 16 pairs whose cosine is exactly 0.875.

    Row g is Hadamard row g over 4 and its partner flips the sign of
    coordinate g. Every coordinate is +-0.25, so norms and dot products are
    exact in float32 and float64: 1 - 2/16 = 0.875 within a pair and at most
    0.25 in magnitude across pairs. With k = 1 the kept fraction is 1.0 for
    epsilon <= 0.125 and 0.5 above it, with nothing in between.
    """
    h = np.ones((1, 1))
    while h.shape[0] < 16:
        h = np.block([[h, h], [h, -h]])
    return unit_rows(np.vstack([h, h * (1.0 - 2.0 * np.eye(16))]) / 4.0)


# Planted group centers keep pairwise |cosine| below this.
_MAX_CENTER_COS = 0.4
# Constructions tried, each with half the spread of the one before, before giving up.
_MAX_ATTEMPTS = 6


class ConstructionError(DataError):
    """A synthetic corpus could not be built within the requested margins."""


@dataclass
class PlantedCorpus:
    """Synthetic corpus with known duplicate groups and verified margins."""

    embeddings: EmbeddingMatrix
    groups: list
    within_sim: float
    across_sim: float


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

"""Shared builders for test corpora."""

import numpy as np
import pytest

from semdedup.embedding_store import EmbeddingMatrix, UnitEmbeddingMatrix, normalize_rows
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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

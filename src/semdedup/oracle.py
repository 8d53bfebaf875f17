"""Independent brute-force references for the greedy pass and duplicate pairs.

Everything here favors simplicity over speed and shares no code with the
tiled kernels it is used to check; intended for corpora up to a few
thousand points.
"""

from __future__ import annotations

import numpy as np

from .embedding_store import UnitEmbeddingMatrix
from .errors import InvalidArgumentError


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

"""Seeded, vectorised generator of benchmark corpora with planted duplicates.

A corpus is a topic mixture on the unit sphere plus two planted kinds of
duplicate, all made with whole-array numpy operations so a million rows take
seconds (``semdedup.oracle.generate_planted`` loops over rows and checks
margins in O(n^2), which is fine for tests and far too slow here):

* exact copies: bit-identical float32 rows of a base row;
* near copies: unit rows at a cosine to their base row drawn uniformly from
  ``[1 - 2*epsilon, 1 - epsilon/2]``, so some fall either side of the
  dedup threshold ``1 - epsilon``.

Copy sources are drawn from disjoint pools of base rows, so an exact-copy
group never contains a near copy. Ids are distinct random u64 values and rows
are shuffled, so neither ids nor row positions reveal the structure. The same
arguments always give the same corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EXACT_SHARE = 0.15
NEAR_SHARE = 0.15
# Spread of a point around its topic centre: x = normalize(mu + NOISE * z / sqrt(d)).
# Same-topic cosines then sit near 1 / (1 + NOISE^2), far below any threshold.
NOISE = 1.5
# Rows per block of float64 temporaries.
CHUNK = 65536


@dataclass
class Corpus:
    data: np.ndarray  # n x d float32, unit rows
    ids: np.ndarray  # n distinct u64
    exact_groups: list  # row positions of each exact-copy group, source first
    near_pairs: np.ndarray  # (m, 2) row positions (source, near copy)
    near_cos: np.ndarray  # planted cosine of each near pair


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _distinct_ids(rng: np.random.Generator, n: int) -> np.ndarray:
    ids = rng.integers(0, np.iinfo(np.uint64).max, size=n, dtype=np.uint64, endpoint=True)
    while True:
        uniq, first = np.unique(ids, return_index=True)
        if uniq.size == n:
            return ids
        dup = np.ones(n, dtype=bool)
        dup[first] = False
        ids[dup] = rng.integers(0, np.iinfo(np.uint64).max, size=int(dup.sum()),
                                dtype=np.uint64, endpoint=True)


def generate(n: int, d: int, topics: int, epsilon: float, seed: int,
             topic_skew: float = 0.0) -> Corpus:
    """Make an n x d corpus from ``seed``.

    ``topic_skew`` = 0 gives equal topic weights; s > 0 weights topic i by
    1 / (i + 1)^s, which yields a few large clusters and a tail of small ones.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must be in (0, 0.5)")
    rng = np.random.default_rng(seed)
    n_exact = int(round(EXACT_SHARE * n))
    n_near = int(round(NEAR_SHARE * n))
    n_base = n - n_exact - n_near
    if n_base < 2 or topics < 1:
        raise ValueError("corpus too small")

    centres = _unit(rng.standard_normal((topics, d)))
    weights = 1.0 / np.arange(1, topics + 1) ** topic_skew
    topic = rng.choice(topics, size=n_base, p=weights / weights.sum())

    rows = np.empty((n, d), dtype=np.float32)
    scale = NOISE / np.sqrt(d)
    for lo in range(0, n_base, CHUNK):
        hi = min(lo + CHUNK, n_base)
        noise = rng.standard_normal((hi - lo, d))
        rows[lo:hi] = _unit(centres[topic[lo:hi]] + scale * noise)

    # Disjoint source pools: the first half of the base rows feeds exact
    # copies, the second half near copies (base rows are already random).
    half = n_base // 2
    exact_src = rng.integers(0, half, size=n_exact)
    near_src = rng.integers(half, n_base, size=n_near)

    exact_pos = np.arange(n_base, n_base + n_exact)
    rows[exact_pos] = rows[exact_src]

    near_pos = np.arange(n_base + n_exact, n)
    cos = rng.uniform(1.0 - 2.0 * epsilon, 1.0 - 0.5 * epsilon, size=n_near)
    for lo in range(0, n_near, CHUNK):
        hi = min(lo + CHUNK, n_near)
        src = _unit(rows[near_src[lo:hi]].astype(np.float64))
        tangent = rng.standard_normal(src.shape)
        tangent -= np.einsum("ij,ij->i", tangent, src)[:, None] * src
        tangent = _unit(tangent)
        c = cos[lo:hi, None]
        rows[near_pos[lo:hi]] = c * src + np.sqrt(1.0 - c * c) * tangent

    # Shuffle rows; new_pos[old] is where an original row lands.
    perm = rng.permutation(n)
    new_pos = np.empty(n, dtype=np.int64)
    new_pos[perm] = np.arange(n)
    data = rows[perm]
    ids = _distinct_ids(rng, n)

    order = np.argsort(exact_src, kind="stable")
    src_sorted = exact_src[order]
    starts = np.flatnonzero(np.r_[True, src_sorted[1:] != src_sorted[:-1]])
    bounds = np.r_[starts, src_sorted.size]
    copies = new_pos[exact_pos[order]]
    groups = [
        np.r_[new_pos[src_sorted[a]], copies[a:b]]
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    near_pairs = np.stack([new_pos[near_src], new_pos[near_pos]], axis=1)
    return Corpus(data=data, ids=ids, exact_groups=groups, near_pairs=near_pairs, near_cos=cos)

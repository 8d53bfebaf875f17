"""Spherical k-means over unit-norm embeddings.

Centroids are renormalized to unit length after every update, assignment
maximizes cosine similarity, and every seeded choice is keyed on point ids
(not row positions) so fits are bitwise reproducible across runs and thread
counts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._parallel import budget_rows, chunk_ranges, map_ordered
from .embedding_store import UnitEmbeddingMatrix, read_exact
from .errors import FormatError, InvalidArgumentError
from .rng import hashed_uniform

MODEL_MAGIC = b"SEMK"
MODEL_VERSION = 1
_MODEL_HEADER = struct.Struct("<4sIII")

CENTROID_NORM_TOL = 1e-6

# Fixed grid for chunked passes; a function of k only, never of thread count
# or of the scratch budget, which sizes the sub-blocks inside each chunk.
_SCORE_BUDGET = 16_000_000
# OpenBLAS gives single rows and GEMMs of at most 10^6 multiply-adds kernels
# that round unlike its blocked GEMM, whose rows do not depend on M. A chunk's
# sub-blocks stay above both, so they score each row as the whole chunk would;
# when k * d is small, that floor and not the scratch budget sizes them.
_SMALL_GEMM = 1_000_000
# Rows per gather-and-transpose step of _centroid_sums; its strided read stays in cache.
_GATHER_ROWS = 256
# Points the seeding races over, at least 4k; see _init_centroids.
_INIT_SAMPLE_CAP = 16384
# Lloyd trains on at most this many points per centroid (FAISS's max_points_per_centroid).
_POINTS_PER_CENTROID = 256


def _pass_chunk(k: int) -> int:
    return max(64, min(16384, _SCORE_BUDGET // max(k, 1)))


# Tags separating the independent hashed-uniform streams used by fit().
_TAG_SUBSAMPLE = 11
_TAG_INIT_ROUND = 1 << 20


@dataclass
class KMeansModel:
    """Fitted clustering: unit centroids, per-point assignment, member lists."""

    centroids: np.ndarray
    assignment: np.ndarray
    members: list = field(init=False)  # per cluster, its rows ascending
    objective_trace: list = field(default_factory=list)

    def __post_init__(self):
        self.centroids = np.ascontiguousarray(self.centroids, dtype=np.float32)
        self.assignment = np.ascontiguousarray(self.assignment, dtype=np.uint32)
        if self.centroids.ndim != 2 or self.centroids.shape[0] < 1:
            raise InvalidArgumentError("centroids must be a non-empty 2-D matrix")
        norms = np.linalg.norm(self.centroids.astype(np.float64), axis=1)
        if not np.abs(norms - 1.0).max() <= CENTROID_NORM_TOL:  # NaN fails too
            worst = int(np.argmax(np.abs(norms - 1.0)))
            raise InvalidArgumentError(f"centroid {worst} has norm {norms[worst]:.9f}")
        if self.assignment.size and int(self.assignment.max()) >= self.k:
            raise InvalidArgumentError("assignment refers to a cluster >= k")
        # A stable sort lists each cluster's rows ascending; the members are views of it.
        order = np.argsort(self.assignment, kind="stable")
        self.members = np.split(order, np.cumsum(self.cluster_sizes())[:-1])

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def d(self) -> int:
        return self.centroids.shape[1]

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    def check_matches(self, e: UnitEmbeddingMatrix) -> None:
        """Raise InvalidArgumentError unless ``e`` has the model's n and d."""
        if self.n != e.n or self.d != e.d:
            raise InvalidArgumentError(
                f"model (n={self.n}, d={self.d}) does not match embeddings (n={e.n}, d={e.d})"
            )

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k).astype(np.int64)


def _assign_pass(data: np.ndarray, centroids64: np.ndarray, threads: int):
    """Argmax-cosine assignment plus the winning cosine, chunked over points."""
    n, d = data.shape
    k = centroids64.shape[0]
    assignment = np.empty(n, dtype=np.uint32)
    best = np.empty(n, dtype=np.float64)
    ct = centroids64.T
    least = max(2, _SMALL_GEMM // (k * d) + 1)
    rows = max(budget_rows(8 * (d + k)), least)

    def one(span):
        lo, hi = span
        blocks = chunk_ranges(hi - lo, rows, least)
        size = max(b - a for a, b in blocks)
        wide, scores = np.empty((size, d)), np.empty((size, k))
        for a, b in blocks:
            np.copyto(wide[:b - a], data[lo + a:lo + b])
            s = np.matmul(wide[:b - a], ct, out=scores[:b - a])
            idx = np.argmax(s, axis=1)  # ties -> lowest cluster index
            assignment[lo + a:lo + b] = idx
            best[lo + a:lo + b] = s[np.arange(b - a), idx]

    map_ordered(one, chunk_ranges(n, _pass_chunk(k)), threads)
    return assignment, best


def _centroid_sums(data: np.ndarray, assignment: np.ndarray, k: int, threads: int) -> np.ndarray:
    """Per-cluster float64 row sums; chunk partials combined in grid order.

    Each chunk's rows, sorted by cluster, are gathered into (d, rows) blocks,
    so reduceat reads each cluster's segment at unit stride. It adds a
    segment's first value to numpy's pairwise sum of the rest; adding rows one
    at a time (``sum(axis=0)`` per segment) would round differently, and so
    would splitting a segment. A block therefore holds whole segments: those
    that start in one budget-sized window of the sorted rows.
    """
    n, d = data.shape

    def one(span):
        lo, hi = span
        a = assignment[lo:hi]
        order = np.argsort(a, kind="stable")
        sorted_a = a[order]
        rows = data[lo:hi]
        starts = np.flatnonzero(np.r_[True, sorted_a[1:] != sorted_a[:-1]])
        window = starts // budget_rows(8 * d)
        firsts = np.flatnonzero(np.r_[True, window[1:] != window[:-1]])
        edges = np.r_[starts[firsts], hi - lo]
        scratch = np.empty(d * int(np.diff(edges).max()))
        part = np.zeros((k, d), dtype=np.float64)
        for s0, s1, r0, r1 in zip(firsts, np.r_[firsts[1:], starts.size], edges, edges[1:]):
            cols = scratch[:d * (r1 - r0)].reshape(d, r1 - r0)
            for r in range(r0, r1, _GATHER_ROWS):
                cols[:, r - r0:r - r0 + _GATHER_ROWS] = rows[order[r:min(r + _GATHER_ROWS, r1)]].T
            part[sorted_a[starts[s0:s1]]] = np.add.reduceat(cols, starts[s0:s1] - r0, axis=1).T
        return part

    sums = np.zeros((k, d), dtype=np.float64)
    for part in map_ordered(one, chunk_ranges(n, _pass_chunk(k)), threads):
        sums += part
    return sums


def _keyed_rows(ids: np.ndarray, seed: int, cap: int) -> np.ndarray:
    """Rows of the ``cap`` ids with the smallest ``hashed_uniform(seed, _TAG_SUBSAMPLE, id)``
    keys, in no particular order; every row when ``cap >= len(ids)``.

    Lloyd's training sample and the seeding's race sample are two cut-offs of
    this one order, so the race sample lies inside the training sample.
    """
    n = ids.size
    if cap >= n:
        return np.arange(n)
    return np.argpartition(hashed_uniform(seed, _TAG_SUBSAMPLE, ids), cap - 1)[:cap]


def _init_centroids(data: np.ndarray, ids: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Careful-seeding initialization keyed on (seed, id).

    Centers are drawn one at a time; each round holds an exponential race
    with per-id hashed uniforms and rates equal to the squared chord
    distance to the nearest chosen center, which reproduces the usual
    distance-weighted seeding while staying independent of row order. On
    large inputs the race runs over the id-keyed subsample of
    ``_INIT_SAMPLE_CAP`` (at least 4k) points with the smallest hash, which
    keeps init O(cap * k) and deterministic.
    """
    positions = _keyed_rows(ids, seed, max(_INIT_SAMPLE_CAP, 4 * k))
    # Canonical ascending-id order makes argmin ties resolve to lowest id.
    positions = positions[np.argsort(ids[positions], kind="stable")]
    m, d = positions.size, data.shape[1]
    sub = np.empty((m, d))
    for lo, hi in chunk_ranges(m, budget_rows(4 * d)):
        sub[lo:hi] = data[positions[lo:hi]]
    sub_ids = ids[positions]

    chosen = np.zeros(m, dtype=bool)
    centroids = np.empty((k, d), dtype=np.float64)

    u = hashed_uniform(seed, _TAG_INIT_ROUND, sub_ids)
    pick = int(np.argmin(u))
    chosen[pick] = True
    centroids[0] = sub[pick]
    max_cos = sub @ centroids[0]

    for r in range(1, k):
        weights = np.maximum(2.0 - 2.0 * max_cos, 0.0)
        weights[chosen] = 0.0
        u = hashed_uniform(seed, _TAG_INIT_ROUND + r, sub_ids)
        with np.errstate(divide="ignore"):
            race = np.where(weights > 0.0, -np.log(u) / weights, np.inf)
        if not np.isfinite(race).any():
            # Every remaining point coincides with a chosen center; fall back
            # to a uniform id-keyed pick among the unchosen.
            race = np.where(chosen, np.inf, u)
        pick = int(np.argmin(race))
        chosen[pick] = True
        centroids[r] = sub[pick]
        np.maximum(max_cos, sub @ centroids[r], out=max_cos)

    norms = np.linalg.norm(centroids, axis=1)
    return centroids / norms[:, None]


def _repair_empty_clusters(assignment, best_cos, sizes, ids) -> int:
    """Move the globally worst-fitting point into each empty cluster.

    Only points in clusters of size >= 2 are candidates, so no donor
    cluster is emptied. Ties resolve to the lowest point id, not row.
    Returns the number of moves.
    """
    moves = 0
    for c in np.flatnonzero(sizes == 0):
        eligible = sizes[assignment] >= 2
        scores = np.where(eligible, best_cos, np.inf)
        worst = scores.min()
        if not np.isfinite(worst):
            break  # k == n with duplicates; nothing movable
        tied = np.flatnonzero(scores == worst)
        idx = int(tied[np.argmin(ids[tied])])
        sizes[assignment[idx]] -= 1
        assignment[idx] = c
        sizes[c] += 1
        best_cos[idx] = np.inf  # singleton now; not a candidate again
        moves += 1
    return moves


def fit(
    e: UnitEmbeddingMatrix,
    k: int,
    iterations: int,
    seed: int,
    threads: int = 1,
) -> KMeansModel:
    """Cluster unit embeddings into k clusters.

    Lloyd trains on the min(n, 256 k) points with the smallest
    ``hashed_uniform(seed, _TAG_SUBSAMPLE, id)`` keys, in corpus order; the
    seeding races over the first ``_INIT_SAMPLE_CAP`` (at least 4k) of the same
    keys. It runs at most ``iterations`` rounds of assignment + centroid update,
    stopping early once the sample's assignments no longer change. Each round
    records the sample's mean cosine to its updated centroids as
    sum_c S_c . c / m, from the cluster sums S_c the update already holds, so
    the trace costs no data pass. It never decreases (within 1e-7). A final
    pass assigns the whole corpus to the returned float32 centroids and repairs
    empty clusters, so ``assign(e, model.centroids)`` equals ``model.assignment``
    except for points that repair moved. ``threads`` bounds the assignment and
    update passes; the seeding's k GEMVs run outside them, on OpenBLAS's own threads.
    """
    n = e.n
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    if k > n:
        raise InvalidArgumentError(f"k={k} exceeds point count n={n}")
    if iterations < 1:
        raise InvalidArgumentError("iterations must be >= 1")

    data, ids = e.data, e.ids
    m = min(n, _POINTS_PER_CENTROID * k)
    if m < n:
        # The Lloyd helpers take bare arrays, so the sample skips re-validation.
        rows = np.sort(_keyed_rows(ids, seed, m))
        data, ids = data[rows], ids[rows]
    centroids64 = _init_centroids(data, ids, k, seed)
    assignment = None
    trace: list[float] = []

    for _ in range(iterations):
        new_assignment, best_cos = _assign_pass(data, centroids64, threads)
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        sizes = np.bincount(assignment, minlength=k).astype(np.int64)
        _repair_empty_clusters(assignment, best_cos, sizes, ids)

        sums = _centroid_sums(data, assignment, k, threads)
        norms = np.linalg.norm(sums, axis=1)
        usable = norms > 1e-12  # an empty cluster's sum is exactly zero
        centroids64[usable] = sums[usable] / norms[usable, None]

        trace.append(float((sums * centroids64).sum()) / m)

    centroids = centroids64.astype(np.float32)
    assignment, best_cos = _assign_pass(e.data, centroids.astype(np.float64), threads)
    sizes = np.bincount(assignment, minlength=k).astype(np.int64)
    _repair_empty_clusters(assignment, best_cos, sizes, e.ids)

    return KMeansModel(
        centroids=centroids,
        assignment=assignment,
        objective_trace=trace,
    )


def assign(e: UnitEmbeddingMatrix, centroids: np.ndarray, threads: int = 1) -> np.ndarray:
    """Nearest-centroid (max cosine) assignment; ties go to the lowest index."""
    centroids = np.asarray(centroids)
    if centroids.ndim != 2 or centroids.shape[1] != e.d:
        raise InvalidArgumentError(
            f"centroid dimension {centroids.shape} does not match embeddings d={e.d}"
        )
    assignment, _ = _assign_pass(e.data, centroids.astype(np.float64), threads)
    return assignment


def nearest_clusters(model: KMeansModel, c: int, m: int) -> np.ndarray:
    """The m clusters most cosine-similar to centroid c, descending.

    Excludes c itself; ties resolve to the lowest cluster index.
    """
    k = model.k
    if not 0 <= c < k:
        raise InvalidArgumentError(f"cluster index {c} out of range [0,{k})")
    if m < 1 or m >= k:
        raise InvalidArgumentError(f"m={m} must be in [1, k-1]={k - 1}")
    return _nearest(model.centroids.astype(np.float64), c, m)


def _nearest(cents64: np.ndarray, c: int, m: int) -> np.ndarray:
    """``nearest_clusters`` on float64 centroids, unchecked, so callers cast once."""
    sims = cents64 @ cents64[c]
    sims[c] = -np.inf
    order = np.argsort(-sims, kind="stable")
    return order[:m].astype(np.int64)


def save_model(model: KMeansModel, path) -> None:
    """Write a model as SEMK1: magic, version, k, d, centroids, n, assignment."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_MODEL_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, model.k, model.d))
        fh.write(np.ascontiguousarray(model.centroids, dtype="<f4").tobytes())
        fh.write(struct.pack("<Q", model.n))
        fh.write(np.ascontiguousarray(model.assignment, dtype="<u4").tobytes())


def load_model(path) -> KMeansModel:
    path = Path(path)
    if not path.is_file():
        raise InvalidArgumentError(f"no such file: {path}")
    with open(path, "rb") as fh:
        magic, version, k, d = _MODEL_HEADER.unpack(read_exact(fh, _MODEL_HEADER.size, "model header"))
        if magic != MODEL_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MODEL_MAGIC!r}")
        if version != MODEL_VERSION:
            raise FormatError(f"unsupported model version {version}")
        if k < 1 or d < 1:
            raise FormatError(f"invalid model dimensions k={k} d={d}")
        cent_bytes = read_exact(fh, k * d * 4 + 8, "centroids and point count")
        (n,) = struct.unpack("<Q", cent_bytes[-8:])
        assign_bytes = read_exact(fh, n * 4, "assignment")
        if fh.read(1):
            raise FormatError("trailing bytes after payload")
    centroids = np.frombuffer(cent_bytes, dtype="<f4", count=k * d).reshape(k, d).copy()
    assignment = np.frombuffer(assign_bytes, dtype="<u4").copy()
    try:
        return KMeansModel(centroids=centroids, assignment=assignment)
    except InvalidArgumentError as exc:  # a centroid off the unit sphere, or a bad assignment
        raise FormatError(f"{path}: {exc}") from None

"""Within-cluster greedy cosine-threshold deduplication.

A cluster is ordered by the keep strategy, then a point is kept iff its
maximum cosine similarity to all earlier points in the ordering is at most
1 - epsilon (the empty maximum counts as 0, so the first point always
survives). Removed points still block later ones, which makes the rule a
pure prefix test: on a chain a~b, b~c with a and c dissimilar, both b and c
are removed.

The order does not depend on epsilon, so each point's prefix maximum (pmax)
is the one epsilon-dependent artifact: ``prefix_maxima`` alone orders and
sweeps clusters, and dedup, tuner and sweep threshold its row-aligned result.
It looks ``order_cluster`` and ``dedup_cluster`` up through this module once
per cluster of two or more members, so a caller can wrap them to time each
cluster; that is why ``dedup_cluster`` keeps its name though it returns maxima.
``_dots``, the float64 row-wise dot, is the number every verdict and keep key
is made on: a pmax is its winning pair's, found by a float32 screen
(``_screen``), so no tile, thread count or BLAS changes a pmax or an order.

Every similarity panel here and in ``analysis_metrics`` comes from one kernel,
``_panels``: panels of at most 256 rows against blocks of at most ``tile``
columns, both read from the corpus by row index, each one ``gemm`` in the
dtype the caller passes (float32 for the screens, float64 for the histogram).
Given ``cols`` they cover every (row, column) pair once; without it, each
unordered pair within ``rows`` once, as (later, earlier), with entries on or
after the diagonal -inf. The loop is block-outer, as in Goto and van de
Geijn's GEMM ("Anatomy of high-performance matrix multiplication", ACM TOMS
2008): each block is gathered once and every panel that needs it is
multiplied against it, so a caller holds a block and a panel of rows, never
a cluster. Gathers and casts to another dtype go into buffers made once per
call. ``tile`` and the 256 count float32 rows: a wider dtype holds as many
bytes in fewer rows (a float64 block holds ``tile // 2`` rows, a panel 128).
Blocking splits rows and columns, never a dot's d-long sum, so ``tile``
changes speed and memory, and a panel entry only within rounding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._parallel import budget_rows, chunk_ranges, map_ordered
from .embedding_store import UNIT_NORM_TOL, UnitEmbeddingMatrix
from .errors import FormatError, InvalidArgumentError
from .rng import hash_u64, hashed_uniform
from .spherical_kmeans import KMeansModel

DEFAULT_TILE = 1024
# Float32 rows per panel of the similarity kernel ``_panels``; a wider dtype takes their bytes.
_PANEL = 256
# Tag separating the RANDOM keep order from other seeded draws.
_TAG_ORDER = 29


class KeepStrategy(enum.Enum):
    """Which member of a duplicate group survives."""

    LOW_CENTROID_SIM = "low"
    HIGH_CENTROID_SIM = "high"
    RANDOM = "random"

    @classmethod
    def parse(cls, value: "KeepStrategy | str") -> "KeepStrategy":
        """A member, given itself or its value."""
        try:
            return cls(value)
        except ValueError:
            choices = ", ".join(m.value for m in cls)
            raise InvalidArgumentError(
                f"unknown strategy {value!r} (choose from: {choices})"
            ) from None


def _check_tile(tile: int) -> None:
    if tile < 1:
        raise InvalidArgumentError(f"tile must be >= 1, got {tile}")


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise InvalidArgumentError(f"epsilon must be in (0, 1), got {epsilon}")


@dataclass(frozen=True)
class DedupConfig:
    epsilon: float
    strategy: KeepStrategy = KeepStrategy.LOW_CENTROID_SIM
    seed: int = 0
    tile: int = DEFAULT_TILE

    def __post_init__(self):
        object.__setattr__(self, "strategy", KeepStrategy.parse(self.strategy))
        _check_epsilon(self.epsilon)
        _check_tile(self.tile)


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
    strategy: KeepStrategy | str,
    seed: int,
) -> np.ndarray:
    """Order cluster members for the greedy pass.

    Each strategy gives every member one sort key, and ties go to the lower
    point id. LOW_CENTROID_SIM ascends by cosine to the centroid (the
    default: the survivor of a duplicate group is the one least like the
    centroid), HIGH_CENTROID_SIM descends, RANDOM sorts by a uniform hashed
    from (seed, id). The order depends on ids, not rows, so permuting the
    corpus with its ids permutes the result alike. For RANDOM, pass a
    per-cluster seed (see cluster_seed) so clusters draw independently.
    """
    strategy = KeepStrategy.parse(strategy)
    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        raise InvalidArgumentError("cluster has no members")
    ids = e.ids[members]
    if strategy is KeepStrategy.RANDOM:
        key = hashed_uniform(seed, _TAG_ORDER, ids)
    else:
        # Row by row: one GEMV would round a row's dot product by its position.
        key = _dots(e.data, np.asarray(centroid)[None], members, np.zeros_like(members))
        if strategy is KeepStrategy.HIGH_CENTROID_SIM:
            key = -key
    return members[np.lexsort((ids, key))]


def _dots(a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Float64 row-wise dots of ``a[i]`` and ``b[j]``, ``budget_rows`` pairs at a time."""
    out = np.empty(len(i))
    for lo, hi in chunk_ranges(len(i), budget_rows(24 * a.shape[1])):
        out[lo:hi] = np.einsum("ij,ij->i", a[i[lo:hi]].astype(np.float64), b[j[lo:hi]].astype(np.float64))
    return out


def _panels(data: np.ndarray, rows: np.ndarray, cols: np.ndarray | None = None, *, tile: int, dtype: type):
    """Yield ``(i0, j0, sims)``: ``dtype`` panels of ``data[rows] @ data[cols].T`` (see module docstring).

    A panel that lies inside the block is a view of it; any other is gathered.
    All panels share one buffer, so a yielded panel is valid until the next is requested.
    """
    _check_tile(tile)
    within = cols is None
    cols = rows if within else cols
    m, n, d = len(rows), len(cols), data.shape[1]
    # A block or panel of a wider dtype holds the bytes, not the rows, of a ``data`` one.
    shrink = max(1, np.dtype(dtype).itemsize // data.dtype.itemsize)
    tile, step = max(1, tile // shrink), max(1, _PANEL // shrink)
    # Gathered float32 rows, and their casts when the caller asks for another dtype.
    block = right = np.empty((min(tile, n), d), dtype=data.dtype)
    panel_rows = left = np.empty((min(step, m), d), dtype=data.dtype)
    if dtype != data.dtype:
        right, left = np.empty(right.shape, dtype=dtype), np.empty(left.shape, dtype=dtype)
    flat = np.empty(left.shape[0] * right.shape[0], dtype=dtype)
    after = ~np.tri(step, k=-1, dtype=bool)
    # Within ``rows``, row 0 has no earlier row and the last row is no column.
    for j0 in range(0, n - within, tile):
        g1 = min(j0 + tile, n)
        # mode="clip": the default "raise" gathers into a temporary first.
        np.take(data, cols[j0:g1], axis=0, out=block[:g1 - j0], mode="clip")
        if right is not block:
            np.copyto(right[:g1 - j0], block[:g1 - j0])
        for p0 in range(int(within), m, step):
            p1 = min(p0 + step, m)
            # Within ``rows``, a panel's columns stop before its last row, and
            # rows before i0 have no earlier column in this block.
            j1, i0 = (min(g1, p1 - 1), max(p0, j0 + 1)) if within else (g1, p0)
            if j1 <= j0:
                continue
            if within and j0 <= p0 and p1 <= g1:
                panel = right[p0 - j0:p1 - j0]
            else:
                panel = left[:p1 - p0]
                np.take(data, rows[p0:p1], axis=0, out=panel_rows[:p1 - p0], mode="clip")
                if left is not panel_rows:
                    np.copyto(panel, panel_rows[:p1 - p0])
            sims = flat[:(p1 - i0) * (j1 - j0)].reshape(p1 - i0, j1 - j0)
            np.matmul(panel[i0 - p0:], right[:j1 - j0].T, out=sims)
            if within and j1 > i0:  # the block reaches the panel's own rows
                c0 = max(j0, i0)
                np.copyto(sims[:, c0 - j0:], -np.inf, where=after[i0 - p0:p1 - p0, c0 - p0:j1 - p0])
            yield i0, j0, sims


def _screen_margin(d: int) -> float:
    """Float32 score gap within which a pair may still hold a float64 maximum.

    2(gamma_d(u32) + 2 u32 + 2 gamma_d(u64)) (1 + UNIT_NORM_TOL)^2, gamma_d(u) =
    d u / (1 - d u) (Higham, section 3.1). Float32 and float64 dots of rows x, y
    lie within gamma_d(u32) and gamma_d(u64) times |x| |y| <= (1 + UNIT_NORM_TOL)^2
    of the exact one, for any summation order, with or without FMA; so the float64
    winner's float32 score is within twice both bounds of the best score, plus
    headroom 2 u32. d u32 >= 1 admits no bound and raises InvalidArgumentError.
    """
    u32, u64 = 2.0**-24, 2.0**-53
    if d * u32 >= 1:
        raise InvalidArgumentError(f"d = {d} leaves the float32 screen no error bound (need d < 2^24)")
    gamma32, gamma64 = (d * u / (1 - d * u) for u in (u32, u64))
    return 2 * (gamma32 + 2 * u32 + 2 * gamma64) * (1 + UNIT_NORM_TOL) ** 2


def _screen(data: np.ndarray, rows: np.ndarray, tile: int):
    """Batches of ``(later, earlier)`` positions in ``rows`` whose pair may hold a later row's float64 maximum.

    Each float32 block of ``_panels`` raises every row's best score so far, one
    array for the cluster, and keeps the scores within the margin
    (``_screen_margin`` of the row length) of it. A panel's candidates are
    held, keyed by its end, until its last block, which yields those within the
    margin of their row's final best. A panel drops those below the margin
    whenever it holds more than 8 blocks' batches, and every panel does so when
    the held candidates outgrow the scratch budget; if half the budget is still
    held, every panel yields what it holds at once. Those pairs' float64 dots
    never exceed the true maxima, and the winning pair is within the margin of
    the best so far when its block arrives, so no maximum moves; each cut-off
    is rounded down, so the pair with the largest float64 dot always survives.
    """
    margin = np.nextafter(np.float32(_screen_margin(data.shape[1])), np.float32(np.inf))
    best = np.full(len(rows), -np.inf, dtype=np.float32)  # each row's best score so far
    held = {}  # panel end -> candidate batches
    size = 0  # candidates held at most; exact after each check against the budget

    def cut(found) -> int:
        """Join a panel's batches into one within the margin of its rows' best so far; its size."""
        later, earlier, score = found[0] if len(found) == 1 else (np.concatenate(x) for x in zip(*found))
        keep = score >= np.nextafter(best[later] - margin, -np.inf)
        found[:] = [(later, earlier, score) if keep.all() else (later[keep], earlier[keep], score[keep])]
        return found[0][0].size

    for i0, j0, sims in _panels(data, rows, tile=tile, dtype=np.float32):
        r, c = sims.shape
        end = i0 + r
        seg = best[i0:end]
        np.maximum(seg, sims.max(axis=1), out=seg)
        # flatnonzero: a 2-D nonzero takes about 15 times as long here.
        hit = np.flatnonzero(sims >= np.nextafter(seg - margin, -np.inf)[:, None])
        later, earlier = hit // c + i0, hit % c + j0
        found = held.setdefault(end, [])
        found.append((later, earlier, sims.ravel()[hit]))
        size += hit.size
        if j0 + c == end - 1:  # the panel's last block ends just before its last row
            del held[end]
            cut(found)
            yield found[0][:2]
        elif len(found) > 8:  # each batch costs about 400 bytes of array headers
            cut(found)
        if size > budget_rows(20):  # 20 bytes a candidate
            size = sum(cut(found) for found in held.values() if found)
            if 2 * size > budget_rows(20):
                yield from (found.pop()[:2] for found in held.values() if found)
                size = 0


def dedup_cluster(e: UnitEmbeddingMatrix, ordered: np.ndarray, tile: int = DEFAULT_TILE) -> np.ndarray:
    """Each point's max cosine to the points before it in ``ordered`` (0 for the first).

    A maximum is the float64 row-wise dot of its winning pair, found by the
    float32 screen (``_screen``), so it depends on neither ``tile`` nor BLAS.
    Rows are read from ``e.data`` by index, a tile at a time.
    """
    prefix = np.zeros(len(ordered))
    for later, earlier in _screen(e.data, ordered, tile):
        np.maximum.at(prefix, later, _dots(e.data, e.data, ordered[later], ordered[earlier]))
    return prefix


def cluster_seed(seed: int, cluster_id: int) -> int:
    """Seed for one cluster's random ordering, stable across processing order."""
    return hash_u64(seed, cluster_id)


def prefix_maxima(
    e: UnitEmbeddingMatrix,
    model: KMeansModel,
    strategy: KeepStrategy,
    seed: int,
    tile: int = DEFAULT_TILE,
    threads: int = 1,
    clusters: np.ndarray | None = None,
) -> np.ndarray:
    """Row-aligned prefix maxima of ``clusters`` (all when None).

    The same for any ``threads`` and any OpenBLAS thread count: the sweep runs
    inside ``map_ordered``, which holds OpenBLAS at one thread. Every other
    row, singletons included, reads 0 and is kept at any epsilon. Cluster ids
    that do not form a 1-D array, are not integers, lie outside [0, k) or
    repeat raise InvalidArgumentError before any sweep.
    """
    model.check_matches(e)
    strategy = KeepStrategy.parse(strategy)
    _check_tile(tile)
    if clusters is not None and np.ndim(clusters) != 1:
        raise InvalidArgumentError(f"cluster ids must form a 1-D array, got shape {np.shape(clusters)}")
    # Checked in Python: np.unique's first call alone adds about 1.6 MiB to a command's peak RSS.
    ids = range(model.k) if clusters is None else np.asarray(clusters).tolist()
    if len(set(ids)) != len(ids) or not all(type(c) is int and 0 <= c < model.k for c in ids):
        raise InvalidArgumentError(f"cluster ids must be distinct integers in [0, {model.k}), got {clusters}")
    pmax = np.zeros(e.n, dtype=np.float64)

    def one(c: int) -> None:
        members = model.members[c]
        if members.size >= 2:
            ordered = order_cluster(e, members, model.centroids[c], strategy, cluster_seed(seed, c))
            pmax[ordered] = dedup_cluster(e, ordered, tile)

    map_ordered(one, ids, threads)
    return pmax


def _check_row_aligned(pmax: np.ndarray, model: KMeansModel) -> None:
    """Raise InvalidArgumentError unless ``pmax`` holds one value per row of ``model``."""
    if np.shape(pmax) != (model.n,):
        raise InvalidArgumentError(f"pmax has shape {np.shape(pmax)}, not the model's ({model.n},)")


def threshold(pmax: np.ndarray, epsilon: float, model: KMeansModel) -> DedupResult:
    """Greedy verdicts at epsilon from row-aligned prefix maxima."""
    _check_epsilon(epsilon)
    _check_row_aligned(pmax, model)
    keep = pmax <= 1.0 - epsilon
    sizes = model.cluster_sizes()
    return DedupResult(
        keep=keep,
        kept_fraction=int(np.count_nonzero(keep)) / keep.size,
        per_cluster_removed=np.bincount(model.assignment[~keep], minlength=model.k),
        comparisons=int((sizes * (sizes - 1) // 2).sum()),
    )


def dedup_dataset(
    e: UnitEmbeddingMatrix,
    model: KMeansModel,
    cfg: DedupConfig,
    threads: int = 1,
) -> DedupResult:
    """Run the per-cluster greedy pass over the whole corpus."""
    pmax = prefix_maxima(e, model, cfg.strategy, cfg.seed, cfg.tile, threads)
    return threshold(pmax, cfg.epsilon, model)


def kept_ids(e: UnitEmbeddingMatrix, result: DedupResult) -> np.ndarray:
    """External ids of kept points, ascending."""
    return np.sort(e.ids[result.keep])


def write_keep_list(path, ids: np.ndarray) -> None:
    """One kept external id per line, ascending."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        ordered = np.sort(np.asarray(ids, dtype=np.uint64))
        # A 20-digit id costs about 123 bytes in a chunk: a Python int, its line and their share of the join.
        for lo, hi in chunk_ranges(ordered.size, budget_rows(128)):
            fh.write("\n".join(map(str, ordered[lo:hi].tolist())) + "\n")


def read_keep_list(path) -> np.ndarray:
    """The ids of a keep list; FormatError unless each line is a distinct u64 id."""
    path = Path(path)
    if not path.is_file():
        raise InvalidArgumentError(f"no such file: {path}")
    try:
        tokens = path.read_text(encoding="utf-8").split()
        # int() alone would also take "+5", "1_0" and non-ASCII digits.
        bad = [t for t in tokens if not (t.isascii() and t.isdigit())]
        if bad:
            raise ValueError(f"not a decimal id: {bad[0]!r}")
        ids = np.asarray([int(t) for t in tokens], dtype=np.uint64)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: keep-list entries must be u64 ids ({exc})") from None
    ordered = np.sort(ids)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        raise FormatError(f"{path}: keep list repeats id {repeated[0]}")
    return ids


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

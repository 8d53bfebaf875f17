import itertools
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdedup import _parallel, dedup_core
from semdedup.analysis_metrics import dedup_efficiency, duplicate_incidence, similarity_histogram
from semdedup.dedup_core import (
    DedupConfig,
    KeepStrategy,
    cluster_seed,
    dedup_cluster,
    dedup_dataset,
    kept_ids,
    order_cluster,
    prefix_maxima,
    threshold,
    read_keep_list,
    summary_dict,
    write_keep_list,
)
from semdedup.errors import InvalidArgumentError
from semdedup.spherical_kmeans import fit
from semdedup.threshold_tuner import size_curve, sorted_maxima
from semdedup.embedding_store import UNIT_NORM_TOL, UnitEmbeddingMatrix, normalize_rows

from conftest import generate_planted, random_unit, single_cluster_model, unit_rows


def rows_with_centroid_cos(cosines):
    """Unit rows in 3-d whose cosine to [1,0,0] is exactly the given value."""
    rows = [[c, np.sqrt(1.0 - c * c), 0.0] for c in cosines]
    return unit_rows(rows)


CENTROID = np.array([1.0, 0.0, 0.0])


def test_order_low_centroid_sim():
    e = rows_with_centroid_cos([0.9, 0.2, 0.5])
    got = order_cluster(e, np.arange(3), CENTROID, KeepStrategy.LOW_CENTROID_SIM, seed=0)
    assert got.tolist() == [1, 2, 0]


def test_order_high_centroid_sim():
    e = rows_with_centroid_cos([0.9, 0.2, 0.5])
    got = order_cluster(e, np.arange(3), CENTROID, KeepStrategy.HIGH_CENTROID_SIM, seed=0)
    assert got.tolist() == [0, 2, 1]


def test_order_ties_resolve_to_lower_index():
    e = rows_with_centroid_cos([0.5, 0.5, 0.2])
    low = order_cluster(e, np.arange(3), CENTROID, KeepStrategy.LOW_CENTROID_SIM, seed=0)
    assert low.tolist() == [2, 0, 1]
    high = order_cluster(e, np.arange(3), CENTROID, KeepStrategy.HIGH_CENTROID_SIM, seed=0)
    assert high.tolist() == [0, 1, 2]


def test_order_ties_resolve_to_lower_id_not_row():
    e = rows_with_centroid_cos([0.5, 0.5, 0.2])
    e = UnitEmbeddingMatrix(e.data, np.array([9, 4, 7], dtype=np.uint64))
    low = order_cluster(e, np.arange(3), CENTROID, KeepStrategy.LOW_CENTROID_SIM, seed=0)
    assert low.tolist() == [2, 1, 0]
    high = order_cluster(e, np.arange(3), CENTROID, KeepStrategy.HIGH_CENTROID_SIM, seed=0)
    assert high.tolist() == [1, 0, 2]


def test_order_exact_copies_tie_at_any_row(rng):
    # Copies of one row get bit-equal cosines wherever they sit, so the lower id leads.
    base = random_unit(rng, 40, 13)
    data = base.data.copy()
    data[[3, 17, 38]] = data[5]
    ids = np.arange(40, dtype=np.uint64)[::-1].copy()
    e = UnitEmbeddingMatrix(data, ids)
    centroid = base.data[:10].astype(np.float64).sum(axis=0)
    centroid /= np.linalg.norm(centroid)
    for strategy in (KeepStrategy.LOW_CENTROID_SIM, KeepStrategy.HIGH_CENTROID_SIM):
        ordered = order_cluster(e, np.arange(40), centroid, strategy, seed=0)
        pos = [int(np.flatnonzero(ordered == r)[0]) for r in (38, 17, 5, 3)]
        assert pos == list(range(pos[0], pos[0] + 4))


def test_order_random_is_keyed_on_ids(rng):
    e = random_unit(rng, 30, 4, ids=np.arange(100, 130, dtype=np.uint64))
    perm = np.random.default_rng(1).permutation(30)
    moved = UnitEmbeddingMatrix(e.data[perm], e.ids[perm])
    a = order_cluster(e, np.arange(30), e.data[0], KeepStrategy.RANDOM, seed=5)
    b = order_cluster(moved, np.arange(30)[::-1], e.data[0], KeepStrategy.RANDOM, seed=5)
    assert np.array_equal(e.ids[a], moved.ids[b])


def test_order_random_is_seeded_permutation(rng):
    e = random_unit(rng, 20, 4)
    members = np.arange(20)
    a = order_cluster(e, members, e.data[0], KeepStrategy.RANDOM, seed=5)
    b = order_cluster(e, members, e.data[0], KeepStrategy.RANDOM, seed=5)
    c = order_cluster(e, members, e.data[0], KeepStrategy.RANDOM, seed=6)
    assert np.array_equal(a, b)
    assert sorted(a.tolist()) == list(range(20))
    assert not np.array_equal(a, c)


def test_dedup_cluster_exact_duplicates():
    e = unit_rows([[1.0, 0.0], [1.0, 0.0]])
    keep = dedup_cluster(e, np.array([0, 1])) <= 1 - 0.05
    assert keep.tolist() == [True, False]


def test_dedup_cluster_orthogonal_rows():
    e = unit_rows([[1.0, 0.0], [0.0, 1.0]])
    keep = dedup_cluster(e, np.array([0, 1])) <= 1 - 0.05
    assert keep.tolist() == [True, True]


def test_dedup_cluster_chain_blocks_transitively():
    # Angles 0/10/20 degrees with cos10 > 1-eps >= cos20: the middle point is
    # removed and still blocks the third.
    angles = np.deg2rad([0.0, 10.0, 20.0])
    e = unit_rows([[np.cos(a), np.sin(a)] for a in angles])
    eps = 0.05
    assert np.cos(np.deg2rad(10)) > 1 - eps >= np.cos(np.deg2rad(20))
    keep = dedup_cluster(e, np.array([0, 1, 2])) <= 1 - eps
    assert keep.tolist() == [True, False, False]


def test_dedup_cluster_tiling_invariant(rng):
    # Each maximum is the float64 row-wise dot of its winning pair, so no tile
    # shape, BLAS blocking or summation order shows in it.
    d = 8
    for trial in range(10):
        local = np.random.default_rng(trial)
        n = int(local.integers(2, 300))
        e = random_unit(local, n, d)
        ordered = local.permutation(n)
        baseline = None
        for tile in (1, 3, 17, 128, 4096):
            maxima = dedup_cluster(e, ordered, tile=tile)
            if baseline is None:
                baseline = maxima
            else:
                assert np.array_equal(maxima, baseline)


def brute_prefix_maxima(rows):
    """max(0, the largest row-wise float64 dot to an earlier row), one point at a time."""
    wide = rows.astype(np.float64)
    out = np.zeros(len(rows))
    for i in range(1, len(rows)):
        out[i] = max(0.0, np.einsum("ij,ij->i", wide[np.full(i, i)], wide[:i]).max())
    return out


def near_tie_rows(triples=120, d=256, copies=40):
    """Rows a, b, x per triple, then exact copies of earlier rows.

    b is a with 32 coordinates moved by up to 8 float32 ulps, so x's float32
    scores to a and b lie within the screen margin, often in the order
    opposite to their float64 dots.
    """
    local = np.random.default_rng(0)
    rows = []
    for _ in range(triples):
        x = local.standard_normal(d)
        x /= np.linalg.norm(x)
        a = x + 0.02 * local.standard_normal(d)
        a = (a / np.linalg.norm(a)).astype(np.float32)
        b = a.copy()
        k = local.choice(d, 32, replace=False)
        b[k] += (local.integers(-8, 9, 32) * np.spacing(np.abs(a[k]))).astype(np.float32)
        rows += [a, b, x.astype(np.float32)]
    rows = np.array(rows)
    return np.vstack([rows, rows[local.integers(0, len(rows), copies)]])


def test_dedup_cluster_equals_brute_force_on_near_ties():
    triples = 120
    rows = near_tie_rows(triples)
    a, b, x = rows[:3 * triples].reshape(triples, 3, -1).transpose(1, 0, 2)
    score_a, score_b = (np.einsum("ij,ij->i", x, y) for y in (a, b))
    dot_a, dot_b = (np.einsum("ij,ij->i", x.astype(np.float64), y.astype(np.float64)) for y in (a, b))
    # Planted as stated: every pair within the margin, and some in the opposite float64 order.
    assert np.all(np.abs(score_a - score_b) <= dedup_core._screen_margin(rows.shape[1]))
    assert np.count_nonzero((score_a - score_b) * (dot_a - dot_b) < 0) >= 1
    e = UnitEmbeddingMatrix(rows, np.arange(len(rows), dtype=np.uint64))
    want = brute_prefix_maxima(rows)
    for tile in (1, 17, 300, 1024):
        assert np.array_equal(dedup_cluster(e, np.arange(len(rows)), tile=tile), want)


@pytest.mark.parametrize("d", [1, 128, 10**5, 10**6, 2**23])
def test_screen_margin_covers_rows_off_unit_length(d):
    # In exact arithmetic: twice the float32 and float64 dot error bounds of
    # rows whose norms reach 1 + UNIT_NORM_TOL (Higham, section 3.1).
    u32, u64, tol = Fraction(1, 2**24), Fraction(1, 2**53), Fraction(UNIT_NORM_TOL)
    gamma32, gamma64 = (d * u / (1 - d * u) for u in (u32, u64))
    margin = Fraction(dedup_core._screen_margin(d))
    assert margin >= 2 * (gamma32 + gamma64) * (1 + tol) ** 2
    # Never below the bound for unit rows, so the screen drops no pair it kept before.
    assert margin >= 2 * (gamma32 + 2 * u32 + 2 * gamma64)


@pytest.mark.parametrize("d", [2**24, 2**25])
def test_screen_rejects_rows_too_long_to_certify(d):
    with pytest.raises(InvalidArgumentError, match="2\\^24"):
        dedup_core._screen_margin(d)
    # Rejected before the rows are gathered: np.zeros leaves these 2 * d * 4 bytes untouched.
    e = SimpleNamespace(data=np.zeros((2, d), dtype=np.float32), d=d)
    with pytest.raises(InvalidArgumentError, match="2\\^24"):
        dedup_cluster(e, np.array([0, 1]))


def test_screen_sends_one_pair_per_point_to_float64(rng):
    # Without near ties only each point's float32 winner survives the final
    # cut, even at tile 1, where a point's best so far rises tile after tile.
    e = random_unit(rng, 300, 16)
    rows = rng.permutation(300)[:200]  # positions in ``rows``, read from the corpus by index
    wide = e.data[rows].astype(np.float64)
    winners = [int(np.argmax(wide[:i] @ wide[i])) for i in range(1, 200)]
    for tile in (1, 17, 1024):
        later, earlier = (np.concatenate(x) for x in zip(*dedup_core._screen(e.data, rows, tile)))
        assert np.array_equal(np.sort(later), np.arange(1, 200))
        assert np.array_equal(earlier[np.argsort(later)], winners)


def test_screen_holds_a_budget_of_candidates(rng):
    # A small tile on a few-thousand-point cluster: every panel is open from the
    # first block to its last, and each yields about one pair per own row.
    m, panel = 3000, dedup_core._PANEL
    e = random_unit(rng, m, 16)
    tracemalloc.start()
    try:
        sizes = []
        screened = dedup_core._screen(e.data, np.arange(m), 4)
        for p, (later, earlier) in enumerate(screened):
            p0 = 1 + p * panel  # panels close in order, each after its last block
            assert np.array_equal(np.unique(later), np.arange(p0, min(p0 + panel, m)))
            assert np.all(earlier < later)
            sizes.append(later.size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m - 1 <= sum(sizes) <= 1.01 * (m - 1)
    # Holding every tile's argmax until the end would take m * m / 4 pairs of 20 bytes.
    assert peak < 2 << 20


def test_screen_yields_early_past_the_budget_and_keeps_the_maxima(monkeypatch):
    # 600 exact copies: every earlier row is a candidate, 179,700 pairs in all.
    # Past the budget the held panels are cut early, so no more than the budget
    # and one block of candidates is held, and the maxima stay those of all pairs.
    local = np.random.default_rng(5)
    e = unit_rows(np.repeat(local.standard_normal((1, 8)), 600, axis=0))
    want = np.einsum("ij,ij->i", e.data.astype(np.float64), e.data.astype(np.float64))
    want[0] = 0.0
    monkeypatch.setattr(_parallel, "SCRATCH_BYTES", 20 * 1000)
    batches = list(dedup_core._screen(e.data, np.arange(600), 64))
    assert max(later.size for later, _ in batches) <= 1000 + dedup_core._PANEL * 64
    later = np.concatenate([later for later, _ in batches])
    assert later.size == 600 * 599 // 2
    assert np.array_equal(dedup_cluster(e, np.arange(600), tile=64), want)


# Row counts either side of one and two panels (a panel within ``a`` starts at row 1), and tiles.
KERNEL_ROWS = (0, 1, 2, 255, 256, 257, 258, 600)
KERNEL_TILES = (1, 3, 17, 256, 1024)
KERNEL_DTYPES = (np.float32, np.float64)


def test_panels_cover_each_pair_once():
    local = np.random.default_rng(3)
    b = local.standard_normal((23, 5)).astype(np.float32)
    for m in KERNEL_ROWS:
        a = np.vstack([local.standard_normal((m, 5)).astype(np.float32), b])
        rows, cols = np.arange(m), np.arange(m, m + len(b))
        for tile, dtype in itertools.product(KERNEL_TILES, KERNEL_DTYPES):
            within = np.zeros((m, m), dtype=np.int64)
            for i0, j0, sims in dedup_core._panels(a, rows, tile=tile, dtype=dtype):
                assert sims.dtype == dtype
                assert sims.shape[0] <= dedup_core._PANEL and sims.shape[1] <= tile
                within[i0:i0 + sims.shape[0], j0:j0 + sims.shape[1]] += sims > -np.inf
            # Each unordered pair once, as (later, earlier); nothing on or after the diagonal.
            assert np.array_equal(within, np.tri(m, k=-1, dtype=np.int64))

            across = np.zeros((m, b.shape[0]), dtype=np.int64)
            for i0, j0, sims in dedup_core._panels(a, rows, cols, tile=tile, dtype=dtype):
                assert sims.dtype == dtype
                assert sims.shape[0] <= dedup_core._PANEL and sims.shape[1] <= tile
                across[i0:i0 + sims.shape[0], j0:j0 + sims.shape[1]] += 1
            assert np.all(across == 1)


def test_panels_equal_gemm_of_the_same_dtype_rows():
    # Casting a panel or block at a time keeps every product as it is on the
    # whole cast: no panel is one array times its own transpose, which numpy
    # would send to syrk and round unlike gemm.
    local = np.random.default_rng(4)
    b = local.standard_normal((40, 64)).astype(np.float32)
    for m in KERNEL_ROWS:
        a = np.vstack([local.standard_normal((m, 64)).astype(np.float32), b])
        rows, cols = np.arange(m), np.arange(m, m + len(b))
        for tile, dtype in itertools.product(KERNEL_TILES, KERNEL_DTYPES):
            wide = a.astype(dtype)
            for index, wide_cols in ((None, wide[rows]), (cols, wide[cols])):
                for i0, j0, sims in dedup_core._panels(a, rows, index, tile=tile, dtype=dtype):
                    want = wide[i0:i0 + sims.shape[0]] @ wide_cols[j0:j0 + sims.shape[1]].T
                    live = sims > -np.inf
                    assert np.array_equal(sims[live], want[live])


def panel_grid(m, n, tile, within, dtype):
    """``(i0, j0, rows, columns)`` of each ``dtype`` panel, from a reference panel-outer loop.

    ``tile`` and ``_PANEL`` count float32 rows: a float64 block or panel holds
    half as many, and at least one.
    """
    wide = np.dtype(dtype).itemsize // 4
    tile, step = max(1, tile // wide), max(1, dedup_core._PANEL // wide)
    grid = set()
    for p0 in range(int(within), m, step):
        p1 = min(p0 + step, m)
        for j0 in range(0, p1 - 1 if within else n, tile):
            j1 = min(j0 + tile, p1 - 1 if within else n)
            i0 = max(p0, j0 + 1) if within else p0
            grid.add((i0, j0, p1 - i0, j1 - j0))
    return grid


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 600), st.integers(0, 300))
def test_panels_of_shuffled_rows_keep_the_grid_and_the_gemm(seed, m, n):
    # Rows and columns are read from a corpus by shuffled index: the panels keep
    # the shapes and positions of the panel-outer loop, so each entry is the
    # same gemm of the same rows, and each pair is still covered once.
    local = np.random.default_rng(seed)
    data = local.standard_normal((m + n + 5, 16)).astype(np.float32)
    order = local.permutation(len(data))
    rows, cols = order[:m], order[m:m + n]
    for tile, dtype in itertools.product((1, 3, 17, 1024), KERNEL_DTYPES):
        wide = data.astype(dtype)
        for index, within in ((None, True), (cols, False)):
            across = wide[rows] if within else wide[cols]
            seen, count = set(), np.zeros((m, len(across)), dtype=np.int64)
            for i0, j0, sims in dedup_core._panels(data, rows, index, tile=tile, dtype=dtype):
                r, c = sims.shape
                seen.add((i0, j0, r, c))
                want = wide[rows[i0:i0 + r]] @ across[j0:j0 + c].T
                live = sims > -np.inf
                assert sims.dtype == dtype and np.array_equal(sims[live], want[live])
                count[i0:i0 + r, j0:j0 + c] += live
            assert seen == panel_grid(m, len(across), tile, within, dtype)
            assert np.array_equal(count, np.tri(m, k=-1, dtype=np.int64) if within else np.ones((m, n), np.int64))


def test_pmax_of_another_length_is_rejected(rng):
    e = random_unit(rng, 50, 4)
    model = fit(e, 3, 5, seed=0)
    for rows in (40, 60):
        with pytest.raises(InvalidArgumentError):
            threshold(np.zeros(rows), 0.1, model)
        with pytest.raises(InvalidArgumentError):
            sorted_maxima(np.zeros(rows), model, np.arange(model.k))


def test_dedup_dataset_calls_cluster_steps_through_module(rng, monkeypatch):
    # The benchmark's traced run wraps these two module attributes to time each cluster.
    e = random_unit(rng, 120, 6)
    model = fit(e, 7, 10, seed=2)
    cfg = DedupConfig(epsilon=0.3)
    expected = dedup_dataset(e, model, cfg)
    calls = {"order_cluster": 0, "dedup_cluster": 0}

    def counted(name):
        original = getattr(dedup_core, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(dedup_core, name, counted(name))
    result = dedup_dataset(e, model, cfg, threads=1)
    multi = int(np.count_nonzero(model.cluster_sizes() >= 2))
    assert multi >= 2
    assert calls == {"order_cluster": multi, "dedup_cluster": multi}
    assert np.array_equal(result.keep, expected.keep)


def test_dedup_config_validation():
    with pytest.raises(InvalidArgumentError):
        DedupConfig(epsilon=0.0)
    with pytest.raises(InvalidArgumentError):
        DedupConfig(epsilon=1.0)
    with pytest.raises(InvalidArgumentError):
        DedupConfig(epsilon=0.5, tile=0)
    with pytest.raises(InvalidArgumentError):
        KeepStrategy.parse("bogus")


def test_strategy_value_is_its_member(rng):
    e = random_unit(rng, 80, 8)
    model = fit(e, 3, 5, seed=0)
    for member in KeepStrategy:
        assert KeepStrategy.parse(member) is member
        assert KeepStrategy.parse(member.value) is member
        assert DedupConfig(epsilon=0.05, strategy=member.value).strategy is member
        assert np.array_equal(prefix_maxima(e, model, member.value, 3),
                              prefix_maxima(e, model, member, 3))
    with pytest.raises(InvalidArgumentError):
        DedupConfig(epsilon=0.05, strategy="bogus")
    with pytest.raises(InvalidArgumentError):
        prefix_maxima(e, model, "bogus", 3)


@pytest.mark.parametrize("tile", [0, -1])
def test_every_tiled_call_rejects_tile_below_one(rng, tile):
    # Exact copies, so a call that silently computed nothing would be visible.
    e = unit_rows(np.repeat(rng.standard_normal((20, 8)), 2, axis=0))
    model = fit(e, 3, 5, seed=0)
    strategy = KeepStrategy.LOW_CENTROID_SIM
    calls = (
        lambda: prefix_maxima(e, model, strategy, 0, tile),
        lambda: similarity_histogram(e, model, tile=tile),
        lambda: duplicate_incidence(e, model, 0.05, tile=tile),
        lambda: dedup_efficiency(e, model, 0.05, 1, tile=tile),
        lambda: size_curve(e, model, np.arange(model.k), strategy, [0.05], tile=tile),
    )
    for call in calls:
        with pytest.raises(InvalidArgumentError):
            call()


def test_prefix_maxima_rejects_bad_cluster_ids_before_any_sweep(rng, monkeypatch):
    e = random_unit(rng, 60, 6)
    model = fit(e, 3, 5, seed=0)
    assert (model.cluster_sizes() >= 2).all()  # a sweep of any cluster would be seen
    sweeps = []
    original = dedup_core.dedup_cluster

    def counted(*args, **kwargs):
        sweeps.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dedup_core, "dedup_cluster", counted)
    low = KeepStrategy.LOW_CENTROID_SIM
    not_1d = (1, np.int64(2), [[0, 1]], np.zeros((0, 2), dtype=int))
    for clusters in ([-1], [model.k], [0, 0], [2, 0, 2], [0.5], *not_1d):
        with pytest.raises(InvalidArgumentError):
            prefix_maxima(e, model, low, 0, clusters=clusters)
    assert sweeps == []
    assert np.array_equal(prefix_maxima(e, model, low, 0, clusters=[]), np.zeros(e.n))


@pytest.mark.parametrize("strategy, tile", [("bogus", 16), (KeepStrategy.RANDOM, 0)])
def test_prefix_maxima_checks_arguments_without_a_cluster_to_sweep(strategy, tile):
    # Four one-hot points in four clusters: every cluster is a singleton.
    e = unit_rows(np.eye(4))
    model = fit(e, 4, 3, seed=0)
    assert np.array_equal(model.cluster_sizes(), [1, 1, 1, 1])
    with pytest.raises(InvalidArgumentError):
        prefix_maxima(e, model, strategy, 0, tile=tile)


def test_dedup_dataset_tiny_epsilon_keeps_everything(rng):
    e = random_unit(rng, 100, 16)
    model = fit(e, 4, 10, seed=0)
    result = dedup_dataset(e, model, DedupConfig(epsilon=1e-9))
    assert result.keep.all()
    assert result.kept_fraction == 1.0
    assert result.per_cluster_removed.sum() == 0


def test_dedup_dataset_planted_groups_exact_fraction():
    corpus = generate_planted(100, 5, d=64, within_sim_target=0.999, seed=7)
    e = normalize_rows(corpus.embeddings)
    model = fit(e, 10, 30, seed=7)
    # Every group must land in one cluster for the exact count to hold.
    for group in corpus.groups:
        assert len(set(model.assignment[group].tolist())) == 1
    result = dedup_dataset(e, model, DedupConfig(epsilon=0.01))
    assert result.kept_fraction == pytest.approx(0.2)
    assert result.kept_count == 100


def test_dedup_dataset_keeps_min_centroid_cos_member():
    corpus = generate_planted(40, 5, d=32, within_sim_target=0.999, seed=3)
    e = normalize_rows(corpus.embeddings)
    model = fit(e, 5, 30, seed=3)
    result = dedup_dataset(e, model, DedupConfig(epsilon=0.01))
    for group in corpus.groups:
        members = np.asarray(group)
        kept = members[result.keep[members]]
        assert kept.size == 1
        c = model.assignment[members[0]]
        cos = e.data[members].astype(np.float64) @ model.centroids[c].astype(np.float64)
        assert kept[0] == members[int(np.argmin(cos))]


def test_dedup_dataset_singleton_clusters(rng):
    e = random_unit(rng, 15, 6)
    model = fit(e, 15, 5, seed=2)
    result = dedup_dataset(e, model, DedupConfig(epsilon=0.3))
    assert result.keep.all()
    assert result.comparisons == 0


def test_dedup_dataset_comparisons_accounting(rng):
    e = random_unit(rng, 200, 8)
    model = fit(e, 6, 10, seed=1)
    result = dedup_dataset(e, model, DedupConfig(epsilon=0.2))
    sizes = model.cluster_sizes()
    assert result.comparisons == int(sum(s * (s - 1) // 2 for s in sizes))


def test_dedup_dataset_thread_count_invariant(rng):
    e = random_unit(rng, 300, 10)
    model = fit(e, 8, 10, seed=5)
    cfg = DedupConfig(epsilon=0.25, strategy=KeepStrategy.RANDOM, seed=17)
    one = dedup_dataset(e, model, cfg, threads=1)
    many = dedup_dataset(e, model, cfg, threads=4)
    assert np.array_equal(one.keep, many.keep)
    assert one.comparisons == many.comparisons


def test_dedup_monotone_and_nested(rng):
    e = random_unit(rng, 250, 8)
    model = fit(e, 5, 10, seed=0)
    for strategy in KeepStrategy:
        previous = None
        for eps in np.linspace(0.01, 0.9, 10):
            cfg = DedupConfig(epsilon=float(eps), strategy=strategy, seed=3)
            keep = dedup_dataset(e, model, cfg).keep
            if previous is not None:
                # Larger epsilon never keeps a point the smaller one dropped.
                assert not np.any(keep & ~previous)
            previous = keep


def test_at_least_one_kept_per_cluster():
    # All points identical: huge duplicate cluster, exactly one survivor.
    e = unit_rows([[1.0, 0.0]] * 30)
    model = single_cluster_model(e)
    result = dedup_dataset(e, model, DedupConfig(epsilon=0.5))
    assert result.kept_count == 1


def test_dedup_dataset_size_mismatch(rng):
    e = random_unit(rng, 50, 6)
    other = random_unit(rng, 40, 6)
    model = fit(other, 4, 5, seed=0)
    with pytest.raises(InvalidArgumentError):
        dedup_dataset(e, model, DedupConfig(epsilon=0.1))


def test_cluster_seed_stable():
    assert cluster_seed(5, 0) != cluster_seed(5, 1)
    assert cluster_seed(5, 3) == cluster_seed(5, 3)


def test_keep_list_round_trip(tmp_path, rng):
    e = random_unit(rng, 64, 4, ids=np.arange(100, 164, dtype=np.uint64))
    model = fit(e, 4, 10, seed=0)
    result = dedup_dataset(e, model, DedupConfig(epsilon=0.4))
    ids = kept_ids(e, result)
    assert np.all(np.diff(ids.astype(np.int64)) > 0)  # ascending
    path = tmp_path / "keep.txt"
    write_keep_list(path, ids)
    assert np.array_equal(read_keep_list(path), ids)


def test_keep_list_bytes_ignore_budget(tmp_path, monkeypatch):
    # The list is written in budget-sized chunks; the bytes must not show them.
    ids = np.array([2**64 - 1, 0, 7, 10**12, 5], dtype=np.uint64)
    want = "".join(f"{v}\n" for v in sorted(int(v) for v in ids))
    for budget in (1, 64, 2 << 20):
        monkeypatch.setattr(_parallel, "SCRATCH_BYTES", budget)
        write_keep_list(tmp_path / "keep.txt", ids)
        assert (tmp_path / "keep.txt").read_text(encoding="utf-8") == want


def test_summary_dict_schema(rng):
    e = random_unit(rng, 30, 4)
    model = fit(e, 3, 5, seed=0)
    cfg = DedupConfig(epsilon=0.2)
    result = dedup_dataset(e, model, cfg)
    summary = summary_dict(result, cfg, e.n, model.k)
    assert set(summary) == {
        "n", "kept", "kept_fraction", "epsilon", "strategy", "k",
        "comparisons", "per_cluster_removed",
    }
    assert summary["n"] == 30
    assert summary["strategy"] == "low"
    assert len(summary["per_cluster_removed"]) == 3
    assert summary["kept"] == result.kept_count

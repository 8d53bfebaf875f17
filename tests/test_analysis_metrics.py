import itertools
import sys

import numpy as np
import pytest

from semdedup import analysis_metrics
from semdedup.analysis_metrics import (
    dedup_efficiency,
    duplicate_incidence,
    histogram_bin_edges,
    intersection_pct,
    per_cluster_stats,
    similarity_histogram,
    threshold_pass,
)
from semdedup.dedup_core import DedupConfig, KeepStrategy, dedup_dataset, prefix_maxima, threshold
from semdedup.errors import InvalidArgumentError
from semdedup.oracle import brute_force_duplicate_pairs
from semdedup.embedding_store import normalize_rows
from semdedup.spherical_kmeans import KMeansModel, fit, load_model, save_model

from conftest import (
    exact_step_pairs, fixed_band_groups, generate_planted, random_unit, single_cluster_model, unit_rows,
)


def block_model(e, *splits):
    """Model with fixed [0, s1) / [s1, s2) / ... / [s_last, n) membership and mean centroids."""
    assignment = np.zeros(e.n, dtype=np.uint32)
    for split in splits:
        assignment[split:] += 1
    cents = []
    for c in range(len(splits) + 1):
        mean = e.data[assignment == c].astype(np.float64).sum(axis=0)
        cents.append(mean / np.linalg.norm(mean))
    return KMeansModel(centroids=np.asarray(cents, dtype=np.float32), assignment=assignment)


def test_histogram_identical_pair_lands_in_last_bin():
    e = unit_rows([[1.0, 0.0], [1.0, 0.0]])
    counts = similarity_histogram(e, single_cluster_model(e), bins=4)
    assert counts.tolist() == [0, 0, 0, 1]


def test_histogram_orthogonal_pair_lands_in_zero_bin():
    e = unit_rows([[1.0, 0.0], [0.0, 1.0]])
    counts = similarity_histogram(e, single_cluster_model(e), bins=4)
    # Bin 2 covers [0, 0.5).
    assert counts.tolist() == [0, 0, 1, 0]


def test_histogram_edges():
    edges = histogram_bin_edges(4)
    assert np.allclose(edges, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_histogram_total_and_bins_match_recount(rng):
    # The second corpus has clusters of more than one 256-row panel.
    for e, k, smallest in ((random_unit(rng, 200, 8), 5, 2), (random_unit(rng, 700, 8), 2, 258)):
        model = fit(e, k, 10, seed=0)
        assert model.cluster_sizes().min() >= smallest
        bins = 32
        counts = similarity_histogram(e, model, bins=bins, tile=17)
        sizes = model.cluster_sizes()
        assert int(counts.sum()) == int(sum(s * (s - 1) // 2 for s in sizes))

        # Direct full-matrix recount per cluster.
        expected = np.zeros(bins, dtype=np.int64)
        for c in range(model.k):
            members = model.members[c]
            rows = e.data[members].astype(np.float64)
            sims = rows @ rows.T
            iu = np.triu_indices(members.size, k=1)
            idx = np.clip(np.floor((sims[iu] + 1.0) * (bins / 2.0)).astype(np.int64), 0, bins - 1)
            expected += np.bincount(idx, minlength=bins)
        assert np.array_equal(counts.astype(np.int64), expected)


def test_histogram_requires_two_bins(rng):
    e = random_unit(rng, 10, 4)
    with pytest.raises(InvalidArgumentError):
        similarity_histogram(e, single_cluster_model(e), bins=1)


def test_incidence_orthogonal_corpus_is_zero():
    e = unit_rows(np.eye(6))
    assert duplicate_incidence(e, single_cluster_model(e), 0.05) == 0.0


def test_incidence_identical_corpus_is_one():
    e = unit_rows([[0.0, 1.0]] * 8)
    assert duplicate_incidence(e, single_cluster_model(e), 0.05) == 1.0


def test_incidence_steps_at_group_band():
    theta = np.arccos(np.sqrt(0.96))
    e, groups = fixed_band_groups(30, 3, d=16, theta=theta, seed=2)
    model = single_cluster_model(e)
    past = 1.0 - 0.96 + 1e-3
    below = 1.0 - 0.96 - 1e-3
    assert duplicate_incidence(e, model, past) == 1.0
    assert duplicate_incidence(e, model, below) == 0.0


def test_incidence_counts_a_pair_exactly_at_the_threshold():
    # Every pair's cosine is exactly 0.875 = 1 - 0.125, so >= decides.
    e = exact_step_pairs()
    model = single_cluster_model(e)
    assert duplicate_incidence(e, model, 0.125) == 1.0
    assert duplicate_incidence(e, model, 0.1249) == 0.0
    # One verdict per pair: every pair is both a duplicate and a detected pair.
    assert threshold_pass(e, model, 0.125, 0) == (100.0, 1.0)


def test_singleton_never_has_a_duplicate():
    e = exact_step_pairs()
    assignment = np.zeros(e.n, dtype=np.uint32)
    assignment[0] = 1  # row 0 alone; its partner, row 16, loses its duplicate
    centroids = np.vstack([np.eye(e.d)[1], e.data[0]]).astype(np.float32)
    model = KMeansModel(centroids=centroids, assignment=assignment)
    # Row 16's largest cosine inside cluster 0 is 0, so even a threshold of
    # 0.01 counts every row but rows 0 and 16.
    for eps in (0.125, 0.5, 0.99):
        assert duplicate_incidence(e, model, eps) == 30 / 32
    assert duplicate_incidence(e, model, 0.1249) == 0.0


def test_incidence_matches_brute_force_pairs(rng):
    for seed in range(5):
        local = np.random.default_rng(seed)
        n = int(local.integers(20, 120))
        base = random_unit(local, n, 6)
        model = fit(base, 4, 10, seed=seed)
        eps = float(local.uniform(0.1, 0.9))
        engine = duplicate_incidence(base, model, eps, tile=13)

        pairs = brute_force_duplicate_pairs(base, eps)
        has_dup = set()
        for a, b in pairs:
            if model.assignment[a] == model.assignment[b]:
                has_dup.add(a)
                has_dup.add(b)
        assert engine == len(has_dup) / n


def test_incidence_matches_full_matrix():
    # Share of points with a same-cluster partner at cos >= 1 - eps in the
    # float64 matrix. The last row, a copy of row 0, is a cluster of its own:
    # its cross-cluster duplicate never counts.
    local = np.random.default_rng(23)
    # Each epsilon leaves about half the points with a duplicate; the second
    # corpus spans three 256-row panels.
    for rows_a, rows_b, eps in ((41, 29, 0.1), (700, 300, 0.02)):
        e = random_unit(local, rows_a + rows_b, 4)
        e = unit_rows(np.vstack([e.data, e.data[:1]]))
        model = block_model(e, rows_a, rows_a + rows_b)
        rows = e.data.astype(np.float64)
        hits = rows @ rows.T >= 1.0 - eps
        np.fill_diagonal(hits, False)
        same = model.assignment[:, None] == model.assignment[None, :]
        has_dup = (hits & same).any(axis=1)
        assert hits[-1, 0] and not has_dup[-1]
        assert 0 < np.count_nonzero(has_dup) < e.n - 1
        for tile in (1, 3, 17, 128):
            assert duplicate_incidence(e, model, eps, tile=tile) == np.count_nonzero(has_dup) / e.n


def test_incidence_bins_nothing(monkeypatch):
    e = exact_step_pairs()
    model = single_cluster_model(e)
    calls = []
    original = analysis_metrics._bin_indices

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(analysis_metrics, "_bin_indices", counted)
    assert duplicate_incidence(e, model, 0.125) == 1.0
    assert calls == []
    similarity_histogram(e, model)
    assert calls  # the counter sees the binning pass


def test_threshold_pass_reads_float32_panels_and_only_the_histogram_float64(monkeypatch, rng):
    e = random_unit(rng, 700, 8)
    model = block_model(e, 400)
    dtypes = []
    original = analysis_metrics._panels

    def recorded(*args, **kwargs):
        dtypes.append(kwargs["dtype"])
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis_metrics, "_panels", recorded)
    duplicate_incidence(e, model, 0.3)
    dedup_efficiency(e, model, 0.3, m_neighbors=1)
    assert dtypes == [np.float32] * 5  # two clusters, then the same two and their pair
    dtypes.clear()
    similarity_histogram(e, model)
    assert dtypes == [np.float64] * 2


def test_pairs_clear_of_the_margin_reach_no_dots(monkeypatch):
    # Every cosine of the 3,000-row cluster is above 0.99, far above 1 - 0.05
    # plus the margin, so each pair is a hit on its float32 score alone.
    local = np.random.default_rng(3)
    e = unit_rows(local.standard_normal(32) + 1e-3 * local.standard_normal((3000, 32)))
    sent = []
    original = analysis_metrics._dots

    def recorded(a, b, i, j):
        sent.append(len(i))
        return original(a, b, i, j)

    monkeypatch.setattr(analysis_metrics, "_dots", recorded)
    assert threshold_pass(e, single_cluster_model(e), 0.05, 0) == (100.0, 1.0)
    assert sent and not any(sent)


def test_incidence_marks_survive_many_workers():
    # Pair g of exact_step_pairs (rows g and g + 16) is cluster g, so every
    # cluster's rows interleave with the others' in the one shared mark array.
    # More workers than cores and a short switch interval must lose no mark.
    e = exact_step_pairs()
    assignment = np.arange(e.n, dtype=np.uint32) % 16
    centroids = unit_rows(e.data[:16] + e.data[16:]).data
    model = KMeansModel(centroids=centroids, assignment=assignment)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = {threshold_pass(e, model, 0.125, 0, tile=1, threads=8) for _ in range(20)}
    finally:
        sys.setswitchinterval(interval)
    assert results == {(100.0, 1.0)}


def test_metrics_tiling_invariant():
    # The 700-point corpus has clusters of more than one 256-row panel.
    for n, d, k, m, eps in ((150, 6, 5, 2, 0.1), (700, 8, 2, 1, 0.3)):
        e = random_unit(np.random.default_rng(11), n, d)
        model = fit(e, k, 10, seed=11)
        results = []
        for tile in (1, 3, 17, 128, 4096):
            results.append((
                similarity_histogram(e, model, bins=64, tile=tile).tolist(),
                duplicate_incidence(e, model, eps, tile=tile),
                dedup_efficiency(e, model, eps, m_neighbors=m, tile=tile),
            ))
        assert 0.0 < results[0][1] < 1.0
        assert results[0][2] < 100.0  # some threshold pairs cross clusters
        assert all(r == results[0] for r in results[1:])


def at_threshold_pairs(pairs: int, d: int):
    """Rows 2p and 2p + 1 form pair p at a cosine in (0.6, 0.99), and every fifth pair is split.

    The other pairs sit in cluster p % 2; a split pair has one end in each
    cluster. Returns the corpus, its two-cluster model and each pair's
    row-wise float64 dot, the cosine on which every verdict is made.
    """
    local = np.random.default_rng(d)
    x = local.standard_normal((pairs, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    t = local.standard_normal((pairs, d))
    t -= np.einsum("ij,ij->i", t, x)[:, None] * x
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    c = local.uniform(0.6, 0.99, (pairs, 1))
    e = unit_rows(np.stack([x, c * x + np.sqrt(1 - c * c) * t], axis=1).reshape(2 * pairs, d))
    assignment = np.repeat(np.arange(pairs) % 2, 2).astype(np.uint32)
    assignment[1::10] = 1 - assignment[1::10]
    centroids = unit_rows([e.data[assignment == c].astype(np.float64).sum(axis=0) for c in (0, 1)])
    wide = e.data.astype(np.float64)
    return e, KMeansModel(centroids.data, assignment), np.einsum("ij,ij->i", wide[0::2], wide[1::2])


@pytest.mark.parametrize("d", [64, 512])
def test_pairs_at_the_threshold_are_judged_on_their_row_wise_dot(d):
    # At epsilon = 1 - t for a pair's row-wise dot t, the pair sits exactly on
    # 1 - epsilon (exact for t in (0.5, 1)). A float64 GEMM entry of the pair
    # may round either side of t, depending on the tile, so the counts below
    # hold only if every verdict reads the row-wise dot.
    e, model, tops = at_threshold_pairs(15, d)
    wide = e.data.astype(np.float64)
    dots = [np.einsum("ij,ij->i", wide[np.full(e.n - i - 1, i)], wide[i + 1:]) for i in range(e.n)]
    same = model.assignment[:, None] == model.assignment[None, :]
    pmax = prefix_maxima(e, model, KeepStrategy.LOW_CENTROID_SIM, 0)
    for t in tops:
        eps = 1.0 - t
        assert 0.5 < t < 1 and 1.0 - eps == t
        hit = np.zeros((e.n, e.n), dtype=bool)
        for i, row in enumerate(dots):
            hit[i, i + 1:] = row >= t
        within, across = int(np.count_nonzero(hit & same)), int(np.count_nonzero(hit & ~same))
        marked = (hit & same).any(axis=0) | (hit & same).any(axis=1)
        want = (100.0 * within / (within + across), np.count_nonzero(marked) / e.n)
        for tile, threads in itertools.product((1, 17, 1024), (1, 2)):
            assert threshold_pass(e, model, eps, 1, tile=tile, threads=threads) == want
        # dedup removes a point only for a same-cluster dot above 1 - epsilon,
        # and the incidence counts exactly the points of such pairs at or above it.
        removed = ~threshold(pmax, eps, model).keep
        assert not np.any(removed & ~marked)


def test_pair_counts_match_full_matrix():
    # Two clusters, each the other's neighbor: eta = 100 W / (W + A), with W the
    # threshold pairs within a cluster and A those across, from the float64 matrix.
    local = np.random.default_rng(21)
    eps = 0.4
    for rows_a, rows_b in ((41, 29), (700, 300)):  # the second spans three 256-row panels
        e = random_unit(local, rows_a + rows_b, 4)
        model = block_model(e, rows_a)
        rows = e.data.astype(np.float64)
        hits = rows @ rows.T >= 1.0 - eps
        within = sum(int(np.count_nonzero(np.triu(hits[s, s], k=1)))
                     for s in (slice(0, rows_a), slice(rows_a, None)))
        across = int(np.count_nonzero(hits[:rows_a, rows_a:]))
        assert within > 0 and across > 0
        for tile in (1, 3, 17, 128):
            eta = dedup_efficiency(e, model, eps, m_neighbors=1, tile=tile)
            assert eta == 100.0 * within / (within + across)


def test_empty_cluster_of_a_loaded_model_adds_nothing(tmp_path, rng):
    # A saved model may hold a cluster with no members; each pass skips it
    # and otherwise agrees with the model without it.
    e = random_unit(rng, 700, 8)
    compact = block_model(e, 400)
    path = tmp_path / "model.semk"
    save_model(KMeansModel(
        centroids=np.vstack([compact.centroids[0], np.eye(e.d)[0], compact.centroids[1]]),
        assignment=np.where(compact.assignment == 0, 0, 2),
    ), path)
    loaded = load_model(path)
    assert loaded.cluster_sizes().tolist() == [400, 0, 300]
    assert np.array_equal(similarity_histogram(e, loaded, bins=32, tile=100),
                          similarity_histogram(e, compact, bins=32, tile=100))
    assert duplicate_incidence(e, loaded, 0.4, tile=100) == duplicate_incidence(e, compact, 0.4, tile=100)
    # m = 2 lists every other cluster, as m = 1 does for the compact model.
    eta = dedup_efficiency(e, compact, 0.4, m_neighbors=1)
    assert dedup_efficiency(e, loaded, 0.4, m_neighbors=2) == eta
    low = KeepStrategy.LOW_CENTROID_SIM
    assert np.array_equal(prefix_maxima(e, loaded, low, 0), prefix_maxima(e, compact, low, 0))


def test_intersection_identity_and_disjoint():
    assert intersection_pct({1, 2, 3}, {1, 2, 3}, 3) == 100.0
    assert intersection_pct({1, 2}, {3, 4}, 2) == 0.0


def test_intersection_half_overlap():
    a = set(range(10))
    b = set(range(5, 15))
    assert intersection_pct(a, b, 10) == 50.0


def test_intersection_symmetric_and_exact_at_100(rng):
    a = set(rng.integers(0, 1000, size=30).tolist())
    n = len(a)
    b = set(list(a)[: n - 1] + [10**6])
    assert intersection_pct(a, b, n) == intersection_pct(b, a, n)
    assert intersection_pct(a, b, n) < 100.0
    assert intersection_pct(a, a, n) == 100.0


def test_intersection_size_mismatch():
    with pytest.raises(InvalidArgumentError):
        intersection_pct({1, 2}, {1, 2, 3}, 2)
    with pytest.raises(InvalidArgumentError):
        intersection_pct({1, 2}, {1, 2}, 3)
    with pytest.raises(InvalidArgumentError):
        intersection_pct(set(), set(), 0)


def test_eta_single_cluster_is_exactly_100(rng):
    corpus = generate_planted(10, 4, d=16, within_sim_target=0.999, seed=0)
    e = normalize_rows(corpus.embeddings)
    model = single_cluster_model(e)
    assert dedup_efficiency(e, model, 0.01, m_neighbors=0) == 100.0


def test_eta_planted_coclustered_is_100():
    corpus = generate_planted(50, 5, d=64, within_sim_target=0.999, seed=5)
    e = normalize_rows(corpus.embeddings)
    model = fit(e, 5, 20, seed=5)
    for group in corpus.groups:
        assert len(set(model.assignment[group].tolist())) == 1
    assert dedup_efficiency(e, model, 0.01, m_neighbors=4) == 100.0


def test_eta_split_pair_gives_50():
    # Cluster 0 holds a duplicate pair; one more duplicate of the same point
    # sits in cluster 1, so half of all threshold pairs cross the boundary.
    angle = np.deg2rad(17.0)
    p0 = [1.0, 0.0, 0.0, 0.0]
    p1 = [np.cos(angle), np.sin(angle), 0.0, 0.0]
    p2 = [np.cos(angle), -np.sin(angle), 0.0, 0.0]
    p3 = [0.0, 0.0, 1.0, 0.0]
    e = unit_rows([p0, p1, p2, p3])
    model = block_model(e, 2)

    eps = 0.05  # threshold 0.95: cos(17) ~ 0.956 counts, cos(34) ~ 0.829 does not
    assert dedup_efficiency(e, model, eps, m_neighbors=1) == 50.0


def test_eta_monotone_in_neighbor_count():
    theta = np.arccos(np.sqrt(0.97))
    e, _ = fixed_band_groups(80, 2, d=16, theta=theta, seed=7, singletons=40)
    model = fit(e, 6, 15, seed=7)
    eps = 1.0 - 0.97 + 5e-3
    values = [dedup_efficiency(e, model, eps, m_neighbors=m) for m in range(0, 6)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_eta_rejects_bad_neighbor_count(rng):
    e = random_unit(rng, 20, 4)
    model = fit(e, 4, 5, seed=0)
    with pytest.raises(InvalidArgumentError):
        dedup_efficiency(e, model, 0.1, m_neighbors=4)
    with pytest.raises(InvalidArgumentError):
        dedup_efficiency(e, model, 0.1, m_neighbors=-1)


def test_per_cluster_stats_no_removals(rng):
    e = random_unit(rng, 40, 8)
    model = fit(e, 4, 10, seed=0)
    result = dedup_dataset(e, model, DedupConfig(epsilon=1e-9))
    stats = per_cluster_stats(result.per_cluster_removed, model)
    assert all(s.removed_fraction == 0.0 for s in stats)
    assert sum(s.size for s in stats) == 40


def test_per_cluster_stats_identical_rows():
    e = unit_rows([[1.0, 0.0]] * 5)
    model = single_cluster_model(e)
    result = dedup_dataset(e, model, DedupConfig(epsilon=0.5))
    stats = per_cluster_stats(result.per_cluster_removed, model)
    assert stats[0].size == 5
    assert stats[0].removed == 4
    assert stats[0].removed_fraction == pytest.approx(0.8)


def test_per_cluster_totals_cross_check(rng):
    e = random_unit(rng, 300, 6)
    model = fit(e, 8, 10, seed=3)
    result = dedup_dataset(e, model, DedupConfig(epsilon=0.4))
    stats = per_cluster_stats(result.per_cluster_removed, model)
    assert sum(s.removed for s in stats) == e.n - result.kept_count
    assert sum(s.size for s in stats) == e.n

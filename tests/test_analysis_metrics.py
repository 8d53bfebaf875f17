import numpy as np
import pytest

from semdedup.analysis_metrics import (
    _count_pairs,
    dedup_efficiency,
    duplicate_incidence,
    histogram_bin_edges,
    incidence_at,
    intersection_pct,
    per_cluster_stats,
    similarity_histogram,
    within_cluster_pass,
)
from semdedup.dedup_core import DedupConfig, dedup_dataset
from semdedup.errors import InvalidArgumentError
from semdedup.oracle import brute_force_duplicate_pairs, generate_planted
from semdedup.embedding_store import normalize_rows
from semdedup.spherical_kmeans import KMeansModel, fit

from conftest import exact_step_pairs, fixed_band_groups, random_unit, single_cluster_model, unit_rows


def two_cluster_model(e, split):
    """Model with fixed [0, split) / [split, n) membership and mean centroids."""
    assignment = np.zeros(e.n, dtype=np.uint32)
    assignment[split:] = 1
    cents = []
    for c in (0, 1):
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
    e = random_unit(rng, 200, 8)
    model = fit(e, 5, 10, seed=0)
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
    _, nmax = within_cluster_pass(e, model)
    assert np.all(nmax == 0.875)
    assert incidence_at(nmax, 0.125) == 1.0


def test_singleton_nmax_is_minus_infinity():
    e = exact_step_pairs()
    assignment = np.zeros(e.n, dtype=np.uint32)
    assignment[0] = 1  # row 0 alone; its partner, row 16, loses its duplicate
    centroids = np.vstack([np.eye(e.d)[1], e.data[0]]).astype(np.float32)
    model = KMeansModel(centroids=centroids, assignment=assignment)
    _, nmax = within_cluster_pass(e, model)
    assert nmax[0] == -np.inf
    assert nmax[16] < 0.875
    assert np.all(np.delete(nmax, [0, 16]) == 0.875)
    assert incidence_at(nmax, 0.125) == duplicate_incidence(e, model, 0.125) == 30 / 32


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


def test_metrics_tiling_invariant():
    e = random_unit(np.random.default_rng(11), 150, 6)
    model = fit(e, 5, 10, seed=11)
    eps = 0.1
    results = []
    for tile in (1, 3, 17, 128, 4096):
        results.append((
            similarity_histogram(e, model, bins=64, tile=tile).tolist(),
            duplicate_incidence(e, model, eps, tile=tile),
            dedup_efficiency(e, model, eps, m_neighbors=2, tile=tile),
        ))
    assert 0.0 < results[0][1] < 1.0
    assert results[0][2] < 100.0  # some threshold pairs cross clusters
    assert all(r == results[0] for r in results[1:])


def test_pair_counts_match_full_matrix():
    local = np.random.default_rng(21)
    a = random_unit(local, 41, 4).data
    b = random_unit(local, 29, 4).data
    a64, b64 = a.astype(np.float64), b.astype(np.float64)
    thr = 0.6
    within = int(np.count_nonzero(np.triu(a64 @ a64.T >= thr, k=1)))
    across = int(np.count_nonzero(a64 @ b64.T >= thr))
    assert within > 0 and across > 0
    for tile in (1, 3, 17, 128):
        assert _count_pairs(a, None, thr, tile) == within
        assert _count_pairs(a, b, thr, tile) == across


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
    model = two_cluster_model(e, split=2)

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

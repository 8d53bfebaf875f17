import numpy as np
import pytest

from semdedup.dedup_core import DedupConfig, KeepStrategy, cluster_seed, dedup_dataset, order_cluster
from semdedup.embedding_store import normalize_rows
from semdedup.errors import ConstructionError, InvalidArgumentError
from semdedup.oracle import (
    brute_force_duplicate_pairs,
    brute_force_greedy_dedup,
    generate_planted,
)
from semdedup.spherical_kmeans import fit

from conftest import random_unit, unit_rows


def test_brute_force_single_point():
    e = unit_rows([[1.0, 0.0]])
    assert brute_force_greedy_dedup(e, np.array([0]), 0.1).tolist() == [True]


def test_brute_force_all_identical():
    e = unit_rows([[0.0, 1.0]] * 6)
    keep = brute_force_greedy_dedup(e, np.arange(6), 0.05)
    assert keep.tolist() == [True] + [False] * 5


def test_brute_force_requires_permutation(rng):
    e = random_unit(rng, 5, 3)
    with pytest.raises(InvalidArgumentError):
        brute_force_greedy_dedup(e, np.array([0, 1, 1, 2, 3]), 0.1)
    with pytest.raises(InvalidArgumentError):
        brute_force_greedy_dedup(e, np.array([0, 1]), 0.1)


def test_engine_matches_oracle_random_instances():
    # Engine (tiled, per-cluster) against the untiled reference, k=1.
    for trial in range(25):
        local = np.random.default_rng(1000 + trial)
        n = int(local.integers(2, 200))
        d = int(local.choice([8, 64]))
        e = random_unit(local, n, d)
        model = fit(e, 1, 2, seed=trial)
        eps = float(local.uniform(0.02, 0.7))
        for strategy in KeepStrategy:
            cfg = DedupConfig(epsilon=eps, strategy=strategy, seed=trial, tile=64)
            engine = dedup_dataset(e, model, cfg)
            ordered = order_cluster(
                e, model.members[0], model.centroids[0], strategy, cluster_seed(trial, 0)
            )
            flags = brute_force_greedy_dedup(e, ordered, eps)
            expected = np.zeros(n, dtype=bool)
            expected[ordered] = flags
            assert np.array_equal(engine.keep, expected)


def test_duplicate_pairs_orthogonal_corpus():
    e = unit_rows(np.eye(5))
    assert brute_force_duplicate_pairs(e, 0.1) == set()


def test_duplicate_pairs_single_planted_pair():
    base = np.zeros(16)
    base[0] = 1.0
    near = base.copy()
    near[1] = 0.04  # cosine ~ 0.9992 after normalization
    far = np.zeros(16)
    far[2] = 1.0
    e = unit_rows([base, near, far])
    pairs = brute_force_duplicate_pairs(e, 0.01)
    assert pairs == {(0, 1)}


def test_duplicate_pairs_planted_count():
    corpus = generate_planted(100, 5, d=64, within_sim_target=0.999, seed=11)
    e = normalize_rows(corpus.embeddings)
    eps = 1.0 - corpus.within_sim + 1e-9  # just past the measured margin
    pairs = brute_force_duplicate_pairs(e, eps)
    assert len(pairs) == 100 * 10  # 100 groups x C(5,2)


def test_duplicate_pairs_use_external_ids():
    e = unit_rows([[1.0, 0.0], [1.0, 0.0]], ids=np.array([42, 7], dtype=np.uint64))
    assert brute_force_duplicate_pairs(e, 0.1) == {(7, 42)}


def test_generate_planted_margins_and_fields():
    corpus = generate_planted(30, 4, d=32, within_sim_target=0.995, seed=2)
    assert corpus.within_sim >= 0.995 - 1e-6
    assert corpus.within_sim > corpus.across_sim
    assert corpus.across_sim < 0.5
    ids = sorted(i for g in corpus.groups for i in g)
    assert ids == list(range(corpus.embeddings.n))
    assert corpus.embeddings.n == 120


def test_generate_planted_trivial_single_point():
    corpus = generate_planted(1, 1, d=8, within_sim_target=0.99, seed=0)
    assert corpus.embeddings.n == 1
    assert corpus.groups == [[0]]


def test_generate_planted_deterministic():
    a = generate_planted(10, 3, d=16, within_sim_target=0.999, seed=5)
    b = generate_planted(10, 3, d=16, within_sim_target=0.999, seed=5)
    assert a.embeddings.data.tobytes() == b.embeddings.data.tobytes()
    assert a.groups == b.groups
    assert a.within_sim == b.within_sim


def test_generate_planted_exact_copies_at_target_one():
    corpus = generate_planted(5, 3, d=16, within_sim_target=1.0, seed=1)
    for group in corpus.groups:
        first = corpus.embeddings.data[group[0]]
        for member in group[1:]:
            assert np.array_equal(corpus.embeddings.data[member], first)
    assert corpus.within_sim == pytest.approx(1.0)


def test_generate_planted_mixed_group_sizes():
    corpus = generate_planted(4, [3, 1, 2, 1], d=16, within_sim_target=0.999, seed=9)
    assert [len(g) for g in corpus.groups] == [3, 1, 2, 1]
    assert corpus.embeddings.n == 7


def test_generate_planted_infeasible_raises():
    # Far too many centers for d=8 under the 0.4 cosine cap.
    with pytest.raises(ConstructionError):
        generate_planted(500, 1, d=8, within_sim_target=0.999, seed=0)


def test_generate_planted_argument_validation():
    with pytest.raises(InvalidArgumentError):
        generate_planted(1, 1, d=4, within_sim_target=0.9, seed=0)
    with pytest.raises(InvalidArgumentError):
        generate_planted(0, 1, d=8, within_sim_target=0.9, seed=0)
    with pytest.raises(InvalidArgumentError):
        generate_planted(2, [1, 0], d=8, within_sim_target=0.9, seed=0)
    with pytest.raises(InvalidArgumentError):
        generate_planted(2, [1, 1, 1], d=8, within_sim_target=0.9, seed=0)

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The performance smoke test (criterion 10) has a soft time budget: an
overrun prints a SOFT-PASS line instead of failing, and its asserts on the
result still hold.
"""

import time

import numpy as np

from semdedup.analysis_metrics import dedup_efficiency, intersection_pct
from semdedup.cli import main
from semdedup.dedup_core import (
    DedupConfig,
    KeepStrategy,
    cluster_seed,
    dedup_dataset,
    order_cluster,
)
from semdedup.embedding_store import EmbeddingMatrix, normalize_rows, write_embeddings
from semdedup.oracle import brute_force_greedy_dedup
from semdedup.spherical_kmeans import assign, fit
from semdedup.threshold_tuner import tune_epsilon
from semdedup._parallel import resolve_threads

from conftest import fixed_band_groups, generate_planted, random_unit


def _report(num: int, name: str, detail: str) -> None:
    print(f"[acceptance] criterion {num} ({name}): PASS - {detail}")


def test_criterion_01_oracle_equivalence():
    """k=1 dedup equals the brute-force greedy reference, all strategies."""
    start = time.perf_counter()
    corpora = 0
    dims = (8, 64, 512)
    for trial in range(500):
        local = np.random.default_rng(10_000 + trial)
        d = dims[trial % 3]
        max_n = 300 if d == 512 else 1000
        n = int(local.integers(2, max_n + 1))
        e = random_unit(local, n, d)
        model = fit(e, 1, 2, seed=trial)
        eps = float(local.uniform(0.02, 0.8))
        for strategy in KeepStrategy:
            cfg = DedupConfig(epsilon=eps, strategy=strategy, seed=trial, tile=256)
            engine = dedup_dataset(e, model, cfg)
            ordered = order_cluster(
                e, model.members[0], model.centroids[0], strategy, cluster_seed(trial, 0)
            )
            flags = brute_force_greedy_dedup(e, ordered, eps)
            expected = np.zeros(n, dtype=bool)
            expected[ordered] = flags
            assert np.array_equal(engine.keep, expected), (
                f"mask mismatch: trial={trial} n={n} d={d} eps={eps} strategy={strategy}"
            )
        corpora += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s (budget 60s)"
    _report(1, "oracle equivalence",
            f"{corpora} corpora x 3 strategies, bit-identical masks in {elapsed:.1f}s")


def test_criterion_02_planted_recovery():
    """100x5 planted groups: exactly one survivor per group, the right one."""
    corpus = generate_planted(100, 5, d=64, within_sim_target=0.999, seed=42)
    e = normalize_rows(corpus.embeddings)
    checked = []
    for k in (1, 10, 50):
        model = fit(e, k, 30, seed=k)
        for group in corpus.groups:
            assert len(set(model.assignment[group].tolist())) == 1, (
                f"group split at k={k}; co-clustering precondition failed"
            )
        result = dedup_dataset(e, model, DedupConfig(epsilon=0.01))
        assert result.kept_fraction == 0.2
        assert result.kept_count == 100
        for group in corpus.groups:
            members = np.asarray(group)
            kept = members[result.keep[members]]
            assert kept.size == 1
            c = model.assignment[members[0]]
            cos = e.data[members].astype(np.float64) @ model.centroids[c].astype(np.float64)
            assert kept[0] == members[int(np.argmin(cos))], (
                f"survivor is not the min-centroid-cosine member at k={k}"
            )
        checked.append(k)
    _report(2, "planted recovery",
            f"kept_fraction=0.200 exactly and correct survivors for k={checked}")


def test_criterion_03_efficiency_analog():
    """Mean cluster size ~8800 mirrors the corpus-scale regime; eta >= 85."""
    sizes = [5] * 1600 + [1] * 9600
    corpus = generate_planted(len(sizes), sizes, d=256, within_sim_target=0.999, seed=8)
    e = normalize_rows(corpus.embeddings)
    assert e.n == 17600

    model_k1 = fit(e, 1, 2, seed=0)
    eta_k1 = dedup_efficiency(e, model_k1, 0.05, m_neighbors=0)
    assert eta_k1 == 100.0

    model = fit(e, 2, 20, seed=0)
    eta = dedup_efficiency(e, model, 0.05, m_neighbors=1)
    assert eta >= 85.0, f"eta={eta:.2f} below the 85 floor"
    _report(3, "efficiency analog",
            f"n/k=8800: eta={eta:.2f} (floor 85), eta=100.0 exactly at k=1")


def test_criterion_04_monotonicity_and_nesting():
    rng = np.random.default_rng(77)
    e = random_unit(rng, 400, 16)
    model = fit(e, 6, 15, seed=7)
    grid = np.linspace(0.02, 0.9, 10)
    for strategy in KeepStrategy:
        previous_keep = None
        previous_fraction = None
        for eps in grid:
            result = dedup_dataset(
                e, model, DedupConfig(epsilon=float(eps), strategy=strategy, seed=5)
            )
            if previous_keep is not None:
                assert result.kept_fraction <= previous_fraction + 1e-12
                assert not np.any(result.keep & ~previous_keep), "keep-sets not nested"
            previous_keep = result.keep
            previous_fraction = result.kept_fraction
    _report(4, "monotonicity",
            "kept fraction non-increasing and keep-sets nested on a 10-point grid, "
            "all 3 strategies")


def test_criterion_05_complexity_accounting():
    corpus = generate_planted(16, 256, d=32, within_sim_target=0.85, seed=13)
    e = normalize_rows(corpus.embeddings)
    model = fit(e, 16, 30, seed=13)
    sizes = model.cluster_sizes()
    assert int(sizes.max()) <= 3 * int(sizes.min()), (
        f"clusters not near-balanced: sizes {sizes.tolist()}"
    )
    result = dedup_dataset(e, model, DedupConfig(epsilon=0.05))
    n, k = e.n, model.k
    bound = 3 * n * n / (2 * k)
    ratio = result.comparisons / (n * n / (2 * k))
    assert result.comparisons <= bound
    _report(5, "complexity accounting",
            f"comparisons={result.comparisons}, n^2/(2k)={n * n / (2 * k):.0f}, "
            f"ratio={ratio:.3f} (must be <= 3)")


def test_criterion_06_tuner_convergence():
    theta = np.arccos(np.sqrt(0.98))
    e, groups = fixed_band_groups(140, 2, d=24, theta=theta, seed=4, singletons=720)
    model = fit(e, 8, 25, seed=4)
    # The step height depends on how many pairs share a cluster; derive the
    # attainable plateau and aim 0.01 above it (inside the 0.02 tolerance).
    co_clustered = sum(
        1 for g in groups if model.assignment[g[0]] == model.assignment[g[1]]
    )
    plateau = (e.n - co_clustered) / e.n
    target = plateau + 0.01
    result = tune_epsilon(
        e, model, np.arange(model.k), KeepStrategy.LOW_CENTROID_SIM,
        target_fraction=target, eps_lo=0.001, eps_hi=0.2,
        tol_fraction=0.02, max_probes=8,
    )
    assert result.converged
    assert result.probes <= 8
    assert abs(result.achieved_fraction - target) <= 0.02
    _report(6, "tuner",
            f"|achieved-target|={abs(result.achieved_fraction - target):.4f} <= 0.02 "
            f"in {result.probes} probes (step at {plateau:.3f})")


def test_criterion_07_pipeline_determinism(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.standard_normal((2000, 32)).astype(np.float32)
    corpus_path = tmp_path / "corpus.semd"
    write_embeddings(EmbeddingMatrix(data), corpus_path)

    artifacts = []
    for run in range(2):
        for threads in (1, 8):
            outdir = tmp_path / f"run{run}_t{threads}"
            assert main([
                "cluster", "--input", str(corpus_path), "--k", "16",
                "--iterations", "15", "--seed", "9", "--epsilon", "0.3",
                "--threads", str(threads), "--output-dir", str(outdir),
            ]) == 0
            assert main([
                "dedup", "--input", str(corpus_path),
                "--model", str(outdir / "model.semk"), "--epsilon", "0.3",
                "--strategy", "random", "--seed", "9",
                "--threads", str(threads), "--output-dir", str(outdir),
            ]) == 0
            artifacts.append((
                (outdir / "model.semk").read_bytes(),
                (outdir / "keep.txt").read_bytes(),
            ))
    assert all(a == artifacts[0] for a in artifacts[1:])
    _report(7, "determinism",
            "2 repeats x threads {1,8}: model.semk and keep.txt byte-identical")


def test_criterion_08_k_robustness_intersection():
    rng = np.random.default_rng(2024)
    distinct = 36000
    dup_count = 14000
    base = rng.standard_normal((distinct, 128)).astype(np.float32)
    data = np.vstack([base, base[:dup_count]])  # exact copies of rows 0..13999
    e = normalize_rows(EmbeddingMatrix(data))
    assert e.n == 50000

    keep_sets = {}
    for k in (64, 256, 1024):
        model = fit(e, k, 8, seed=11)
        result = dedup_dataset(e, model, DedupConfig(epsilon=0.01))
        assert result.kept_count == distinct, (
            f"expected exactly {distinct} kept at k={k}, got {result.kept_count}"
        )
        assert result.kept_fraction == distinct / 50000  # 72% kept
        keep_sets[k] = set(np.flatnonzero(result.keep).tolist())

    values = []
    ks = sorted(keep_sets)
    for i, a in enumerate(ks):
        for b in ks[i + 1:]:
            value = intersection_pct(keep_sets[a], keep_sets[b], distinct)
            assert value >= 90.0, f"I(k={a}, k={b}) = {value:.2f} < 90"
            values.append(f"I({a},{b})={value:.2f}")
    _report(8, "k-robustness", "72% kept at every k; " + ", ".join(values))


def test_criterion_09_spherical_kmeans_properties():
    # Fitted-model invariants.
    for seed in range(10):
        local = np.random.default_rng(seed)
        e = random_unit(local, int(local.integers(50, 200)), 12)
        model = fit(e, 6, 25, seed=seed)
        trace = np.asarray(model.objective_trace)
        assert np.all(np.diff(trace) >= -1e-7), f"objective dipped (seed {seed})"
        norms = np.linalg.norm(model.centroids.astype(np.float64), axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-6

    # Assignment against the exhaustive argmax oracle on 100 instances.
    for trial in range(100):
        local = np.random.default_rng(500 + trial)
        n = int(local.integers(20, 150))
        d = int(local.choice([4, 8, 16, 32]))
        k = int(local.integers(1, min(n, 10) + 1))
        e = random_unit(local, n, d)
        cents = random_unit(local, k, d).data
        got = assign(e, cents)
        expected = np.empty(n, dtype=np.uint32)
        wide = cents.astype(np.float64)
        for i in range(n):
            expected[i] = int(np.argmax(wide @ e.data[i].astype(np.float64)))
        assert np.array_equal(got, expected), f"argmax mismatch at trial {trial}"
    _report(9, "spherical k-means",
            "traces non-decreasing, centroids unit, assignment == brute argmax "
            "on 100 instances")


def test_criterion_10_performance_smoke():
    budget_s = 300.0
    n, d, k = 1_000_000, 128, 1024
    threads = resolve_threads(0)
    start = time.perf_counter()

    rng = np.random.default_rng(99)
    data = np.empty((n, d), dtype=np.float32)
    step = 65536
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        data[lo:hi] = rng.standard_normal((hi - lo, d), dtype=np.float32)
    e = normalize_rows(EmbeddingMatrix(data))
    generated = time.perf_counter() - start

    model = fit(e, k, 5, seed=0, threads=threads)
    clustered = time.perf_counter() - start

    result = dedup_dataset(e, model, DedupConfig(epsilon=0.05), threads=threads)
    elapsed = time.perf_counter() - start

    assert result.kept_count >= model.k  # at least one survivor per cluster
    assert result.comparisons > 0
    detail = (
        f"n={n} d={d} k={k} threads={threads}: generate {generated:.0f}s, "
        f"cluster {clustered - generated:.0f}s, dedup {elapsed - clustered:.0f}s, "
        f"total {elapsed:.0f}s (soft budget {budget_s:.0f}s)"
    )
    if elapsed > budget_s:
        print(f"[acceptance] criterion 10 (performance smoke): SOFT-PASS - {detail}")
    else:
        _report(10, "performance smoke", detail)

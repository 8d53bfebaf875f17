import struct

import numpy as np
import pytest

from semdedup import _parallel, spherical_kmeans
from semdedup._parallel import chunk_ranges, map_ordered
from semdedup.errors import FormatError, InvalidArgumentError
from semdedup.spherical_kmeans import (
    KMeansModel,
    _assign_pass,
    _centroid_sums,
    _init_centroids,
    _pass_chunk,
    _repair_empty_clusters,
    assign,
    fit,
    load_model,
    nearest_clusters,
    save_model,
)

from semdedup.rng import hashed_uniform

from conftest import random_unit, unit_rows


def brute_force_argmax(e, centroids):
    """Per-point exhaustive nearest-centroid scan (float64, first max wins)."""
    cents = np.asarray(centroids, dtype=np.float64)
    out = np.empty(e.n, dtype=np.uint32)
    for i in range(e.n):
        out[i] = int(np.argmax(cents @ e.data[i].astype(np.float64)))
    return out


def reference_centroid_sums(data, assignment, k, threads):
    """Cluster sums and counts by a stable argsort and reduceat down axis 0."""
    n, d = data.shape

    def one(span):
        lo, hi = span
        a = assignment[lo:hi]
        order = np.argsort(a, kind="stable")
        sorted_a = a[order]
        block = data[lo:hi][order].astype(np.float64)
        starts = np.flatnonzero(np.r_[True, sorted_a[1:] != sorted_a[:-1]])
        part = np.zeros((k, d), dtype=np.float64)
        part[sorted_a[starts]] = np.add.reduceat(block, starts, axis=0)
        return part, np.bincount(a, minlength=k).astype(np.int64)

    parts = map_ordered(one, chunk_ranges(n, _pass_chunk(k)), threads)
    sums = np.zeros((k, d), dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    for part, cnt in parts:
        sums += part
        counts += cnt
    return sums, counts


def reference_objective(data, centroids64, assignment, threads):
    """Mean cosine of every point to its centroid, by a pass over the data."""
    n = data.shape[0]

    def one(span):
        lo, hi = span
        block = data[lo:hi].astype(np.float64)
        return float(np.einsum("ij,ij->i", block, centroids64[assignment[lo:hi]]).sum())

    totals = map_ordered(one, chunk_ranges(n, _pass_chunk(centroids64.shape[0])), threads)
    return float(sum(totals)) / n


def reference_fit(e, k, iterations, seed, threads):
    """fit() built on the reference sums and a separate objective pass.

    Lloyd runs on the whole corpus, so ``e`` must hold at most 256 k points.
    Returns the float64 centroids, the assignment, the objective trace and
    the number of empty-cluster repairs.
    """
    centroids64 = _init_centroids(e.data, np.arange(e.n), e.ids, k, seed)
    assignment, trace, repairs = None, [], 0
    for _ in range(iterations):
        new_assignment, best_cos = _assign_pass(e.data, centroids64, threads)
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        sizes = np.bincount(assignment, minlength=k).astype(np.int64)
        repairs += _repair_empty_clusters(assignment, best_cos, sizes, e.ids)
        sums, counts = reference_centroid_sums(e.data, assignment, k, threads)
        norms = np.linalg.norm(sums, axis=1)
        usable = (counts > 0) & (norms > 1e-12)
        centroids64[usable] = sums[usable] / norms[usable, None]
        trace.append(reference_objective(e.data, centroids64, assignment, threads))
    # The returned model: the corpus assigned to the float32 centroids, then repaired.
    assignment, best_cos = _assign_pass(e.data, centroids64.astype(np.float32).astype(np.float64), threads)
    sizes = np.bincount(assignment, minlength=k).astype(np.int64)
    repairs += _repair_empty_clusters(assignment, best_cos, sizes, e.ids)
    return centroids64, assignment, trace, repairs


def _sums_case(name):
    """(data, assignment, k) for one reference-comparison case."""
    rng = np.random.default_rng(len(name))
    if name == "empty_clusters":
        data = random_unit(rng, 1000, 16).data
        return data, rng.choice(np.arange(0, 50, 2), 1000).astype(np.uint32), 50
    if name == "k1":
        return random_unit(rng, 5000, 8).data, np.zeros(5000, dtype=np.uint32), 1
    if name == "k_exceeds_chunk":
        # k = 5000 gives 3200-row chunks; n = 7000 ends on a partial chunk.
        assert _pass_chunk(5000) < 5000 and 7000 % _pass_chunk(5000)
        return random_unit(rng, 7000, 4).data, rng.integers(0, 5000, 7000).astype(np.uint32), 5000
    if name == "split_at_boundary":
        chunk = _pass_chunk(3)
        a = np.zeros(chunk + 700, dtype=np.uint32)
        a[chunk - 300:] = 1  # cluster 1 straddles the chunk edge; 2 is empty
        return random_unit(rng, chunk + 700, 8).data, a, 3
    if name == "wide_magnitudes":
        # Components from 1e-12 to 1: float64 partial sums round, so the
        # order of additions shows in the result.
        data = rng.standard_normal((3000, 8)) * np.exp(rng.uniform(-28, 0, (3000, 8)))
        return data.astype(np.float32), rng.integers(0, 20, 3000).astype(np.uint32), 20
    raise AssertionError(name)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize(
    "case", ["empty_clusters", "k1", "k_exceeds_chunk", "split_at_boundary", "wide_magnitudes"]
)
def test_centroid_sums_equal_reference(case, threads):
    data, assignment, k = _sums_case(case)
    want, _ = reference_centroid_sums(data, assignment, k, 1)
    assert np.array_equal(_centroid_sums(data, np.arange(len(data)), assignment, k, threads), want)
    # The same rows read by index from between others.
    spread = np.zeros((2 * len(data) + 1, data.shape[1]), dtype=data.dtype)
    spread[1::2] = data
    assert np.array_equal(_centroid_sums(spread, np.arange(1, spread.shape[0], 2), assignment, k, threads), want)


@pytest.mark.parametrize(
    "case", ["empty_clusters", "k1", "k_exceeds_chunk", "split_at_boundary", "wide_magnitudes"]
)
def test_centroid_sums_keep_whole_segments_at_a_one_row_budget(case, monkeypatch):
    data, assignment, k = _sums_case(case)
    want, _ = reference_centroid_sums(data, assignment, k, 1)
    monkeypatch.setattr(_parallel, "SCRATCH_BYTES", 1)  # one segment per reduceat call
    assert np.array_equal(_centroid_sums(data, np.arange(len(data)), assignment, k, 3), want)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize(
    "rows, k, iterations",
    [
        ("random", 7, 25),
        ("random", 40, 3),  # stops at the iteration cap, before convergence
        ("duplicates", 3, 10),  # forces an empty-cluster repair
    ],
)
def test_fit_equals_reference_loop(rows, k, iterations, threads):
    if rows == "random":
        e = random_unit(np.random.default_rng(k), 600, 12)
    else:
        e = unit_rows([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    centroids64, assignment, trace, repairs = reference_fit(e, k, iterations, 0, threads)
    model = fit(e, k, iterations, seed=0, threads=threads)
    if rows == "duplicates":
        assert repairs > 0
    assert model.centroids.tobytes() == centroids64.astype(np.float32).tobytes()
    assert np.array_equal(model.assignment, assignment)
    assert len(model.objective_trace) == len(trace)
    assert np.allclose(model.objective_trace, trace, rtol=0, atol=1e-12)


def test_single_point_single_cluster():
    e = unit_rows([[1.0, 0.0, 0.0]])
    model = fit(e, 1, 5, seed=0)
    assert np.array_equal(model.assignment, [0])
    assert np.allclose(model.centroids[0], e.data[0], atol=1e-6)
    assert model.members[0].tolist() == [0]


def test_two_tight_groups_separate_exactly(rng):
    # 50 points within 1 degree of each of two orthogonal directions.
    axis_a = np.array([1.0, 0, 0, 0])
    axis_b = np.array([0, 1.0, 0, 0])
    rows = []
    for axis in (axis_a, axis_b):
        for _ in range(50):
            t = rng.standard_normal(4)
            t -= (t @ axis) * axis
            t /= np.linalg.norm(t)
            theta = np.deg2rad(1.0) * rng.random()
            rows.append(np.cos(theta) * axis + np.sin(theta) * t)
    e = unit_rows(rows)
    model = fit(e, 2, 50, seed=3)
    labels = model.assignment
    assert len(set(labels[:50].tolist())) == 1
    assert len(set(labels[50:].tolist())) == 1
    assert labels[0] != labels[50]
    # Converged assignment agrees with an exhaustive nearest-centroid check.
    assert np.array_equal(labels, brute_force_argmax(e, model.centroids))


def test_k_equals_n_saturates(rng):
    e = random_unit(rng, 12, 6)
    model = fit(e, 12, 10, seed=1)
    assert sorted(model.assignment.tolist()) == list(range(12))
    assert model.objective_trace[-1] == pytest.approx(1.0, abs=1e-6)


def test_invalid_k_rejected(rng):
    e = random_unit(rng, 5, 4)
    with pytest.raises(InvalidArgumentError):
        fit(e, 0, 5, seed=0)
    with pytest.raises(InvalidArgumentError):
        fit(e, 6, 5, seed=0)
    with pytest.raises(InvalidArgumentError):
        fit(e, 5, 0, seed=0)


def test_assign_exact_match_and_ties():
    cents = np.eye(4, dtype=np.float32)
    e = unit_rows([[0.0, 0.0, 0.0, 1.0]])
    assert assign(e, cents).tolist() == [3]

    # A point equally close to centroids 1 and 2 goes to the lower index.
    tied = unit_rows([[0.0, 1.0, 1.0, 0.0]])
    assert assign(tied, cents).tolist() == [1]


def test_assign_matches_brute_force(rng):
    e = random_unit(rng, 100, 16)
    cents = random_unit(rng, 10, 16).data
    assert np.array_equal(assign(e, cents), brute_force_argmax(e, cents))


def test_assign_dimension_mismatch(rng):
    e = random_unit(rng, 4, 8)
    with pytest.raises(InvalidArgumentError):
        assign(e, np.eye(3, dtype=np.float32))


def test_nearest_clusters_only_choice():
    model = KMeansModel(centroids=np.eye(2, dtype=np.float32), assignment=np.array([0, 1]))
    assert nearest_clusters(model, 0, 1).tolist() == [1]


def test_nearest_clusters_known_angles():
    angles = np.deg2rad([0.0, 30.0, 90.0, 180.0])
    cents = np.stack([np.cos(angles), np.sin(angles)], axis=1).astype(np.float32)
    model = KMeansModel(centroids=cents, assignment=np.arange(4) % 4)
    # cos sims to cluster 0: [_, 0.866, 0.0, -1.0]
    assert nearest_clusters(model, 0, 3).tolist() == [1, 2, 3]
    assert nearest_clusters(model, 0, 2).tolist() == [1, 2]
    # From 180 degrees: 90 is closest, then 30, then 0.
    assert nearest_clusters(model, 3, 3).tolist() == [2, 1, 0]


def test_nearest_clusters_full_is_permutation(rng):
    e = random_unit(rng, 30, 8)
    model = fit(e, 6, 10, seed=2)
    got = nearest_clusters(model, 4, 5)
    assert sorted(got.tolist()) == [0, 1, 2, 3, 5]


def test_nearest_clusters_m_out_of_range():
    model = KMeansModel(centroids=np.eye(3, dtype=np.float32), assignment=np.arange(3) % 3)
    with pytest.raises(InvalidArgumentError):
        nearest_clusters(model, 0, 3)
    with pytest.raises(InvalidArgumentError):
        nearest_clusters(model, 0, 0)
    with pytest.raises(InvalidArgumentError):
        nearest_clusters(model, 5, 1)


def test_fit_deterministic_across_runs_and_threads(rng):
    e = random_unit(rng, 300, 12)
    a = fit(e, 7, 25, seed=9, threads=1)
    b = fit(e, 7, 25, seed=9, threads=4)
    c = fit(e, 7, 25, seed=9, threads=1)
    assert a.centroids.tobytes() == b.centroids.tobytes() == c.centroids.tobytes()
    assert np.array_equal(a.assignment, b.assignment)
    assert np.array_equal(a.assignment, c.assignment)
    assert a.objective_trace == b.objective_trace


def test_objective_trace_non_decreasing(rng):
    for seed in range(5):
        e = random_unit(np.random.default_rng(seed), 200, 10)
        model = fit(e, 8, 30, seed=seed)
        trace = np.asarray(model.objective_trace)
        assert np.all(np.diff(trace) >= -1e-7)


def test_centroids_unit_norm(rng):
    e = random_unit(rng, 150, 9)
    model = fit(e, 5, 20, seed=4)
    norms = np.linalg.norm(model.centroids.astype(np.float64), axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-6


def test_converged_centroids_are_normalized_member_means(rng):
    e = random_unit(rng, 120, 6)
    model = fit(e, 4, 100, seed=5)  # plenty of iterations to converge
    for c in range(4):
        members = model.members[c]
        mean = e.data[members].astype(np.float64).sum(axis=0)
        mean /= np.linalg.norm(mean)
        assert np.allclose(model.centroids[c], mean, atol=1e-6)


def test_members_partition(rng):
    e = random_unit(rng, 97, 5)
    model = fit(e, 6, 15, seed=6)
    concatenated = np.sort(np.concatenate(model.members))
    assert np.array_equal(concatenated, np.arange(97))
    for members in model.members:
        assert members.dtype == np.int64
        assert np.all(np.diff(members) > 0)  # sorted ascending


def test_members_derive_from_assignment():
    with pytest.raises(TypeError):
        KMeansModel(np.eye(2, dtype=np.float32), np.array([0, 1]), members=[[0], [0]])
    model = KMeansModel(np.eye(3, dtype=np.float32), np.array([2, 0, 2, 2, 0]))
    assert [m.tolist() for m in model.members] == [[1, 4], [], [0, 2, 3]]


def test_permutation_invariance_over_ids(rng):
    e = random_unit(rng, 80, 8)
    base = fit(e, 5, 20, seed=11)

    perm = np.random.default_rng(0).permutation(80)
    permuted = unit_rows(e.data[perm], ids=e.ids[perm])
    shuffled = fit(permuted, 5, 20, seed=11)

    # Un-permute: point at new position i is original point perm[i].
    unpermuted = np.empty(80, dtype=np.uint32)
    unpermuted[perm] = shuffled.assignment
    assert np.array_equal(unpermuted, base.assignment)
    assert np.allclose(shuffled.centroids, base.centroids, atol=1e-5)


@pytest.fixture
def small_sample(monkeypatch):
    """Train on 20 points per centroid, so a 600-point fit at k = 7 samples 140 rows."""
    monkeypatch.setattr(spherical_kmeans, "_POINTS_PER_CENTROID", 20)


@pytest.fixture
def init_calls(monkeypatch):
    """Each call ``fit`` makes to its seeding: the ids Lloyd trains on, and the seeded centroids."""
    calls = []

    def recorder(data, rows, ids, *args):
        calls.append((ids.copy(), _init_centroids(data, rows, ids, *args)))
        return calls[-1][1].copy()

    monkeypatch.setattr(spherical_kmeans, "_init_centroids", recorder)
    return calls


@pytest.mark.parametrize("per_centroid", [256, 20])  # Lloyd on all 600 rows, then on 140
def test_fitted_model_is_a_fixed_point(per_centroid, monkeypatch):
    monkeypatch.setattr(spherical_kmeans, "_POINTS_PER_CENTROID", per_centroid)
    e = random_unit(np.random.default_rng(40), 600, 12)
    for iterations in (1, 3, 50):  # stopped at the cap, and converged
        model = fit(e, 7, iterations, seed=2)
        assert np.array_equal(assign(e, model.centroids), model.assignment)


def test_sampled_fit_trains_on_the_keyed_sample(small_sample, init_calls):
    e = random_unit(np.random.default_rng(41), 600, 12)
    fit(e, 7, 20, seed=3)
    keys = hashed_uniform(3, spherical_kmeans._TAG_SUBSAMPLE, e.ids)
    assert np.array_equal(init_calls[0][0], e.ids[np.sort(np.argsort(keys)[:140])])


def test_sampled_fit_equal_across_threads(small_sample):
    e = random_unit(np.random.default_rng(42), 600, 12)
    one = fit(e, 7, 4, seed=5, threads=1)
    three = fit(e, 7, 4, seed=5, threads=3)
    assert one.centroids.tobytes() == three.centroids.tobytes()
    assert np.array_equal(one.assignment, three.assignment)
    assert one.objective_trace == three.objective_trace


def test_sampled_fit_training_ids_follow_a_row_permutation(small_sample, init_calls):
    e = random_unit(np.random.default_rng(43), 600, 12, ids=np.arange(600) * 7 + 3)
    perm = np.random.default_rng(0).permutation(600)
    base = fit(e, 7, 20, seed=4)
    shuffled = fit(unit_rows(e.data[perm], ids=e.ids[perm]), 7, 20, seed=4)
    (ids, _), (moved_ids, _) = init_calls
    assert ids.size == 140 and np.array_equal(np.sort(ids), np.sort(moved_ids))
    unpermuted = np.empty(600, dtype=np.uint32)
    unpermuted[perm] = shuffled.assignment
    assert np.array_equal(unpermuted, base.assignment)
    assert np.allclose(shuffled.centroids, base.centroids, atol=1e-5)


def test_sampled_init_races_over_the_first_keys_of_the_corpus(small_sample, init_calls, monkeypatch):
    # One key order, two cut-offs: the 50 smallest keys of the 140-row sample
    # are the 50 smallest of the corpus, so seeding is as on the whole corpus.
    monkeypatch.setattr(spherical_kmeans, "_INIT_SAMPLE_CAP", 50)
    e = random_unit(np.random.default_rng(44), 600, 12)
    fit(e, 7, 1, seed=6)
    assert init_calls[0][1].tobytes() == _init_centroids(e.data, np.arange(e.n), e.ids, 7, 6).tobytes()


def test_empty_cluster_repair_keeps_k_clusters():
    # Two distinct directions, four points, k=3: at least one chosen center
    # duplicates another, leaving an empty cluster to repair.
    e = unit_rows([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    model = fit(e, 3, 10, seed=0)
    sizes = model.cluster_sizes()
    assert int(sizes.min()) >= 1
    assert int(sizes.sum()) == 4


def test_empty_cluster_repair_ties_go_to_lowest_id():
    # Rows 1 and 3 fit equally badly; row 3 holds the lower id, so it moves.
    assignment = np.array([0, 0, 0, 0], dtype=np.uint32)
    best_cos = np.array([0.9, 0.5, 0.8, 0.5])
    sizes = np.array([4, 0], dtype=np.int64)
    ids = np.array([10, 40, 20, 30], dtype=np.uint64)
    assert _repair_empty_clusters(assignment, best_cos, sizes, ids) == 1
    assert assignment.tolist() == [0, 0, 0, 1]
    assert sizes.tolist() == [3, 1]


def test_model_round_trip(tmp_path, rng):
    e = random_unit(rng, 60, 7)
    model = fit(e, 4, 10, seed=8)
    path = tmp_path / "model.semk"
    save_model(model, path)
    back = load_model(path)
    assert back.centroids.tobytes() == model.centroids.tobytes()
    assert np.array_equal(back.assignment, model.assignment)
    assert all(np.array_equal(a, b) for a, b in zip(back.members, model.members))


def test_model_load_rejects_corruption(tmp_path, rng):
    e = random_unit(rng, 20, 4)
    model = fit(e, 2, 5, seed=0)
    path = tmp_path / "model.semk"
    save_model(model, path)
    raw = path.read_bytes()

    bad = tmp_path / "bad.semk"
    bad.write_bytes(b"XEMK" + raw[4:])
    with pytest.raises(FormatError, match="magic"):
        load_model(bad)

    bad.write_bytes(raw[:-3])
    with pytest.raises(FormatError, match="truncated"):
        load_model(bad)

    bad.write_bytes(raw + b"\x01")
    with pytest.raises(FormatError, match="trailing"):
        load_model(bad)

    # Centroids start at byte 16: one off the unit sphere, then one NaN component.
    for value in (2.0, np.nan):
        bad.write_bytes(raw[:16] + struct.pack("<f", value) + raw[20:])
        with pytest.raises(FormatError, match="centroid 0 has norm"):
            load_model(bad)


@pytest.mark.parametrize(
    "offset, fmt, values",
    [
        (8, "<II", (2**31, 2**31)),  # k = d = 2**31: a 2**64-byte centroid block
        (8, "<I", (3,)),  # one centroid row more than the file holds
        (48, "<Q", (2**62,)),  # a 2**64-byte assignment block
        (48, "<Q", (21,)),  # one point more than the file holds
    ],
)
def test_model_load_rejects_sizes_beyond_file(tmp_path, rng, offset, fmt, values):
    # The file holds k = 2, d = 4 and n = 20; the point count sits at byte 48.
    model = fit(random_unit(rng, 20, 4), 2, 5, seed=0)
    path = tmp_path / "model.semk"
    save_model(model, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, offset, *values)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_model(path)


def test_refit_same_seed_identical_file(tmp_path, rng):
    e = random_unit(rng, 90, 6)
    p1, p2 = tmp_path / "a.semk", tmp_path / "b.semk"
    save_model(fit(e, 5, 15, seed=21), p1)
    save_model(fit(e, 5, 15, seed=21), p2)
    assert p1.read_bytes() == p2.read_bytes()

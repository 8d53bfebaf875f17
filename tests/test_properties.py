"""Hypothesis properties: dedup invariances, the exact tuner and hostile file headers."""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semdedup import _parallel
from semdedup.dedup_core import DedupConfig, KeepStrategy, dedup_dataset, kept_ids, prefix_maxima, threshold
from semdedup.embedding_store import (
    EmbeddingMatrix,
    UnitEmbeddingMatrix,
    load_embeddings,
    normalize_rows,
    write_embeddings,
)
from semdedup.errors import EXIT_DATA, EXIT_FORMAT, BracketError, SemDedupError, exit_code_for
from semdedup import spherical_kmeans
from semdedup.spherical_kmeans import KMeansModel, assign, fit, load_model, save_model
from semdedup.threshold_tuner import sample_clusters, select_epsilon, size_curve, tune_epsilon

# Derandomized, so a run is reproducible; each test still sees many examples.
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

STRATEGIES = list(KeepStrategy)


@st.composite
def planted_corpora(draw):
    """A unit corpus with planted exact copies, distinct random ids, and a fitted model."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_base = draw(st.integers(2, 80))
    n_copies = draw(st.integers(1, 40))
    d = draw(st.integers(1, 19))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n_base, d))
    # Near copies too, so thresholds fall between distinct but similar rows.
    near = base[rng.integers(0, n_base, n_base // 4)] + 0.05 * rng.standard_normal((n_base // 4, d))
    rows = np.vstack([base, near])
    data = np.vstack([rows, rows[rng.integers(0, rows.shape[0], n_copies)]])
    data = data[rng.permutation(data.shape[0])]
    ids = rng.choice(2**40, size=data.shape[0], replace=False).astype(np.uint64)
    e = normalize_rows(EmbeddingMatrix(data.astype(np.float32), ids))
    model = fit(e, min(k, e.n), 5, seed=seed % 97)
    return e, model


def _kept(e, model, strategy, epsilon, threads=1):
    cfg = DedupConfig(epsilon=epsilon, strategy=strategy, seed=3)
    return dedup_dataset(e, model, cfg, threads=threads)


@PROPERTY
@given(planted_corpora(), st.sampled_from(STRATEGIES), st.floats(0.005, 0.5), st.randoms())
def test_kept_ids_invariant_to_row_permutation(corpus, strategy, epsilon, random):
    e, model = corpus
    perm = np.array(random.sample(range(e.n), e.n))
    moved = UnitEmbeddingMatrix(e.data[perm], e.ids[perm])
    moved_model = KMeansModel(model.centroids, model.assignment[perm])
    before = kept_ids(e, _kept(e, model, strategy, epsilon))
    after = kept_ids(moved, _kept(moved, moved_model, strategy, epsilon))
    assert np.array_equal(before, after)


@PROPERTY
@given(planted_corpora(), st.sampled_from(STRATEGIES), st.floats(0.005, 0.5))
def test_keep_flags_invariant_to_thread_count(corpus, strategy, epsilon):
    e, model = corpus
    one = _kept(e, model, strategy, epsilon, threads=1)
    three = _kept(e, model, strategy, epsilon, threads=3)
    assert np.array_equal(one.keep, three.keep)
    assert np.array_equal(one.per_cluster_removed, three.per_cluster_removed)


@st.composite
def threshold_corpora(draw):
    """A corpus with exact copies and near copies planted at cosine 1 - epsilon, its model and epsilon."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_base = draw(st.integers(1, 40))
    d = draw(st.integers(2, 24))
    epsilon = draw(st.floats(0.01, 0.5))
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n_base, d))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    tangent = rng.standard_normal((n_base, d))
    tangent -= (tangent * base).sum(axis=1, keepdims=True) * base
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    near = (1 - epsilon) * base + np.sqrt(epsilon * (2 - epsilon)) * tangent
    data = np.vstack([base, near, base[rng.integers(0, n_base, draw(st.integers(0, 20)))]])
    data = data[rng.permutation(data.shape[0])]
    e = normalize_rows(EmbeddingMatrix(data.astype(np.float32)))
    return e, fit(e, min(draw(st.integers(1, 4)), e.n), 5, seed=seed % 97), epsilon


@PROPERTY
@given(threshold_corpora(), st.sampled_from(STRATEGIES), st.integers(-3, 3))
def test_prefix_maxima_ignore_tile_threads_and_budget(corpus, strategy, ulps):
    e, model, epsilon = corpus
    want = prefix_maxima(e, model, strategy, 3)
    # An epsilon whose threshold lies a few ulps from the planted maximum nearest 1 - epsilon.
    near = want[np.argmin(np.abs(want - (1 - epsilon)))]
    at_near = 1 - (near + ulps * np.spacing(near))
    got = [prefix_maxima(e, model, strategy, 3, tile, threads)
           for tile in (1, 3, 17, 128, 1024) for threads in (1, 2)]
    with mock.patch.object(_parallel, "SCRATCH_BYTES", 1):
        got.append(prefix_maxima(e, model, strategy, 3, threads=2))
    for pmax in got:
        assert np.array_equal(pmax, want)
        if 0 < at_near < 1:
            assert np.array_equal(threshold(pmax, at_near, model).keep, threshold(want, at_near, model).keep)


@PROPERTY
@given(planted_corpora(), st.sampled_from([1, 3, 256]), st.integers(1, 6), st.integers(0, 96))
def test_fitted_model_is_a_fixed_point(corpus, per_centroid, iterations, seed):
    # Few points per centroid force the sampled fit; 256 trains on these small corpora whole.
    e, model = corpus
    with mock.patch.object(spherical_kmeans, "_POINTS_PER_CENTROID", per_centroid):
        model = fit(e, model.k, iterations, seed)
    reassigned = assign(e, model.centroids)
    # Off its nearest centroid only if the final repair moved it, alone, into an empty cluster.
    moved_to = model.assignment[reassigned != model.assignment]
    assert np.all(model.cluster_sizes()[moved_to] == 1)
    assert not np.isin(moved_to, reassigned).any()


@PROPERTY
@given(planted_corpora(), st.sampled_from(STRATEGIES), st.floats(0.005, 0.5), st.floats(0.005, 0.5))
def test_keep_sets_nested_in_epsilon(corpus, strategy, eps_a, eps_b):
    e, model = corpus
    lo, hi = sorted((eps_a, eps_b))
    loose = _kept(e, model, strategy, lo).keep
    strict = _kept(e, model, strategy, hi).keep
    assert not (strict & ~loose).any()


@settings(PROPERTY, max_examples=100)
@given(planted_corpora(), st.sampled_from(STRATEGIES), st.floats(0.2, 1.0), st.floats(0.0005, 0.3),
       st.floats(0.01, 0.6), st.floats(-0.2, 1.2), st.floats(0.001, 0.05))
def test_tuner_returns_nearest_attainable_fraction(corpus, strategy, sample_fraction, eps_lo, width,
                                                   position, tol):
    e, model = corpus
    eps_hi = eps_lo + width
    sample = sample_clusters(model, sample_fraction, seed=5)
    # A pass over the sampled clusters is the full pass on their rows and 0 elsewhere.
    rows = np.isin(model.assignment, sample)
    full = prefix_maxima(e, model, strategy, 3)
    sampled = prefix_maxima(e, model, strategy, 3, clusters=sample)
    assert np.array_equal(sampled[rows], full[rows]) and not sampled[~rows].any()
    maxima = np.sort(full[rows])

    def kept(epsilons):
        return [f for _, f in size_curve(e, model, sample, strategy, epsilons, seed=3).points]

    grid = kept(np.linspace(eps_lo, eps_hi, 1001).tolist())
    # Mostly between the fractions at the range ends, sometimes past them.
    target = float(np.clip(grid[-1] + position * (grid[0] - grid[-1]), 0.001, 0.999))
    try:
        result = tune_epsilon(e, model, sample, strategy, target, eps_lo, eps_hi,
                              tol_fraction=tol, seed=3)
    except BracketError:
        assert not grid[-1] - tol <= target <= grid[0] + tol
        with pytest.raises(BracketError):
            select_epsilon(maxima, target, eps_lo, eps_hi, tol)
        return
    assert result == select_epsilon(maxima, target, eps_lo, eps_hi, tol)
    assert eps_lo <= result.epsilon <= eps_hi
    assert kept([result.epsilon]) == [result.achieved_fraction]
    gap = abs(result.achieved_fraction - target)
    assert all(abs(f - target) >= gap for f in grid)
    assert result.converged == (gap <= tol)


def _load_or_fail_cleanly(load, path):
    """What ``load`` returns, or None once it raised an error that exits 3 or 4."""
    try:
        return load(path)
    except SemDedupError as exc:
        assert exit_code_for(exc) in (EXIT_FORMAT, EXIT_DATA), repr(exc)
        return None


def _field(valid, other):
    """The valid value of a header field half the time, else a hostile one."""
    return st.one_of(st.just(valid), other)


def _mangled(payload):
    """The payload kept, replaced by noise, cut short, or followed by extra bytes."""
    return st.one_of(
        st.just(payload),
        st.binary(min_size=len(payload), max_size=len(payload)),
        st.integers(0, len(payload)).map(lambda cut: payload[:cut]),
        st.binary(min_size=1, max_size=64).map(lambda extra: payload + extra),
    )


_U32 = st.integers(0, 2**32 - 1)
_U64 = st.integers(0, 2**64 - 1)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(st.data())
def test_semd_header_fuzz_fails_with_format_or_data_error(fuzz_dir, data):
    good = fuzz_dir / "good.semd"
    write_embeddings(EmbeddingMatrix(np.random.default_rng(0).standard_normal((6, 4))), good)
    header = struct.pack(
        "<4sIQII",
        data.draw(_field(b"SEMD", st.binary(min_size=4, max_size=4))),
        data.draw(_field(1, _U32)),
        data.draw(_field(6, st.one_of(st.integers(0, 12), _U64))),
        data.draw(_field(4, st.one_of(st.integers(0, 8), _U32))),
        data.draw(_field(1, _U32)),
    )
    path = fuzz_dir / "fuzzed.semd"
    path.write_bytes(header + data.draw(_mangled(good.read_bytes()[24:])))
    m = _load_or_fail_cleanly(load_embeddings, path)
    if m is not None:
        assert np.isfinite(m.data).all() and np.unique(m.ids).size == m.n


@FUZZ
@given(st.data())
def test_semk_header_fuzz_fails_with_format_or_data_error(fuzz_dir, data):
    e = normalize_rows(EmbeddingMatrix(np.random.default_rng(1).standard_normal((12, 4))))
    good = fuzz_dir / "good.semk"
    save_model(fit(e, 3, 3, seed=0), good)
    raw = good.read_bytes()
    centroids, assignment = raw[16:64], raw[72:]
    # Shapes with k * d = 12 read the 12 centroid floats as other rows.
    k, d = data.draw(_field((3, 4), st.one_of(
        st.sampled_from([(1, 12), (2, 6), (4, 3), (6, 2), (12, 1)]),
        st.tuples(st.integers(0, 12), st.integers(0, 12)), st.tuples(_U32, _U32))))
    header = struct.pack(
        "<4sIII",
        data.draw(_field(b"SEMK", st.binary(min_size=4, max_size=4))),
        data.draw(_field(1, _U32)),
        k, d,
    )
    count = data.draw(_field(12, st.one_of(st.integers(0, 16), _U64)))
    body = data.draw(_mangled(centroids)) + struct.pack("<Q", count) + assignment
    path = fuzz_dir / "fuzzed.semk"
    path.write_bytes(header + data.draw(_mangled(body)))
    model = _load_or_fail_cleanly(load_model, path)
    if model is not None:
        norms = np.linalg.norm(model.centroids.astype(np.float64), axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-6) and model.assignment.max(initial=0) < model.k

"""Promises of the benchmark corpus generator.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench.corpus import EXACT_SHARE, NEAR_SHARE, generate  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

EPS = 0.05


@pytest.fixture(scope="module", params=[(3000, 64, 8, 0.0), (2000, 128, 40, 1.0)])
def corpus(request):
    n, d, topics, skew = request.param
    return generate(n, d, topics, EPS, seed=7, topic_skew=skew)


def test_same_seed_same_corpus():
    a = generate(1500, 16, 4, EPS, seed=3)
    b = generate(1500, 16, 4, EPS, seed=3)
    c = generate(1500, 16, 4, EPS, seed=4)
    assert np.array_equal(a.data, b.data) and np.array_equal(a.ids, b.ids)
    assert not np.array_equal(a.data, c.data)


def test_rows_are_unit_float32(corpus):
    assert corpus.data.dtype == np.float32
    norms = np.linalg.norm(corpus.data.astype(np.float64), axis=1)
    assert np.abs(norms - 1.0).max() < 1e-6


def test_ids_are_unique_u64(corpus):
    assert corpus.ids.dtype == np.uint64
    assert np.unique(corpus.ids).size == corpus.ids.size


def test_exact_copies_are_bit_identical(corpus):
    n = corpus.data.shape[0]
    copies = sum(g.size - 1 for g in corpus.exact_groups)
    assert copies == round(EXACT_SHARE * n)
    for g in corpus.exact_groups:
        assert g.size >= 2
        rows = corpus.data[g].view(np.uint32)
        assert (rows == rows[0]).all()


def test_near_copies_fall_in_their_band(corpus):
    n = corpus.data.shape[0]
    assert corpus.near_pairs.shape == (round(NEAR_SHARE * n), 2)
    src, near = corpus.near_pairs.T
    cos = np.einsum("ij,ij->i", corpus.data[src].astype(np.float64), corpus.data[near].astype(np.float64))
    assert np.abs(cos - corpus.near_cos).max() < 1e-6
    assert cos.min() >= 1.0 - 2.0 * EPS - 1e-6
    assert cos.max() <= 1.0 - 0.5 * EPS + 1e-6


def test_copy_sources_are_disjoint_and_not_copies(corpus):
    exact_rows = np.concatenate(corpus.exact_groups)
    near_src, near_rows = corpus.near_pairs.T
    assert np.unique(exact_rows).size == exact_rows.size
    assert not np.isin(near_src, exact_rows).any()
    assert not np.isin(near_src, near_rows).any()


def test_only_planted_pairs_reach_the_band(corpus):
    """Apart from planted copies, no pair comes near the dedup threshold."""
    x = corpus.data.astype(np.float64)
    sims = x @ x.T
    planted = np.zeros_like(sims, dtype=bool)
    np.fill_diagonal(planted, True)
    for g in corpus.exact_groups:
        planted[np.ix_(g, g)] = True
    src, near = corpus.near_pairs.T
    planted[src, near] = planted[near, src] = True
    # Near copies of one source are close to each other as well.
    same_source = src[:, None] == src[None, :]
    planted[np.ix_(near, near)] |= same_source
    assert sims[~planted].max() < 1.0 - 2.0 * EPS


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

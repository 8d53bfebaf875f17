import numpy as np

from semdedup.rng import GOLDEN_GAMMA, hash_u64, hashed_uniform, mix64


def test_reference_vectors():
    # The canonical SplitMix64 outputs for seed 0 are mix64(k * gamma), k = 1, 2, 3.
    expected = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
    assert tuple(mix64(k * GOLDEN_GAMMA) for k in (1, 2, 3)) == expected


def test_known_first_output_seed_zero():
    assert hash_u64(0, 0) == 0xE220A8397B1DCDAF


def test_hash_u64_pinned_outputs():
    # Pinned so that every seeded choice stays the same across platforms and releases.
    assert hash_u64(0) == 0
    assert hash_u64(7, 3) == 0x953AEB70673E29CB
    assert hash_u64(2**64 - 1, 5, 2**63) == 0xD821997B2DDB40F0
    assert hash_u64(42, 1, 2, 3) == 0x51CEA6A6F2F6B651


def test_hashed_uniform_pinned_outputs():
    keys = np.array([0, 1, 2, 2**64 - 1], dtype=np.uint64)
    expected = [0.4704868581519277, 0.6097199354984072, 0.8502730981689685, 0.8782850559114844]
    assert hashed_uniform(7, 23, keys).tolist() == expected


def test_hashed_uniform_agrees_with_scalar_hash():
    keys = [0, 1, 12345, 2**63, 2**64 - 2, 2**64 - 1]
    got = hashed_uniform(99, 5, np.array(keys, dtype=np.uint64))
    base = hash_u64(99, 5)
    want = [((hash_u64(base, key) >> 11) + 1) * 2.0 ** -53 for key in keys]
    assert got.tolist() == want


def test_mix64_stays_in_range():
    for z in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEF):
        assert 0 <= mix64(z) < 2**64


def test_hashed_uniform_reproducible_and_seed_sensitive():
    ids = np.arange(64, dtype=np.uint64)
    assert np.array_equal(hashed_uniform(42, 1, ids), hashed_uniform(42, 1, ids))
    assert not np.array_equal(hashed_uniform(42, 1, ids), hashed_uniform(43, 1, ids))
    assert not np.array_equal(hashed_uniform(42, 1, ids), hashed_uniform(42, 2, ids))


def test_hashed_uniform_bounds_and_coverage():
    u = hashed_uniform(7, 0, np.arange(2000, dtype=np.uint64))
    assert float(u.min()) > 0.0 and float(u.max()) <= 1.0
    counts = np.bincount(np.minimum((u * 10).astype(int), 9), minlength=10)
    assert counts.min() > 100  # roughly uniform


def test_hash_u64_key_sensitivity():
    assert hash_u64(1, 2) != hash_u64(1, 3)
    assert hash_u64(1, 2) != hash_u64(2, 2)
    assert hash_u64(5, 1, 2) != hash_u64(5, 2, 1)


def test_hashed_uniform_range_and_position_independence():
    ids = np.arange(1000, dtype=np.uint64)
    u = hashed_uniform(11, 3, ids)
    assert float(u.min()) > 0.0
    assert float(u.max()) <= 1.0
    perm = np.random.default_rng(0).permutation(1000)
    assert np.array_equal(hashed_uniform(11, 3, ids[perm]), u[perm])

import struct

import numpy as np
import pytest

from semdedup import _parallel, embedding_store
from semdedup.embedding_store import (
    EmbeddingMatrix,
    UnitEmbeddingMatrix,
    load_embeddings,
    normalize_rows,
    normalize_rows_in_place,
    write_embeddings,
    write_subset,
)
from semdedup.errors import (
    DataError,
    DegenerateRowError,
    FormatError,
    InvalidArgumentError,
)

from conftest import random_unit


def test_matrix_rejects_nan_with_row_index():
    with pytest.raises(DataError, match="row 0"):
        EmbeddingMatrix(np.array([[np.nan, 1.0], [0.0, 1.0]], dtype=np.float32))
    with pytest.raises(DataError, match="row 1"):
        EmbeddingMatrix(np.array([[0.0, 1.0], [np.inf, 1.0]], dtype=np.float32))


def test_matrix_rejects_duplicate_ids():
    with pytest.raises(DataError, match="duplicate"):
        EmbeddingMatrix(np.eye(2, dtype=np.float32), np.array([7, 7]))


def test_matrix_default_ids():
    m = EmbeddingMatrix(np.eye(3, dtype=np.float32))
    assert np.array_equal(m.ids, np.arange(3, dtype=np.uint64))


def test_binary_round_trip_identity(tmp_path):
    m = EmbeddingMatrix(
        np.array([[1, 0], [0, 1]], dtype=np.float32), np.array([0, 1], dtype=np.uint64)
    )
    path = tmp_path / "two.semd"
    write_embeddings(m, path)
    back = load_embeddings(path)
    assert back.n == 2 and back.d == 2
    assert np.array_equal(back.data, m.data)
    assert np.array_equal(back.ids, m.ids)


def test_binary_round_trip_random_bits(tmp_path):
    rng = np.random.default_rng(5)
    data = rng.standard_normal((17, 9)).astype(np.float32)
    ids = rng.permutation(1000)[:17].astype(np.uint64)
    m = EmbeddingMatrix(data, ids)
    path = tmp_path / "m.semd"
    write_embeddings(m, path)
    back = load_embeddings(path)
    assert back.data.tobytes() == m.data.tobytes()
    assert back.ids.tobytes() == m.ids.tobytes()


def test_load_rejects_every_magic_mutation(tmp_path):
    m = EmbeddingMatrix(np.eye(2, dtype=np.float32))
    path = tmp_path / "m.semd"
    write_embeddings(m, path)
    raw = bytearray(path.read_bytes())
    for pos in range(4):
        for flip in (0x01, 0xFF):
            mutated = bytearray(raw)
            mutated[pos] ^= flip
            bad = tmp_path / "bad.semd"
            bad.write_bytes(bytes(mutated))
            with pytest.raises(FormatError):
                load_embeddings(bad)


def test_load_rejects_every_truncation(tmp_path):
    m = EmbeddingMatrix(np.eye(2, dtype=np.float32))
    path = tmp_path / "m.semd"
    write_embeddings(m, path)
    raw = path.read_bytes()
    for cut in range(len(raw)):
        bad = tmp_path / "cut.semd"
        bad.write_bytes(raw[:cut])
        with pytest.raises(FormatError):
            load_embeddings(bad)


def test_load_rejects_trailing_bytes(tmp_path):
    m = EmbeddingMatrix(np.eye(2, dtype=np.float32))
    path = tmp_path / "m.semd"
    write_embeddings(m, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_embeddings(path)


@pytest.mark.parametrize("n, d", [(2**62, 2**20), (3, 2)])
def test_load_rejects_sizes_beyond_file(tmp_path, n, d):
    # The file holds 2 rows of d = 2: a huge header, and one row too many.
    path = tmp_path / "m.semd"
    write_embeddings(EmbeddingMatrix(np.eye(2, dtype=np.float32)), path)
    raw = bytearray(path.read_bytes())
    raw[8:20] = struct.pack("<QI", n, d)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="truncated"):
        load_embeddings(path)


def test_load_rejects_bad_version_and_dtype(tmp_path):
    m = EmbeddingMatrix(np.eye(2, dtype=np.float32))
    path = tmp_path / "m.semd"
    write_embeddings(m, path)
    raw = bytearray(path.read_bytes())

    wrong_version = bytearray(raw)
    wrong_version[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(wrong_version))
    with pytest.raises(FormatError, match="version"):
        load_embeddings(path)

    wrong_dtype = bytearray(raw)
    wrong_dtype[20:24] = struct.pack("<I", 2)
    path.write_bytes(bytes(wrong_dtype))
    with pytest.raises(FormatError, match="dtype"):
        load_embeddings(path)


def test_binary_nan_payload_is_data_error(tmp_path):
    # Hand-craft a file with a NaN since the writer validates its input.
    header = struct.pack("<4sIQII", b"SEMD", 1, 1, 2, 1)
    payload = np.array([[np.nan, 1.0]], dtype="<f4").tobytes()
    ids = np.array([0], dtype="<u8").tobytes()
    path = tmp_path / "nan.semd"
    path.write_bytes(header + payload + ids)
    with pytest.raises(DataError, match="row 0"):
        load_embeddings(path)


def test_missing_file_is_validation_error(tmp_path):
    with pytest.raises(InvalidArgumentError):
        load_embeddings(tmp_path / "nope.semd")


def test_normalize_345_triangle():
    m = EmbeddingMatrix(np.array([[3.0, 4.0]], dtype=np.float32))
    u = normalize_rows(m)
    assert np.array_equal(u.data[0], np.array([0.6, 0.8], dtype=np.float32))


def test_normalize_zero_row_fails():
    m = EmbeddingMatrix(np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.float32))
    with pytest.raises(DegenerateRowError, match="row 0"):
        normalize_rows(m)


def test_normalize_unit_row_unchanged():
    m = EmbeddingMatrix(np.array([[1.0, 0.0]], dtype=np.float32))
    assert np.array_equal(normalize_rows(m).data[0], m.data[0])


def test_normalize_idempotent(rng):
    u = random_unit(rng, 40, 7)
    again = normalize_rows(u)
    assert np.max(np.abs(again.data - u.data)) <= 1e-6
    assert np.array_equal(again.ids, u.ids)


def test_normalize_chunks_match_whole_matrix(monkeypatch):
    # 50 rows on a 7-row grid: the last chunk is short. Magnitudes span 1e-6..1e6.
    local = np.random.default_rng(9)
    data = (local.standard_normal((50, 13)) * 10.0 ** local.uniform(-6, 6, (50, 1))).astype(np.float32)
    x64 = data.astype(np.float64)
    reference = (x64 / np.linalg.norm(x64, axis=1)[:, None]).astype(np.float32)
    monkeypatch.setattr(_parallel, "SCRATCH_BYTES", 7 * 13 * 8)  # 7 float64 rows
    u = normalize_rows(EmbeddingMatrix(data))
    assert np.array_equal(u.data, reference)


def test_load_and_normalize_validate_once(tmp_path, monkeypatch):
    path = tmp_path / "m.semd"
    write_embeddings(EmbeddingMatrix(np.random.default_rng(4).standard_normal((30, 6))), path)
    calls = []
    original = embedding_store._validate_payload
    monkeypatch.setattr(embedding_store, "_validate_payload",
                        lambda data, ids: calls.append(1) or original(data, ids))
    u = normalize_rows(load_embeddings(path))
    assert len(calls) == 1
    assert isinstance(u, UnitEmbeddingMatrix)
    UnitEmbeddingMatrix(np.array([[1.0, 0.0]], dtype=np.float32))
    assert len(calls) == 2  # a matrix built by the caller is still checked


@pytest.mark.parametrize("shape", [(40, 1), (40, 2048), (300, 24)])
def test_normalize_output_passes_full_checks(shape):
    # Magnitudes span 1e-9..1e30: 1e-3..1e30 across rows, 1e-6..1 within a row.
    local = np.random.default_rng(shape[1])
    scale = 10.0 ** local.uniform(-3, 30, shape[0])[:, None] * 10.0 ** local.uniform(-6, 0, shape)
    data = (local.choice([-1.0, 1.0], shape) * scale).astype(np.float32)
    m = EmbeddingMatrix(data, np.arange(shape[0], dtype=np.uint64) * 7)
    u = normalize_rows(m)
    checked = UnitEmbeddingMatrix(u.data, u.ids)
    assert np.array_equal(checked.data, u.data) and np.array_equal(checked.ids, m.ids)


def test_unit_matrix_rejects_off_norm_rows():
    with pytest.raises(InvalidArgumentError, match="norm"):
        UnitEmbeddingMatrix(np.array([[0.5, 0.5]], dtype=np.float32))


def test_write_subset_all_ids_matches_reserialization(tmp_path):
    rng = np.random.default_rng(2)
    m = EmbeddingMatrix(rng.standard_normal((5, 3)).astype(np.float32))
    full = tmp_path / "full.semd"
    write_embeddings(m, full)
    subset = tmp_path / "subset.semd"
    count = write_subset(m, m.ids.tolist(), subset)
    assert count == 5
    assert full.read_bytes() == subset.read_bytes()


def test_write_subset_selection_and_order(tmp_path):
    m = EmbeddingMatrix(
        np.arange(12, dtype=np.float32).reshape(4, 3),
        np.array([10, 11, 12, 13], dtype=np.uint64),
    )
    path = tmp_path / "s.semd"
    assert write_subset(m, [13, 10], path) == 2
    back = load_embeddings(path)
    # Original relative order, not keep_ids order.
    assert back.ids.tolist() == [10, 13]
    assert np.array_equal(back.data, m.data[[0, 3]])


def test_write_subset_single_row(tmp_path):
    m = EmbeddingMatrix(np.eye(3, dtype=np.float32))
    path = tmp_path / "one.semd"
    assert write_subset(m, [0], path) == 1
    back = load_embeddings(path)
    assert back.n == 1
    assert np.array_equal(back.data[0], m.data[0])


def test_write_subset_errors(tmp_path):
    m = EmbeddingMatrix(np.eye(3, dtype=np.float32))
    with pytest.raises(InvalidArgumentError):
        write_subset(m, [], tmp_path / "x.semd")
    with pytest.raises(DataError, match="unknown"):
        write_subset(m, [99], tmp_path / "x.semd")
    # int() would keep id 1 of 1.5, and -1 and 2^64 do not fit a u64.
    for bad, message in [(1.5, "^ids must be integers: "), (-1, r"^id -1 is outside"),
                         (2**64, rf"^id {2**64} is outside")]:
        with pytest.raises(InvalidArgumentError, match=message):
            write_subset(m, [0, bad], tmp_path / "x.semd")
    assert not (tmp_path / "x.semd").exists()


def load_in_place(path):
    """The CLI's loader: no second copy of the corpus."""
    return normalize_rows_in_place(load_embeddings(path))


def _hand_written(path, data, ids):
    """A SEMD1 file written without the writer's checks."""
    data = np.asarray(data, dtype="<f4")
    header = struct.pack("<4sIQII", b"SEMD", 1, data.shape[0], data.shape[1], 1)
    path.write_bytes(header + data.tobytes() + np.asarray(ids, dtype="<u8").tobytes())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_in_a_later_block_names_its_row(tmp_path, monkeypatch, bad):
    data = np.ones((40, 3))
    data[29, 1] = data[35, 0] = bad
    path = tmp_path / "m.semd"
    _hand_written(path, data, np.arange(40))
    monkeypatch.setattr(_parallel, "SCRATCH_BYTES", 8 * 3)  # 8 rows per finiteness block
    for load in (load_embeddings, load_in_place):
        with pytest.raises(DataError, match=r"^non-finite value in row 29$"):
            load(path)


def test_loaders_keep_their_format_messages(tmp_path):
    path = tmp_path / "m.semd"
    write_embeddings(EmbeddingMatrix(np.eye(2, dtype=np.float32)), path)
    raw = path.read_bytes()
    cases = {
        raw[:-1]: r"^truncated file: expected 32 bytes for row data and ids, 31 left$",
        raw[:20]: r"^truncated file: expected 24 bytes for header, 20 left$",
        raw + b"\x00": r"^trailing bytes after payload$",
    }
    for content, message in cases.items():
        path.write_bytes(content)
        for load in (load_embeddings, load_in_place):
            with pytest.raises(FormatError, match=message):
                load(path)


def test_in_place_loader_rejects_duplicate_ids_and_zero_rows(tmp_path, monkeypatch):
    path = tmp_path / "m.semd"
    _hand_written(path, np.eye(3), [4, 9, 4])
    with pytest.raises(DataError, match="^duplicate ids in embedding matrix$"):
        load_in_place(path)
    data = np.ones((40, 3))
    data[33] = 0.0
    _hand_written(path, data, np.arange(40))
    monkeypatch.setattr(_parallel, "SCRATCH_BYTES", 8 * 3 * 8)  # 8 rows per norm block
    with pytest.raises(DegenerateRowError, match="^row 33 has norm 0.000e"):
        load_in_place(path)


def test_in_place_loader_normalizes_the_loaded_buffer(tmp_path):
    path = tmp_path / "m.semd"
    m = EmbeddingMatrix(np.random.default_rng(7).standard_normal((30, 5)).astype(np.float32))
    write_embeddings(m, path)
    loaded = load_embeddings(path)
    u = normalize_rows_in_place(loaded)
    assert isinstance(u, UnitEmbeddingMatrix)
    assert u.data is loaded.data and u.ids is loaded.ids  # no second copy
    want = normalize_rows(load_embeddings(path))
    assert np.array_equal(u.data.view(np.uint32), want.data.view(np.uint32))
    assert np.array_equal(u.ids, want.ids)

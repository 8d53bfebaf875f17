import struct

import numpy as np
import pytest

from semdedup.embedding_store import (
    EmbeddingMatrix,
    UnitEmbeddingMatrix,
    load_embeddings,
    normalize_rows,
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


def test_text_round_trip(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 0\n0 1\n")
    m = load_embeddings(path, format="text")
    assert np.array_equal(m.data, np.eye(2, dtype=np.float32))
    assert np.array_equal(m.ids, np.arange(2, dtype=np.uint64))

    rng = np.random.default_rng(6)
    original = EmbeddingMatrix(rng.standard_normal((8, 5)).astype(np.float32))
    out = tmp_path / "rt.txt"
    write_embeddings(original, out, format="text")
    again = load_embeddings(out, format="text")
    assert np.array_equal(again.data, original.data)


def test_text_rejects_bad_rows(tmp_path):
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1 2 3\n4 5\n")
    with pytest.raises(FormatError, match="line 2"):
        load_embeddings(ragged, format="text")

    junk = tmp_path / "junk.txt"
    junk.write_text("1 x\n")
    with pytest.raises(FormatError):
        load_embeddings(junk, format="text")

    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    with pytest.raises(FormatError):
        load_embeddings(empty, format="text")


def test_text_nan_is_data_error(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("nan 1\n")
    with pytest.raises(DataError, match="row 0"):
        load_embeddings(path, format="text")


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

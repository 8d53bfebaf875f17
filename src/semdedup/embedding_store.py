"""Load, validate, normalize, and persist embedding matrices.

One on-disk format, "SEMD1" (little-endian): magic ``SEMD``, u32 version=1,
u64 n, u32 d, u32 dtype code (1 = float32), n*d float32 row-major, n u64 ids.

Rows are stored as float32; all similarity math elsewhere accumulates in
float64.

Memory: a file is read straight into the final float32 array, and
checks and norms run in row blocks whose scratch the ``_parallel`` budget
sizes. ``load_embeddings`` followed by ``normalize_rows_in_place`` holds one
copy of the corpus, plus that budget and a sorted copy of the ids;
``normalize_rows`` returns a second copy. The memory model of a whole command
is stated in ``_parallel``.
"""

from __future__ import annotations

import operator
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from ._parallel import budget_rows, chunk_ranges
from .errors import DataError, DegenerateRowError, FormatError, InvalidArgumentError

MAGIC = b"SEMD"
VERSION = 1
DTYPE_FLOAT32 = 1
_HEADER = struct.Struct("<4sIQII")

_F32 = np.dtype("<f4")
_U64 = np.dtype("<u8")

# Row norms this far below 1 make cosine similarity meaningless.
ZERO_NORM_EPS = 1e-12
UNIT_NORM_TOL = 1e-5


def _validate_payload(data: np.ndarray, ids: np.ndarray) -> None:
    if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
        raise InvalidArgumentError(f"embedding matrix must be 2-D and non-empty, got shape {data.shape}")
    rows = min(data.shape[0], budget_rows(data.shape[1]))
    finite = np.empty((rows, data.shape[1]), dtype=bool)
    for lo, hi in chunk_ranges(data.shape[0], rows):
        block = np.isfinite(data[lo:hi], out=finite[:hi - lo])
        if not block.all():
            row = lo + int(np.flatnonzero(~block.all(axis=1))[0])
            raise DataError(f"non-finite value in row {row}")
    if ids.shape != (data.shape[0],):
        raise InvalidArgumentError(f"ids length {ids.shape} does not match row count {data.shape[0]}")
    ordered = np.sort(ids)  # np.unique peaked at 8x the ids' size
    if (ordered[1:] == ordered[:-1]).any():
        raise DataError("duplicate ids in embedding matrix")


@dataclass
class EmbeddingMatrix:
    """n x d float32 matrix with one stable u64 id per row."""

    data: np.ndarray
    ids: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.ids is None:
            self.ids = np.arange(self.data.shape[0], dtype=np.uint64)
        else:
            self.ids = np.ascontiguousarray(self.ids, dtype=np.uint64)
        _validate_payload(self.data, self.ids)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


def _row_norms(data: np.ndarray):
    """Yield ``(lo, hi, norms)``: float64 L2 norms of row blocks, in scratch reused per block."""
    n, d = data.shape
    rows = min(n, budget_rows(8 * d))
    wide, norms = np.empty((rows, d)), np.empty(rows)
    for lo, hi in chunk_ranges(n, rows):
        block, out = wide[:hi - lo], norms[:hi - lo]
        np.square(data[lo:hi], out=block, dtype=np.float64)
        yield lo, hi, np.sqrt(np.add.reduce(block, axis=1, out=out), out=out)


@dataclass
class UnitEmbeddingMatrix(EmbeddingMatrix):
    """EmbeddingMatrix whose rows are unit-length (within 1e-5)."""

    def __post_init__(self):
        super().__post_init__()
        for lo, _, norms in _row_norms(self.data):
            off = np.abs(norms - 1.0)
            if off.max() > UNIT_NORM_TOL:
                worst = int(np.argmax(off))
                raise InvalidArgumentError(
                    f"row {lo + worst} has norm {norms[worst]:.8f}, "
                    f"expected 1 within {UNIT_NORM_TOL}"
                )


def _normalized(m: EmbeddingMatrix, out: np.ndarray, ids: np.ndarray) -> UnitEmbeddingMatrix:
    """``m``'s rows scaled to unit norm, written into ``out`` (which may be ``m.data``)."""
    for lo, hi, norms in _row_norms(m.data):
        tiny = norms < ZERO_NORM_EPS
        if tiny.any():
            local = int(np.flatnonzero(tiny)[0])
            raise DegenerateRowError(
                f"row {lo + local} has norm {norms[local]:.3e}, cannot normalize"
            )
        np.divide(m.data[lo:hi], norms[:, None], out=out[lo:hi], casting="same_kind")
    # Validated rows, each divided by its own norm: the unit checks cannot fail.
    unit = UnitEmbeddingMatrix.__new__(UnitEmbeddingMatrix)
    unit.data, unit.ids = out, ids
    return unit


def normalize_rows(m: EmbeddingMatrix) -> UnitEmbeddingMatrix:
    """A copy with every row scaled to unit L2 norm (float64 accumulation, float32 out).

    Raises DegenerateRowError for rows with norm below 1e-12; ids and row
    order are preserved. Idempotent within float32 rounding.
    """
    return _normalized(m, np.empty_like(m.data), m.ids.copy())


def normalize_rows_in_place(m: EmbeddingMatrix) -> UnitEmbeddingMatrix:
    """``normalize_rows(m)`` written over ``m``'s own rows, which it then shares."""
    return _normalized(m, m.data, m.ids)


def _check_left(fh, count: int, what: str) -> None:
    # Counts come from headers: check them against the file before reading.
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if count > left:
        raise FormatError(f"truncated file: expected {count} bytes for {what}, {left} left")


def read_exact(fh, count: int, what: str) -> bytes:
    _check_left(fh, count, what)
    buf = fh.read(count)
    if len(buf) != count:  # the file shrank after the check
        raise FormatError(f"truncated file: expected {count} bytes for {what}, {len(buf)} read")
    return buf


def load_embeddings(path) -> EmbeddingMatrix:
    """Read a SEMD1 matrix from ``path``."""
    path = Path(path)
    if not path.is_file():
        raise InvalidArgumentError(f"no such file: {path}")
    with open(path, "rb") as fh:
        header = read_exact(fh, _HEADER.size, "header")
        magic, version, n, d, dtype_code = _HEADER.unpack(header)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise FormatError(f"unsupported version {version}")
        if dtype_code != DTYPE_FLOAT32:
            raise FormatError(f"unsupported dtype code {dtype_code}")
        if n < 1 or d < 1:
            raise FormatError(f"invalid dimensions n={n} d={d}")
        _check_left(fh, n * d * 4 + n * 8, "row data and ids")
        data, ids = np.empty((n, d), dtype=_F32), np.empty(n, dtype=_U64)
        for part in (data, ids):
            if fh.readinto(part) != part.nbytes:  # the file shrank after the check
                raise FormatError("truncated file: row data and ids ended early")
        if fh.read(1):
            raise FormatError("trailing bytes after payload")
    return EmbeddingMatrix(data, ids)


def write_embeddings(m: EmbeddingMatrix, path) -> None:
    """Serialize a matrix as SEMD1; it round-trips bit-exactly."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, m.n, m.d, DTYPE_FLOAT32))
        fh.write(np.ascontiguousarray(m.data, dtype=_F32).tobytes())
        fh.write(np.ascontiguousarray(m.ids, dtype=_U64).tobytes())


def write_subset(m: EmbeddingMatrix, keep_ids: Iterable[int], path) -> int:
    """Write the rows whose ids are in ``keep_ids``, preserving row order.

    Returns the number of rows written. An id that is not an integer in
    [0, 2^64) raises InvalidArgumentError, and unknown ids DataError; an empty
    subset is rejected because the format requires n >= 1.
    """
    try:
        ids = [operator.index(i) for i in keep_ids]  # ints and numpy integers, not floats
    except TypeError as exc:
        raise InvalidArgumentError(f"ids must be integers: {exc}") from None
    for i in ids:
        if not 0 <= i < 1 << 64:
            raise InvalidArgumentError(f"id {i} is outside [0, 2^64)")
    wanted = np.unique(np.array(ids, dtype=np.uint64))
    if wanted.size == 0:
        raise InvalidArgumentError("empty subset")
    missing = wanted[~np.isin(wanted, m.ids)]
    if missing.size:
        raise DataError(f"unknown ids: {missing[:5].tolist()}")
    mask = np.isin(m.ids, wanted)
    subset = EmbeddingMatrix(m.data[mask].copy(), m.ids[mask].copy())
    write_embeddings(subset, path)
    return subset.n

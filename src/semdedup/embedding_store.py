"""Load, validate, normalize, and persist embedding matrices.

Two on-disk formats:

* binary "SEMD1" (little-endian): magic ``SEMD``, u32 version=1, u64 n,
  u32 d, u32 dtype code (1 = float32), n*d float32 row-major, n u64 ids.
* text: one row per line, whitespace-separated decimal floats, ids implicit
  0..n-1. Meant for tests and tiny corpora.

Rows are stored as float32; all similarity math elsewhere accumulates in
float64.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

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
    bad = ~np.isfinite(data)
    if bad.any():
        row = int(np.flatnonzero(bad.any(axis=1))[0])
        raise DataError(f"non-finite value in row {row}")
    if ids.shape != (data.shape[0],):
        raise InvalidArgumentError(f"ids length {ids.shape} does not match row count {data.shape[0]}")
    if np.unique(ids).size != ids.size:
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


# Row blocks for norm computations; keeps the float64 temporaries small
# (4 MiB at d = 128) whatever the corpus size.
_NORM_CHUNK = 4096


@dataclass
class UnitEmbeddingMatrix(EmbeddingMatrix):
    """EmbeddingMatrix whose rows are unit-length (within 1e-5)."""

    def __post_init__(self):
        super().__post_init__()
        for lo in range(0, self.n, _NORM_CHUNK):
            hi = min(lo + _NORM_CHUNK, self.n)
            norms = np.linalg.norm(self.data[lo:hi].astype(np.float64), axis=1)
            off = np.abs(norms - 1.0)
            if off.size and off.max() > UNIT_NORM_TOL:
                row = lo + int(np.argmax(off))
                raise InvalidArgumentError(
                    f"row {row} has norm {norms[np.argmax(off)]:.8f}, "
                    f"expected 1 within {UNIT_NORM_TOL}"
                )


def normalize_rows(m: EmbeddingMatrix) -> UnitEmbeddingMatrix:
    """Scale every row to unit L2 norm (float64 accumulation, float32 out).

    Raises DegenerateRowError for rows with norm below 1e-12; ids and row
    order are preserved. Idempotent within float32 rounding.
    """
    unit = np.empty_like(m.data)
    for lo in range(0, m.n, _NORM_CHUNK):
        hi = min(lo + _NORM_CHUNK, m.n)
        wide = m.data[lo:hi].astype(np.float64)
        norms = np.linalg.norm(wide, axis=1)
        tiny = norms < ZERO_NORM_EPS
        if tiny.any():
            local = int(np.flatnonzero(tiny)[0])
            raise DegenerateRowError(
                f"row {lo + local} has norm {norms[local]:.3e}, cannot normalize"
            )
        wide /= norms[:, None]
        unit[lo:hi] = wide
    # Validated rows, each divided by its own norm: the unit checks cannot fail.
    out = UnitEmbeddingMatrix.__new__(UnitEmbeddingMatrix)
    out.data, out.ids = unit, m.ids.copy()
    return out


def read_exact(fh, count: int, what: str) -> bytes:
    # Counts come from headers: check them against the file before reading.
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    buf = fh.read(count) if count <= left else b""
    if len(buf) != count:
        raise FormatError(f"truncated file: expected {count} bytes for {what}, {left} left")
    return buf


def _load_binary(path: Path) -> EmbeddingMatrix:
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
        payload = read_exact(fh, n * d * 4 + n * 8, "row data and ids")
        if fh.read(1):
            raise FormatError("trailing bytes after payload")
    data = np.frombuffer(payload, dtype=_F32, count=n * d).reshape(n, d)
    ids = np.frombuffer(payload, dtype=_U64, offset=n * d * 4)
    return EmbeddingMatrix(data.copy(), ids.copy())


def _load_text(path: Path) -> EmbeddingMatrix:
    rows: list[np.ndarray] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            try:
                values = np.array([float(t) for t in tokens], dtype=np.float32)
            except ValueError as ex:
                raise FormatError(f"line {lineno}: {ex}") from None
            if width is None:
                width = values.size
            elif values.size != width:
                raise FormatError(f"line {lineno}: expected {width} values, got {values.size}")
            rows.append(values)
    if not rows:
        raise FormatError("text file contains no rows")
    return EmbeddingMatrix(np.vstack(rows))


def load_embeddings(path, format: str = "binary") -> EmbeddingMatrix:
    """Read a matrix from ``path`` in the given format ("binary" or "text")."""
    path = Path(path)
    if not path.is_file():
        raise InvalidArgumentError(f"no such file: {path}")
    if format == "binary":
        return _load_binary(path)
    if format == "text":
        return _load_text(path)
    raise InvalidArgumentError(f"unknown format {format!r}")


def _format_value(v: np.float32) -> str:
    # Shortest decimal that parses back to the same float32.
    return np.format_float_positional(v, unique=True, trim="0")


def write_embeddings(m: EmbeddingMatrix, path, format: str = "binary") -> None:
    """Serialize a matrix; binary output round-trips bit-exactly."""
    path = Path(path)
    if format == "binary":
        header = _HEADER.pack(MAGIC, VERSION, m.n, m.d, DTYPE_FLOAT32)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(m.data, dtype=_F32).tobytes())
            fh.write(np.ascontiguousarray(m.ids, dtype=_U64).tobytes())
    elif format == "text":
        with open(path, "w", encoding="utf-8") as fh:
            for row in m.data:
                fh.write(" ".join(_format_value(v) for v in row))
                fh.write("\n")
    else:
        raise InvalidArgumentError(f"unknown format {format!r}")


def write_subset(m: EmbeddingMatrix, keep_ids: Iterable[int], path, format: str = "binary") -> int:
    """Write the rows whose ids are in ``keep_ids``, preserving row order.

    Returns the number of rows written. Unknown ids raise DataError; an
    empty subset is rejected because the formats require n >= 1.
    """
    wanted = np.unique(np.fromiter((int(i) for i in keep_ids), dtype=np.uint64))
    if wanted.size == 0:
        raise InvalidArgumentError("empty subset")
    missing = wanted[~np.isin(wanted, m.ids)]
    if missing.size:
        raise DataError(f"unknown ids: {missing[:5].tolist()}")
    mask = np.isin(m.ids, wanted)
    subset = EmbeddingMatrix(m.data[mask].copy(), m.ids[mask].copy())
    write_embeddings(subset, path, format=format)
    return subset.n

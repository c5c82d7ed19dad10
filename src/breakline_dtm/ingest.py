"""Point-cloud ingestion: XYZ text and uncompressed little-endian LAS.

Only the x/y/z coordinates of each record are consumed; return numbers,
classification and intensity are ignored.  Coordinates are assumed to be
in a projected metric CRS.
"""

from __future__ import annotations

import io
import math
import re
import struct
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyInputError, MalformedRecordError, UnsupportedFormatError

_LAS_MAGIC = b"LASF"
_FIELD_SEP = re.compile(r"[,\s]+")
# Bytes that send XYZ text to the per-line parser: comment and comma
# syntax, and the ASCII controls that str.splitlines() ends a line at but
# np.loadtxt reads as field whitespace.
_NOT_BULK = (b"#", b",", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
# cells per block that format_rows_6f converts to Python objects at once
_FORMAT_CHUNK_CELLS = 1 << 16

# public header size of each LAS 1.x minor version
_LAS_HEADER_SIZE = {0: 227, 1: 227, 2: 227, 3: 235, 4: 375}


@dataclass(frozen=True)
class BBox:
    """Axis-aligned bounds in meters."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.min_x, self.min_y, self.max_x, self.max_y))):
            raise ValueError(f"non-finite bbox: {self}")
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(f"inverted bbox: {self}")

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y


@dataclass
class PointCloud:
    """A flat (n, 3) float64 array of x/y/z observations in meters.

    The coordinate array is made read-only on construction so clouds can be
    shared across threads.  ``dropped_nonfinite`` counts records discarded
    for NaN/Inf coordinates, ``skipped_records`` counts records skipped as
    unparsable in lenient mode.
    """

    xyz: np.ndarray
    dropped_nonfinite: int = 0
    skipped_records: int = 0

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.xyz, dtype=np.float64)
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("xyz must be an (n, 3) array")
        arr.setflags(write=False)
        self.xyz = arr

    @property
    def count(self) -> int:
        return self.xyz.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.xyz[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.xyz[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self.xyz[:, 2]


def _drop_nonfinite(xyz: np.ndarray) -> tuple[np.ndarray, int]:
    finite = np.isfinite(xyz).all(axis=1)
    dropped = int(xyz.shape[0] - finite.sum())
    if dropped:
        xyz = xyz[finite]
    return xyz, dropped


def _parse_xyz_bulk(data: bytes) -> np.ndarray | None:
    """All points of plain whitespace-separated text, or None.

    None means the input needs the per-line parser: it has a non-ASCII
    byte, a comment or comma, a line break loadtxt does not see, or a
    line loadtxt cannot read as at least three numbers.
    """
    if not data.isascii() or any(tok in data for tok in _NOT_BULK):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty input
            return np.loadtxt(
                io.BytesIO(data), dtype=np.float64, usecols=(0, 1, 2),
                ndmin=2, comments=None,
            )
    except ValueError:
        return None


def _parse_xyz_lines(data: bytes, strict: bool) -> tuple[np.ndarray, int]:
    """Points and skipped-record count, one line at a time."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UnsupportedFormatError(f"input is not UTF-8 text: {exc}") from None

    rows: list[tuple[float, float, float]] = []
    skipped = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = _FIELD_SEP.split(stripped)
        try:
            if len(fields) < 3:
                raise ValueError("fewer than 3 fields")
            rows.append((float(fields[0]), float(fields[1]), float(fields[2])))
        except ValueError as exc:
            if strict:
                raise MalformedRecordError(f"line {lineno}: {exc}") from None
            skipped += 1
    return np.asarray(rows, dtype=np.float64).reshape(-1, 3), skipped


def _read_xyz_text(data: bytes, strict: bool) -> PointCloud:
    xyz = _parse_xyz_bulk(data)
    skipped = 0
    if xyz is None:
        xyz, skipped = _parse_xyz_lines(data, strict)
    xyz, dropped = _drop_nonfinite(xyz)
    if xyz.shape[0] == 0:
        raise EmptyInputError("no valid points in text input")
    return PointCloud(xyz, dropped_nonfinite=dropped, skipped_records=skipped)


def _read_las(data: bytes, strict: bool) -> PointCloud:
    """Decode the common 12-byte XYZ prefix of LAS 1.0-1.4 point records."""
    if len(data) < min(_LAS_HEADER_SIZE.values()):
        raise UnsupportedFormatError("LAS input shorter than the public header")

    ver_major, ver_minor = data[24], data[25]
    if ver_major != 1 or ver_minor not in _LAS_HEADER_SIZE:
        raise UnsupportedFormatError(f"unsupported LAS version {ver_major}.{ver_minor}")

    (header_size,) = struct.unpack_from("<H", data, 94)
    if header_size < _LAS_HEADER_SIZE[ver_minor]:
        raise UnsupportedFormatError(
            f"LAS 1.{ver_minor} header_size {header_size} is smaller than "
            f"the {_LAS_HEADER_SIZE[ver_minor]}-byte public header of that version"
        )
    (point_offset,) = struct.unpack_from("<I", data, 96)
    fmt_id = data[104]
    (rec_len,) = struct.unpack_from("<H", data, 105)
    (legacy_count,) = struct.unpack_from("<I", data, 107)
    scales = struct.unpack_from("<3d", data, 131)
    offsets = struct.unpack_from("<3d", data, 155)

    if fmt_id & 0x80:
        raise UnsupportedFormatError("LAZ-compressed point data is not supported")
    if fmt_id > 10:
        raise UnsupportedFormatError(f"unknown point record format {fmt_id}")
    if rec_len < 12:
        raise UnsupportedFormatError(f"record length {rec_len} too short for XYZ")
    if point_offset < header_size or point_offset > len(data):
        raise UnsupportedFormatError("offset to point data outside the file")
    for axis, scale in zip("xyz", scales):
        if scale == 0 or not math.isfinite(scale):
            raise UnsupportedFormatError(f"LAS {axis} scale factor is {scale}")

    count = legacy_count
    if ver_minor == 4:
        (count64,) = struct.unpack_from("<Q", data, 247)
        if count64:
            count = count64

    body = data[point_offset:]
    available = len(body) // rec_len
    skipped = 0
    if count > available:
        if strict:
            raise MalformedRecordError(
                f"header declares {count} records but only {available} fit the file"
            )
        skipped = count - available
        count = available

    if count == 0:
        raise EmptyInputError("LAS file contains no point records")

    raw = np.frombuffer(body, dtype=np.uint8, count=count * rec_len)
    ixyz = raw.reshape(count, rec_len)[:, :12].copy().view("<i4").astype(np.float64)
    xyz = ixyz * np.asarray(scales) + np.asarray(offsets)
    xyz, dropped = _drop_nonfinite(xyz)
    if xyz.shape[0] == 0:
        raise EmptyInputError("LAS file contains no finite points")
    return PointCloud(xyz, dropped_nonfinite=dropped, skipped_records=skipped)


def _to_bytes(source) -> bytes:
    if isinstance(source, bytes):
        return source
    if isinstance(source, (str, Path)):
        return Path(source).read_bytes()
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, str):
            data = data.encode("utf-8")
        return data
    raise TypeError(f"cannot read points from {type(source).__name__}")


def read_points(source, strict: bool = False) -> PointCloud:
    """Read a point cloud from a path, byte string or binary stream.

    Input that starts with the LASF magic is read as LAS, anything else
    as XYZ text.

    Parameters
    ----------
    source : path, bytes or file-like
        Raw input.  Whole input is held in memory.
    strict : bool
        When True a malformed record aborts with MalformedRecordError;
        otherwise bad records are skipped and counted.
    """
    data = _to_bytes(source)
    if data[:4] == _LAS_MAGIC:
        return _read_las(data, strict)
    return _read_xyz_text(data, strict)


def bounds(pc: PointCloud) -> BBox:
    """Tight axis-aligned bounds of all points."""
    if pc.count == 0:
        raise EmptyInputError("cannot take bounds of an empty point cloud")
    # one contiguous-stride pass per column; reducing xyz[:, :2] over
    # axis 0 is about ten times slower
    x, y = pc.xyz[:, 0], pc.xyz[:, 1]
    return BBox(float(x.min()), float(y.min()), float(x.max()), float(y.max()))


def format_rows_6f(values: np.ndarray) -> Iterator[str]:
    """Yield each row of a 2-D array as its cells in ``%.6f``, space separated.

    A float array's non-finite cells print as ``nan``, ``inf`` or ``-inf``.
    A bool or integer array prints each cell as the token of its float64
    value, looked up in a table of the distinct values, so the text is the
    float path's.  Rows are converted a chunk at a time, to bound memory.
    """
    nrows, ncols = values.shape
    step = max(1, _FORMAT_CHUNK_CELLS // ncols)
    if values.dtype.kind in "biu":
        for start in range(0, nrows, step):
            block = values[start : start + step]
            uniq, inverse = np.unique(block.astype(np.float64), return_inverse=True)
            table = ["%.6f" % v for v in uniq.tolist()]
            for row in inverse.reshape(block.shape).tolist():
                yield " ".join(map(table.__getitem__, row))
        return
    row_fmt = " ".join(["%.6f"] * ncols)
    for start in range(0, nrows, step):
        for row in values[start : start + step].tolist():
            yield row_fmt % tuple(row)


def write_points_xyz(pc: PointCloud, target) -> None:
    """Write a cloud as plain XYZ text with 6 decimal places per field."""
    payload = "".join(line + "\n" for line in format_rows_6f(pc.xyz))
    if isinstance(target, (str, Path)):
        Path(target).write_text(payload, encoding="utf-8")
    else:
        target.write(payload)

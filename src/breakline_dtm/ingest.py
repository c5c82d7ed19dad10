"""Point-cloud ingestion: XYZ text and uncompressed little-endian LAS.

Only the x/y/z coordinates of each record are consumed; return numbers,
classification and intensity are ignored.  Coordinates are assumed to be
in a projected metric CRS.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
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
# The ASCII controls that str.splitlines() ends a line at but np.loadtxt
# reads as field whitespace.
CONTROL_LINE_ENDS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
# the ASCII line boundaries of str.splitlines(); np.loadtxt reads only
# LF and CRLF as line ends, and the controls among them as whitespace
_LINE_END = re.compile(rb"\r\n|[\n\r" + b"".join(CONTROL_LINE_ENDS) + rb"]")
# the tokens of False and True, each with its separator
_BOOL_TOKENS = np.frombuffer(b"0.000000 1.000000 ", np.uint8).reshape(2, 9)

# the suffixes numpy's datasource opens a file through a decompressor by
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
# Elements a stage works on at once: points binned, cells formatted,
# donor probes gathered and targets searched.  A block's int64 or float64
# temporaries are 512 KB, a sixth of one 600x600 raster, not cloud-sized:
# binning 1.44 M points traced 6.2 MB in blocks, 26.1 MB in one pass.
_BLOCK_ELEMENTS = 1 << 16
# Bytes of text read at a time, each block cut back to its last LF, by
# the XYZ file probe and the grid reader.  The grid reader holds about
# 5.5 times a block while it parses it (its copies, loadtxt's buffers and
# result), so 1 MiB blocks would hold 5.8 MB for no gain in time.
_BLOCK_BYTES = 1 << 18

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

    The coordinate array is made read-only on construction, so no stage
    can change the cloud another stage reads.  ``dropped_nonfinite``
    counts records discarded for NaN/Inf coordinates, ``skipped_records``
    counts records skipped as unparsable in lenient mode.
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
    if np.isfinite(xyz).all():
        return xyz, 0  # the usual case: one pass, and the same array
    finite = np.isfinite(xyz).all(axis=1)
    dropped = int(xyz.shape[0] - finite.sum())
    if dropped:
        xyz = xyz[finite]
    return xyz, dropped


def _lf_lines(data: bytes) -> bytes:
    """``data`` with every line boundary np.loadtxt would misread as LF.

    Text with none, such as LF-only or CRLF-only text, is returned as it
    is; only text holding a CR pays for counting its CRs against its CRLFs.
    """
    lone_cr = b"\r" in data and data.count(b"\r") != data.count(b"\r\n")
    if lone_cr or any(c in data for c in CONTROL_LINE_ENDS):
        return _LINE_END.sub(b"\n", data)
    return data


def _line_blocks(fh, size: int) -> Iterator[bytes]:
    """The bytes of ``fh`` read ``size`` at a time, cut back to the last LF.

    Every block but the last ends in an LF, so no block splits a line or
    a CRLF pair; a line longer than ``size`` is read on into one block.
    """
    carry = b""
    while chunk := fh.read(size):
        chunk = carry + chunk
        cut = chunk.rfind(b"\n", len(carry)) + 1
        chunk, carry = chunk[:cut], chunk[cut:]  # only the block is held while it is used
        if chunk:
            yield chunk
    if carry:
        yield carry


def loadtxt_f64(text, usecols=None) -> np.ndarray:
    """Rows of whitespace-separated numbers as a 2-D float64 array.

    ``text`` is a binary stream, read from its position on, whose lines
    end as ``_lf_lines`` leaves them, or the absolute path of a file that
    ``_is_plain_text_file`` accepts.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # blank input
        return np.loadtxt(text, dtype=np.float64, usecols=usecols, ndmin=2, comments=None)


def _plain_text(data: bytes) -> bool:
    """Whether ``data`` is pure ASCII with no comment or comma.

    Where loadtxt reads such text, with its line breaks made LF by
    ``_lf_lines``, it reads the points the per-line parser reads.
    """
    return data.isascii() and b"#" not in data and b"," not in data


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


def _xyz_cloud(xyz: np.ndarray, skipped: int) -> PointCloud:
    xyz, dropped = _drop_nonfinite(xyz)
    if xyz.shape[0] == 0:
        raise EmptyInputError(
            f"no valid points in text input: {skipped} malformed record(s) skipped "
            f"(--strict names the first), {dropped} with non-finite coordinates dropped"
        )
    return PointCloud(xyz, dropped_nonfinite=dropped, skipped_records=skipped)


def _is_plain_text_file(path) -> bool:
    """Whether loadtxt may read ``path`` by name and give the points of its bytes.

    ``path`` must name a regular file (not a pipe such as /dev/stdin,
    which cannot be read twice) without a suffix that numpy's datasource
    decompresses by.  The file is then read once, a block of whole lines
    at a time, and each block must pass ``_plain_text`` and need no
    ``_lf_lines`` rewrite, so that the universal newlines of a text-mode
    file, which turn CRLF into LF, read the lines loadtxt reads in bytes.
    A file that starts as LAS does is not text.
    """
    if Path(path).suffix in _COMPRESSED_SUFFIXES or not os.path.isfile(path):
        return False
    with open(path, "rb") as fh:
        if fh.read(len(_LAS_MAGIC)) == _LAS_MAGIC:
            return False
        fh.seek(0)
        blocks = _line_blocks(fh, _BLOCK_BYTES)
        return all(_plain_text(block) and _lf_lines(block) is block for block in blocks)


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

    available = (len(data) - point_offset) // rec_len
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

    # the x/y/z int32 prefix of every record, read in place from the file bytes
    ixyz = np.ndarray(
        (count, 3), "<i4", buffer=memoryview(data), offset=point_offset, strides=(rec_len, 4)
    )
    xyz = ixyz.astype(np.float64)
    xyz *= scales  # the IEEE operations of ixyz * scales + offsets, in place
    xyz += offsets
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
    as XYZ text: by one ``loadtxt`` call where that reads the points the
    per-line parser reads, else by that parser, which alone counts skips.

    Parameters
    ----------
    source : path, bytes or file-like
        Raw input.  A path to a regular file of plain XYZ text is parsed
        from the file, after one pass that checks its bytes; any other
        input is held in memory whole.
    strict : bool
        When True a malformed record aborts with MalformedRecordError;
        otherwise bad records are skipped and counted.
    """
    data = None
    if isinstance(source, (str, Path)) and _is_plain_text_file(source):
        # by absolute name, a path is never read as a URL, and numpy's
        # chunked reader parses the file without a copy of its text
        text = os.path.abspath(source)
    else:
        data = _to_bytes(source)
        if data[:4] == _LAS_MAGIC:
            return _read_las(data, strict)
        text = io.BytesIO(_lf_lines(data)) if _plain_text(data) else None
    if text is not None:
        try:
            xyz = loadtxt_f64(text, usecols=(0, 1, 2))
        except ValueError:  # a line loadtxt cannot read: only the per-line parser counts it
            text = None  # frees the LF copy of the bytes before they are parsed again
        else:
            return _xyz_cloud(xyz, 0)
    if data is None:
        data = Path(source).read_bytes()
    return _xyz_cloud(*_parse_xyz_lines(data, strict))


def bounds(pc: PointCloud) -> BBox:
    """Tight axis-aligned bounds of all points."""
    if pc.count == 0:
        raise EmptyInputError("cannot take bounds of an empty point cloud")
    # one contiguous-stride pass per column; reducing xyz[:, :2] over
    # axis 0 is about ten times slower
    x, y = pc.xyz[:, 0], pc.xyz[:, 1]
    return BBox(float(x.min()), float(y.min()), float(x.max()), float(y.max()))


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Read-only ASCII digit words: (quads, pairs).

    ``quads`` holds 4-byte words: row k < 10000 is ``"%04d" % k``, row
    10000 + k the digits of k right-aligned after NUL bytes (0 is all
    NUL), row 20000 + k the same but ``"0"`` for 0.  ``pairs`` row k is
    ``"%02d" % k``.
    """
    k = np.arange(10000)[:, None]
    padded = (k // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    lead = np.where(k >= np.array([1000, 100, 10, 1]), padded, 0).astype(np.uint8)
    unit = lead.copy()
    unit[0, 3] = ord("0")
    quads = np.concatenate([padded, lead, unit]).view(np.uint32).ravel()
    pairs = np.ascontiguousarray(padded[:100, 2:]).view(np.uint16).ravel()
    quads.setflags(write=False)
    pairs.setflags(write=False)
    return quads, pairs


def _column(m: np.ndarray, col: int, dtype) -> np.ndarray:
    """The bytes of ``m[:, col:]`` read as one ``dtype`` word per row."""
    return np.ndarray((m.shape[0],), dtype, buffer=m, offset=col, strides=(m.shape[1],))


def _divmod(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.divmod(a, b)`` for an int64 array in half the time: ``//`` is fast by a scalar."""
    q = a // b
    return q, a - q * b


def _token_matrix(
    x: np.ndarray, nonfinite: bytes | None
) -> tuple[np.ndarray, dict[int, bytes]]:
    """The ``"%.6f"`` tokens of a 1-D float64 array as a byte matrix.

    Row i holds the token of ``x[i]`` right-aligned after NUL bytes; the
    last column is left for a separator.  The matrix is as wide as the
    longest fast-path token needs; a longer token leaves its row empty
    and is returned by row index instead.  A cell's digits are those of
    ``n = rint(|x| * 1e6)``.  Below ``2**52`` every half-integer is a
    float64, and rounding the exact ``|x| * 10**6`` to the product is
    monotone, so the product never crosses a half-integer: it rounds to
    the same integer as the exact value unless it *is* a half-integer.
    Those cells (exact ties among them), products of ``2**52`` or more
    and non-finite cells take Python's ``"%.6f"``, or ``nonfinite`` for
    a non-finite cell where that is given.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.abs(x) * 1e6
        fast = (p < 2.0**52) & (p - np.floor(p) != 0.5)
    n = np.rint(p, out=np.zeros_like(p), where=fast).astype(np.int64)
    whole, frac = _divmod(n, 1_000_000)

    slow = np.flatnonzero(~fast)
    tokens = [
        nonfinite if nonfinite is not None and not math.isfinite(v) else b"%.6f" % v
        for v in x[slow].tolist()
    ]
    lengths = np.fromiter(map(len, tokens), np.int64, len(tokens))

    # sign, 4-digit groups of the integer part, ".", 6 decimals, separator
    groups = (len(str(int(whole.max()))) + 3) // 4
    width = 4 * groups + 9
    dot = width - 8
    m = np.empty((x.size, width), np.uint8)
    m[:, : dot - 4 * groups] = 0
    m[:, dot] = ord(".")
    quads, pairs = _digit_tables()
    hi, lo = _divmod(frac, 10000)
    np.take(pairs, hi, out=_column(m, dot + 1, np.uint16), mode="clip")
    np.take(quads, lo, out=_column(m, dot + 3, np.uint32), mode="clip")
    for g in range(groups):
        whole, group = _divmod(whole, 10000)
        # digits above the cell's first one stay NUL
        group += (whole == 0) * (20000 if g == 0 else 10000)
        np.take(quads, group, out=_column(m, dot - 4 * (g + 1), np.uint32), mode="clip")

    neg = np.flatnonzero(np.signbit(x) & fast)
    ndigits = np.count_nonzero(m[neg, dot - 4 * groups : dot], axis=1)
    m[neg, dot - 1 - ndigits] = ord("-")

    m[slow, : width - 1] = 0
    fits = lengths < width
    for size in np.unique(lengths[fits]).tolist():
        picked = b"".join(tok for tok in tokens if len(tok) == size)
        m[slow[lengths == size], width - 1 - size : width - 1] = np.frombuffer(
            picked, np.uint8
        ).reshape(-1, size)
    wide = {row: tok for row, tok in zip(slow.tolist(), tokens) if len(tok) >= width}
    return m, wide


def _joined(m: np.ndarray, ncols: int, wide: dict[int, bytes]) -> bytes:
    """Rows of ``ncols`` tokens of a token matrix, space separated and newline ended.

    ``wide`` holds the tokens, by row, too long for the matrix; each goes
    in front of its row's separator.
    """
    m[:, -1] = ord(" ")
    m[ncols - 1 :: ncols, -1] = ord("\n")
    keep = m != 0
    kept = int(np.count_nonzero(keep))
    first = m.shape[1] - kept // m.shape[0]
    if kept % m.shape[0] == 0 and keep[:, first:].all():
        text = m[:, first:].tobytes()  # every token has the same width
    else:
        text = m[keep].tobytes()
    if not wide:
        return text
    # a wide row keeps only its separator, the last of the row's kept bytes
    seps = np.cumsum(np.count_nonzero(keep, axis=1))[list(wide)] - 1
    view = memoryview(text)
    pieces, at = [], 0
    for sep, tok in zip(seps.tolist(), wide.values()):
        pieces += (view[at:sep], tok)
        at = sep
    pieces.append(view[at:])
    return b"".join(pieces)


def format_6f_blocks(values: np.ndarray, nonfinite: bytes | None = None) -> Iterator[bytes]:
    """Yield the rows of a 2-D array as ASCII text, a block of whole rows at a time.

    Each cell is its float64 value in ``%.6f``; cells are space separated
    and every row ends in a newline.  A non-finite cell prints as ``nan``,
    ``inf`` or ``-inf``, or as ``nonfinite`` where that is given.  A bool
    array takes each cell's token and separator from ``_BOOL_TOKENS``.
    Blocks hold about ``_BLOCK_ELEMENTS`` cells, and an integer array is
    cast to float64 a block at a time, to bound memory.
    """
    nrows, ncols = values.shape
    step = max(1, _BLOCK_ELEMENTS // ncols)
    for first in range(0, nrows, step):
        block = values[first : first + step].ravel()
        if values.dtype.kind == "b":
            m = np.take(_BOOL_TOKENS, block.view(np.uint8), axis=0, mode="clip")
            m[ncols - 1 :: ncols, -1] = ord("\n")
            yield m.tobytes()
        else:
            m, wide = _token_matrix(block.astype(np.float64, copy=False), nonfinite)
            yield _joined(m, ncols, wide)


def write_blocks(path, blocks: Iterator[bytes]) -> None:
    """Write byte blocks to ``path`` through a sibling ``.part`` file.

    The file is renamed onto ``path`` only once every block is written,
    so a failure while the blocks are made leaves no partial file, and
    any earlier file at ``path`` as it was.
    """
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "wb") as f:
            f.writelines(blocks)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` as ``csv.writer`` writes them, through ``write_blocks``.

    A float field is written in ``%.6f`` (``nan`` for NaN) and ``None`` as
    an empty field.  The dialect is the default one, so rows end in CRLF.
    """
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.6f}" if isinstance(v, float) else v for v in row])
    write_blocks(path, [text.getvalue().encode()])


def write_points_xyz(pc: PointCloud, target) -> None:
    """Write a cloud as plain XYZ text with 6 decimal places per field.

    ``target`` is a path or a text stream.
    """
    blocks = format_6f_blocks(pc.xyz)
    if isinstance(target, (str, Path)):
        write_blocks(target, blocks)
    else:
        target.write(b"".join(blocks).decode("ascii"))

"""ESRI ASCII grid reader/writer, the package's bit-exact raster format.

Values are printed with 6 decimal places and non-finite cells as the literal
``-9999`` token, so identical rasters always serialize to identical
bytes.  Arrays follow the package convention of row 0 = south; the file
format stores the top row first, so rows are flipped on the way through.
"""

from __future__ import annotations

import io
import itertools
import math
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import HeaderMismatchError
from .ingest import _lf_lines, format_6f_blocks, loadtxt_f64, write_blocks
from .raster import GridSpec

NODATA = -9999.0
_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
# bytes read at a time; each block is cut back to its last LF.  A block
# holds about 5.5 times its size while it is parsed (its copies, loadtxt's
# buffers and result), so 1 MiB blocks would hold 5.8 MB for no gain in time
_READ_BLOCK_BYTES = 1 << 18


def _grid_chunks(values: np.ndarray, grid: GridSpec) -> Iterator[bytes]:
    """The header, then the rows north first; the shape is checked up front."""
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValueError(f"raster shape {values.shape} != grid shape {grid.shape}")
    header = (
        f"ncols {grid.ncols}\n"
        f"nrows {grid.nrows}\n"
        f"xllcorner {grid.origin_x:.6f}\n"
        f"yllcorner {grid.origin_y:.6f}\n"
        f"cellsize {grid.cell:.6f}\n"
        "NODATA_value -9999\n"
    )
    rows = format_6f_blocks(np.flipud(values), nonfinite=b"-9999")
    return itertools.chain([header.encode("ascii")], rows)


def format_ascii_grid(values: np.ndarray, grid: GridSpec) -> str:
    return b"".join(_grid_chunks(values, grid)).decode("ascii")


def write_ascii_grid(values: np.ndarray, grid: GridSpec, path) -> None:
    """Write a raster; non-finite cells become the NODATA token.

    A failed write leaves no partial file (see ``ingest.write_blocks``).
    """
    write_blocks(path, _grid_chunks(values, grid))


def _parse_header(path, data: bytes) -> tuple[dict[str, float], int]:
    """Header values by lower-case key, and the byte offset of the body.

    A value that is not a number raises HeaderMismatchError naming the
    file, the key and the value.
    """
    header: dict[str, float] = {}
    pos = 0
    while pos < len(data) and len(header) < 6:
        end = data.find(b"\n", pos)
        end = len(data) if end < 0 else end
        parts = data[pos:end].decode("ascii").split()
        if parts:
            key = parts[0].lower()
            if len(parts) != 2 or key not in _HEADER_KEYS:
                break
            try:
                header[key] = float(parts[1])
            except ValueError:
                raise HeaderMismatchError(
                    f"{path}: header {key} is not a number: {parts[1]!r}"
                ) from None
        pos = end + 1
    return header, pos


def _ragged_row(body: io.BytesIO, offset: int, ncols: int) -> str | None:
    """Describe the first non-blank body line without ``ncols`` values."""
    body.seek(offset)
    nonblank = (ln for ln in body if ln.strip())
    for rowno, line in enumerate(nonblank, start=1):
        found = len(line.split())
        if found != ncols:
            return f"data row {rowno} has {found} values, header declares ncols {ncols}"
    return None


def _grid_of(path, header: dict[str, float]) -> GridSpec:
    """The grid a parsed header declares, or HeaderMismatchError naming the fault."""
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise HeaderMismatchError(f"{path}: ASCII grid header missing {missing}")
    for key, value in header.items():
        if not math.isfinite(value):
            raise HeaderMismatchError(f"{path}: header {key} is not finite: {value}")
    for key in ("ncols", "nrows"):
        if header[key] < 1 or header[key] != int(header[key]):
            raise HeaderMismatchError(
                f"{path}: header {key} must be a positive integer, got {header[key]}"
            )
    if header["cellsize"] <= 0:
        raise HeaderMismatchError(
            f"{path}: header cellsize must be > 0, got {header['cellsize']}"
        )
    return GridSpec(
        header["xllcorner"],
        header["yllcorner"],
        header["cellsize"],
        int(header["ncols"]),
        int(header["nrows"]),
    )


def _line_blocks(fh, size: int) -> Iterator[bytes]:
    """The bytes of ``fh`` read ``size`` at a time, cut back to the last LF.

    Every block but the last ends in an LF, so no block splits a line or
    a CRLF pair; a line longer than ``size`` is read on into one block.
    """
    carry = b""
    while chunk := fh.read(size):
        chunk = carry + chunk
        cut = chunk.rfind(b"\n", len(carry)) + 1
        carry = chunk[cut:]
        if cut:
            yield chunk[:cut]
    if carry:
        yield carry


def _read_blocks(path, fh) -> Iterator:
    """The grid a file declares, then its body as ``(rows, values)`` pairs.

    Each block of whole lines is checked and parsed as ``_read_whole``
    checks and parses the whole file; ``values`` are its rows bottom-up,
    for ``raster[rows]`` of a raster on the grid, row 0 south, so neither
    the file nor a flipped copy is ever held.  At anything
    ``_read_whole`` might reject (a non-ASCII byte, a bad header, a cell
    loadtxt refuses, a wrong width or row count) the file is handed to
    ``_read_whole``, which raises the fault as it always has; a caller
    may have used the blocks before it.  The caller owns ``fh``.
    """
    blocks = _line_blocks(fh, _READ_BLOCK_BYTES)
    head, header, offset = b"", {}, 0
    for block in blocks:
        head += _lf_lines(block)
        try:
            header, offset = _parse_header(path, head)
        except (UnicodeDecodeError, HeaderMismatchError):
            header = {}  # so that _grid_of fails and _read_whole reports it
            break
        if len(header) == 6 or offset < len(head):
            break  # the header is whole, or a line that is none ends it
    try:
        grid = _grid_of(path, header)
    except HeaderMismatchError:
        yield from _whole_rows(path, None)
        return
    yield grid
    nodata = header["nodata_value"]
    row = grid.nrows  # rows above this one have been yielded
    for body in itertools.chain([head[offset:]], blocks):
        data = None
        if body.isascii():
            try:
                data = loadtxt_f64(io.BytesIO(_lf_lines(body)))
            except ValueError:
                pass
        if data is not None and data.size == 0:
            continue
        if data is None or data.shape[1] != grid.ncols or data.shape[0] > row:
            yield from _whole_rows(path, row)
            return
        data[data == nodata] = np.nan
        yield slice(row - data.shape[0], row), data[::-1]
        row -= data.shape[0]
    if row:
        yield from _whole_rows(path, row)


def _whole_rows(path, row: int | None) -> Iterator:
    """``_read_blocks``' fallback: ``_read_whole`` raises the file's fault.

    Should it read the file after all, the grid (if ``row`` is None, none
    was yielded yet) and the rows below ``row`` come from its raster.
    """
    values, grid = _read_whole(path)
    if row is None:
        yield grid
        row = grid.nrows
    yield slice(0, row), values[:row]


def _read_whole(path) -> tuple[np.ndarray, GridSpec]:
    """``read_ascii_grid`` on the file held whole: the path that reports faults."""
    raw = Path(path).read_bytes()
    try:
        if not raw.isascii():
            raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise HeaderMismatchError(
            f"{path}: non-ASCII byte 0x{raw[exc.start]:02x} at offset {exc.start}"
        ) from None
    raw = _lf_lines(raw)
    header, offset = _parse_header(path, raw)
    grid = _grid_of(path, header)
    nrows, ncols = grid.shape

    body = io.BytesIO(raw)
    body.seek(offset)
    try:
        data = loadtxt_f64(body)
    except ValueError as exc:
        ragged = _ragged_row(body, offset, ncols)
        raise HeaderMismatchError(
            f"{path}: {ragged or f'non-numeric cell value: {exc}'}"
        ) from None
    if data.shape[0] != nrows:
        raise HeaderMismatchError(
            f"{path}: header declares {nrows} rows but file has {data.shape[0]}"
        )
    if data.shape != (nrows, ncols):
        raise HeaderMismatchError(
            f"{path}: header declares {nrows}x{ncols} but data is {data.shape}"
        )
    data[data == header["nodata_value"]] = np.nan
    return np.flipud(data).copy(), grid


def read_ascii_grid(path) -> tuple[np.ndarray, GridSpec]:
    """Read a raster back; NODATA cells come back as NaN.

    The file is read in blocks of about ``_READ_BLOCK_BYTES`` into one
    C-contiguous array, row 0 south.  A malformed file (a non-ASCII
    byte, a missing, non-numeric or non-finite header value, a non-integer or
    non-positive ncols/nrows, a non-positive cellsize, wrong row or
    column counts, a non-numeric cell) raises HeaderMismatchError naming
    the file.
    """
    with open(Path(path), "rb") as fh:
        blocks = _read_blocks(path, fh)
        grid = next(blocks)
        raster = np.empty(grid.shape)
        for rows, values in blocks:
            raster[rows] = values
    return raster, grid

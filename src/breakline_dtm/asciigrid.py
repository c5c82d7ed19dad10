"""ESRI ASCII grid reader/writer, the package's bit-exact raster format.

Values are printed with 6 decimal places and non-finite cells as the literal
``-9999`` token, so identical rasters always serialize to identical
bytes.  Arrays follow the package convention of row 0 = south; the file
format stores the top row first, so rows are flipped on the way through.
"""

from __future__ import annotations

import collections
import io
import itertools
import math
import re
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import HeaderMismatchError
from .ingest import (
    _BLOCK_BYTES, _BOOL_TOKENS, _lf_lines, _line_blocks, format_6f_blocks, loadtxt_f64,
    write_blocks,
)
from .raster import GridSpec

NODATA = -9999.0
# the header's NODATA_value and the token of every non-finite cell
_NODATA_TOKEN = f"{NODATA:.0f}"
_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
# the 8 bytes of the False and the True token, each read as one word
_FALSE_WORD, _TRUE_WORD = np.ascontiguousarray(_BOOL_TOKENS[:, :8]).view("<u8").ravel()


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
        f"NODATA_value {_NODATA_TOKEN}\n"
    )
    rows = format_6f_blocks(np.flipud(values), nonfinite=_NODATA_TOKEN.encode("ascii"))
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


def _then(first: bytes, rest: Iterator[bytes]) -> Iterator[bytes]:
    """``first``, then the blocks of ``rest``; ``first`` is let go once the next is asked for."""
    yield first
    del first
    yield from rest


def _ascii_blocks(path, fh) -> Iterator[bytes]:
    """``_line_blocks`` of ``fh`` with LF line ends (``_lf_lines``).

    A non-ASCII byte raises HeaderMismatchError with its offset in the file.
    """
    offset = 0
    for block in _line_blocks(fh, _BLOCK_BYTES):
        try:
            if not block.isascii():
                block.decode("ascii")
        except UnicodeDecodeError as exc:
            raise HeaderMismatchError(
                f"{path}: non-ASCII byte 0x{block[exc.start]:02x} at offset {offset + exc.start}"
            ) from None
        offset += len(block)
        yield _lf_lines(block)


def _bool_rows(text: bytes, ncols: int) -> np.ndarray | None:
    """The rows of a body block written from ``_BOOL_TOKENS``, or None.

    A block is taken only when it is rows of ``ncols`` tokens, each
    ``0.000000`` or ``1.000000``, separated by one space, and each row
    ends in an LF: the bytes the bool writer prints.  loadtxt reads such
    a block as 0.0 and 1.0 in the same shape, so the result is its bits;
    any other block (a sign, a CR, a blank line, a short row, no final
    LF) gives None and goes to loadtxt.
    """
    if len(text) % (9 * ncols):
        return None
    # each token's 8 bytes as one unaligned word, 9 bytes apart: a view, not a copy
    words = np.ndarray((len(text) // 9,), "<u8", text, strides=(9,))
    seps = np.frombuffer(text, np.uint8)[8::9].reshape(-1, ncols)
    true = words == _TRUE_WORD
    either = words == _FALSE_WORD
    either |= true
    if not (
        either.all()
        and (seps[:, :-1] == ord(" ")).all()
        and (seps[:, -1] == ord("\n")).all()
    ):
        return None
    return true.reshape(-1, ncols).astype(np.float64)


def _read_blocks(path, fh) -> Iterator:
    """The grid a file declares, then its body as ``(rows, values)`` pairs.

    Each block of whole lines is parsed with loadtxt, unless it is made
    of the bool writer's tokens alone (``_bool_rows``); ``values`` are its
    rows bottom-up, for ``raster[rows]`` of a raster on the grid, row 0
    south, so neither the file nor a flipped copy is ever held.  After the
    first fault the rest of the file is still read, block by block and
    without keeping values, so that the fault raised is the one a parse of
    the whole file would name first: a non-ASCII byte anywhere, then the
    header, then (if loadtxt fails on the body) the first row without
    ``ncols`` values or else the first non-numeric cell, then the row
    count, then the shape.  A caller may have used the blocks before the
    fault is raised.  The caller owns ``fh``.
    """
    blocks = _ascii_blocks(path, fh)
    head, header, offset = b"", {}, 0
    try:
        for text in blocks:
            head += text
            header, offset = _parse_header(path, head)
            if len(header) == 6 or offset < len(head):
                break  # the header is whole, or a line that is none ends it
        grid = _grid_of(path, header)
    except HeaderMismatchError:
        collections.deque(blocks, maxlen=0)  # a non-ASCII byte further on comes first
        raise
    yield grid
    body = _then(head[offset:], blocks)
    del head, text  # the header's blocks; the rest of the last is the body's first
    nrows, ncols = grid.shape
    nodata = header["nodata_value"]
    rows = 0  # non-blank body rows so far: the rows loadtxt counts
    widths: set[int] = set()  # of the blocks loadtxt read
    failed = False  # loadtxt would fail on the whole body
    ragged = bad_cell = None  # the first row without ncols values, the first bad cell
    for text in body:
        try:
            data = _bool_rows(text, ncols)
            if data is None:
                data = loadtxt_f64(io.BytesIO(text))
        except ValueError as exc:
            failed = True
            # str.split() splits, and skips blank lines, as loadtxt does: rows stays its count
            lines = text.decode("ascii").split("\n")
            counts = [n for n in map(len, map(str.split, lines)) if n]
            at = next((i for i, n in enumerate(counts) if n != ncols), None)
            if at is not None:
                ragged = ragged or f"data row {rows + at + 1} has {counts[at]} values"
            elif bad_cell is None:  # loadtxt numbers the block's rows from 0
                bad_cell = re.sub(r" at row (\d+),", lambda m: f" at row {rows + int(m[1])},",
                                  str(exc))
            rows += len(counts)
            continue
        if data.size == 0:
            continue
        widths.add(data.shape[1])
        failed |= len(widths) > 1
        if data.shape[1] != ncols:
            ragged = ragged or f"data row {rows + 1} has {data.shape[1]} values"
        elif not (ragged or failed) and rows + data.shape[0] <= nrows:
            data[data == nodata] = np.nan
            yield slice(nrows - rows - data.shape[0], nrows - rows), data[::-1]
        rows += data.shape[0]
    if failed and ragged:
        raise HeaderMismatchError(f"{path}: {ragged}, header declares ncols {ncols}")
    if failed:
        raise HeaderMismatchError(f"{path}: non-numeric cell value: {bad_cell}")
    if rows != nrows:
        raise HeaderMismatchError(f"{path}: header declares {nrows} rows but file has {rows}")
    if widths != {ncols}:
        raise HeaderMismatchError(
            f"{path}: header declares {nrows}x{ncols} but data is ({nrows}, {widths.pop()})"
        )


def _row_bands(blocks, bands: list[slice], fill) -> Iterator[slice]:
    """Hand the body ``_read_blocks`` yields to ``fill`` in ``bands`` of raster rows.

    ``bands`` are the caller's slices of raster rows, north first as the
    file stores them, that cover every row without gap or overlap (the
    tile rows of ``tiling._spans``, reversed).  For each band,
    ``fill(rows, values)`` is called on the pieces of blocks that cover
    it, ``rows`` counted from the band's southmost row, and then the
    band is yielded.  A block that reaches past a band is cut, and its
    rest is held for the next band, so a file is read one block ahead at
    most.  Resumed after the last band, it reads the blocks to their
    end, which raises a fault past the last row.
    """
    held = None  # the rows of a block not yet filled in, from raster row start
    for band in bands:
        lo, top = band.start, band.stop
        while top > lo:
            if held is None:
                rows, held = next(blocks)
                start = rows.start
            cut = max(start, lo)
            fill(slice(cut - lo, top - lo), held[cut - start :])
            held = held[: cut - start] if cut > start else None
            top = cut
        yield band
    collections.deque(blocks, maxlen=0)


def read_ascii_grid(path) -> tuple[np.ndarray, GridSpec]:
    """Read a raster back; NODATA cells come back as NaN.

    The file is read once, in blocks of about ``_BLOCK_BYTES``, into
    one C-contiguous array, row 0 south.  A malformed file (a non-ASCII
    byte, a missing, non-numeric or non-finite header value, a non-integer or
    non-positive ncols/nrows, a non-positive cellsize, wrong row or
    column counts, a non-numeric cell) raises HeaderMismatchError naming
    the file.  Of several faults, the one named is the first of: a
    non-ASCII byte, the header, a row without ncols values or else a
    non-numeric cell (where loadtxt cannot read the body as one table),
    the row count, the shape.
    """
    with open(Path(path), "rb") as fh:
        blocks = _read_blocks(path, fh)
        grid = next(blocks)
        raster = np.empty(grid.shape)
        for rows, values in blocks:
            raster[rows] = values
    return raster, grid

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
import re
import warnings
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import HeaderMismatchError
from .ingest import CONTROL_LINE_ENDS, format_6f_blocks, write_blocks
from .raster import GridSpec

NODATA = -9999.0
_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
# the ASCII line boundaries of str.splitlines(); np.loadtxt reads only
# LF and CRLF as line ends, and the controls among them as whitespace
_LINE_END = re.compile(rb"\r\n|[\n\r" + b"".join(CONTROL_LINE_ENDS) + rb"]")


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


def _lf_lines(data: bytes) -> bytes:
    """``data`` with every line boundary np.loadtxt would misread as LF.

    Text with none, such as LF-only or CRLF-only text, is returned as it
    is; only text holding a CR pays for counting its CRs against its CRLFs.
    """
    lone_cr = b"\r" in data and data.count(b"\r") != data.count(b"\r\n")
    if lone_cr or any(c in data for c in CONTROL_LINE_ENDS):
        return _LINE_END.sub(b"\n", data)
    return data


def _parse_header(data: bytes) -> tuple[dict[str, float], int]:
    """Header values by lower-case key, and the byte offset of the body."""
    header: dict[str, float] = {}
    pos = 0
    while pos < len(data) and len(header) < 6:
        end = data.find(b"\n", pos)
        end = len(data) if end < 0 else end
        parts = data[pos:end].decode("ascii").split()
        if parts:
            if len(parts) != 2 or parts[0].lower() not in _HEADER_KEYS:
                break
            header[parts[0].lower()] = float(parts[1])
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


def read_ascii_grid(path) -> tuple[np.ndarray, GridSpec]:
    """Read a raster back; NODATA cells come back as NaN.

    A malformed file (a non-ASCII byte, a missing or non-finite header
    value, a non-integer or non-positive ncols/nrows, a non-positive
    cellsize, wrong row or column counts, a non-numeric cell) raises
    HeaderMismatchError naming the file.
    """
    raw = Path(path).read_bytes()
    try:
        if not raw.isascii():
            raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise HeaderMismatchError(
            f"{path}: non-ASCII byte 0x{raw[exc.start]:02x} at offset {exc.start}"
        ) from None
    raw = _lf_lines(raw)
    header, offset = _parse_header(raw)

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
    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    nodata = header["nodata_value"]

    body = io.BytesIO(raw)
    body.seek(offset)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty body: checked below
            data = np.loadtxt(body, dtype=np.float64, ndmin=2, comments=None)
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
    data[data == nodata] = np.nan
    grid = GridSpec(
        header["xllcorner"], header["yllcorner"], header["cellsize"], ncols, nrows
    )
    return np.flipud(data).copy(), grid

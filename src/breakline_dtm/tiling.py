"""Tiled comparison of two elevation rasters: per-tile MAE and RMSE.

Rasters are cut into square tiles (edge tiles keep their actual size)
and compared pixel-wise, skipping excluded pixels such as water.  Tiles
are ranked by MAE descending so the strongest disagreements surface
first; tiles with no valid pixel report null metrics and do not rank.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .asciigrid import _read_blocks, _row_bands
from .errors import GridMismatchError, InputDataError, ParameterError
from .raster import GridSpec


@dataclass
class TileMetrics:
    row: int
    col: int
    valid_px: int
    mae: float | None
    rmse: float | None


@dataclass
class TileReport:
    tile_px: int
    tiles: list[TileMetrics]
    ranking: list[tuple[int, int]]  # (row, col) by MAE descending, ties by (row, col)
    global_mae: float | None
    global_rmse: float | None
    total_valid: int


def _as_array(raster) -> tuple[np.ndarray, GridSpec | None]:
    if hasattr(raster, "elev"):
        return np.asarray(raster.elev, dtype=np.float64), getattr(raster, "grid", None)
    return np.asarray(raster, dtype=np.float64), None


def compare_tiled(a, b, exclude: np.ndarray | None = None, tile_px: int = 1000) -> TileReport:
    """Compare two rasters tile by tile.

    Parameters
    ----------
    a, b : DtmRaster, Dsm or 2-D array
        Rasters on the same grid.
    exclude : bool array, optional
        True pixels are left out of the sums (e.g. a water mask).
    tile_px : int
        Tile edge length in pixels; 1000 px is 0.5 km at 0.5 m cells.
    """
    arr_a, grid_a = _as_array(a)
    arr_b, grid_b = _as_array(b)
    if arr_a.shape != arr_b.shape:
        raise GridMismatchError(f"raster shapes differ: {arr_a.shape} vs {arr_b.shape}")
    if grid_a is not None and grid_b is not None and grid_a != grid_b:
        raise GridMismatchError("raster grids differ")
    check_tile_px(tile_px)

    if exclude is not None and exclude.shape != arr_a.shape:
        raise GridMismatchError("exclusion mask shape differs from rasters")

    # each tile's difference comes from slices of the inputs, so no
    # full-size difference or validity raster is built
    nrows, ncols = arr_a.shape
    rows = []
    for rs in _spans(nrows, tile_px):
        row = []
        for cs in _spans(ncols, tile_px):
            ex = None if exclude is None else exclude[rs, cs]
            row += band_sums(arr_a[rs, cs] - arr_b[rs, cs], ex, tile_px)
        rows.append(row)
    return tile_report(rows, tile_px)


def compare_grid_files(path_a, path_b, mask=None, tile_px: int = 1000) -> TileReport:
    """``compare_tiled`` of two ASCII grid files, read in step, one band of tile rows at a time.

    ``mask``, a grid file too, excludes each pixel whose cell is nonzero
    (NaN, NODATA, is compared; +-inf is excluded).  One float band holds
    a's values with b's subtracted in place, one bool band the mask, and
    each band's tiles are reduced to their ``band_sums`` before the next
    is read, so no array is raster-sized; the report is the one
    ``compare_tiled`` gives on the whole rasters, bit for bit.  A fault
    is the one reading each file whole, in the order a, b, mask, would
    name first: when a step in file k fails (open, header, another grid,
    body), files 0..k-1 are read to their end before it is raised.
    """
    check_tile_px(tile_px)
    paths = [path_a, path_b] + ([] if mask is None else [mask])
    readers: list = []  # the _read_blocks of each file opened, in file order
    with contextlib.ExitStack() as stack:
        try:
            for k, path in enumerate(paths):
                readers.append(_read_blocks(path, stack.enter_context(open(path, "rb"))))
                grid_k = next(readers[k])
                if k == 0:
                    grid = grid_k
                elif grid_k != grid:
                    raise InputDataError(
                        f"grids differ: {grid} vs {grid_k}" if k == 1
                        else "mask grid differs from the compared rasters"
                    )
            diff = np.empty((min(grid.nrows, tile_px), grid.ncols))
            exclude = np.empty(diff.shape, dtype=bool)
            fills = [
                diff.__setitem__,
                lambda rs, values: np.subtract(diff[rs], values, out=diff[rs]),
                lambda rs, values: np.greater(np.abs(values), 0, out=exclude[rs]),
            ]
            bands = [_row_bands(blocks, grid.nrows, tile_px, fill)
                     for blocks, fill in zip(readers, fills)]
            rows = []  # band_sums of each tile row, north first
            for _ in range(math.ceil(grid.nrows / tile_px)):
                for k, file_bands in enumerate(bands):
                    band = next(file_bands)  # the same rows in every file
                height = band.stop - band.start
                ex = None if mask is None else exclude[:height]
                rows.append(band_sums(diff[:height], ex, tile_px))
            for k, file_bands in enumerate(bands):
                collections.deque(file_bands, maxlen=0)  # a fault past the last row
        except (InputDataError, OSError):  # in a step of file k
            for earlier in readers[:k]:
                collections.deque(earlier, maxlen=0)
            raise
    return tile_report(rows[::-1], tile_px)


def check_tile_px(tile_px: int) -> None:
    if tile_px < 1:
        raise ParameterError(f"tile_px must be >= 1, got {tile_px}")


def _spans(n: int, size: int) -> list[slice]:
    """``range(n)`` cut into slices of ``size``; the last keeps what is left."""
    return [slice(i, min(n, i + size)) for i in range(0, n, size)]


def band_sums(
    diff: np.ndarray, exclude: np.ndarray | None, tile_px: int
) -> list[tuple[int, float, float]]:
    """``(valid_px, sum |d|, sum d*d)`` of each tile of one band of tile rows, west to east.

    ``diff`` holds the band's differences a - b and is left as it is; a
    pixel is valid where its difference is finite and ``exclude`` is not
    set.  The sums run over the valid differences of a tile in row-major
    order, as numpy sums a 1-D array, so the same tile gives the same bits
    however the raster around it was read.
    """
    sums = []
    for cs in _spans(diff.shape[1], tile_px):
        valid = np.isfinite(diff[:, cs])
        if exclude is not None:
            valid &= ~exclude[:, cs]
        d = diff[:, cs][valid]
        # |d| * |d| is d * d bit for bit, so both sums reuse the one copy
        s_abs = float(np.abs(d, out=d).sum())
        sums.append((d.size, s_abs, float(np.multiply(d, d, out=d).sum())))
    return sums


def tile_report(rows: list[list[tuple[int, float, float]]], tile_px: int) -> TileReport:
    """The report of tiles whose ``band_sums`` are ``rows``, tile row 0 (south) first.

    The global sums add the tiles in that order, row-major from the south.
    """
    tiles: list[TileMetrics] = []
    sum_abs = 0.0
    sum_sq = 0.0
    total_valid = 0
    for tr, row in enumerate(rows):
        for tc, (n, s_abs, s_sq) in enumerate(row):
            if n == 0:
                tiles.append(TileMetrics(tr, tc, 0, None, None))
                continue
            tiles.append(TileMetrics(tr, tc, n, s_abs / n, math.sqrt(s_sq / n)))
            sum_abs += s_abs
            sum_sq += s_sq
            total_valid += n

    ranked = [t for t in tiles if t.valid_px > 0]
    ranked.sort(key=lambda t: (-t.mae, t.row, t.col))
    ranking = [(t.row, t.col) for t in ranked]

    if total_valid:
        global_mae = sum_abs / total_valid
        global_rmse = math.sqrt(sum_sq / total_valid)
    else:
        global_mae = global_rmse = None
    return TileReport(tile_px, tiles, ranking, global_mae, global_rmse, total_valid)


def write_tile_csv(report: TileReport, path) -> None:
    """CSV rows: tile_row, tile_col, valid_px, mae, rmse, rank (blank if unranked)."""
    rank_of = {rc: i + 1 for i, rc in enumerate(report.ranking)}
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tile_row", "tile_col", "valid_px", "mae", "rmse", "rank"])
        for t in report.tiles:
            writer.writerow(
                [
                    t.row,
                    t.col,
                    t.valid_px,
                    "" if t.mae is None else f"{t.mae:.6f}",
                    "" if t.rmse is None else f"{t.rmse:.6f}",
                    rank_of.get((t.row, t.col), ""),
                ]
            )

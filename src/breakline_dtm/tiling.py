"""Tiled comparison of two elevation rasters: per-tile MAE and RMSE.

Rasters are cut into square tiles (edge tiles keep their actual size)
and compared pixel-wise, skipping excluded pixels such as water.  Tiles
are ranked by MAE descending so the strongest disagreements surface
first; tiles with no valid pixel report null metrics and do not rank.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GridMismatchError, ParameterError
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
    if tile_px < 1:
        raise ParameterError(f"tile_px must be >= 1, got {tile_px}")

    if exclude is not None and exclude.shape != arr_a.shape:
        raise GridMismatchError("exclusion mask shape differs from rasters")

    # each tile's difference and validity come from slices of the inputs;
    # both are elementwise, so no full-size raster of either is built
    nrows, ncols = arr_a.shape
    tiles: list[TileMetrics] = []
    sum_abs = 0.0
    sum_sq = 0.0
    total_valid = 0
    for tr in range(math.ceil(nrows / tile_px)):
        for tc in range(math.ceil(ncols / tile_px)):
            rs = slice(tr * tile_px, min(nrows, (tr + 1) * tile_px))
            cs = slice(tc * tile_px, min(ncols, (tc + 1) * tile_px))
            d = arr_a[rs, cs] - arr_b[rs, cs]
            valid = np.isfinite(d)
            if exclude is not None:
                valid &= ~exclude[rs, cs]
            d = d[valid]
            n = d.size
            if n == 0:
                tiles.append(TileMetrics(tr, tc, 0, None, None))
                continue
            s_abs = float(np.abs(d).sum())
            s_sq = float((d * d).sum())
            tiles.append(
                TileMetrics(tr, tc, n, s_abs / n, math.sqrt(s_sq / n))
            )
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

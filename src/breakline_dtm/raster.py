"""Fine rasterization of a point cloud and nearest-cell void filling.

The grid is anchored at its lower-left corner; array row 0 is the
southernmost row, so cell (r, c) has its center at
``(origin_x + (c + 0.5) * cell, origin_y + (r + 0.5) * cell)``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from queue import SimpleQueue

import numpy as np

from .errors import AllVoidError, NonPositiveCellError, ParameterError
from .ingest import BBox, PointCloud

# Region and hole labels are int32 (label_4connected), which bounds the cell count.
MAX_GRID_CELLS = 2**31 - 1


@dataclass(frozen=True)
class GridSpec:
    """Regular raster geometry in meters."""

    origin_x: float
    origin_y: float
    cell: float
    ncols: int
    nrows: int

    def __post_init__(self) -> None:
        if not 0 < self.cell < math.inf:
            raise NonPositiveCellError(f"cell size must be finite and > 0, got {self.cell}")
        if self.ncols < 1 or self.nrows < 1:
            raise ValueError(f"grid must have at least one cell: {self}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def max_x(self) -> float:
        return self.origin_x + self.ncols * self.cell

    @property
    def max_y(self) -> float:
        return self.origin_y + self.nrows * self.cell

    def x_centers(self) -> np.ndarray:
        return self.origin_x + (np.arange(self.ncols) + 0.5) * self.cell

    def y_centers(self) -> np.ndarray:
        return self.origin_y + (np.arange(self.nrows) + 0.5) * self.cell


@dataclass
class SparseDsm:
    """Min-z surface before void filling: NaN marks void cells.

    ``occupancy[r, c]`` is the int32 number of points binned into the
    cell, so ``np.isnan(elev) == (occupancy == 0)``.  ``oob_dropped``
    counts points that fell outside the grid.
    """

    grid: GridSpec
    elev: np.ndarray
    occupancy: np.ndarray
    oob_dropped: int = 0


@dataclass
class Dsm:
    """Fully populated surface raster."""

    grid: GridSpec
    elev: np.ndarray


def make_grid_spec(bbox: BBox, cell: float) -> GridSpec:
    """Grid covering ``bbox`` with the given cell size, origin at the min corner.

    Column/row counts are ceilings of extent / cell (at least 1); a small
    relative tolerance keeps exact multiples from spilling into an extra
    row or column through float noise.  A grid of more than
    ``MAX_GRID_CELLS`` cells is a ParameterError, raised before anything
    is allocated.
    """
    if not 0 < cell < math.inf:
        raise NonPositiveCellError(f"cell size must be finite and > 0, got {cell}")
    cols = bbox.width / cell - 1e-9
    rows = bbox.height / cell - 1e-9
    if math.isfinite(cols) and math.isfinite(rows):
        ncols = max(1, math.ceil(cols))
        nrows = max(1, math.ceil(rows))
        if ncols * nrows <= MAX_GRID_CELLS:
            return GridSpec(bbox.min_x, bbox.min_y, cell, ncols, nrows)
    raise ParameterError(
        f"cell size {cell} m over bbox x {bbox.min_x}..{bbox.max_x}, "
        f"y {bbox.min_y}..{bbox.max_y} gives about {max(cols, 1.0) * max(rows, 1.0):.4g} "
        f"cells, more than the {MAX_GRID_CELLS} a grid may have"
    )


def _bin_min_count(
    xyz: np.ndarray, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray, int]:
    nrows, ncols = grid.shape
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    cx = x - grid.origin_x
    cx /= grid.cell
    cy = y - grid.origin_y
    cy /= grid.cell
    inside = x >= grid.origin_x
    inside &= y >= grid.origin_y
    # make_grid_spec lets a grid end up to 1e-9 cell short of its bbox, so
    # points in that sliver past the max edge are inside, like those on it
    for v, c, vmax, n in ((x, cx, grid.max_x, ncols), (y, cy, grid.max_y, nrows)):
        past = np.flatnonzero(~(v <= vmax))
        inside[past] &= c[past] - 1e-9 <= n
    dropped = int(xyz.shape[0] - np.count_nonzero(inside))
    if dropped:
        cx, cy, z = cx[inside], cy[inside], z[inside]
    del inside

    # flat = row * ncols + col in float64, exact below 2**53; points on
    # the max edge or in the sliver belong to the last row/column
    np.floor(cx, out=cx)
    np.minimum(cx, ncols - 1, out=cx)
    np.floor(cy, out=cy)
    np.minimum(cy, nrows - 1, out=cy)
    cy *= ncols
    cy += cx
    del cx
    flat = cy.astype(np.int64)
    del cy
    elev = np.full(nrows * ncols, np.inf)
    occ = np.zeros(nrows * ncols, dtype=np.int32)
    np.minimum.at(elev, flat, z)
    # an int32 one: with a Python int, add.at casts and takes its slow loop (20x)
    np.add.at(occ, flat, np.int32(1))
    return elev, occ, dropped


def rasterize_min(pc: PointCloud, grid: GridSpec, workers: int = 1) -> SparseDsm:
    """Bin points into the grid keeping the lowest elevation per cell.

    The points are split into ``workers`` chunks: the caller's thread bins
    the first, a pool of at most ``os.cpu_count()`` threads the rest.  The
    min/count merge is commutative and exact, so the result is independent
    of the partitioning and of thread scheduling.  The pool holds at most
    one chunk per thread in flight; the caller merges whichever finishes
    first and submits the next, so at most threads + 1 grid-sized partial
    results are alive at once.  ``workers`` < 1 is a ParameterError.
    """
    if workers < 1:
        raise ParameterError(f"workers must be at least 1, got {workers}")
    first, *rest = np.array_split(pc.xyz, workers)
    threads = min(max(1, len(rest)), os.cpu_count() or 1)
    chunks = iter(rest)
    finished: SimpleQueue[Future] = SimpleQueue()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for chunk in islice(chunks, threads):
            pool.submit(_bin_min_count, chunk, grid).add_done_callback(finished.put)
        elev, occ, dropped = _bin_min_count(first, grid)
        for _ in rest:
            e, o, d = finished.get().result()
            np.minimum(elev, e, out=elev)
            occ += o
            dropped += d
            del e, o  # merged: free this partial before the next is binned
            chunk = next(chunks, None)
            if chunk is not None:
                pool.submit(_bin_min_count, chunk, grid).add_done_callback(finished.put)

    elev = elev.reshape(grid.shape)
    occ = occ.reshape(grid.shape)
    elev[occ == 0] = np.nan
    return SparseDsm(grid, elev, occ, dropped)


def nearest_donor_indices(donor_mask: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Flat index of the Euclidean-nearest donor cell for each flat index in ``targets``.

    Distances are between cell centers; a donor cell is its own nearest
    donor.  Equidistant donors resolve to the one with the smallest
    row-major index, which makes the result data-deterministic
    (independent of library internals and threading).  Only the targets
    are resolved; the exact EDT over the whole mask gives their distances.
    """
    from scipy import ndimage

    donor_mask = np.asarray(donor_mask, dtype=bool)
    if not donor_mask.any():
        raise AllVoidError("no donor cells available")
    nrows, ncols = donor_mask.shape
    targets = np.asarray(targets, dtype=np.int64)

    ir, ic = ndimage.distance_transform_edt(
        ~donor_mask, return_distances=False, return_indices=True
    )
    ir = ir.ravel()[targets].astype(np.int64)
    ic = ic.ravel()[targets].astype(np.int64)
    donor = ir * ncols + ic
    tr, tc = np.divmod(targets, ncols)
    t_d2 = (tr - ir) ** 2 + (tc - ic) ** 2  # exact integer squared distances

    # Tie-break pass: within each squared-distance shell, try donor offsets
    # in increasing row-major delta so the first hit is the smallest donor.
    order = np.argsort(t_d2, kind="stable")
    shell_starts = np.flatnonzero(np.diff(t_d2[order], prepend=-1))
    for lo, hi in zip(shell_starts, np.append(shell_starts[1:], order.size)):
        idx = order[lo:hi]
        dist2 = int(t_d2[idx[0]])
        offsets = []
        rmax = math.isqrt(dist2)
        for dr in range(-rmax, rmax + 1):
            rem = dist2 - dr * dr
            dc = math.isqrt(rem)
            if dc * dc == rem:
                offsets.append((dr, dc))
                if dc:
                    offsets.append((dr, -dc))
        offsets.sort(key=lambda o: o[0] * ncols + o[1])

        r = tr[idx]
        c = tc[idx]
        unassigned = np.ones(idx.size, dtype=bool)
        for dr, dc in offsets:
            if not unassigned.any():
                break
            nr = r + dr
            nc = c + dc
            ok = unassigned & (nr >= 0) & (nr < nrows) & (nc >= 0) & (nc < ncols)
            if not ok.any():
                continue
            hit = ok.copy()
            hit[ok] = donor_mask[nr[ok], nc[ok]]
            if hit.any():
                donor[idx[hit]] = nr[hit] * ncols + nc[hit]
                unassigned &= ~hit
    return donor


def fill_voids_nearest(sparse: SparseDsm) -> Dsm:
    """Fill void cells with the elevation of the nearest occupied cell."""
    occupied = sparse.occupancy > 0
    if not occupied.any():
        raise AllVoidError("cannot fill a raster with no occupied cells")
    voids = np.flatnonzero(~occupied)
    filled = sparse.elev.copy()
    filled.flat[voids] = sparse.elev.flat[nearest_donor_indices(occupied, voids)]
    return Dsm(sparse.grid, filled)

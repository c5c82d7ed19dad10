"""Fine rasterization of a point cloud and nearest-cell void filling.

The grid is anchored at its lower-left corner; array row 0 is the
southernmost row, so cell (r, c) has its center at
``(origin_x + (c + 0.5) * cell, origin_y + (r + 0.5) * cell)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllVoidError, NonPositiveCellError, ParameterError
from .ingest import _BLOCK_ELEMENTS, BBox, PointCloud

# Region and hole labels are int32 (label_4connected), which bounds the cell count.
MAX_GRID_CELLS = 2**31 - 1


def _check_cell(cell: float) -> None:
    if not 0 < cell < math.inf:
        raise NonPositiveCellError(f"cell size must be finite and > 0, got {cell}")


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ParameterError(f"workers must be at least 1, got {workers}")


@dataclass(frozen=True)
class GridSpec:
    """Regular raster geometry in meters."""

    origin_x: float
    origin_y: float
    cell: float
    ncols: int
    nrows: int

    def __post_init__(self) -> None:
        _check_cell(self.cell)
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
    _check_cell(cell)
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


def rasterize_min(pc: PointCloud, grid: GridSpec, workers: int = 1) -> SparseDsm:
    """Bin points into the grid keeping the lowest elevation per cell.

    Every point is binned on the caller's thread, in blocks of
    ``_BLOCK_ELEMENTS`` points taken in point order, so each cell takes the
    minimum of the same values in the same order as in one pass, and the
    bits, signed zeros included, are the same.  ``workers`` < 1 is a
    ParameterError; any other value changes nothing: binning gained
    nothing from a second thread (README, "How it works").
    """
    _check_workers(workers)
    elev = np.full(grid.shape, np.inf)
    occ = np.zeros(grid.shape, dtype=np.int32)
    kept = 0
    for lo in range(0, pc.count, _BLOCK_ELEMENTS):
        flat, z = _cell_indices(pc.xyz[lo : lo + _BLOCK_ELEMENTS], grid)
        np.minimum.at(elev.reshape(-1), flat, z)
        # an int32 one: with a Python int, add.at casts and takes its slow loop (20x)
        np.add.at(occ.reshape(-1), flat, np.int32(1))
        kept += flat.size
    elev[occ == 0] = np.nan
    return SparseDsm(grid, elev, occ, pc.count - kept)


def _cell_indices(xyz: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Flat cell index and z of each point of ``xyz`` inside ``grid``, in point order."""
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
    if not inside.all():
        cx, cy, z = cx[inside], cy[inside], z[inside]

    # flat = row * ncols + col in float64, exact below 2**53; points on
    # the max edge or in the sliver belong to the last row/column
    np.floor(cx, out=cx)
    np.minimum(cx, ncols - 1, out=cx)
    np.floor(cy, out=cy)
    np.minimum(cy, nrows - 1, out=cy)
    cy *= ncols
    cy += cx
    return cy.astype(np.int64), z


# The shell search may spend this many probes (one mask lookup each) per
# cell of the mask past distance 1 before it hands the targets it has not
# resolved to the EDT.  On the seed-0 rural masks of perfbench (600x600 and
# 1800x1800 cells, a 2-vCPU Xeon VM, numpy 2.4.6, scipy 1.17.1) a probe
# took 1.6-3.1 ns and the EDT 75-111 ns per cell, timed in-process (best of
# 5) on the voids left after distance 1 and on the whole mask.  So the
# search stops at about a sixth of the EDT's cost; those scenes spend 1.6
# and 2.1 probes per cell and never reach the EDT.  A higher budget only
# slowed large voids: a void disk of radius 100 px in 1800x1800 cells took
# 0.37 s at 4 probes per cell and 0.65 s at 24.
_PROBES_PER_CELL = 4
# the search pads the mask by this many cells and covers d2 <= 32**2;
# the seed-0 rural scene at 1800x1800 cells needs d2 <= 212
_SEARCH_RADIUS = 32
# the EDT's targets probe the shells of a range of this many squared
# distances at a time: about pi * 2**13 = 25,736 offsets
_ANNULUS_D2 = 2**13


def _ragged(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(s, s + n)`` for each (s, n) pair, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - counts - starts, counts)


def _isqrt(x: np.ndarray) -> np.ndarray:
    """Elementwise ``math.isqrt`` of non-negative ints: the float root, corrected."""
    s = np.sqrt(x).astype(np.int64)
    return s - (s * s > x) + ((s + 1) * (s + 1) <= x)


def _annulus(lo2: int, hi2: int, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets (dr, dc) with ``lo2 <= d2 <= hi2`` and |dr|, |dc| <= ``limit``, and their d2.

    Sorted by d2, then row-major, so the offsets of one d2 are one shell.
    """
    k = min(math.isqrt(hi2), limit)
    rows = np.arange(-k, k + 1)
    # per row, the columns dc >= 0 inside the annulus
    top = np.minimum(_isqrt(hi2 - rows * rows), limit)
    rem = np.maximum(lo2 - rows * rows, 0)
    bottom = _isqrt(rem)
    bottom += bottom * bottom < rem
    counts = np.maximum(top - bottom + 1, 0)
    dr = np.repeat(rows, counts)
    dc = _ragged(bottom, counts)
    dr, dc = np.concatenate([dr, dr[dc > 0]]), np.concatenate([dc, -dc[dc > 0]])
    d2 = dr * dr + dc * dc
    order = np.lexsort((dc, dr, d2))
    return dr[order], dc[order], d2[order]


def _padded(mask: np.ndarray, pad: int) -> tuple[np.ndarray, int]:
    """``mask`` in a ``pad``-cell False margin, raveled, and its row width."""
    nrows, ncols = mask.shape
    width = ncols + 2 * pad
    out = np.zeros((nrows + 2 * pad, width), dtype=bool)
    out[pad : pad + nrows, pad : pad + ncols] = mask
    return out.ravel(), width


def _padded_index(flat: np.ndarray, ncols: int, pad: int) -> np.ndarray:
    """Where the cells ``flat`` of a ``ncols``-wide mask lie in ``_padded``'s raveled mask."""
    return flat + flat // ncols * (2 * pad) + pad * (ncols + 2 * pad + 1)


def _first_hits(flat: np.ndarray, pos: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Per position, the index of the first delta with ``flat[pos + delta]`` set, or ``deltas.size``.

    One (deltas x positions) gather per block of positions.  The hits
    carry descending ranks n..1, so the largest rank in a column is its
    first hit.
    """
    n = deltas.size
    rank = np.arange(n, 0, -1, dtype=np.min_scalar_type(n))[:, None]
    first = np.empty(pos.size, dtype=np.int64)
    step = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, pos.size, step):
        hits = flat[deltas[:, None] + pos[lo : lo + step]]
        first[lo : lo + step] = (hits * rank).max(axis=0)
    return n - first


def _first_run_hits(
    flat: np.ndarray, pos: np.ndarray, deltas: np.ndarray, start: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per position, the index of the first delta in its own run with ``flat[pos + delta]`` set.

    Position i probes ``deltas[start[i] : start[i] + counts[i]]``, and
    one of them must hit.  One ragged gather per group of positions with
    about ``_BLOCK_ELEMENTS`` probes.
    """
    first = np.empty(pos.size, dtype=np.int64)
    begins = np.cumsum(counts) - counts
    cuts = [0, *(np.flatnonzero(np.diff(begins // _BLOCK_ELEMENTS)) + 1).tolist(), pos.size]
    for a, b in zip(cuts, cuts[1:]):
        probes = _ragged(start[a:b], counts[a:b])
        hits = np.flatnonzero(flat[np.repeat(pos[a:b], counts[a:b]) + deltas[probes]])
        # hits ascend, so a position's first is the first at or after its first probe
        first[a:b] = probes[hits[np.searchsorted(hits, begins[a:b] - begins[a])]]
    return first


def nearest_donor_indices(donor_mask: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Flat index of the Euclidean-nearest donor cell for each flat index in ``targets``.

    Distances are between cell centers; a donor cell is its own nearest
    donor.  Equidistant donors resolve to the one with the smallest
    row-major index, which makes the result data-deterministic
    (independent of library internals and threading).

    Donors come from distance-ordered probes: each target looks at the
    cells at squared distance 0, 1, 2, 4, 5, ... from it, every shell in
    row-major order, and its first donor is the answer.  Most targets stop
    at distance 1.  The search is bounded (``_PROBES_PER_CELL`` probes per
    cell of the mask, and a radius of ``_SEARCH_RADIUS`` cells); it runs
    on ``_BLOCK_ELEMENTS`` targets at a time, all blocks drawing on one
    budget.  The targets it leaves, of every block, go to one scipy EDT
    over the whole mask, which gives their distances, and to one probe of
    their own shell.  A large void with no donor, such as a lake without
    returns, is the slow case: it pays for the search and for the EDT.
    """
    donor_mask = np.asarray(donor_mask, dtype=bool)
    if not donor_mask.any():
        raise AllVoidError("no donor cells available")
    nrows, ncols = donor_mask.shape
    targets = np.asarray(targets, dtype=np.int64)
    donor = np.empty(targets.size, dtype=np.int64)

    pad = min(_SEARCH_RADIUS, max(nrows, ncols))
    flat, width = _padded(donor_mask, pad)
    dr, dc, d2 = _annulus(0, pad * pad, pad)
    deltas, offsets = dr * width + dc, dr * ncols + dc
    starts = np.flatnonzero(np.diff(d2, prepend=-1)).tolist()
    shells = list(zip(starts, [*starts[1:], d2.size]))
    probes = _PROBES_PER_CELL * donor_mask.size
    unresolved = [np.empty(0, dtype=np.int64)]
    for b0 in range(0, targets.size, _BLOCK_ELEMENTS):
        block = targets[b0 : b0 + _BLOCK_ELEMENTS]
        pos = _padded_index(block, ncols, pad)
        left = np.arange(block.size)
        for lo, hi in shells:
            if not left.size:
                break
            if d2[lo] > 1:
                # one budget for every block: once it is spent, the blocks
                # after stop at their first shell past distance 1
                probes -= left.size * (hi - lo)
                if probes < 0:
                    break
            first = _first_hits(flat, pos[left], deltas[lo:hi])
            hit = first < hi - lo
            donor[b0 + left[hit]] = block[left[hit]] + offsets[lo:hi][first[hit]]
            left = left[~hit]
        unresolved.append(b0 + left)
    left = np.concatenate(unresolved)
    if left.size:
        _edt_donors(donor_mask, targets, left, donor)
    return donor


def _edt_donors(
    donor_mask: np.ndarray, targets: np.ndarray, left: np.ndarray, donor: np.ndarray
) -> None:
    """Resolve ``targets[left]`` into ``donor`` with the EDT over the whole mask.

    The EDT gives each target its exact squared distance; the first hit
    among that shell's row-major offsets is its smallest donor.
    """
    from scipy import ndimage

    nrows, ncols = donor_mask.shape
    ir, ic = ndimage.distance_transform_edt(
        ~donor_mask, return_distances=False, return_indices=True
    )
    r, c = np.divmod(targets[left], ncols)
    t_d2 = (r - ir[r, c]) ** 2 + (c - ic[r, c]) ** 2  # exact integer squared distances
    del ir, ic
    order = np.argsort(t_d2, kind="stable")
    left, t_d2 = left[order], t_d2[order]
    # an offset past the mask's size misses every target, so the margin
    # need not be wider than that
    pad = min(math.isqrt(int(t_d2[-1])), max(nrows, ncols))
    flat, width = _padded(donor_mask, pad)
    pos = _padded_index(targets[left], ncols, pad)
    lo = 0
    while lo < left.size:
        # the shells of the nearest distance left and of those up to
        # _ANNULUS_D2 past it; each target probes its own shell
        lo2 = int(t_d2[lo])
        sdr, sdc, sd2 = _annulus(lo2, lo2 + _ANNULUS_D2, pad)
        hi = int(np.searchsorted(t_d2, lo2 + _ANNULUS_D2, side="right"))
        start = np.searchsorted(sd2, t_d2[lo:hi])
        counts = np.searchsorted(sd2, t_d2[lo:hi], side="right") - start
        first = _first_run_hits(flat, pos[lo:hi], sdr * width + sdc, start, counts)
        donor[left[lo:hi]] = targets[left[lo:hi]] + (sdr * ncols + sdc)[first]
        lo = hi


def fill_voids_nearest(sparse: SparseDsm) -> Dsm:
    """Fill void cells with the elevation of the nearest occupied cell."""
    occupied = sparse.occupancy > 0
    if not occupied.any():
        raise AllVoidError("cannot fill a raster with no occupied cells")
    voids = np.flatnonzero(~occupied)
    filled = sparse.elev.copy()
    filled.flat[voids] = sparse.elev.flat[nearest_donor_indices(occupied, voids)]
    return Dsm(sparse.grid, filled)

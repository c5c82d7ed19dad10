"""Seamless DTM assembly: mask non-ground pixels and fill them linearly.

Each 4-connected hole of non-ground pixels is interpolated on its own
from the ground pixels that touch it (4-adjacency).  Those boundary
pixels are triangulated and the hole is filled barycentrically; hole
pixels outside the triangulation hull take the elevation of the nearest
boundary pixel.  A pixel outside the boundary's bounding box is outside
its hull too, so a hole with no pixel inside that box (such as the
stamped raster border ring) is never triangulated.  A collinear boundary
is filled along its line instead.  Interpolated values therefore never
leave the range of the boundary elevations used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientGroundError
from .groundfilter import GroundMask, label_4connected
from .raster import Dsm, GridSpec, nearest_donor_indices

SOURCE_MEASURED = 0
SOURCE_INTERPOLATED = 1
SOURCE_WATER = 2


@dataclass
class DtmRaster:
    """Terrain raster plus a per-pixel provenance flag.

    ``source`` holds SOURCE_MEASURED, SOURCE_INTERPOLATED or SOURCE_WATER.
    """

    grid: GridSpec
    elev: np.ndarray
    source: np.ndarray


def _is_collinear(pts: np.ndarray) -> bool:
    """Exact collinearity test for integer points; fewer than 3 are collinear."""
    deltas = pts - pts[0]
    # the first offset that is not zero, or zero when all points coincide
    base = deltas[np.argmax(deltas.any(axis=1))]
    return bool(np.all(deltas[:, 0] * base[1] == deltas[:, 1] * base[0]))


def _fill_hole_1d(
    donor_xy: np.ndarray, donor_z: np.ndarray, hole_xy: np.ndarray
) -> np.ndarray:
    """Degenerate (collinear) boundary: linear interpolation along the principal axis."""
    donor_xy = np.ascontiguousarray(donor_xy)  # matmul rounds by memory order
    centered = donor_xy - donor_xy.mean(axis=0)
    # principal direction of the boundary points; SVD is deterministic here
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    axis = vt[0]
    t_d = donor_xy @ axis
    t_h = hole_xy @ axis
    order = np.argsort(t_d, kind="stable")
    t_sorted = t_d[order]
    z_sorted = donor_z[order]
    # collapse duplicate projections (possible for off-axis donors): keep first
    uniq, idx = np.unique(t_sorted, return_index=True)
    return np.interp(t_h, uniq, z_sorted[idx])


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(s, e)`` with ``s = a + b`` rounded and ``s + e == a + b`` exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fma_small(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``a*b + c`` rounded once, for integers ``a`` of at most 26 bits.

    ``a*b`` is split exactly into ``p + pl`` (Dekker's product; ``a``
    needs no split of its own), and ``c + p + pl`` is rounded once by
    summing its low parts rounded to odd (Boldo and Melquiond, "Emulation
    of FMA and correctly rounded sums: proved algorithms using rounding
    to odd", 2008).
    """
    p = a * b
    t = 134217729.0 * b  # Veltkamp's split: bh holds b's high 26 bits
    bh = t - (t - b)
    pl = (a * bh - p) + a * (b - bh)
    th, tl = _two_sum(c, p)
    v, e = _two_sum(tl, pl)
    # round to odd: an inexact v is truncated toward zero, then its last bit set
    inexact = e != 0
    bits = v.view(np.int64)
    bits -= inexact & (np.signbit(v) != np.signbit(e))
    bits |= inexact
    return th + v


def _barycentric_transform(points: np.ndarray, simplices: np.ndarray) -> np.ndarray | None:
    """scipy's ``Delaunay.transform`` for a lattice triangulation, bit for bit, or None.

    scipy inverts each simplex's edge matrix ``A`` (row j: vertex j minus
    vertex 2) with one LAPACK call per simplex; this replays the order of
    scipy's OpenBLAS on every simplex at once. LU with partial pivoting
    (ties keep row 0), ``l = a10 * (1/a00)`` and ``u11 = a11 - l*a01``
    unfused; for each column ``y`` of the row swap, ``y1 - l*y0`` gives
    ``0 - l`` or 1, ``x1 = y1 * (1/u11)`` and ``x0 = fma(-u01, x1, y0) *
    (1/u00)``, the one fused step. Row k of the result is column k of
    ``A``'s inverse, and row 2 is vertex 2.

    Integer edges below 2^11 with a nonzero determinant keep the
    condition number below 2^24, so scipy's near-singular test never
    fires and ``u01`` needs no split. Any other triangulation gives None,
    and the caller keeps scipy's transform.
    """
    p = points[simplices]
    a = p[:, :2] - p[:, 2:]
    if not ((np.abs(a) < 2048) & (a == np.rint(a))).all():
        return None
    a00, a01, a10, a11 = a.reshape(-1, 4).T
    if not (a00 * a11 != a01 * a10).all():  # exact: each product is below 2^22
        return None
    swap = np.abs(a10) > np.abs(a00)
    u00 = np.where(swap, a10, a00)
    u01 = np.where(swap, a11, a01)
    l = np.where(swap, a00, a10) * (1.0 / u00)
    u11 = np.where(swap, a01, a11) - l * u01
    # column k of the row swap starts with a 1 exactly where k == swap
    y0 = np.column_stack((~swap, swap)).astype(np.float64)
    x1 = np.where(y0 == 1.0, (0.0 - l)[:, None], 1.0) * (1.0 / u11)[:, None]
    x0 = _fma_small(-u01[:, None], x1, y0) * (1.0 / u00)[:, None]
    out = np.empty((len(simplices), 3, 2))
    out[:, :2, 0] = x0
    out[:, :2, 1] = x1
    out[:, 2] = p[:, 2]
    return out


def _triangulate(xy: np.ndarray):
    """Qhull's Delaunay triangulation of ``xy``, with its transform from numpy where exact."""
    from scipy.spatial import Delaunay

    tri = Delaunay(xy)
    transform = _barycentric_transform(tri.points, tri.simplices)
    if transform is not None:
        # scipy's transform property and find_simplex read this cache
        tri._transform = transform
    return tri


def _fill_hole_linear(tri, donor_z: np.ndarray, hole_xy: np.ndarray) -> np.ndarray:
    """Barycentric fill on the Delaunay triangulation ``tri``; NaN outside its hull.

    The operations and their order are those of scipy's
    ``LinearNDInterpolator``, so the values are the same bit for bit; its
    sums start from 0.0, which turns a leading -0.0 product into 0.0.
    """
    s = tri.find_simplex(hole_xy)
    t = tri.transform[s]
    dx = hole_xy[:, 0] - t[:, 2, 0]
    dy = hole_xy[:, 1] - t[:, 2, 1]
    c0 = (0.0 + t[:, 0, 0] * dx) + t[:, 0, 1] * dy
    c1 = (0.0 + t[:, 1, 0] * dx) + t[:, 1, 1] * dy
    c2 = (1.0 - c0) - c1
    v = donor_z[tri.simplices[s]]
    values = ((0.0 + c0 * v[:, 0]) + c1 * v[:, 1]) + c2 * v[:, 2]
    values[s < 0] = np.nan
    return values


def interpolate_nonground(dsm: Dsm, ground: GroundMask) -> DtmRaster:
    """Copy ground pixels and fill non-ground holes from their ground rims."""
    from scipy import ndimage

    if dsm.grid != ground.grid:
        raise ValueError("DSM and ground mask grids differ")
    is_ground = ground.is_ground
    # a line that is not vertical meets each column once, so more ground
    # cells than max(nrows, ncols) cannot all lie on one line
    n_ground = np.count_nonzero(is_ground)
    if n_ground < 3 or (
        n_ground <= max(is_ground.shape) and _is_collinear(np.argwhere(is_ground))
    ):
        raise InsufficientGroundError(
            "need at least 3 non-collinear ground pixels to interpolate"
        )

    # the holes are labelled, and their mask freed, before the output
    # rasters exist, so the labelling's transients never sit on top of them
    holes, n_holes = label_4connected(~is_ground)
    source = np.where(is_ground, np.uint8(SOURCE_MEASURED), np.uint8(SOURCE_INTERPOLATED))
    elev = dsm.elev.copy()
    slices = ndimage.find_objects(holes)
    for hole_id in range(1, n_holes + 1):
        rs, cs = slices[hole_id - 1]
        # expand one pixel so the adjacent ground rim is inside the window
        rs = slice(max(0, rs.start - 1), min(dsm.grid.nrows, rs.stop + 1))
        cs = slice(max(0, cs.start - 1), min(dsm.grid.ncols, cs.stop + 1))
        hole = holes[rs, cs] == hole_id
        # the ground pixels 4-adjacent to the hole
        rim = np.zeros_like(hole)
        rim[1:] |= hole[:-1]
        rim[:-1] |= hole[1:]
        rim[:, 1:] |= hole[:, :-1]
        rim[:, :-1] |= hole[:, 1:]
        rim &= is_ground[rs, cs]

        hole_rc = np.argwhere(hole)
        # column-major point order keeps the triangulation deterministic
        cols, rows = np.nonzero(rim.T)
        rim_rc = np.column_stack((rows, cols))
        donor_xy = rim_rc[:, ::-1] + 0.5  # (x, y) in cell units
        donor_z = dsm.elev[rs, cs][rim_rc[:, 0], rim_rc[:, 1]]
        # Fortran-ordered, as argwhere's result is; _fill_hole_1d projects
        # it with a matmul that rounds by memory order, so the bits of holes
        # with a collinear rim depend on this layout: keep it
        hole_xy = hole_rc[:, ::-1] + 0.5

        if _is_collinear(rim_rc):  # fewer than 3 rim points, or all on one line
            values = _fill_hole_1d(donor_xy, donor_z, hole_xy)
        else:
            # a pixel strictly outside the rim's bounding box is outside its
            # hull, and find_simplex rejects it without moving its walk's
            # start, so only pixels inside the box need the triangulation
            lo, hi = rim_rc.min(axis=0), rim_rc.max(axis=0)
            in_box = ((hole_rc >= lo) & (hole_rc <= hi)).all(axis=1)
            values = np.full(len(hole_rc), np.nan)
            if in_box.any():
                values[in_box] = _fill_hole_linear(_triangulate(donor_xy), donor_z, hole_xy[in_box])
            outside = np.isnan(values)
            if outside.any():
                flat = hole_rc[outside, 0] * hole.shape[1] + hole_rc[outside, 1]
                values[outside] = dsm.elev[rs, cs].flat[nearest_donor_indices(rim, flat)]

        sub = elev[rs, cs]
        sub[hole_rc[:, 0], hole_rc[:, 1]] = values

    return DtmRaster(dsm.grid, elev, source)

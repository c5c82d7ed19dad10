"""Independent brute-force reference implementations for the tests.

Everything here is written the dumb, obviously-correct way (explicit
loops, exhaustive search) and stays independent of the library code it
checks.
"""

import io
import math
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.interpolate import LinearNDInterpolator
from scipy.spatial import Delaunay

from breakline_dtm.asciigrid import _grid_of, _parse_header
from breakline_dtm.errors import HeaderMismatchError
from breakline_dtm.ingest import _lf_lines, loadtxt_f64


def bfs_label_4connected(mask):
    """Flood-fill labeling by BFS, 4-connectivity, row-major first encounter."""
    nrows, ncols = mask.shape
    labels = np.zeros(mask.shape, dtype=np.int32)
    n = 0
    for r0 in range(nrows):
        for c0 in range(ncols):
            if mask[r0, c0] and labels[r0, c0] == 0:
                n += 1
                labels[r0, c0] = n
                queue = deque([(r0, c0)])
                while queue:
                    r, c = queue.popleft()
                    for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        nr, nc = r + dr, c + dc
                        if (
                            0 <= nr < nrows
                            and 0 <= nc < ncols
                            and mask[nr, nc]
                            and labels[nr, nc] == 0
                        ):
                            labels[nr, nc] = n
                            queue.append((nr, nc))
    return labels, n


def brute_nearest_donor(donor_mask, targets):
    """Per flat target index: the nearest donor's flat index, the smallest on ties."""
    ncols = donor_mask.shape[1]
    occ_rc = np.argwhere(donor_mask)
    occ_flat = occ_rc[:, 0] * ncols + occ_rc[:, 1]
    out = []
    for t in targets:
        r, c = divmod(int(t), ncols)
        d2 = (occ_rc[:, 0] - r) ** 2 + (occ_rc[:, 1] - c) ** 2
        out.append(occ_flat[d2 == d2.min()].min())
    return np.array(out, dtype=np.int64)


def brute_nearest_fill(elev, occupied):
    """O(voids * occupied) nearest-occupied fill, smallest row-major donor on ties."""
    voids = np.flatnonzero(~occupied)
    out = elev.copy()
    out.flat[voids] = elev.flat[brute_nearest_donor(occupied, voids)]
    return out


def bucket_min_count(xyz, grid):
    """Per-cell lowest z and point count, one point at a time, keyed by (row, col).

    Points on the grid's max edge, or past it by at most 1e-9 cell, go to
    the last row or column; points outside the grid are skipped.  Of two
    equal z the later point's is kept, as ``np.minimum(a, b)`` returns
    ``b`` when ``a == b``: a cell that gets 0.0 and then -0.0 keeps -0.0.
    """
    mins = {}
    counts = {}
    for x, y, z in xyz:
        cx = (x - grid.origin_x) / grid.cell
        cy = (y - grid.origin_y) / grid.cell
        if not (x >= grid.origin_x and y >= grid.origin_y):
            continue
        if not (x <= grid.max_x or cx - 1e-9 <= grid.ncols):
            continue
        if not (y <= grid.max_y or cy - 1e-9 <= grid.nrows):
            continue
        c = min(int(cx), grid.ncols - 1)
        r = min(int(cy), grid.nrows - 1)
        low = mins.get((r, c), np.inf)
        mins[(r, c)] = z if z <= low else low
        counts[(r, c)] = counts.get((r, c), 0) + 1
    return mins, counts


def scipy_linear_fill(tri, values, xy):
    """scipy's piecewise-linear interpolant on the triangulation ``tri``: NaN outside the hull."""
    return LinearNDInterpolator(tri, values)(xy)


def _loop_is_collinear(pts):
    """Collinearity of integer points by scanning for the first nonzero offset."""
    if len(pts) < 3:
        return True
    deltas = pts[1:] - pts[0]
    base = None
    for d in deltas:
        if d[0] != 0 or d[1] != 0:
            base = d
            break
    if base is None:
        return True
    return bool(np.all(deltas[:, 0] * base[1] - deltas[:, 1] * base[0] == 0))


def _principal_axis_fill(donor_xy, donor_z, hole_xy):
    """1-D fill along the donors' principal axis, with a single donor spelled out."""
    if len(donor_xy) == 1:
        return np.full(len(hole_xy), donor_z[0])
    _, _, vt = np.linalg.svd(donor_xy - donor_xy.mean(axis=0), full_matrices=False)
    t_d = donor_xy @ vt[0]
    order = np.argsort(t_d, kind="stable")
    uniq, idx = np.unique(t_d[order], return_index=True)
    return np.interp(hole_xy @ vt[0], uniq, donor_z[order][idx])


def per_hole_fill(elev, is_ground):
    """Non-ground fill one 4-connected hole at a time, rims checked before Qhull.

    A hole's rim is the ground pixels 4-adjacent to it.  Coordinates are
    cell centres local to the hole's bounding box grown by one pixel.  A
    rim of fewer than 3 pixels, or a collinear one, takes the 1-D fill
    along its principal axis without a triangulation; any other rim is
    triangulated with every hole pixel, filled by scipy's linear
    interpolant, and pixels outside its hull take the nearest rim pixel.
    Returns None when the ground is fewer than 3 pixels or collinear.
    """
    nrows, ncols = is_ground.shape
    if _loop_is_collinear(np.argwhere(is_ground)):
        return None
    out = elev.copy()
    holes, n_holes = bfs_label_4connected(~is_ground)
    for hole_id in range(1, n_holes + 1):
        rr, cc = np.nonzero(holes == hole_id)
        rs = slice(max(0, rr.min() - 1), min(nrows, rr.max() + 2))
        cs = slice(max(0, cc.min() - 1), min(ncols, cc.max() + 2))
        hole = holes[rs, cs] == hole_id
        ground = is_ground[rs, cs]
        rim = np.zeros_like(hole)
        for r, c in np.argwhere(hole):
            for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= nr < hole.shape[0] and 0 <= nc < hole.shape[1] and ground[nr, nc]:
                    rim[nr, nc] = True

        hole_rc = np.argwhere(hole)
        rim_rc = np.argwhere(rim)
        rim_rc = rim_rc[np.lexsort((rim_rc[:, 0], rim_rc[:, 1]))]
        donor_xy = rim_rc[:, ::-1] + 0.5
        donor_z = elev[rs, cs][rim_rc[:, 0], rim_rc[:, 1]]
        hole_xy = hole_rc[:, ::-1] + 0.5

        if len(rim_rc) < 3 or _loop_is_collinear(rim_rc):
            values = _principal_axis_fill(donor_xy, donor_z, hole_xy)
        else:
            values = scipy_linear_fill(Delaunay(donor_xy), donor_z, hole_xy)
            outside = np.isnan(values)
            if outside.any():
                flat = hole_rc[outside, 0] * hole.shape[1] + hole_rc[outside, 1]
                values[outside] = elev[rs, cs].flat[brute_nearest_donor(rim, flat)]
        out[rs, cs][hole_rc[:, 0], hole_rc[:, 1]] = values
    return out


def brute_window_sums(arr, window):
    """Edge-truncated window sums via per-pixel slicing."""
    half = window // 2
    nrows, ncols = arr.shape
    sums = np.zeros(arr.shape, dtype=np.int64)
    visible = np.zeros(arr.shape, dtype=np.int64)
    for r in range(nrows):
        for c in range(ncols):
            r0, r1 = max(0, r - half), min(nrows, r + half + 1)
            c0, c1 = max(0, c - half), min(ncols, c + half + 1)
            sums[r, c] = arr[r0:r1, c0:c1].sum()
            visible[r, c] = (r1 - r0) * (c1 - c0)
    return sums, visible


def monotone_chain_hull(points):
    """Andrew's monotone-chain hull, counter-clockwise from the smallest point.

    Collinear points on an edge are dropped; fewer than three distinct
    points come back as they are.
    """
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) <= 2:
        return pts

    def half(seq):
        hull = []
        for p in seq:
            while len(hull) >= 2:
                a, b = hull[-2], hull[-1]
                cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                if cross <= 0:
                    hull.pop()
                else:
                    break
            hull.append(p)
        return hull

    lower = half(pts)
    upper = half(pts[::-1])
    return np.asarray(lower[:-1] + upper[:-1], dtype=np.float64)


def calipers_min_rect_area(points):
    """Rotating calipers over the monotone-chain hull: one rectangle per hull edge."""
    hull = monotone_chain_hull(points)
    if len(hull) <= 2:
        return 0.0
    edges = np.diff(np.vstack([hull, hull[:1]]), axis=0)
    dirs = edges / np.hypot(edges[:, 0], edges[:, 1])[:, None]
    normals = np.column_stack([-dirs[:, 1], dirs[:, 0]])
    u = dirs @ hull.T
    v = normals @ hull.T
    return float(((u.max(axis=1) - u.min(axis=1)) * (v.max(axis=1) - v.min(axis=1))).min())


def row_extreme_corners(label, region_count):
    """Per region: the pixel corners of each row's leftmost and rightmost pixel.

    Corners are (x, y) = (col, row) in cell units, listed row by row, the
    leftmost pixel's four before the rightmost pixel's four.
    """
    buckets = [[] for _ in range(region_count)]
    nrows, ncols = label.shape
    for lb in range(1, region_count + 1):
        for r in range(nrows):
            cols = [c for c in range(ncols) if label[r, c] == lb]
            if not cols:
                continue
            for c in (min(cols), max(cols)):
                buckets[lb - 1] += [(c, r), (c + 1, r), (c, r + 1), (c + 1, r + 1)]
    return [np.asarray(b, dtype=np.float64) for b in buckets]


def las_xyz_by_copy(data, point_offset, rec_len, count, scales, offsets):
    """x/y/z of ``count`` LAS records: copy the body, then each record's 12-byte prefix."""
    body = data[point_offset:]
    raw = np.frombuffer(body, dtype=np.uint8, count=count * rec_len)
    ixyz = raw.reshape(count, rec_len)[:, :12].copy().view("<i4").astype(np.float64)
    return ixyz * np.asarray(scales) + np.asarray(offsets)


def sweep_min_rect_area(points, step_deg=0.05, refine=True):
    """Minimum-area enclosing rectangle by exhaustive rotation sweep.

    The area-vs-angle curve has kinks, so a second, much finer sweep
    around the coarse winner keeps the discretization error negligible.
    """
    pts = np.asarray(points, dtype=float)

    def area_at(ang):
        t = math.radians(ang)
        ca, sa = math.cos(t), math.sin(t)
        u = pts[:, 0] * ca + pts[:, 1] * sa
        v = -pts[:, 0] * sa + pts[:, 1] * ca
        return (u.max() - u.min()) * (v.max() - v.min())

    best = math.inf
    best_ang = 0.0
    for ang in np.arange(0.0, 90.0, step_deg):
        area = area_at(ang)
        if area < best:
            best, best_ang = area, ang
    if refine:
        for ang in np.arange(best_ang - step_deg, best_ang + step_deg, step_deg / 200):
            area = area_at(ang)
            if area < best:
                best = area
    return best


def direct_sobel_slope(elev, cell):
    """Per-pixel 3x3 Sobel with explicit loops and clamped (replicated) edges."""
    nrows, ncols = elev.shape
    out = np.zeros(elev.shape)

    def at(r, c):
        return elev[min(max(r, 0), nrows - 1), min(max(c, 0), ncols - 1)]

    for r in range(nrows):
        for c in range(ncols):
            gx = (
                at(r - 1, c + 1) + 2 * at(r, c + 1) + at(r + 1, c + 1)
                - at(r - 1, c - 1) - 2 * at(r, c - 1) - at(r + 1, c - 1)
            )
            gy = (
                at(r + 1, c - 1) + 2 * at(r + 1, c) + at(r + 1, c + 1)
                - at(r - 1, c - 1) - 2 * at(r - 1, c) - at(r - 1, c + 1)
            )
            out[r, c] = math.degrees(
                math.atan(math.hypot(gx, gy) / (8.0 * cell))
            )
    return out


def whole_raster_slope(elev, cell):
    """Sobel slope in degrees of the whole raster at once, from one edge-padded copy.

    The operations and their order are those of ``slope_map``, so its
    result must match this one bit for bit.
    """
    p = np.pad(elev, 1, mode="edge")
    scale = 8.0 * cell
    gx = (
        (p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:])
        - (p[:-2, :-2] + 2.0 * p[1:-1, :-2] + p[2:, :-2])
    ) / scale
    gy = (
        (p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:])
        - (p[:-2, :-2] + 2.0 * p[:-2, 1:-1] + p[:-2, 2:])
    ) / scale
    return np.degrees(np.arctan(np.hypot(gx, gy)))


def nearest_rank_sorted(values, q):
    """Nearest-rank percentile on an explicit sorted list with exact arithmetic."""
    ordered = sorted(float(v) for v in values)
    frac = Fraction(q).limit_denominator(10**9)
    k = max(1, math.ceil(frac * len(ordered)))
    return ordered[k - 1]


def scan_water_segments(mask, occupied, elev, min_segment_px, q):
    """Water segments the slow way: BFS labels and one scan of the raster per segment.

    Returns the label raster, renumbered 1..n over the segments of at
    least ``min_segment_px`` pixels, and per segment its ascending flat
    pixels and elevation: the nearest-rank ``q`` percentile of its
    occupied cells, else the elevation of the occupied cell nearest to
    any of its pixels (the first such pixel in row-major order, the
    smallest donor on ties), else NaN.
    """
    lab, n = bfs_label_4connected(mask)
    flat = lab.ravel()
    kept = [i for i in range(1, n + 1) if np.count_nonzero(flat == i) >= min_segment_px]
    out = np.zeros_like(lab)
    segments = []
    for seg_id, old_id in enumerate(kept, start=1):
        pixels = np.flatnonzero(flat == old_id)
        out.flat[pixels] = seg_id
        occ = [p for p in pixels if occupied.flat[p]]
        elevation = float("nan")
        if occ:
            elevation = nearest_rank_sorted(elev.flat[occ], q)
        elif occupied.any():
            ncols = mask.shape[1]
            best = None
            for p, d in zip(pixels, brute_nearest_donor(occupied, pixels)):
                d2 = (p // ncols - d // ncols) ** 2 + (p % ncols - d % ncols) ** 2
                if best is None or d2 < best[0]:
                    best = (d2, d)
            elevation = float(elev.flat[best[1]])
        segments.append((pixels, elevation))
    return out, segments


def point_in_polygon(px, py, poly):
    """Scalar even-odd crossing test."""
    inside = False
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        if (y0 > py) != (y1 > py):
            xi = x0 + (py - y0) * (x1 - x0) / (y1 - y0)
            if px < xi:
                inside = not inside
    return inside


def tile_metrics(a, b, valid, tile_px):
    """Direct per-tile MAE/RMSE by plain summation."""
    nrows, ncols = a.shape
    out = {}
    for tr in range(math.ceil(nrows / tile_px)):
        for tc in range(math.ceil(ncols / tile_px)):
            acc_abs = acc_sq = 0.0
            n = 0
            for r in range(tr * tile_px, min(nrows, (tr + 1) * tile_px)):
                for c in range(tc * tile_px, min(ncols, (tc + 1) * tile_px)):
                    if valid[r, c]:
                        d = a[r, c] - b[r, c]
                        acc_abs += abs(d)
                        acc_sq += d * d
                        n += 1
            if n:
                out[(tr, tc)] = (acc_abs / n, math.sqrt(acc_sq / n), n)
            else:
                out[(tr, tc)] = (None, None, 0)
    return out


def full_raster_tiles(a, b, exclude, tile_px):
    """Per-tile (row, col, valid_px, sum |d|, sum d*d) from full-size rasters.

    The difference and validity of the whole raster are built first and
    each tile's valid differences taken from them, in row-major order.
    """
    diff = a - b
    valid = np.isfinite(diff)
    if exclude is not None:
        valid &= ~exclude
    nrows, ncols = diff.shape
    out = []
    for tr in range(math.ceil(nrows / tile_px)):
        for tc in range(math.ceil(ncols / tile_px)):
            win = (slice(tr * tile_px, (tr + 1) * tile_px), slice(tc * tile_px, (tc + 1) * tile_px))
            d = diff[win][valid[win]]
            out.append((tr, tc, d.size, float(np.abs(d).sum()), float((d * d).sum())))
    return out


def per_cell_ascii_grid(values, grid):
    """ESRI ASCII grid text, one f-string per cell, NaN/inf as -9999."""
    lines = [
        f"ncols {grid.ncols}",
        f"nrows {grid.nrows}",
        f"xllcorner {grid.origin_x:.6f}",
        f"yllcorner {grid.origin_y:.6f}",
        f"cellsize {grid.cell:.6f}",
        "NODATA_value -9999",
    ]
    for row in np.flipud(np.asarray(values, dtype=np.float64)):
        lines.append(
            " ".join("-9999" if not np.isfinite(v) else f"{v:.6f}" for v in row)
        )
    return "\n".join(lines) + "\n"


def per_cell_xyz_text(xyz):
    """XYZ text, one f-string per field; NaN/inf print as Python prints them."""
    return "".join(" ".join(f"{v:.6f}" for v in row) + "\n" for row in np.asarray(xyz).tolist())


def per_line_ascii_grid(text):
    """Parse ASCII grid text with float() per cell.

    Returns the south-first array and (xll, yll, cell, ncols, nrows);
    raises ValueError on any malformed input.
    """
    keys = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = {}
    idx = 0
    while idx < len(lines) and len(header) < 6:
        parts = lines[idx].split()
        if len(parts) != 2 or parts[0].lower() not in keys:
            break
        header[parts[0].lower()] = float(parts[1])
        idx += 1
    if len(header) != 6:
        raise ValueError("header incomplete")
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    rows = [[float(v) for v in row.split()] for row in lines[idx:]]
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise ValueError("row or column count differs from header")
    data = np.array(rows, dtype=np.float64).reshape(nrows, ncols)
    data[data == header["nodata_value"]] = np.nan
    geometry = (header["xllcorner"], header["yllcorner"], header["cellsize"], ncols, nrows)
    return np.flipud(data).copy(), geometry


def whole_file_ascii_grid(path):
    """``read_ascii_grid`` on the file held whole, with one loadtxt call on the body.

    The fault it raises is the first in this order: a non-ASCII byte,
    the header, (if loadtxt fails on the body) the first non-blank row
    without ncols values or else loadtxt's message for the first bad
    cell, the row count, the shape.  The header checks and the loadtxt
    call are the library's own; what this pins is which fault a file
    with several is reported by, and the row numbers in the message.
    """
    raw = Path(path).read_bytes()
    try:
        raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise HeaderMismatchError(
            f"{path}: non-ASCII byte 0x{raw[exc.start]:02x} at offset {exc.start}"
        ) from None
    raw = _lf_lines(raw)
    header, offset = _parse_header(path, raw)
    grid = _grid_of(path, header)
    nrows, ncols = grid.shape
    try:
        data = loadtxt_f64(io.BytesIO(raw[offset:]))
    except ValueError as exc:
        # str.split() splits where loadtxt does; a row of only blanks is none
        rows = [ln.split() for ln in raw[offset:].decode("ascii").split("\n")]
        for rowno, row in enumerate((r for r in rows if r), start=1):
            if len(row) != ncols:
                raise HeaderMismatchError(
                    f"{path}: data row {rowno} has {len(row)} values, header declares ncols {ncols}"
                ) from None
        raise HeaderMismatchError(f"{path}: non-numeric cell value: {exc}") from None
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

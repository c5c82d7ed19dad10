"""Independent brute-force reference implementations for the tests.

Everything here is written the dumb, obviously-correct way (explicit
loops, exhaustive search) and stays independent of the library code it
checks.
"""

import math
from collections import deque
from fractions import Fraction

import numpy as np


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


def brute_nearest_fill(elev, occupied):
    """O(voids * occupied) nearest-occupied fill, smallest row-major donor on ties."""
    nrows, ncols = occupied.shape
    occ_rc = np.argwhere(occupied)
    occ_flat = occ_rc[:, 0] * ncols + occ_rc[:, 1]
    flat_elev = elev.ravel()
    out = elev.copy()
    for r in range(nrows):
        for c in range(ncols):
            if occupied[r, c]:
                continue
            d2 = (occ_rc[:, 0] - r) ** 2 + (occ_rc[:, 1] - c) ** 2
            donor = occ_flat[d2 == d2.min()].min()
            out[r, c] = flat_elev[donor]
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


def nearest_rank_sorted(values, q):
    """Nearest-rank percentile on an explicit sorted list with exact arithmetic."""
    ordered = sorted(float(v) for v in values)
    frac = Fraction(q).limit_denominator(10**9)
    k = max(1, math.ceil(frac * len(ordered)))
    return ordered[k - 1]


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

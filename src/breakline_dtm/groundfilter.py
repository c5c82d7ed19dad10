"""Region labeling between break-lines and the enclosure classification.

Non-break pixels are grouped into 4-connected regions (so one-pixel
diagonal break walls still seal a region).  Each region is classified by
its area against the low/high limits and, in between, by rectangularity:
the ratio of its area to the area of its minimum rotated bounding
rectangle.  Large-and-rectangular reads as building, everything else as
terrain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .raster import GridSpec
from .slope import BreakMask, _check_threshold

_FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=np.int8)


@dataclass(frozen=True)
class FilterParams:
    """Classification parameters: slope threshold, area limits, rectangularity."""

    tau_deg: float = 45.0
    a1_m2: float = 40_000.0
    a2_m2: float = 100_000.0
    r: float = 0.5

    def __post_init__(self) -> None:
        _check_threshold(self.tau_deg)
        if not 0.0 < self.a1_m2 <= self.a2_m2:
            raise ParameterError(
                f"need 0 < a1 <= a2, got a1={self.a1_m2} a2={self.a2_m2}"
            )
        if not 0.0 < self.r <= 1.0:
            raise ParameterError(f"rectangularity limit must be in (0, 1], got {self.r}")


@dataclass
class Segmentation:
    """Labels 1..region_count for non-break pixels, 0 on break-lines."""

    grid: GridSpec
    label: np.ndarray
    region_count: int


@dataclass
class RegionStats:
    """Per-region geometry, index i holds label i + 1."""

    pixel_count: np.ndarray
    area_m2: np.ndarray
    mbr_area_m2: np.ndarray
    rectangularity: np.ndarray


@dataclass
class GroundMask:
    grid: GridSpec
    is_ground: np.ndarray


def label_4connected(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected components of ``mask``, labeled in row-major first-encounter order.

    scipy's raster scan gives that order itself: its union-find keeps the
    smaller provisional label, the one made at a component's first pixel.
    """
    from scipy import ndimage

    return ndimage.label(mask, structure=_FOUR, output=np.int32)


def label_regions(mask: BreakMask) -> Segmentation:
    lab, n = label_4connected(~mask.is_break)
    return Segmentation(mask.grid, lab, n)


def min_area_rect(points: np.ndarray) -> float:
    """Area of the minimum rotated rectangle enclosing an (n, 2) point set.

    Rotating calipers over the convex hull: the optimal rectangle has one
    side collinear with a hull edge, so checking every edge direction is
    exhaustive.
    """
    from scipy.spatial import ConvexHull, QhullError

    points = np.asarray(points, dtype=np.float64)
    try:
        hull = points[ConvexHull(points).vertices]  # counter-clockwise in 2-D
    except QhullError:
        return 0.0  # fewer than 3 distinct points or all collinear: zero area
    # start at the lexicographically smallest vertex, as a monotone chain
    # does, so the matrix products below always see the same array
    hull = np.roll(hull, -np.lexsort((hull[:, 1], hull[:, 0]))[0], axis=0)
    edges = np.diff(np.vstack([hull, hull[:1]]), axis=0)
    dirs = edges / np.hypot(edges[:, 0], edges[:, 1])[:, None]
    normals = np.column_stack([-dirs[:, 1], dirs[:, 0]])
    u = dirs @ hull.T
    v = normals @ hull.T
    areas = (u.max(axis=1) - u.min(axis=1)) * (v.max(axis=1) - v.min(axis=1))
    return float(areas.min())


def _region_boundary_corners(seg: Segmentation) -> tuple[np.ndarray, list[np.ndarray]]:
    """Pixel count per region, and its pixel-square corner points reduced to row extremes.

    Only the leftmost and rightmost pixel of each (region, row) pair can
    contribute hull vertices, so their corners are enough for an exact
    minimum-rectangle computation.  Both come from the horizontal runs of
    equal labels, not from every labelled pixel.
    """
    nrows, ncols = seg.grid.shape
    # a run starts where a row starts or its label changes; column ncols
    # ends every row
    edge = np.ones((nrows, ncols + 1), dtype=bool)
    np.not_equal(seg.label[:, 1:], seg.label[:, :-1], out=edge[:, 1:-1])
    bounds = np.flatnonzero(edge)
    del edge
    rows, first = np.divmod(bounds[:-1], ncols + 1)
    last = bounds[1:] % (ncols + 1) - 1
    runs = first < ncols  # not the pair from one row's end to the next row's start
    rows, first, last = rows[runs], first[runs], last[runs]
    labels = seg.label[rows, first]
    runs = labels != 0
    counts = np.bincount(
        labels[runs], weights=last[runs] - first[runs] + 1, minlength=seg.region_count + 1
    )[1:].astype(np.int64)
    if not runs.any():
        return counts, []
    # runs are row-major, so a stable sort by label orders by (label, row, col)
    order = np.flatnonzero(runs)[np.argsort(labels[runs], kind="stable")]
    labels, rows, first, last = labels[order], rows[order], first[order], last[order]
    group = labels.astype(np.int64) * nrows + rows
    starts = np.flatnonzero(np.diff(group, prepend=group[0] - 1))
    ends = np.append(starts[1:], group.size) - 1

    # per group: the four corners of its leftmost, then of its rightmost pixel
    corners = np.empty((starts.size, 8, 2))
    corners[:, :4, 0] = first[starts, None]
    corners[:, 4:, 0] = last[ends, None]
    corners[:, :, 1] = rows[starts, None]
    # x + [0, 1, 0, 1] and y + [0, 0, 1, 1] per pixel, in place
    corners[:, 1::2, 0] += 1
    corners[:, 2:4, 1] += 1
    corners[:, 6:, 1] += 1
    corners = corners.reshape(-1, 2)
    groups_per_region = np.bincount(labels[starts], minlength=seg.region_count + 1)[1:]
    return counts, np.split(corners, 8 * np.cumsum(groups_per_region)[:-1])


def region_stats(seg: Segmentation) -> RegionStats:
    """Pixel counts, areas and rectangularity for every region."""
    n = seg.region_count
    counts, region_corners = _region_boundary_corners(seg)
    cell2 = seg.grid.cell * seg.grid.cell
    area = counts * cell2

    mbr = np.empty(n, dtype=np.float64)
    for i, corners in enumerate(region_corners):
        mbr[i] = min_area_rect(corners) * cell2
    with np.errstate(divide="ignore", invalid="ignore"):
        rect = np.where(mbr > 0, area / mbr, 1.0)
    return RegionStats(counts, area, mbr, rect)


def region_rules(stats: RegionStats, params: FilterParams) -> dict[str, np.ndarray]:
    """Which rule of the enclosure classification decides each region.

    One boolean array per rule (index i holds label i + 1); every region
    is under exactly one.  area < a1 is non-ground, area > a2 is ground;
    areas inside the closed interval [a1, a2] are non-ground exactly when
    rectangularity > r.
    """
    area = stats.area_m2
    rect = stats.rectangularity
    mid = (area >= params.a1_m2) & (area <= params.a2_m2)
    return {
        "area_below_a1": area < params.a1_m2,
        "area_above_a2": area > params.a2_m2,
        "mid_rect_above_r": mid & (rect > params.r),
        "mid_rect_at_most_r": mid & (rect <= params.r),
    }


def region_ground_flags(stats: RegionStats, params: FilterParams) -> np.ndarray:
    """Ground decision per region (index i holds label i + 1); see ``region_rules``."""
    rules = region_rules(stats, params)
    return rules["area_above_a2"] | rules["mid_rect_at_most_r"]


def region_rule_counts(stats: RegionStats, params: FilterParams) -> dict[str, dict[str, int]]:
    """Per rule of ``region_rules``, the regions it decides and their pixels."""
    return {
        name: {"regions": int(under.sum()), "px": int(stats.pixel_count[under].sum())}
        for name, under in region_rules(stats, params).items()
    }


def classify_regions(
    seg: Segmentation, stats: RegionStats, params: FilterParams
) -> GroundMask:
    """Apply the enclosure rule region by region; break pixels are non-ground."""
    ground = np.zeros(seg.region_count + 1, dtype=bool)  # label 0 = break
    ground[1:] = region_ground_flags(stats, params)
    return GroundMask(seg.grid, ground[seg.label])


def region_report_rows(
    stats: RegionStats, params: FilterParams
) -> list[tuple[int, float, float, str]]:
    """Rows (label, area_m2, rectangularity, class) for the per-region CSV."""
    flags = region_ground_flags(stats, params)
    return [
        (
            i + 1,
            float(stats.area_m2[i]),
            float(stats.rectangularity[i]),
            "ground" if flags[i] else "non_ground",
        )
        for i in range(len(stats.pixel_count))
    ]

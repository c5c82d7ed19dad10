"""Water-body detection from return density and per-segment elevations.

Water hardly reflects near-infrared laser pulses, so water pixels show
up as low-occupancy neighbourhoods in the raster *before* void filling.
The decision threshold is the lower confidence bound of a binomial
B(N, P/2) under its normal approximation, where N is the window size in
pixels and P the fraction of non-void cells; halving P compensates for
scan-overlap density imbalance.  Each detected segment is flattened to
the nearest-rank 10th percentile of its occupied-cell elevations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .groundfilter import label_4connected
from .interp import SOURCE_WATER, DtmRaster
from .raster import GridSpec, SparseDsm, nearest_donor_indices
from .slope import _STRIP_ROWS


@dataclass(frozen=True)
class WaterParams:
    """Detection window, confidence multiplier and percentile settings.

    The density-halving factor (p = P/2) is fixed, not configurable.
    """

    window: int = 9
    k: float = 4.0
    percentile: float = 0.10
    min_segment_px: int = 0

    def __post_init__(self) -> None:
        if self.window < 3 or self.window % 2 == 0:
            raise ParameterError(f"window must be odd and >= 3, got {self.window}")
        if not 0 <= self.k < math.inf:
            raise ParameterError(f"confidence multiplier must be in [0, inf), got {self.k}")
        if not 0.0 < self.percentile < 1.0:
            raise ParameterError(f"percentile must be in (0, 1), got {self.percentile}")
        if self.min_segment_px < 0:
            raise ParameterError(f"min_segment_px must be >= 0, got {self.min_segment_px}")


@dataclass
class WaterSegment:
    id: int
    pixels: np.ndarray  # flat raster indices
    elevation: float

    @property
    def pixel_count(self) -> int:
        return int(self.pixels.size)


@dataclass
class WaterMap:
    grid: GridSpec
    is_water: np.ndarray
    label: np.ndarray
    segments: list[WaterSegment] = field(default_factory=list)


def nonvoid_fraction(occupancy: np.ndarray) -> tuple[int, float]:
    """The count of non-void cells and P, their fraction of all cells."""
    if occupancy.size == 0:
        raise ParameterError("occupancy raster is empty")
    nonvoid = int(np.count_nonzero(occupancy > 0))
    return nonvoid, nonvoid / occupancy.size


def water_threshold(occupancy: np.ndarray, wp: WaterParams) -> int:
    """Point-count decision threshold from the windowed density statistics."""
    p = nonvoid_fraction(occupancy)[1] / 2.0
    n = wp.window * wp.window
    mean = n * p
    sd = math.sqrt(n * p * (1.0 - p))
    return max(0, math.floor(mean - wp.k * sd))


def window_sums(
    arr: np.ndarray, window: int, r0: int = 0, r1: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Edge-truncated centered window sums and visible-pixel counts of rows ``r0:r1``.

    The sums are two zero-padded correlations with a window of ones, one
    along each axis, over the rows ``r0:r1`` and the ``window // 2`` rows
    on either side that the raster has.  scipy adds in float64, which is
    exact while every partial sum stays below 2**53; no window sum of an
    occupancy raster can exceed its point count, far below that bound.
    """
    from scipy import ndimage

    nrows, ncols = arr.shape
    r1 = nrows if r1 is None else r1
    half = window // 2
    b0 = max(r0 - half, 0)
    ones = np.ones(window)
    sums = ndimage.correlate1d(
        arr[b0 : min(r1 + half, nrows)], ones, axis=1, output=np.int64, mode="constant"
    )
    # zero padding is right at the raster's own edges; the rows it gets
    # wrong at a band edge inside the raster are the halo, cut off here
    ndimage.correlate1d(sums, ones, axis=0, output=sums, mode="constant")
    r = np.arange(r0, r1)
    c = np.arange(ncols)
    visible = np.outer(
        np.minimum(r + half + 1, nrows) - np.maximum(r - half, 0),
        np.minimum(c + half + 1, ncols) - np.maximum(c - half, 0),
    )
    return sums[r0 - b0 : r1 - b0], visible


def water_mask(occupancy: np.ndarray, threshold: int, wp: WaterParams) -> np.ndarray:
    """Pixels whose windowed point count is strictly below the threshold.

    Truncated edge windows scale the threshold proportionally to the
    visible pixel count (ceiling), instead of zero-padding which would
    fabricate water along the border.  The mask is computed in strips of
    ``_STRIP_ROWS`` rows; the sums are exact integers, so each pixel gets
    the value of a whole-raster pass.
    """
    mask = np.zeros(occupancy.shape, dtype=bool)
    if threshold <= 0:
        return mask
    nrows = occupancy.shape[0]
    for r0 in range(0, nrows, _STRIP_ROWS):
        r1 = min(r0 + _STRIP_ROWS, nrows)
        sums, t_eff = window_sums(occupancy, wp.window, r0, r1)
        # ceil(threshold * visible / n) in place; a full window keeps threshold
        t_eff *= -threshold
        t_eff //= wp.window * wp.window
        np.negative(t_eff, out=t_eff)
        np.less(sums, t_eff, out=mask[r0:r1])
    return mask


def nearest_rank(values: np.ndarray, q: float) -> float:
    """Order statistic at 1-based index ceil(q * n) of the ascending sort."""
    s = np.sort(np.asarray(values, dtype=np.float64))
    if s.size == 0:
        raise ValueError("nearest_rank of an empty set")
    k = max(1, math.ceil(q * s.size - 1e-9))
    return float(s[k - 1])


def label_pixels(label: np.ndarray, n: int) -> list[np.ndarray]:
    """Flat indices of the pixels of each label 1..n, ascending, from one pass over ``label``.

    Pixels with label 0 belong to no label; ``label`` holds no label above ``n``.
    """
    if n == 0:
        return []
    flat = label.ravel()
    pixels = np.flatnonzero(flat != 0)  # a bool scan: 8x faster than one of int32
    labels = flat[pixels]
    # a stable sort keeps each label's pixels in ascending order
    pixels = pixels[np.argsort(labels, kind="stable")]
    return np.split(pixels, np.cumsum(np.bincount(labels, minlength=n + 1)[1:n]))


def water_segments(mask: np.ndarray, sparse: SparseDsm, wp: WaterParams) -> WaterMap:
    """Group water pixels into 4-connected segments and assign elevations.

    Segments smaller than ``min_segment_px`` are discarded.  A segment's
    elevation is the nearest-rank percentile of the elevations of its
    occupied cells; a segment with no occupied cell takes the elevation
    of the occupied cell nearest to the segment (smallest row-major donor
    on ties).  With no occupied cell anywhere the elevation is NaN.
    """
    if mask.shape != sparse.grid.shape:
        raise ValueError("mask and raster dimensions differ")
    lab, n = label_4connected(mask)
    if n == 0:
        return WaterMap(sparse.grid, np.zeros_like(mask), lab, [])

    counts = np.bincount(lab.ravel(), minlength=n + 1)
    keep = np.flatnonzero(counts[1:] >= wp.min_segment_px) + 1
    lut = np.zeros(n + 1, dtype=np.int32)
    lut[keep] = np.arange(1, keep.size + 1, dtype=np.int32)
    lab = lut[lab]
    n = int(keep.size)

    occupied = sparse.occupancy > 0
    elev = sparse.elev.ravel()
    segments: list[WaterSegment] = []
    dry: list[WaterSegment] = []
    for seg_id, pixels in enumerate(label_pixels(lab, n), start=1):
        segments.append(WaterSegment(seg_id, pixels, float("nan")))
        occ_px = pixels[occupied.ravel()[pixels]]
        if occ_px.size:
            segments[-1].elevation = nearest_rank(elev[occ_px], wp.percentile)
        else:
            dry.append(segments[-1])

    if dry and occupied.any():
        # one lookup for the pixels of every segment without an occupied cell
        pixels = np.concatenate([seg.pixels for seg in dry])
        donor = nearest_donor_indices(occupied, pixels)
        ncols = sparse.grid.ncols
        d2 = (pixels // ncols - donor // ncols) ** 2 + (pixels % ncols - donor % ncols) ** 2
        split = np.cumsum([seg.pixel_count for seg in dry])[:-1]
        for seg, seg_d2, seg_donor in zip(dry, np.split(d2, split), np.split(donor, split)):
            # closest occupied cell over the whole segment, deterministic ties
            seg.elevation = float(elev[seg_donor[np.argmin(seg_d2)]])

    return WaterMap(sparse.grid, lab > 0, lab, segments)


def apply_water(dtm: DtmRaster, water: WaterMap) -> DtmRaster:
    """Replace water-pixel elevations with their segment elevation."""
    if dtm.grid != water.grid:
        raise ValueError("DTM and water map grids differ")
    elev = dtm.elev.copy()
    source = dtm.source.copy()
    flat = elev.ravel()
    for seg in water.segments:
        flat[seg.pixels] = seg.elevation
    source[water.is_water] = SOURCE_WATER
    return DtmRaster(dtm.grid, elev, source)

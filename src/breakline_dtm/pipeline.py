"""End-to-end conversion of a point cloud into a seamless DTM raster.

Stages: ingest -> min-z rasterization -> void fill -> slope map ->
break-line mask -> region labeling and enclosure classification ->
interpolation of non-ground pixels -> water mapping on the
pre-interpolation occupancy -> water flattening.  The run report echoes
every effective parameter so a result is reproducible from the report
alone.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np

from . import _imports_without_collection
from .errors import InsufficientGroundError, ParameterError, PipelineError
from .groundfilter import (
    FilterParams,
    GroundMask,
    RegionStats,
    Segmentation,
    classify_regions,
    label_regions,
    region_rule_counts,
    region_stats,
)
from .ingest import BBox, PointCloud, bounds, read_points
from .interp import (
    SOURCE_INTERPOLATED,
    SOURCE_MEASURED,
    SOURCE_WATER,
    DtmRaster,
    interpolate_nonground,
)
from .raster import (
    Dsm,
    GridSpec,
    SparseDsm,
    _check_cell,
    _check_workers,
    fill_voids_nearest,
    make_grid_spec,
    rasterize_min,
)
from .slope import BreakMask, SlopeMap, break_line_mask, slope_map
from .water import (
    WaterMap,
    WaterParams,
    apply_water,
    label_pixels,
    nonvoid_fraction,
    water_mask,
    water_segments,
    water_threshold,
)


@dataclass(frozen=True)
class PipelineConfig:
    cell: float = 0.5
    filter_params: FilterParams = field(default_factory=FilterParams)
    water_params: WaterParams = field(default_factory=WaterParams)
    strict_parse: bool = False
    workers: int = 1
    crop: BBox | None = None
    # keep the sparse DSM and the DSM, slope, break and label rasters in the
    # result; without them each is freed once its last stage has read it
    intermediates: bool = True

    def __post_init__(self) -> None:
        # checked here, before any input is read
        _check_cell(self.cell)
        _check_workers(self.workers)

    def parameter_echo(self) -> dict:
        """Every effective parameter, spelled out for the run report."""
        return {
            "cell_m": self.cell,
            "slope_threshold_deg": self.filter_params.tau_deg,
            "a1_m2": self.filter_params.a1_m2,
            "a2_m2": self.filter_params.a2_m2,
            "rectangularity": self.filter_params.r,
            "window_px": self.water_params.window,
            "confidence": self.water_params.k,
            "percentile": self.water_params.percentile,
            "min_segment_px": self.water_params.min_segment_px,
            "strict_parse": self.strict_parse,
            "workers": self.workers,
            "crop": None if self.crop is None else list(astuple(self.crop)),
        }


@dataclass
class PipelineResult:
    dtm: DtmRaster
    ground: GroundMask
    water: WaterMap
    sparse: SparseDsm | None
    dsm: Dsm | None
    slope: SlopeMap | None
    breaks: BreakMask | None
    segmentation: Segmentation | None
    stats: RegionStats
    report: dict


# ru_maxrss is in KiB on Linux and in bytes on macOS
_MAXRSS_BYTES = 1 if sys.platform == "darwin" else 1024


def _peak_rss_mb() -> float:
    """The process's peak resident memory so far, in MB.

    On Linux, ``VmHWM``: the peak of this program alone, where
    ``ru_maxrss`` also keeps that of the process it was forked from.
    Elsewhere, ``ru_maxrss``.
    """
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024  # kB
    except OSError:  # no procfs
        pass
    import resource  # here, so that only a pipeline run loads it

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _MAXRSS_BYTES / 2**20


class _StageTimer:
    """Wall time of each stage in seconds (to 1 us), and the process's peak RSS when it ended."""

    def __init__(self) -> None:
        self.timings: dict[str, float] = {}
        self.peak_rss_mb: dict[str, float] = {}

    def run(self, name: str, fn):
        start = time.perf_counter()
        try:
            result = fn()
        except PipelineError as exc:
            exc.args = (f"[stage {name}] {exc}",)
            raise
        self.timings[name] = round(time.perf_counter() - start, 6)
        self.peak_rss_mb[name] = round(_peak_rss_mb(), 3)
        return result


def crop_window(grid: GridSpec, crop: BBox) -> tuple[slice, slice, GridSpec]:
    """Cell window covering ``crop``; ``run_pipeline`` decides it before binning a point."""
    c0 = max(0, int(np.floor((crop.min_x - grid.origin_x) / grid.cell + 1e-9)))
    r0 = max(0, int(np.floor((crop.min_y - grid.origin_y) / grid.cell + 1e-9)))
    c1 = min(grid.ncols, int(np.ceil((crop.max_x - grid.origin_x) / grid.cell - 1e-9)))
    r1 = min(grid.nrows, int(np.ceil((crop.max_y - grid.origin_y) / grid.cell - 1e-9)))
    if c1 <= c0 or r1 <= r0:
        raise ParameterError(f"crop window {crop} does not intersect the data grid")
    sub = GridSpec(
        grid.origin_x + c0 * grid.cell,
        grid.origin_y + r0 * grid.cell,
        grid.cell,
        c1 - c0,
        r1 - r0,
    )
    return slice(r0, r1), slice(c0, c1), sub


def _ground_rule_text(stats: RegionStats, params: FilterParams) -> str:
    """Which enclosure rules decided the regions, for a run that found too little ground.

    Only a region over ``a2_m2``, or one in [a1_m2, a2_m2] with
    rectangularity at most ``r``, is ground; the limits and the regions
    (and pixels) under each rule say which limit to change.
    """
    counts = region_rule_counts(stats, params)
    rules = ", ".join(
        f"{name} {c['regions']} ({c['px']} px)" for name, c in counts.items()
    )
    return (
        f"ground regions are those above a2 = {params.a2_m2:g} m^2, or in "
        f"[a1 = {params.a1_m2:g}, a2] m^2 with rectangularity <= r = {params.r:g} "
        f"(--a1, --a2, --rectangularity); regions by rule: {rules}"
    )


def _import_scipy() -> None:
    """Load the scipy modules that the stages import on their first call.

    As a stage of its own, the one-off load is not charged to whichever
    stage happens to call scipy first.  The load runs with the cyclic
    collector paused, and what it made is left to full collections
    (``breakline_dtm._imports_without_collection``).  ``ConvexHull``
    reads ``numpy.ma`` to reject masked input, and the command line
    defers that submodule (``breakline_dtm._defer_numpy_submodules``);
    the from-import reads it, so it loads here too.
    """
    with _imports_without_collection():
        import scipy.ndimage  # noqa: F401
        import scipy.spatial  # noqa: F401
        from numpy.ma import MaskedArray  # noqa: F401


def run_pipeline(source, cfg: PipelineConfig | None = None) -> PipelineResult:
    """Run the whole chain on a path, bytes, stream or PointCloud."""
    cfg = cfg or PipelineConfig()
    timer = _StageTimer()
    timer.run("scipy_import", _import_scipy)

    if isinstance(source, PointCloud):
        pc = source
    else:
        pc = timer.run("ingest", lambda: read_points(source, cfg.strict_parse))

    bbox = timer.run("bounds", lambda: bounds(pc))
    grid = make_grid_spec(bbox, cfg.cell)
    window = None if cfg.crop is None else crop_window(grid, cfg.crop)
    sparse = timer.run("rasterize", lambda: rasterize_min(pc, grid, cfg.workers))
    points = {
        "points": pc.count,
        "dropped_nonfinite": pc.dropped_nonfinite,
        "skipped_records": pc.skipped_records,
        "out_of_bounds": sparse.oob_dropped,
    }
    del pc  # binned: the points read here are freed; a caller's cloud stays the caller's
    dsm = timer.run("fill_voids", lambda: fill_voids_nearest(sparse))
    slp = timer.run("slope", lambda: slope_map(dsm))
    breaks = timer.run(
        "break_lines", lambda: break_line_mask(slp, cfg.filter_params.tau_deg)
    )
    seg = timer.run("label_regions", lambda: label_regions(breaks))
    stats = timer.run("region_stats", lambda: region_stats(seg))
    ground = timer.run(
        "classify", lambda: classify_regions(seg, stats, cfg.filter_params)
    )
    region_count = seg.region_count
    if not cfg.intermediates:
        slp = breaks = seg = None  # read by no later stage
    try:
        dtm_land = timer.run("interpolate", lambda: interpolate_nonground(dsm, ground))
    except InsufficientGroundError as exc:
        raise InsufficientGroundError(
            f"{exc}; {_ground_rule_text(stats, cfg.filter_params)}"
        ) from None
    if not cfg.intermediates:
        dsm = None

    threshold = timer.run(
        "water_threshold", lambda: water_threshold(sparse.occupancy, cfg.water_params)
    )
    wmask = timer.run(
        "water_mask", lambda: water_mask(sparse.occupancy, threshold, cfg.water_params)
    )
    wmap = timer.run(
        "water_segments", lambda: water_segments(wmask, sparse, cfg.water_params)
    )
    nonvoid, fraction = nonvoid_fraction(sparse.occupancy)
    if not cfg.intermediates:
        sparse = None
    dtm = timer.run("apply_water", lambda: apply_water(dtm_land, wmap))

    # counted code by code on the uint8 raster: bincount would cast it to int64
    source_px = {
        name: int(np.count_nonzero(dtm.source == code))
        for name, code in (
            ("measured", SOURCE_MEASURED),
            ("interpolated", SOURCE_INTERPOLATED),
            ("water", SOURCE_WATER),
        )
    }
    report = {
        "parameters": cfg.parameter_echo(),
        "input": points,
        "grid": asdict(grid),
        "density": {
            "nonvoid_cells": nonvoid,
            "total_cells": grid.nrows * grid.ncols,
            "P": fraction,
            "water_threshold": int(threshold),
        },
        "regions": {
            "count": region_count,
            "ground_px": int(ground.is_ground.sum()),
            "nonground_px": int((~ground.is_ground).sum()),
            "by_rule": region_rule_counts(stats, cfg.filter_params),
        },
        "water": {
            "segment_count": len(wmap.segments),
            "water_px": int(wmap.is_water.sum()),
        },
        "source_px": source_px,
        "timings_s": timer.timings,
        "peak_rss_mb": timer.peak_rss_mb,
    }

    result = PipelineResult(dtm, ground, wmap, sparse, dsm, slp, breaks, seg, stats, report)
    if window is not None:
        result = _crop_result(result, *window)
    return result


def _crop_result(res: PipelineResult, rs: slice, cs: slice, sub: GridSpec) -> PipelineResult:
    """Cut every raster field (one that carries a ``grid``) to the window ``crop_window`` gave.

    Scalars, ``stats`` and ``report`` describe the full run and stay as
    they are.  Water segments keep their pixels inside the window; a
    segment with none there is dropped.
    """
    res.report["grid_cropped"] = asdict(sub)

    def cut(raster):
        arrays = {
            f.name: getattr(raster, f.name)[rs, cs].copy()
            for f in fields(raster)
            if isinstance(getattr(raster, f.name), np.ndarray)
        }
        return replace(raster, grid=sub, **arrays)

    cropped = {
        f.name: cut(getattr(res, f.name))
        for f in fields(res)
        if hasattr(getattr(res, f.name), "grid")
    }
    water = cropped["water"]
    # segment ids are 1..n, so the pixels of segment i are pixels[i - 1]
    pixels = label_pixels(water.label, len(water.segments))
    segments = [replace(seg, pixels=pixels[seg.id - 1]) for seg in water.segments]
    water.segments = [seg for seg in segments if seg.pixels.size]
    return replace(res, **cropped)

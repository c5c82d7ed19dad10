"""Seamless DTM extraction from airborne LiDAR via break-line enclosure.

Each public name is loaded from its module on first access, so
``import breakline_dtm`` loads no numpy; the command line can then set
``OPENBLAS_NUM_THREADS`` before numpy starts its BLAS threads.
"""

# the module each public name lives in
_EXPORTS = {
    name: module
    for module, names in {
        "errors": (
            "AllVoidError",
            "BadThresholdError",
            "EmptyExtentError",
            "EmptyInputError",
            "GridMismatchError",
            "GridTooSmallError",
            "HeaderMismatchError",
            "InputDataError",
            "InsufficientGroundError",
            "MalformedRecordError",
            "NonPositiveCellError",
            "ParameterError",
            "PipelineError",
            "UnsupportedFormatError",
        ),
        "groundfilter": (
            "FilterParams",
            "GroundMask",
            "RegionStats",
            "Segmentation",
            "classify_regions",
            "label_regions",
            "min_area_rect",
            "region_stats",
        ),
        "ingest": ("BBox", "PointCloud", "bounds", "read_points", "write_points_xyz"),
        "interp": (
            "SOURCE_INTERPOLATED",
            "SOURCE_MEASURED",
            "SOURCE_WATER",
            "DtmRaster",
            "interpolate_nonground",
        ),
        "pipeline": ("PipelineConfig", "PipelineResult", "run_pipeline"),
        "raster": (
            "Dsm",
            "GridSpec",
            "SparseDsm",
            "fill_voids_nearest",
            "make_grid_spec",
            "rasterize_min",
        ),
        "scene": ("Scene", "load_scene", "sample_points", "truth_rasters"),
        "slope": ("BreakMask", "SlopeMap", "break_line_mask", "slope_map"),
        "tiling": ("TileReport", "compare_tiled"),
        "water": (
            "WaterMap",
            "WaterParams",
            "apply_water",
            "nearest_rank",
            "water_mask",
            "water_segments",
            "water_threshold",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module

    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))

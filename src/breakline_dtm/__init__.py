"""Seamless DTM extraction from airborne LiDAR via break-line enclosure.

Each public name is loaded from its module on first access, so
``import breakline_dtm`` loads no numpy; the command line can then set
``OPENBLAS_NUM_THREADS`` before numpy starts its BLAS threads.
"""

import gc
import sys
from contextlib import contextmanager

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


@contextmanager
def _imports_without_collection():
    """Run a block of imports with the cyclic collector paused, then give its state back.

    A module load makes tens of thousands of objects that stay alive,
    and the collector's passes during it free almost nothing.  A pause
    alone only defers them: the first pass after it would walk every
    object the load made.  So once the block has loaded a module, every
    tracked object moves to the oldest generation, where only a full
    collection looks at it; ``gc.freeze()`` then ``gc.unfreeze()`` walk
    nothing and leave nothing frozen.  A caller that froze objects
    itself gets no move, since the unfreeze would release them too.
    The caller's collector state comes back, also when the block raises.
    """
    enabled = gc.isenabled()
    modules = len(sys.modules)
    gc.disable()
    try:
        yield
    finally:
        if len(sys.modules) > modules and gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()


def _defer_numpy_submodules() -> None:
    """Make each numpy submodule that numpy loads on first access load on first use instead.

    ``scipy.ndimage`` and ``scipy.spatial`` read every name in
    ``dir(numpy)`` as they load, and each read of such a name imports a
    submodule that no stage uses (``numpy.f2py`` pulls in
    ``charset_normalizer``, ``numpy.testing`` pulls in ``unittest``).  Each
    one becomes a ``LazyLoader`` module, in ``sys.modules`` and bound on
    numpy, that runs its code the first time one of its attributes is
    read.  An import binds the submodule it loads on numpy, so a
    submodule already loaded, or deferred by an earlier call, is not
    among those names and keeps its module.  The process-wide change is
    the command line's to make: it runs before any thread exists, as
    Python 3.11's ``LazyLoader`` is not thread-safe.
    """
    import importlib.util

    import numpy

    for name in sorted(set(dir(numpy)) - set(vars(numpy))):
        spec = importlib.util.find_spec(f"numpy.{name}")
        if spec is None:
            continue
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        # bound on numpy too, or ``import numpy.typing`` reads numpy's
        # __getattr__, which imports the submodule again: a recursion
        setattr(numpy, name, module)

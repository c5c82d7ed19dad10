"""Command-line entry points.

Subcommands:
  dtm      point cloud -> DTM raster, masks, CSV reports and a JSON run report
  slope    point cloud -> slope map and break-line mask rasters
  water    point cloud -> water mask raster and per-segment CSV
  compare  two rasters -> tiled MAE/RMSE report
  synth    scene description -> XYZ point cloud plus truth rasters

Exit codes: 0 success, 2 input error, 3 parameter error, 4 unexpected
internal failure.  Malformed command lines exit with 2 via argparse.
"""

from __future__ import annotations

import os

# numpy and scipy each start an OpenBLAS thread pool as they load, sized
# by this variable, so it is set before any import that loads numpy: a
# pool of more threads slows both imports (README, "Operations") and no
# stage gains from it. A value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import _defer_numpy_submodules, _imports_without_collection

# numpy loads here, and what the imports make is left to full
# collections. scene is imported by synth alone; tiling stays here, as
# perfbench/traced.py wraps compare's calls in this module's namespace
with _imports_without_collection():
    import argparse
    import atexit
    import functools
    import gc
    import json
    import sys
    from pathlib import Path

    from .asciigrid import write_ascii_grid
    from .errors import InputDataError, ParameterError, PipelineError
    from .groundfilter import FilterParams, region_report_rows
    from .ingest import BBox, bounds, read_points, write_blocks, write_csv, write_points_xyz
    from .pipeline import PipelineConfig, _peak_rss_mb, _StageTimer, run_pipeline
    from .raster import fill_voids_nearest, make_grid_spec, rasterize_min
    from .slope import break_line_mask, slope_map
    from .tiling import compare_grid_files, write_tile_csv
    from .water import WaterParams, nonvoid_fraction, water_mask, water_segments, water_threshold


def _add_slope_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--slope-threshold",
        type=float,
        default=FilterParams.tau_deg,
        help="break-line slope threshold in degrees",
    )


def _add_filter_flags(p: argparse.ArgumentParser) -> None:
    _add_slope_flag(p)
    p.add_argument("--a1", type=float, default=FilterParams.a1_m2, help="low area limit in m^2")
    p.add_argument("--a2", type=float, default=FilterParams.a2_m2, help="high area limit in m^2")
    p.add_argument(
        "--rectangularity",
        type=float,
        default=FilterParams.r,
        help="rectangularity limit for mid-sized regions",
    )


def _add_water_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--window", type=int, default=WaterParams.window, help="water detection window (odd)"
    )
    p.add_argument(
        "--confidence", type=float, default=WaterParams.k, help="confidence multiplier k"
    )
    p.add_argument(
        "--percentile",
        type=float,
        default=WaterParams.percentile,
        help="per-segment elevation percentile",
    )
    p.add_argument(
        "--min-segment-px",
        type=int,
        default=WaterParams.min_segment_px,
        help="drop water segments smaller than this many pixels",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="breakline-dtm",
        description="Seamless DTM extraction from airborne LiDAR point clouds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags of every subcommand that reads a point cloud; defaults are the dataclasses'
    cloud = argparse.ArgumentParser(add_help=False)
    cloud.add_argument("input", help="point cloud file (XYZ text or LAS)")
    cloud.add_argument("--out-dir", default=".", help="output directory")
    cloud.add_argument(
        "--cell", type=float, default=PipelineConfig.cell, help="grid cell size in meters"
    )
    cloud.add_argument("--strict", action="store_true", help="abort on the first malformed record")
    cloud.add_argument(
        "--workers",
        type=int,
        default=PipelineConfig.workers,
        help="checked (>= 1) and echoed in report.json; changes nothing a run does",
    )

    p_dtm = sub.add_parser("dtm", parents=[cloud], help="run the full pipeline")
    _add_filter_flags(p_dtm)
    _add_water_flags(p_dtm)
    p_dtm.add_argument(
        "--crop",
        type=float,
        nargs=4,
        metavar=("MIN_X", "MIN_Y", "MAX_X", "MAX_Y"),
        help="process the full input, then crop outputs to this extent "
        "(buffered-extent workflow for clean data edges)",
    )
    p_dtm.add_argument(
        "--emit-intermediates",
        action="store_true",
        help="also write DSM, slope, break and label rasters",
    )

    p_slope = sub.add_parser("slope", parents=[cloud], help="slope map and break-line mask only")
    _add_slope_flag(p_slope)

    p_water = sub.add_parser("water", parents=[cloud], help="water mask and segment table only")
    _add_water_flags(p_water)

    p_cmp = sub.add_parser("compare", help="tiled MAE/RMSE between two rasters")
    p_cmp.add_argument("raster_a")
    p_cmp.add_argument("raster_b")
    p_cmp.add_argument("--mask", help="ASCII grid; nonzero pixels are excluded")
    p_cmp.add_argument("--tile-px", type=int, default=1000)
    p_cmp.add_argument("--out", default="tiles.csv", help="output CSV path")
    p_cmp.add_argument("--top", type=int, default=5, help="print the N worst tiles")

    p_synth = sub.add_parser("synth", help="generate a synthetic scene")
    p_synth.add_argument("scene", help="scene description file")
    p_synth.add_argument("--out-dir", default=".")
    p_synth.add_argument("--cell", type=float, default=0.5, help="truth raster cell")
    p_synth.add_argument("--seed", type=int, help="override the scene seed")
    p_synth.add_argument("--density", type=float, help="override points per m^2")
    return parser


def _crop_bbox(values) -> BBox:
    try:
        return BBox(*values)
    except ValueError as exc:
        raise ParameterError(f"bad --crop extent: {exc}") from None


def _cloud_config(args, **params) -> PipelineConfig:
    """A point-cloud command's checked parameters; made first, so a bad one exits 3 before I/O."""
    return PipelineConfig(cell=args.cell, strict_parse=args.strict, workers=args.workers, **params)


def _water_params(args) -> WaterParams:
    return WaterParams(args.window, args.confidence, args.percentile, args.min_segment_px)


def _cmd_dtm(args) -> int:
    cfg = _cloud_config(
        args,
        filter_params=FilterParams(args.slope_threshold, args.a1, args.a2, args.rectangularity),
        water_params=_water_params(args),
        crop=None if args.crop is None else _crop_bbox(args.crop),
        intermediates=args.emit_intermediates,
    )
    res = run_pipeline(args.input, cfg)
    # made once the results exist, so a run that fails leaves no directory
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    grid = res.dtm.grid
    rasters = {
        "dtm.asc": res.dtm.elev,
        "ground_mask.asc": res.ground.is_ground,
        "water_mask.asc": res.water.is_water,
    }
    if args.emit_intermediates:
        rasters |= {
            "dsm.asc": res.dsm.elev,
            "occupancy.asc": res.sparse.occupancy,
            "slope.asc": res.slope.slope_deg,
            "break_mask.asc": res.breaks.is_break,
            "labels.asc": res.segmentation.label,
            "source.asc": res.dtm.source,
        }
    writes = _StageTimer()  # each raster write timed as run_pipeline times a stage
    for name, values in rasters.items():
        writes.run(name, functools.partial(write_ascii_grid, values, grid, out / name))
    regions = region_report_rows(res.stats, cfg.filter_params)
    write_csv(out / "regions.csv", ["label", "area_m2", "rectangularity", "class"], regions)
    _write_water_csv(out / "water_segments.csv", res.water)
    # written last, so the report can carry the time and memory of every raster write
    report = {**res.report, "writes_s": writes.timings}
    report["writes_peak_rss_mb"] = round(_peak_rss_mb(), 3)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    write_blocks(out / "report.json", [text.encode()])

    print(f"DTM written to {out / 'dtm.asc'}")
    print(
        f"grid {grid.ncols}x{grid.nrows} @ {grid.cell} m | "
        f"regions {res.report['regions']['count']} | "
        f"water segments {len(res.water.segments)} | "
        f"P {res.report['density']['P']:.4f} T {res.report['density']['water_threshold']}"
    )
    return 0


def _write_water_csv(path: Path, wmap) -> None:
    rows = ([seg.id, seg.pixel_count, seg.elevation] for seg in wmap.segments)
    write_csv(path, ["id", "pixel_count", "elevation"], rows)


def _read_to_dsm(path, cfg: PipelineConfig):
    pc = read_points(path, cfg.strict_parse)
    return rasterize_min(pc, make_grid_spec(bounds(pc), cfg.cell), cfg.workers)


def _cmd_slope(args) -> int:
    cfg = _cloud_config(args, filter_params=FilterParams(args.slope_threshold))
    sparse = _read_to_dsm(args.input, cfg)
    dsm = fill_voids_nearest(sparse)
    slp = slope_map(dsm)
    mask = break_line_mask(slp, cfg.filter_params.tau_deg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_ascii_grid(slp.slope_deg, slp.grid, out / "slope.asc")
    write_ascii_grid(mask.is_break, mask.grid, out / "break_mask.asc")
    print(f"slope map written to {out / 'slope.asc'}")
    return 0


def _cmd_water(args) -> int:
    wp = _water_params(args)
    cfg = _cloud_config(args, water_params=wp)
    sparse = _read_to_dsm(args.input, cfg)
    threshold = water_threshold(sparse.occupancy, wp)
    mask = water_mask(sparse.occupancy, threshold, wp)
    wmap = water_segments(mask, sparse, wp)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_ascii_grid(wmap.is_water, wmap.grid, out / "water_mask.asc")
    _write_water_csv(out / "water_segments.csv", wmap)
    print(
        f"P {nonvoid_fraction(sparse.occupancy)[1]:.4f} | threshold {threshold} | "
        f"segments {len(wmap.segments)}"
    )
    return 0


def _cmd_compare(args) -> int:
    if args.top < 0:
        raise ParameterError(f"--top must be >= 0, got {args.top}")
    # a fault found in any file raises before anything is printed or written
    report = compare_grid_files(args.raster_a, args.raster_b, args.mask, args.tile_px)
    write_tile_csv(report, args.out)
    if report.global_mae is None:
        print("no valid pixels to compare")
        return 0
    print(
        f"global MAE {report.global_mae:.4f} m | RMSE {report.global_rmse:.4f} m | "
        f"valid px {report.total_valid}"
    )
    for rank, (tr, tc) in enumerate(report.ranking[: args.top], start=1):
        tile = next(t for t in report.tiles if (t.row, t.col) == (tr, tc))
        print(f"  #{rank} tile ({tr},{tc}) MAE {tile.mae:.4f} RMSE {tile.rmse:.4f}")
    print(f"tile report written to {args.out}")
    return 0


def _cmd_synth(args) -> int:
    from .scene import load_scene, sample_points, truth_rasters

    scn = load_scene(Path(args.scene))  # a path, never scene text
    grid = make_grid_spec(scn.extent, args.cell)
    pc = sample_points(scn, density=args.density, seed=args.seed)  # checks density and seed first
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_points_xyz(pc, out / "points.xyz")
    truth = truth_rasters(scn, grid)
    write_ascii_grid(truth.dtm, grid, out / "truth_dtm.asc")
    write_ascii_grid(truth.ground_mask, grid, out / "truth_ground.asc")
    write_ascii_grid(truth.water_mask, grid, out / "truth_water.asc")
    print(f"{pc.count} points written to {out / 'points.xyz'}")
    return 0


_COMMANDS = {
    "dtm": _cmd_dtm,
    "slope": _cmd_slope,
    "water": _cmd_water,
    "compare": _cmd_compare,
    "synth": _cmd_synth,
}


@functools.cache  # one registration per process, however often main runs
def _freeze_heap_at_exit() -> None:
    """Move every live object to the collector's permanent generation as the interpreter exits.

    Finalization's collections then skip scipy's module graph: with
    scipy loaded, exit took 19 ms against 93 ms without the freeze
    (2-vCPU VM, medians of 12 runs each).  The freeze runs at exit, after
    every output is closed, so an in-process caller's heap is never
    frozen; atexit handlers registered before it run after it.
    """
    atexit.register(gc.freeze)


def main(argv: list[str] | None = None) -> int:
    _freeze_heap_at_exit()
    # the process is the command line's, so scipy's load may skip the
    # numpy submodules it reads but no command uses
    with _imports_without_collection():
        _defer_numpy_submodules()
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 3
    except (InputDataError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - invariant violations map to 4
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

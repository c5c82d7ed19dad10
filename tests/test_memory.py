"""Transient memory of the heaviest stages and grid reads on a 600x600 grid.

Each bound is the traced peak a stage may allocate above what was
allocated when it was entered (its result included), at least 1.5x
what it takes.  A bound catches a full-size temporary that comes back:
a copy of the input, a sort of every labelled pixel or an index array
of every ground cell.
"""

import tracemalloc

import numpy as np
import pytest

from breakline_dtm import cli
from breakline_dtm.asciigrid import read_ascii_grid, write_ascii_grid
from breakline_dtm.groundfilter import GroundMask, Segmentation, label_4connected, region_stats
from breakline_dtm.ingest import PointCloud, _read_las, read_points, write_points_xyz
from breakline_dtm.interp import interpolate_nonground
from breakline_dtm.raster import Dsm, GridSpec, SparseDsm, fill_voids_nearest, rasterize_min
from breakline_dtm.slope import slope_map
from breakline_dtm.tiling import compare_tiled
from breakline_dtm.water import WaterParams, water_mask
from test_ingest import make_las

GRID = GridSpec(0.0, 0.0, 0.5, 600, 600)
POINTS = 1_440_000  # 4 points per square metre
# at numpy 2.4.6 / scipy 1.17.1 these stages take 38.5, 26.1, 9.2, 3.2
# and 5.8 MB; before they were rewritten to work in place, 126.4, 72.8,
# 19.5, 16.7 and 11.3 MB.  With nearest donors found by distance shells,
# interpolate_nonground takes 6.6 MB and fill_voids_nearest 12.0 MB
# (17.7 MB with an EDT and tie-break for every void); with region corners
# built in place, region_stats takes 2.4 MB.  Reading a 3.4 MB ASCII grid
# takes 8.9 MB whole (the bytes, loadtxt's array and a flipped copy) and
# 4.2 MB streamed in blocks; compare_tiled with a mask and 250 px tiles
# takes 3.8 MB with full-size difference and validity rasters and 1.0 MB
# tile by tile.  The whole compare command on three such grids (a mask
# with 20 % non-zero cells, 250 px tiles) takes 9.8 MB with a float
# raster of each grid and 4.7 MB with one difference raster and a bool
# mask built as b and the mask are read.  With a non-numeric cell in the
# mask's last row it took 10.5 MB while the fault was named by parsing the
# whole mask again, and took 4.7 MB named from the block that holds it.
# slope_map took 13.8 MB with five raster-sized arrays (the padded DSM,
# both gradients and two temporaries) and takes 4.3 MB in row strips.
# compare now reads its three grids in step, one band of tile rows at a
# time, and the reader lets go of each block once it is parsed: read_ascii_grid
# takes 4.0 MB, compare_tiled 0.9 MB and compare 3.5 MB (3.5 MB with the
# faulty mask row); on 2400x600 grids ("compare_tall") compare took 13.9 MB
# with a raster-sized difference and takes 3.5 MB.  read_points on a 43 MB
# XYZ file of POINTS points took 81.4 MB holding the file's bytes while
# loadtxt parsed them, and takes 37.1 MB (the 34.6 MB cloud) parsing the
# file by name.  rasterize_min bins all POINTS on the caller's thread and
# took 26.1 MB in one pass, as the one-chunk path of its thread pool did;
# binning 2**16 points at a time it takes 6.2 MB.  Searching donors
# 2**16 targets at a time, fill_voids_nearest takes 9.3 MB (12.0 MB with
# every target at once).  water_mask took 5.8 MB with raster-sized int64
# sums and visible counts and takes 1.7 MB in strips of 64 rows; labelling
# the holes before the output rasters exist, interpolate_nonground takes
# 6.3 MB (6.6 MB)
BOUNDS_MB = {
    "read_ascii_grid": 6.5,
    "compare_tiled": 2.0,
    "compare": 5.5,
    "compare_tall": 5.5,
    "read_las": 60.0,
    "read_xyz": 56.0,
    "rasterize_min": 9.5,
    "fill_voids_nearest": 14.0,
    "interpolate_nonground": 9.5,
    "region_stats": 4.0,
    "slope_map": 6.5,
    "water_mask": 2.6,
}


def traced_peak_mb(fn, *args) -> float:
    """Peak traced memory while ``fn(*args)`` runs, above that at its entry."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - entry) / 2**20
    finally:
        tracemalloc.stop()


def _blocks():
    """Ground with the stamped border ring and 100 building holes; 4 px breaks between blocks."""
    ground = np.ones(GRID.shape, dtype=bool)
    ground[[0, -1], :] = ground[:, [0, -1]] = False
    for r in range(20, 600, 60):
        for c in range(20, 600, 60):
            ground[r : r + 18, c : c + 24] = False
    breaks = np.zeros(GRID.shape, dtype=bool)
    breaks[::30, :] = breaks[:, ::30] = True
    return ground, breaks


def _points(rng):
    return np.column_stack(
        [rng.uniform(0, 300, POINTS), rng.uniform(0, 300, POINTS), rng.normal(50, 2, POINTS)]
    )


def _elevations(rng, grid=GRID):
    """Terrain heights with 5 % NODATA cells."""
    elev = rng.normal(50, 2, grid.shape)
    elev[rng.random(grid.shape) < 0.05] = np.nan
    return elev


def _case(name, tmp_path):
    rng = np.random.default_rng(7)
    if name == "read_ascii_grid":
        write_ascii_grid(_elevations(rng), GRID, tmp_path / "g.asc")
        return read_ascii_grid, tmp_path / "g.asc"
    if name == "compare_tiled":
        exclude = rng.random(GRID.shape) < 0.2
        return compare_tiled, _elevations(rng), _elevations(rng), exclude, 250
    if name in ("compare", "compare_tall"):
        grid = GRID if name == "compare" else GridSpec(0.0, 0.0, 0.5, 600, 2400)
        paths = [tmp_path / f"{n}.asc" for n in "abm"]
        write_ascii_grid(_elevations(rng, grid), grid, paths[0])
        write_ascii_grid(_elevations(rng, grid), grid, paths[1])
        write_ascii_grid(rng.random(grid.shape) < 0.2, grid, paths[2])
        argv = ["compare", *map(str, paths[:2]), "--mask", str(paths[2]), "--tile-px", "250"]
        return cli.main, [*argv, "--out", str(tmp_path / "tiles.csv")]
    if name == "read_las":
        ixyz = rng.integers(0, 300_000, size=(POINTS, 3))
        return _read_las, make_las(ixyz, scale=(0.001,) * 3), False
    if name == "read_xyz":
        write_points_xyz(PointCloud(_points(rng)), tmp_path / "points.xyz")
        return read_points, tmp_path / "points.xyz"
    if name == "rasterize_min":
        return rasterize_min, PointCloud(_points(rng)), GRID
    if name == "fill_voids_nearest":
        # 1 point per cell leaves 37 % of the cells void; a lake of no
        # returns (radius 40 px) sends its inner voids to the EDT
        occupancy = rng.poisson(1.0, GRID.shape).astype(np.int32)
        r, c = np.ogrid[:600, :600]
        occupancy[(r - 400) ** 2 + (c - 200) ** 2 < 40**2] = 0
        elev = np.where(occupancy > 0, rng.normal(50, 2, GRID.shape), np.nan)
        return fill_voids_nearest, SparseDsm(GRID, elev, occupancy)
    if name == "slope_map":
        return slope_map, Dsm(GRID, rng.normal(50, 2, GRID.shape))
    ground, breaks = _blocks()
    if name == "interpolate_nonground":
        gx, gy = np.meshgrid(GRID.x_centers(), GRID.y_centers())
        dsm = Dsm(GRID, 50.0 + 0.01 * gx - 0.02 * gy)
        return interpolate_nonground, dsm, GroundMask(GRID, ground)
    if name == "region_stats":
        lab, n = label_4connected(~breaks)
        return region_stats, Segmentation(GRID, lab, n)
    occupancy = rng.poisson(4.0, GRID.shape).astype(np.int32)
    occupancy[100:200, 300:450] = rng.poisson(0.1, (100, 150))
    return water_mask, occupancy, 30, WaterParams(9)


@pytest.mark.parametrize("name", sorted(BOUNDS_MB))
def test_stage_transient_memory_is_bounded(name, tmp_path):
    fn, *args = _case(name, tmp_path)
    if name in ("fill_voids_nearest", "interpolate_nonground", "region_stats"):
        fn(*args)  # loads scipy's lazily imported modules outside the trace
    peak = traced_peak_mb(fn, *args)
    assert peak <= BOUNDS_MB[name], f"{name} allocated {peak:.1f} MB"


def test_compare_names_a_fault_in_the_last_mask_row_within_its_bound(tmp_path, capsys):
    fn, argv = _case("compare", tmp_path)
    mask = tmp_path / "m.asc"
    text = mask.read_bytes()
    last = text.rindex(b"\n", 0, -1) + 1  # the last row's first cell becomes x.000000
    mask.write_bytes(text[:last] + b"x" + text[last + 1 :])
    codes = []
    peak = traced_peak_mb(lambda: codes.append(fn(argv)))
    assert codes == [2]
    assert "m.asc: non-numeric cell value: " in capsys.readouterr().err
    assert peak <= BOUNDS_MB["compare"], f"compare allocated {peak:.1f} MB"

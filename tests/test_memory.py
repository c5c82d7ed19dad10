"""Transient memory of the heaviest stages and grid reads on a 600x600 grid.

Each bound is the traced peak a stage may allocate above what was
allocated when it was entered (its result included), at least 1.5x
what it takes.  A bound catches a full-size temporary that comes back:
a copy of the input, a sort of every labelled pixel, an index array of
every ground cell, or a whole-raster pass where a stage works in
blocks.  Stages bound their temporaries by three shared sizes: 2**16
points, cells, probes or targets at once (rasterize_min, the raster
writer, fill_voids_nearest), strips of 64 rows (slope_map, water_mask)
and text read 256 KiB at a time (read_ascii_grid and compare, which
read their grids in step, one band of tile rows at a time; a block of
bool tokens is compared as words, in no more than loadtxt takes).  read_xyz
parses the file by name, so it holds the cloud, not the file's bytes.
At numpy 2.4.6 / scipy 1.17.1 the cases take: read_ascii_grid 4.0,
compare_tiled 0.9, compare and compare_tall 3.5, read_las and read_xyz
37.1 (the 34.6 MB cloud), rasterize_min 6.2, fill_voids_nearest 9.3,
interpolate_nonground 6.3, region_stats 2.4, slope_map 4.3 and
water_mask 1.7 MB.
"""

import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from breakline_dtm import asciigrid, cli
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


@pytest.mark.parametrize("dtype", [np.int32, np.uint8])
def test_integer_raster_write_casts_a_block_at_a_time(tmp_path, dtype):
    # an integer raster is written as its float64 cast; cast a block at a
    # time, it takes about what the cast raster itself takes to write,
    # not a raster-sized float64 copy (2.7 MB) on top
    values = np.random.default_rng(7).integers(0, 2000, GRID.shape).astype(dtype)
    cast = values.astype(np.float64)
    as_float = traced_peak_mb(write_ascii_grid, cast, GRID, tmp_path / "float.asc")
    as_int = traced_peak_mb(write_ascii_grid, values, GRID, tmp_path / "int.asc")
    assert (tmp_path / "int.asc").read_bytes() == (tmp_path / "float.asc").read_bytes()
    assert as_int <= as_float + 1.0, f"{as_int:.1f} MB against {as_float:.1f} MB"



def test_bool_grid_read_by_word_compare_holds_no_more_than_through_loadtxt(tmp_path):
    # a bool grid's blocks skip loadtxt: the words and the cast rows of a
    # block may take no more than loadtxt takes to parse it.  The whole
    # read peaks while the next block is read, the same on both routes;
    # two reads on one route differ by a few hundred bytes of objects
    path = tmp_path / "m.asc"
    write_ascii_grid(np.random.default_rng(7).random(GRID.shape) < 0.2, GRID, path)
    body = path.read_bytes().split(b"\n", 6)[6]
    block = body[: body.rindex(b"\n", 0, asciigrid._BLOCK_BYTES) + 1]
    by_words = traced_peak_mb(asciigrid._bool_rows, block, GRID.ncols)
    by_loadtxt = traced_peak_mb(lambda: asciigrid.loadtxt_f64(io.BytesIO(block)))
    assert by_words <= by_loadtxt, f"{by_words:.3f} MB against {by_loadtxt:.3f} MB"
    words = traced_peak_mb(read_ascii_grid, path)
    with mock.patch.object(asciigrid, "_bool_rows", lambda text, ncols: None):
        parsed = traced_peak_mb(read_ascii_grid, path)
    assert words <= parsed + 0.01, f"{words:.3f} MB against {parsed:.3f} MB through loadtxt"

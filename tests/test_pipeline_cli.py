import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from breakline_dtm import asciigrid, pipeline
from breakline_dtm.asciigrid import format_ascii_grid, read_ascii_grid, write_ascii_grid
from breakline_dtm.cli import main
from breakline_dtm.errors import (
    EmptyInputError,
    GridMismatchError,
    InputDataError,
    ParameterError,
)
from breakline_dtm.groundfilter import FilterParams
from breakline_dtm.ingest import BBox, PointCloud, write_points_xyz
from breakline_dtm.interp import SOURCE_INTERPOLATED
from breakline_dtm.pipeline import PipelineConfig, run_pipeline
from breakline_dtm.raster import GridSpec, fill_voids_nearest
from breakline_dtm.scene import (
    Building,
    Hill,
    Plane,
    Ramp,
    Scene,
    WaterBody,
    sample_points,
    truth_rasters,
    _rect_polygon,
)
from breakline_dtm.tiling import compare_grid_files, compare_tiled, write_tile_csv
from oracles import per_cell_ascii_grid, whole_file_ascii_grid
from test_asciigrid import BLOCK_BYTES

SCENE = Scene(
    extent=BBox(0, 0, 400, 400),
    density=4.0,
    seed=77,
    plane=Plane(base=100.0),
    buildings=[Building(60, 60, 30, 40, 10.0)],
    waters=[WaterBody(_rect_polygon(240, 240, 80, 60), level=96.0, suppression=0.0)],
)


@pytest.fixture(scope="module")
def scene_points():
    return sample_points(SCENE)


@pytest.fixture(scope="module")
def scene_result(scene_points):
    return run_pipeline(scene_points, PipelineConfig())


def test_pipeline_flat_scene_building_interpolated(scene_result):
    res = scene_result
    truth = truth_rasters(SCENE, res.dtm.grid)
    building = ~truth.ground_mask
    assert (res.dtm.source[building] != 0).any()
    interpolated = res.dtm.source == SOURCE_INTERPOLATED
    assert interpolated[building].mean() > 0.99
    gm = res.ground.is_ground
    assert (~gm[building]).mean() > 0.99


def test_pipeline_report_echoes_defaults(scene_result):
    params = scene_result.report["parameters"]
    assert params["slope_threshold_deg"] == 45.0
    assert params["a1_m2"] == 40_000.0
    assert params["a2_m2"] == 100_000.0
    assert params["rectangularity"] == 0.5
    assert params["window_px"] == 9
    assert params["confidence"] == 4.0
    assert params["cell_m"] == 0.5
    assert scene_result.report["density"]["water_threshold"] >= 1
    assert set(scene_result.report["timings_s"]) >= {
        "rasterize",
        "fill_voids",
        "slope",
        "interpolate",
    }


def test_pipeline_loads_scipy_in_its_first_stage(scene_result):
    assert next(iter(scene_result.report["timings_s"])) == "scipy_import"


def test_pipeline_releases_the_points_it_read_after_binning(monkeypatch, scene_points):
    refs = []

    def read_points(source, strict):
        pc = PointCloud(scene_points.xyz.copy())
        refs.append(weakref.ref(pc))
        return pc

    def fill_voids(sparse):
        assert refs[0]() is None, "the points outlive the rasterize stage"
        return fill_voids_nearest(sparse)

    monkeypatch.setattr(pipeline, "read_points", read_points)
    monkeypatch.setattr(pipeline, "fill_voids_nearest", fill_voids)
    res = run_pipeline("points.xyz")  # never opened: read_points is replaced
    assert res.report["input"]["points"] == scene_points.count


def test_pipeline_empty_input_flagged_with_stage():
    with pytest.raises(EmptyInputError) as err:
        run_pipeline(b"", PipelineConfig())
    assert "ingest" in str(err.value)


def test_pipeline_higher_threshold_masks_fewer_pixels(scene_points):
    # monotone consequence of the strict slope comparison
    res45 = run_pipeline(scene_points, PipelineConfig())
    res75 = run_pipeline(
        scene_points, PipelineConfig(filter_params=FilterParams(tau_deg=75.0))
    )
    masked45 = int((~res45.ground.is_ground).sum())
    masked75 = int((~res75.ground.is_ground).sum())
    assert masked75 < masked45


def test_pipeline_crop_window(scene_points):
    crop = BBox(100.0, 100.0, 200.0, 150.0)
    res = run_pipeline(scene_points, PipelineConfig(crop=crop))
    g = res.dtm.grid
    assert (g.origin_x, g.origin_y) == (100.0, 100.0)
    assert (g.ncols, g.nrows) == (200, 100)
    full = run_pipeline(scene_points, PipelineConfig())
    rwin = slice(200, 300)
    cwin = slice(200, 400)
    assert np.array_equal(res.dtm.elev, full.dtm.elev[rwin, cwin])


# two lakes (the second splits into two water segments) and a building;
# small enough to run the pipeline once per crop box
CROP_SCENE = Scene(
    extent=BBox(0, 0, 160, 160),
    density=4.0,
    seed=11,
    plane=Plane(base=50.0),
    buildings=[Building(110, 20, 20, 25, 8.0)],
    waters=[
        WaterBody(_rect_polygon(30, 30, 40, 30), level=48.0, suppression=0.0),
        WaterBody(_rect_polygon(100, 90, 30, 40), level=47.0, suppression=0.05),
    ],
)
CROP_FILTER = FilterParams(a1_m2=100.0, a2_m2=200.0)
RASTER_ARRAYS = [
    ("dtm", "elev"),
    ("dtm", "source"),
    ("ground", "is_ground"),
    ("water", "is_water"),
    ("water", "label"),
    ("sparse", "elev"),
    ("sparse", "occupancy"),
    ("dsm", "elev"),
    ("slope", "slope_deg"),
    ("breaks", "is_break"),
    ("segmentation", "label"),
]


@pytest.fixture(scope="module")
def crop_points():
    return sample_points(CROP_SCENE)


@pytest.fixture(scope="module")
def crop_full(crop_points):
    return run_pipeline(crop_points, PipelineConfig(filter_params=CROP_FILTER))


@pytest.mark.parametrize(
    "crop, rows, cols",
    [
        # cuts segment 1, leaves out segments 2 and 3
        (BBox(10.0, 10.0, 50.0, 40.0), slice(20, 80), slice(20, 100)),
        # reaches past the grid on three sides, holds segments 2 and 3 whole
        (BBox(-30.0, 70.0, 500.0, 200.0), slice(140, 320), slice(0, 320)),
        # cuts segment 2, holds segment 3
        (BBox(105.0, 100.0, 125.0, 125.0), slice(200, 250), slice(210, 250)),
    ],
)
def test_pipeline_crop_equals_window_of_full_run(crop_points, crop_full, crop, rows, cols):
    full = crop_full
    res = run_pipeline(crop_points, PipelineConfig(filter_params=CROP_FILTER, crop=crop))
    g = full.dtm.grid
    sub = GridSpec(
        g.origin_x + cols.start * g.cell,
        g.origin_y + rows.start * g.cell,
        g.cell,
        cols.stop - cols.start,
        rows.stop - rows.start,
    )
    for name in {name for name, _ in RASTER_ARRAYS}:
        assert getattr(res, name).grid == sub
    for name, attr in RASTER_ARRAYS:
        got = getattr(getattr(res, name), attr)
        want = getattr(getattr(full, name), attr)[rows, cols]
        assert got.dtype == want.dtype and got.flags.c_contiguous, (name, attr)
        assert np.array_equal(got, want, equal_nan=True), (name, attr)
    assert res.sparse.oob_dropped == full.sparse.oob_dropped
    assert res.segmentation.region_count == full.segmentation.region_count
    for attr in ("pixel_count", "area_m2", "mbr_area_m2", "rectangularity"):
        assert np.array_equal(getattr(res.stats, attr), getattr(full.stats, attr))

    expected = []
    for seg in full.water.segments:
        r, c = np.divmod(seg.pixels, g.ncols)
        inside = (r >= rows.start) & (r < rows.stop) & (c >= cols.start) & (c < cols.stop)
        if inside.any():
            flat = (r[inside] - rows.start) * sub.ncols + (c[inside] - cols.start)
            expected.append((seg.id, flat.tolist(), seg.elevation))
    got = [(seg.id, seg.pixels.tolist(), seg.elevation) for seg in res.water.segments]
    assert got == expected
    assert any(len(px) for _, px, _ in expected)

    assert res.report["grid"] == full.report["grid"]
    assert res.report["grid_cropped"] == {
        "origin_x": sub.origin_x,
        "origin_y": sub.origin_y,
        "cell": sub.cell,
        "ncols": sub.ncols,
        "nrows": sub.nrows,
    }
    # the run's own time and memory measurements differ between runs
    for key in ("parameters", "timings_s", "peak_rss_mb", "grid_cropped"):
        res.report.pop(key)
    assert res.report == {
        k: v
        for k, v in full.report.items()
        if k not in ("parameters", "timings_s", "peak_rss_mb")
    }


@pytest.mark.parametrize("crop", [None, BBox(105.0, 100.0, 125.0, 125.0)])
def test_pipeline_without_intermediates_gives_the_same_outputs(crop_points, crop):
    full = run_pipeline(crop_points, PipelineConfig(filter_params=CROP_FILTER, crop=crop))
    lean = run_pipeline(
        crop_points, PipelineConfig(filter_params=CROP_FILTER, crop=crop, intermediates=False)
    )
    assert (lean.sparse, lean.dsm, lean.slope, lean.breaks, lean.segmentation) == (None,) * 5
    for name, attr in RASTER_ARRAYS:
        if name not in ("dtm", "ground", "water"):
            continue
        got = getattr(getattr(lean, name), attr)
        want = getattr(getattr(full, name), attr)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, attr)
    got = [(seg.id, seg.pixels.tolist(), seg.elevation) for seg in lean.water.segments]
    assert got == [(seg.id, seg.pixels.tolist(), seg.elevation) for seg in full.water.segments]
    # the run's own time and memory measurements differ between runs
    for res in (lean, full):
        res.report.pop("timings_s")
        res.report.pop("peak_rss_mb")
    assert lean.report == full.report
    assert lean.report["regions"]["count"] == full.segmentation.region_count


def test_pipeline_accepts_xyz_file(tmp_path, scene_points):
    small = Scene(
        extent=BBox(0, 0, 30, 30), density=6.0, seed=5, plane=Plane(10.0)
    )
    pc = sample_points(small)
    path = tmp_path / "pts.xyz"
    write_points_xyz(pc, path)
    res = run_pipeline(
        str(path),
        PipelineConfig(filter_params=FilterParams(a1_m2=1.0, a2_m2=2.0)),
    )
    assert res.dtm.elev.shape == (60, 60)
    assert np.abs(res.dtm.elev - 10.0).max() < 1e-6


def run_cli(args):
    return main([str(a) for a in args])


def write_scene_file(path):
    path.write_text(
        "extent min_x=0 min_y=0 max_x=120 max_y=120\n"
        "density value=4\n"
        "seed value=3\n"
        "plane base=50\n"
        "building x=30 y=30 width=20 depth=20 height=8\n"
    )


@pytest.mark.parametrize("cell", ["1e-4", "1e-300"])
def test_cli_dtm_grid_too_large_exits_3(tmp_path, capsys, cell):
    pts = tmp_path / "p.xyz"
    pts.write_text("0 0 1\n10 0 1\n0 10 1\n10 10 2\n")
    assert run_cli(["dtm", pts, "--cell", cell, "--out-dir", tmp_path / "out"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parameter error: cell size")
    assert "bbox x 0.0..10.0, y 0.0..10.0" in err
    assert "more than the 2147483647 a grid may have" in err


@pytest.mark.parametrize("command", ["slope", "dtm"])
def test_cli_grid_below_3x3_names_the_cell_size(tmp_path, capsys, command):
    # a 5 x 5 m cloud in 3 m cells is 2x2 cells: the cell size is the cause
    pts = tmp_path / "p.xyz"
    pts.write_text("0 0 1\n5 0 1\n0 5 1\n5 5 2\n2 2 1\n")
    out = tmp_path / "out"
    assert run_cli([command, pts, "--cell", "3", "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "input error: [stage slope] need at least 3x3 cells, got 2x2 at cell size 3.0 m (--cell)"
    )
    assert not out.exists()


# allocates and touches ``held`` MB, then replaces itself by the CLI
HOLD_THEN_EXEC = """
import os, sys
held = b"\\x01" * (int(sys.argv[1]) << 20)
os.execv(sys.executable, [sys.executable, "-m", "breakline_dtm.cli", *sys.argv[2:]])
"""


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read on Linux only")
def test_report_peak_rss_leaves_out_the_process_that_exec_ed_the_cli(tmp_path):
    # ru_maxrss would keep the 300 MB the process held before it became the CLI
    scene_file = tmp_path / "scene.txt"
    write_scene_file(scene_file)
    assert run_cli(["synth", scene_file, "--out-dir", tmp_path]) == 0
    src = str(Path(pipeline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = ["300", "dtm", tmp_path / "points.xyz", "--out-dir", tmp_path / "out",
            "--a1", "100", "--a2", "200"]
    subprocess.run([sys.executable, "-c", HOLD_THEN_EXEC, *map(str, argv)], env=env,
                   capture_output=True, check=True)
    peaks = json.loads((tmp_path / "out" / "report.json").read_text())["peak_rss_mb"]
    assert 0 < max(peaks.values()) < 200, peaks


def test_cli_synth_then_dtm_round_trip(tmp_path):
    scene_file = tmp_path / "scene.txt"
    write_scene_file(scene_file)
    synth_dir = tmp_path / "synth"
    assert run_cli(["synth", scene_file, "--out-dir", synth_dir]) == 0
    assert (synth_dir / "points.xyz").exists()
    truth_dtm, truth_grid = read_ascii_grid(synth_dir / "truth_dtm.asc")
    assert truth_grid.ncols == 240

    out_dir = tmp_path / "out"
    code = run_cli(
        [
            "dtm",
            synth_dir / "points.xyz",
            "--out-dir",
            out_dir,
            "--a1",
            "100",
            "--a2",
            "200",
            "--emit-intermediates",
        ]
    )
    assert code == 0
    outputs = (
        "dtm.asc",
        "ground_mask.asc",
        "water_mask.asc",
        "report.json",
        "regions.csv",
        "water_segments.csv",
        "dsm.asc",
        "slope.asc",
        "break_mask.asc",
        "labels.asc",
        "source.asc",
        "occupancy.asc",
    )
    for name in outputs:
        assert (out_dir / name).exists(), name

    report = json.loads((out_dir / "report.json").read_text())
    assert report["parameters"]["a1_m2"] == 100.0
    assert set(report["writes_s"]) == {name for name in outputs if name.endswith(".asc")}
    assert all(seconds >= 0 for seconds in report["writes_s"].values())
    # the high-water mark after the last write, which may set the run's peak
    assert report["writes_peak_rss_mb"] >= max(report["peak_rss_mb"].values())
    # the high-water mark after each stage, in stage order
    assert list(report["peak_rss_mb"]) == list(report["timings_s"])
    peaks = list(report["peak_rss_mb"].values())
    assert peaks[0] > 0 and peaks == sorted(peaks)
    # every region, and every pixel but the break pixels, under one rule
    regions = report["regions"]
    rules = regions["by_rule"]
    assert set(rules) == {
        "area_below_a1", "area_above_a2", "mid_rect_above_r", "mid_rect_at_most_r"
    }
    assert sum(r["regions"] for r in rules.values()) == regions["count"]
    breaks, _ = read_ascii_grid(out_dir / "break_mask.asc")
    break_px = int((breaks != 0).sum())
    assert break_px > 0
    assert sum(r["px"] for r in rules.values()) == (
        regions["ground_px"] + regions["nonground_px"] - break_px
    )
    assert rules["area_above_a2"]["regions"] > 0 and rules["area_below_a1"]["regions"] > 0
    # every pixel of the full run's DTM by source, water as the water map counts it
    source_px = report["source_px"]
    assert set(source_px) == {"measured", "interpolated", "water"}
    assert sum(source_px.values()) == report["density"]["total_cells"]
    assert source_px["water"] == report["water"]["water_px"]
    dtm, grid = read_ascii_grid(out_dir / "dtm.asc")
    assert grid.shape == (240, 240)
    # flat scene: away from the building the DTM reads the plane
    assert abs(dtm[10, 10] - 50.0) < 1e-5

    # the integer and bool rasters take the writer's token-table path
    cfg = PipelineConfig(filter_params=FilterParams(a1_m2=100, a2_m2=200))
    res = run_pipeline(synth_dir / "points.xyz", cfg)
    for name, values in [
        ("labels.asc", res.segmentation.label),
        ("occupancy.asc", res.sparse.occupancy),
        ("source.asc", res.dtm.source),
        ("break_mask.asc", res.breaks.is_break),
        ("ground_mask.asc", res.ground.is_ground),
        ("water_mask.asc", res.water.is_water),
    ]:
        assert values.dtype.kind in "biu", name
        assert (out_dir / name).read_text() == per_cell_ascii_grid(values, grid), name


def test_cli_slope_and_water(tmp_path):
    scene_file = tmp_path / "scene.txt"
    write_scene_file(scene_file)
    synth_dir = tmp_path / "s"
    run_cli(["synth", scene_file, "--out-dir", synth_dir])
    out = tmp_path / "o"
    assert run_cli(["slope", synth_dir / "points.xyz", "--out-dir", out]) == 0
    assert (out / "slope.asc").exists() and (out / "break_mask.asc").exists()
    assert run_cli(["water", synth_dir / "points.xyz", "--out-dir", out]) == 0
    assert (out / "water_mask.asc").exists()
    assert (out / "water_segments.csv").exists()


def test_cli_slope_and_water_write_the_bytes_of_dtm_intermediates(tmp_path, scene_points):
    # slope and water run dtm's own stages, so their files are dtm's
    path = tmp_path / "pts.xyz"
    write_points_xyz(scene_points, path)
    dtm = tmp_path / "dtm"
    assert run_cli(["dtm", path, "--out-dir", dtm, "--emit-intermediates"]) == 0
    files = {
        "slope": ["slope.asc", "break_mask.asc"],
        "water": ["water_mask.asc", "water_segments.csv"],
    }
    for command, names in files.items():
        assert run_cli([command, path, "--out-dir", tmp_path / command]) == 0
        for name in names:
            assert (tmp_path / command / name).read_bytes() == (dtm / name).read_bytes(), name
    assert len((dtm / "water_segments.csv").read_text().splitlines()) > 1  # a lake was found


def test_cli_compare(tmp_path):
    grid = GridSpec(0, 0, 1.0, 12, 12)
    rng = np.random.default_rng(4)
    a = rng.normal(100, 3, (12, 12))
    write_ascii_grid(a, grid, tmp_path / "a.asc")
    write_ascii_grid(a + 2.5, grid, tmp_path / "b.asc")
    out = tmp_path / "tiles.csv"
    code = run_cli(
        ["compare", tmp_path / "a.asc", tmp_path / "b.asc", "--tile-px", "6", "--out", out]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5
    for line in lines[1:]:
        assert line.split(",")[3] == "2.500000"


def test_cli_exit_codes(tmp_path, capsys):
    # missing file -> input error, also for a scene path
    assert run_cli(["dtm", tmp_path / "missing.xyz"]) == 2
    assert run_cli(["synth", tmp_path / "missing.txt", "--out-dir", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and str(tmp_path / "missing.txt") in err
    # empty input -> input error
    empty = tmp_path / "empty.xyz"
    empty.write_text("")
    assert run_cli(["dtm", empty, "--out-dir", tmp_path]) == 2
    # bad parameter -> parameter error
    pts = tmp_path / "p.xyz"
    pts.write_text("0 0 1\n1 0 1\n0 1 1\n1 1 1\n")
    assert run_cli(["dtm", pts, "--out-dir", tmp_path, "--slope-threshold", "95"]) == 3
    assert run_cli(["water", pts, "--out-dir", tmp_path, "--window", "4"]) == 3
    # a negative --top is refused before any grid is read; --top 0 prints no tile
    grid = tmp_path / "g.asc"
    write_ascii_grid(np.zeros((8, 8)), GridSpec(0, 0, 1.0, 8, 8), grid)
    compare = ["compare", grid, grid, "--tile-px", "4", "--out", tmp_path / "t.csv"]
    assert run_cli([*compare, "--top", "-2"]) == 3
    assert "--top must be >= 0, got -2" in capsys.readouterr().err
    assert run_cli([*compare, "--top", "0"]) == 0
    assert "#1 tile" not in capsys.readouterr().out


# for every subcommand: an unreadable number, a wrong number of values and
# an unknown flag, each refused by argparse with its usage code
_UNREADABLE_COMMAND_LINES = {
    "dtm": (["--cell", "abc"], ["--crop", "0", "0", "1"], ["--no-such-flag"]),
    "slope": (["--cell", "abc"], ["--slope-threshold"], ["--no-such-flag"]),
    "water": (["--window", "3.5"], ["--window"], ["--no-such-flag"]),
    "compare": (["--tile-px", "x"], ["--tile-px"], ["--no-such-flag"]),
    "synth": (["--seed", "x"], ["--density"], ["--no-such-flag"]),
}


@pytest.mark.parametrize(
    "command, extra",
    [(c, e) for c, cases in _UNREADABLE_COMMAND_LINES.items() for e in cases],
    ids=lambda v: v if isinstance(v, str) else " ".join(v),
)
def test_cli_command_line_argparse_cannot_read_exits_2(tmp_path, capsys, command, extra):
    out = tmp_path / "out"
    if command == "compare":
        grid = tmp_path / "g.asc"
        write_ascii_grid(np.zeros((4, 4)), GridSpec(0, 0, 1.0, 4, 4), grid)
        argv = ["compare", grid, grid, "--out", out / "t.csv"]
    elif command == "synth":
        write_scene_file(tmp_path / "scene.txt")
        argv = ["synth", tmp_path / "scene.txt", "--out-dir", out]
    else:
        pts = tmp_path / "p.xyz"
        pts.write_text("0 0 1\n1 0 1\n0 1 1\n1 1 1\n")
        argv = [command, pts, "--out-dir", out]
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, *extra])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: breakline-dtm") and ": error: " in err
    assert not out.exists()


def test_cli_compare_refuses_a_bad_tile_px_before_opening_a_file(tmp_path, capsys):
    # the paths name no file: the parameter is checked first, as --top is
    missing = [tmp_path / "a.asc", tmp_path / "b.asc", "--mask", tmp_path / "m.asc"]
    assert run_cli(["compare", *missing, "--tile-px", "0", "--out", tmp_path / "t.csv"]) == 3
    assert capsys.readouterr().err == "parameter error: tile_px must be >= 1, got 0\n"


def _grid_header(ncols, nrows):
    return (
        f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\n"
        "cellsize 1\nNODATA_value -9999\n"
    )


def _compare_bad_grid(tmp_path, capsys, payload):
    """Exit code and stderr of compare on a faulty grid.

    The same at every read block size, with the grid compared or as the
    mask; a fault found after part of the file was used still prints
    and writes nothing.
    """
    grid = GridSpec(0, 0, 1.0, 3, 2)
    a = tmp_path / "a.asc"
    write_ascii_grid(np.zeros((2, 3)), grid, a)
    bad = tmp_path / "bad.asc"
    bad.write_bytes(payload)
    out = tmp_path / "t.csv"
    results = set()
    for argv in ([a, bad], [a, a, "--mask", bad]):
        for block_bytes in BLOCK_BYTES:
            with mock.patch.object(asciigrid, "_BLOCK_BYTES", block_bytes):
                code = run_cli(["compare", *argv, "--out", out])
            printed = capsys.readouterr()
            assert printed.out == "" and not out.exists(), (argv, block_bytes)
            results.add((code, printed.err))
    assert len(results) == 1, results
    return results.pop()


def test_cli_compare_non_ascii_grid_is_input_error(tmp_path, capsys):
    payload = _grid_header(3, 2).encode() + "1 2 3\n4 5 caf\u00e9\n".encode("latin-1")
    code, err = _compare_bad_grid(tmp_path, capsys, payload)
    assert code == 2
    assert err.startswith("input error: ")
    assert "bad.asc: non-ASCII byte 0xe9 at offset" in err


def test_cli_compare_ragged_grid_row_names_row_and_counts(tmp_path, capsys):
    payload = (_grid_header(3, 2) + "1 2 3\n4 5\n").encode()
    code, err = _compare_bad_grid(tmp_path, capsys, payload)
    assert code == 2
    assert "bad.asc: data row 2 has 2 values, header declares ncols 3" in err


def test_cli_compare_bad_grid_header_is_input_error(tmp_path, capsys):
    # a truncated ncols, a NaN origin, a zero cell size and a value that is
    # no number all fault the file; the message names the key and the value
    for old, new in [("ncols 3", "ncols 2.7"), ("xllcorner 0", "xllcorner nan"),
                     ("cellsize 1", "cellsize 0"), ("ncols 3", "ncols abc")]:
        payload = (_grid_header(3, 2).replace(old, new) + "1 2 3\n4 5 6\n").encode()
        code, err = _compare_bad_grid(tmp_path, capsys, payload)
        key, value = new.split()
        assert code == 2, err
        assert err.startswith("input error: ") and "bad.asc: header " + key in err
        assert value in err.split(key, 1)[1]


def test_cli_compare_other_grid_is_reported_before_its_body(tmp_path, capsys):
    # the header is checked against a's grid before the body is read, so
    # a file on another grid is reported as such, even with a faulty body
    a = tmp_path / "a.asc"
    write_ascii_grid(np.zeros((2, 3)), GridSpec(0, 0, 1.0, 3, 2), a)
    other = tmp_path / "other.asc"
    other.write_text(_grid_header(3, 2).replace("xllcorner 0", "xllcorner 5") + "1 2 3\n4 5\n")
    grids = f"{a} has {GridSpec(0.0, 0.0, 1.0, 3, 2)}, {other} has {GridSpec(5.0, 0.0, 1.0, 3, 2)}"
    assert run_cli(["compare", a, other, "--out", tmp_path / "t.csv"]) == 2
    assert capsys.readouterr().err == f"input error: grids differ: {grids}\n"
    assert run_cli(["compare", a, a, "--mask", other, "--out", tmp_path / "t.csv"]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: mask grid differs from the compared rasters: {grids}\n"
    # the fault compare_tiled raises for rasters on different grids
    with pytest.raises(GridMismatchError) as exc:
        compare_grid_files(a, other)
    assert str(exc.value) == f"grids differ: {grids}"
    with pytest.raises(GridMismatchError) as exc:
        compare_grid_files(a, a, other)
    assert str(exc.value) == f"mask grid differs from the compared rasters: {grids}"


def _read_in_turn(a, b, mask):
    """Exit code and stderr of compare if each file were read whole before the next is opened."""
    try:
        grid = whole_file_ascii_grid(a)[1]
        grid_b = whole_file_ascii_grid(b)[1]
        if grid_b != grid:
            raise GridMismatchError(f"grids differ: {a} has {grid}, {b} has {grid_b}")
        if mask is not None:
            grid_m = whole_file_ascii_grid(mask)[1]
            if grid_m != grid:
                raise GridMismatchError(
                    "mask grid differs from the compared rasters: "
                    f"{a} has {grid}, {mask} has {grid_m}"
                )
    except (InputDataError, OSError) as exc:
        return 2, f"input error: {exc}\n"
    return 0, ""


@pytest.mark.parametrize("block_bytes", [1, 64, asciigrid._BLOCK_BYTES])
@pytest.mark.parametrize("tile_px", [1, 3, 100])
def test_cli_compare_names_the_fault_of_the_first_faulty_file(
    tmp_path, capsys, block_bytes, tile_px
):
    # the three files are read in step, band by band, yet a fault of an
    # earlier file is named before any fault of a later one: a's last row
    # before b's first row, a missing b or a b on another grid, and b's
    # faults before the mask's
    body = ["1 2 3", "4 5 6", "7 8 9", "1 2 3"]
    files = {}

    def grid_file(name, lines, header=_grid_header(3, 4)):
        files[name] = tmp_path / f"{name}.asc"
        files[name].write_bytes((header + "\n".join(lines) + "\n").encode("latin-1"))

    grid_file("a", body)
    grid_file("a_last", body[:-1] + ["1 2"])
    grid_file("b", body)
    grid_file("b_first", ["x 2 3"] + body[1:])
    files["b_missing"] = tmp_path / "b_missing.asc"
    grid_file("b_other", body, _grid_header(3, 4).replace("xllcorner 0", "xllcorner 5"))
    grid_file("b_extra", body + ["1 2 3"])  # a fault past the last row
    grid_file("m", ["0 1 0", "0 0 0", "1 1 0", "0 0 -9999"])
    grid_file("m_first", ["0 1 caf\u00e9"] + body[1:])
    grid_file("m_last", body[:-1] + ["0 0 0 0"])
    grid_file("m_extra", body + ["0 0 0"])
    grid_file("m_header", body, _grid_header(3, 4).replace("cellsize 1", "cellsize 0"))
    files["m_missing"] = tmp_path / "m_missing.asc"
    grid_file("m_other", body + ["0 0 0"], _grid_header(3, 5))
    out = tmp_path / "t.csv"
    bs = ["b", "b_first", "b_missing", "b_other", "b_extra"]
    masks = [None, "m", "m_first", "m_last", "m_extra", "m_header", "m_missing", "m_other"]
    for a, b, m in itertools.product(["a", "a_last"], bs, masks):
        argv = [files[a], files[b]] + ([] if m is None else ["--mask", files[m]])
        with mock.patch.object(asciigrid, "_BLOCK_BYTES", block_bytes):
            code = run_cli(["compare", *argv, "--out", out])
        printed = capsys.readouterr()
        expected = _read_in_turn(*argv[:2], None if m is None else files[m])
        assert (code, printed.err) == expected, (a, b, m)
        if a == "a_last":
            assert printed.err.endswith("a_last.asc: data row 4 has 2 values, header declares ncols 3\n")
        if code:
            assert printed.out == "" and not out.exists(), (a, b, m)
        out.unlink(missing_ok=True)


def _compare_stdout(report, top, out):
    """What compare prints for ``report``."""
    if report.global_mae is None:
        return "no valid pixels to compare\n"
    tiles = {(t.row, t.col): t for t in report.tiles}
    lines = [
        f"global MAE {report.global_mae:.4f} m | RMSE {report.global_rmse:.4f} m | "
        f"valid px {report.total_valid}"
    ]
    for rank, rc in enumerate(report.ranking[:top], start=1):
        t = tiles[rc]
        lines.append(f"  #{rank} tile ({t.row},{t.col}) MAE {t.mae:.4f} RMSE {t.rmse:.4f}")
    return "\n".join(lines + [f"tile report written to {out}"]) + "\n"


# cells whose difference is NaN, +-inf, -0.0 or has a square that overflows
CELL_TOKENS = ["-9999", "nan", "inf", "-inf", "-0.0", "0", "1e300", "-1e300"]
MASK_TOKENS = ["-9999", "inf", "-inf", "0.5", "0", "-0.0", "1", "-3"]


@pytest.mark.filterwarnings("ignore:(overflow|invalid value):RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    past=st.integers(0, 45),
    masked=st.booleans(),
    top=st.integers(0, 20),
    block_bytes=st.sampled_from(BLOCK_BYTES),
    seed=st.integers(0, 2**32 - 1),
)
def test_cli_compare_prints_and_writes_what_compare_tiled_gives(
    shape, past, masked, top, block_bytes, seed
):
    # tile_px runs from 1 to past nrows; read in blocks smaller than a row
    # and larger than a band, so that blocks straddle band edges
    tile_px = 1 + past % (shape[0] + 5)
    rng = np.random.default_rng(seed)
    header = _grid_header(shape[1], shape[0])

    def tokens(choices, special):
        cells = np.char.mod("%.6f", rng.normal(100.0, 30.0, shape)).astype(object)
        where = rng.random(shape) < special
        cells[where] = rng.choice(choices, int(where.sum()))
        return header + "".join(" ".join(row) + "\n" for row in cells)

    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{n}.asc" for n in ("a", "b", "m", "tiles", "expected")]
        paths[0].write_text(tokens(CELL_TOKENS, 0.15))
        paths[1].write_text(tokens(CELL_TOKENS, 0.15))
        paths[2].write_text(tokens(MASK_TOKENS, 1.0))
        argv = ["compare", paths[0], paths[1], "--tile-px", tile_px, "--top", top, "--out", paths[3]]
        if masked:
            argv += ["--mask", paths[2]]
        with mock.patch.object(asciigrid, "_BLOCK_BYTES", block_bytes), \
                contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert run_cli(argv) == 0

        a = whole_file_ascii_grid(paths[0])[0]
        b = whole_file_ascii_grid(paths[1])[0]
        exclude = np.abs(whole_file_ascii_grid(paths[2])[0]) > 0 if masked else None
        report = compare_tiled(a, b, exclude=exclude, tile_px=tile_px)
        write_tile_csv(report, paths[4])
        assert paths[3].read_bytes() == paths[4].read_bytes()
        assert stdout.getvalue() == _compare_stdout(report, top, paths[3])


def test_compare_grid_files_is_compare_tiled_on_the_whole_files(tmp_path):
    grid = GridSpec(0, 0, 1.0, 7, 9)
    rng = np.random.default_rng(3)
    a, b = rng.normal(10.0, 2.0, (2, 9, 7))
    a[4, 2] = np.nan
    mask = (rng.random((9, 7)) < 0.3).astype(float)
    for name, values in (("a", a), ("b", b), ("m", mask)):
        write_ascii_grid(values, grid, tmp_path / f"{name}.asc")
    a, b, mask = (whole_file_ascii_grid(tmp_path / f"{n}.asc")[0] for n in ("a", "b", "m"))
    for tile_px in (1, 4, 9, 20):
        expected = compare_tiled(a, b, exclude=mask > 0, tile_px=tile_px)
        files = [tmp_path / "a.asc", tmp_path / "b.asc", tmp_path / "m.asc"]
        assert compare_grid_files(*files, tile_px=tile_px) == expected
        assert compare_grid_files(*files[:2], tile_px=tile_px) == compare_tiled(a, b, tile_px=tile_px)
    with pytest.raises(ParameterError, match="tile_px must be >= 1, got 0"):
        compare_grid_files(tmp_path / "missing.asc", tmp_path / "missing.asc", tile_px=0)


def test_cli_dtm_from_las_file(tmp_path):
    from test_ingest import make_las

    rng = np.random.default_rng(40)
    n = 4000
    # 40x40 m flat field at z=75, raw ints against scale 0.01
    ix = rng.integers(0, 4000, n)
    iy = rng.integers(0, 4000, n)
    iz = np.full(n, 7500)
    las = make_las(list(zip(ix, iy, iz)), scale=(0.01, 0.01, 0.01))
    path = tmp_path / "pts.las"
    path.write_bytes(las)
    out = tmp_path / "out"
    code = run_cli(["dtm", path, "--out-dir", out, "--a1", "50", "--a2", "100"])
    assert code == 0
    dtm, grid = read_ascii_grid(out / "dtm.asc")
    assert grid.cell == 0.5
    assert np.abs(dtm - 75.0).max() < 1e-5


def test_cli_compare_with_mask(tmp_path):
    grid = GridSpec(0, 0, 1.0, 8, 8)
    a = np.zeros((8, 8))
    b = np.full((8, 8), 3.0)
    b[:, :4] = 100.0  # excluded half
    mask = np.zeros((8, 8))
    mask[:, :4] = 1.0
    write_ascii_grid(a, grid, tmp_path / "a.asc")
    write_ascii_grid(b, grid, tmp_path / "b.asc")
    write_ascii_grid(mask, grid, tmp_path / "m.asc")
    out = tmp_path / "t.csv"
    code = run_cli(
        [
            "compare",
            tmp_path / "a.asc",
            tmp_path / "b.asc",
            "--mask",
            tmp_path / "m.asc",
            "--tile-px",
            "8",
            "--out",
            out,
        ]
    )
    assert code == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    assert row[2] == "32" and row[3] == "3.000000"


@pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
def test_cli_compare_mask_excludes_every_nonzero_but_nodata(tmp_path, capsys, block_bytes):
    # NODATA reads as NaN and is compared like 0; inf, -inf and any other
    # non-zero value exclude the cell
    rng = np.random.default_rng(5)
    grid = GridSpec(0, 0, 1.0, 9, 7)
    a = rng.normal(10.0, 2.0, grid.shape)
    b = rng.normal(10.0, 2.0, grid.shape)
    a[rng.random(grid.shape) < 0.1] = np.nan
    tokens = np.array(["-9999", "inf", "-inf", "0.5", "0", "-0.0", "1", "-3"])
    mask = tokens[rng.integers(0, tokens.size, grid.shape)]
    write_ascii_grid(a, grid, tmp_path / "a.asc")
    write_ascii_grid(b, grid, tmp_path / "b.asc")
    header = format_ascii_grid(np.zeros(grid.shape), grid).split("\n")[:6]
    rows = [" ".join(row) for row in mask[::-1]]  # the file holds the top row first
    (tmp_path / "m.asc").write_text("\n".join(header + rows) + "\n")
    out = tmp_path / "t.csv"
    argv = ["compare", tmp_path / "a.asc", tmp_path / "b.asc", "--mask", tmp_path / "m.asc"]
    with mock.patch.object(asciigrid, "_BLOCK_BYTES", block_bytes):
        assert run_cli([*argv, "--tile-px", "4", "--out", out]) == 0

    a, _ = read_ascii_grid(tmp_path / "a.asc")
    b, _ = read_ascii_grid(tmp_path / "b.asc")
    diff = a - b
    valid = np.isfinite(diff) & np.isin(mask, ["-9999", "0", "-0.0"])
    assert f"valid px {int(valid.sum())}" in capsys.readouterr().out
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert len(rows) == 6
    for tr, tc, n, mae, rmse, _rank in rows:
        rs = slice(int(tr) * 4, int(tr) * 4 + 4)
        cs = slice(int(tc) * 4, int(tc) * 4 + 4)
        d = diff[rs, cs][valid[rs, cs]]
        assert int(n) == d.size
        if d.size:
            assert mae == f"{np.abs(d).mean():.6f}"
            assert rmse == f"{np.sqrt((d * d).mean()):.6f}"


def test_cli_dtm_crop(tmp_path):
    scene_file = tmp_path / "scene.txt"
    write_scene_file(scene_file)
    synth = tmp_path / "s"
    run_cli(["synth", scene_file, "--out-dir", synth])
    out = tmp_path / "c"
    code = run_cli(
        [
            "dtm",
            synth / "points.xyz",
            "--out-dir",
            out,
            "--a1",
            "100",
            "--a2",
            "200",
            "--crop",
            "30",
            "30",
            "90",
            "90",
        ]
    )
    assert code == 0
    _, grid = read_ascii_grid(out / "dtm.asc")
    assert (grid.origin_x, grid.origin_y) == (30.0, 30.0)
    assert (grid.ncols, grid.nrows) == (120, 120)


def test_cli_report_echoes_the_dataclass_defaults_and_every_flag_given(tmp_path, scene_points):
    path = tmp_path / "pts.xyz"
    write_points_xyz(scene_points, path)
    assert run_cli(["dtm", path, "--out-dir", tmp_path / "default"]) == 0
    report = json.loads((tmp_path / "default" / "report.json").read_text())
    assert report["parameters"] == PipelineConfig().parameter_echo()
    flags = {
        "--cell": ("1.0", "cell_m", 1.0),
        "--workers": ("2", "workers", 2),
        "--slope-threshold": ("40", "slope_threshold_deg", 40.0),
        "--a1": ("30000", "a1_m2", 30_000.0),
        "--a2": ("90000", "a2_m2", 90_000.0),
        "--rectangularity": ("0.6", "rectangularity", 0.6),
        "--window": ("7", "window_px", 7),
        "--confidence": ("3", "confidence", 3.0),
        "--percentile": ("0.2", "percentile", 0.2),
        "--min-segment-px": ("5", "min_segment_px", 5),
    }
    argv = ["dtm", path, "--out-dir", tmp_path / "set", "--strict"]
    argv += ["--crop", "10", "20", "390", "380"]
    for flag, (value, _, _) in flags.items():
        argv += [flag, value]
    assert run_cli(argv) == 0
    report = json.loads((tmp_path / "set" / "report.json").read_text())
    assert report["parameters"] == {
        **{key: echoed for _, key, echoed in flags.values()},
        "strict_parse": True,
        "crop": [10.0, 20.0, 390.0, 380.0],
    }


def test_cli_determinism_across_workers(tmp_path):
    scene_file = tmp_path / "scene.txt"
    write_scene_file(scene_file)
    synth_dir = tmp_path / "s"
    run_cli(["synth", scene_file, "--out-dir", synth_dir])
    out1 = tmp_path / "w1"
    out8 = tmp_path / "w8"
    args = ["dtm", synth_dir / "points.xyz", "--a1", "100", "--a2", "200"]
    assert run_cli(args + ["--out-dir", out1, "--workers", "1"]) == 0
    assert run_cli(args + ["--out-dir", out8, "--workers", "8"]) == 0
    for name in ("dtm.asc", "ground_mask.asc", "water_mask.asc"):
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes()


def test_cli_crop_writes_water_segments_inside_window(tmp_path, crop_points):
    pts = tmp_path / "p.xyz"
    write_points_xyz(crop_points, pts)
    args = ["dtm", pts, "--a1", "100", "--a2", "200"]
    assert run_cli(args + ["--out-dir", tmp_path / "full"]) == 0
    crop = ["--crop", "10", "10", "50", "40"]
    assert run_cli(args + ["--out-dir", tmp_path / "crop"] + crop) == 0

    def rows_of(out):
        return out.read_text().splitlines()[1:]

    full_rows = {
        row.split(",")[0]: row for row in rows_of(tmp_path / "full" / "water_segments.csv")
    }
    water, _ = read_ascii_grid(tmp_path / "full" / "water_mask.asc")
    # water segments are numbered in row-major first-encounter order
    labels, n = ndimage.label(water != 0, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    assert n == len(full_rows)
    window = np.bincount(labels[20:80, 20:100].ravel(), minlength=n + 1)
    expected = []
    for seg_id in np.flatnonzero(window[1:]) + 1:
        _, count, elevation = full_rows[str(seg_id)].split(",")
        assert int(count) > window[seg_id]  # the window cuts the segment
        expected.append(f"{seg_id},{window[seg_id]},{elevation}")
    assert expected and len(expected) < n
    assert rows_of(tmp_path / "crop" / "water_segments.csv") == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["dtm", "{pts}", "--cell", "nan"],
        ["dtm", "{pts}", "--cell", "inf"],
        ["slope", "{pts}", "--cell", "nan"],
        ["dtm", "{pts}", "--confidence", "nan"],
        ["dtm", "{pts}", "--confidence", "inf"],
        ["water", "{pts}", "--confidence", "nan"],
        ["dtm", "{pts}", "--crop", "nan", "0", "10", "10"],
        ["dtm", "{pts}", "--crop", "0", "0", "inf", "10"],
        ["synth", "{scene}", "--density", "nan"],
        ["synth", "{scene}", "--density", "inf"],
        ["synth", "{scene}", "--seed", "-1"],
        ["dtm", "{pts}", "--workers", "0"],
        ["dtm", "{pts}", "--workers", "-3"],
        ["slope", "{pts}", "--workers", "0"],
        ["water", "{pts}", "--workers", "-3"],
        # checked before the input is read: a missing input would exit 2
        *(
            [command, "{missing}", *flag]
            for command in ("dtm", "slope", "water")
            for flag in (["--workers", "0"], ["--cell", "0"])
        ),
        ["slope", "{missing}", "--slope-threshold", "95"],
        ["dtm", "{missing}", "--slope-threshold", "95"],
        ["water", "{missing}", "--window", "4"],
        ["synth", "{scene}", "--cell", "0"],
        # found only once the data's extent is known, yet before any output is made
        ["dtm", "{wide}", "--crop", "1000", "1000", "2000", "2000"],
        *([command, "{wide}", "--cell", "0.01"] for command in ("dtm", "slope", "water")),
    ],
)
def test_cli_out_of_domain_parameter_exits_3(tmp_path, capsys, argv):
    pts = tmp_path / "p.xyz"
    pts.write_text("0 0 1\n10 0 1\n0 10 1\n10 10 1\n")
    wide = tmp_path / "wide.xyz"  # a 500 m square: 2.5e9 cells at 0.01 m
    wide.write_text("0 0 1\n500 0 1\n0 500 1\n500 500 1\n")
    scene = tmp_path / "scene.txt"
    write_scene_file(scene)
    argv = [
        a.format(pts=pts, wide=wide, scene=scene, missing=tmp_path / "missing.xyz")
        for a in argv
    ]
    assert run_cli(argv + ["--out-dir", tmp_path / "out"]) == 3
    assert capsys.readouterr().err.startswith("parameter error: ")
    assert not (tmp_path / "out").exists()  # nor is any output made


# open terrain of the benchmark's 300 m tile: a tilted plane, a hill and a
# hollow, a ramp, a lake and sheds.  At the default area limits its main
# region lies between a1 and a2 and is nearly square, so no region is ground
RURAL_SCENE = Scene(
    extent=BBox(0, 0, 300, 300),
    density=4.0,
    seed=21,
    plane=Plane(200.0, 0.002, -0.003),
    hills=[Hill(60, 240, 20, 4.0), Hill(240, 60, 18, -3.0)],
    buildings=[Building(200, 200, 12, 10, 6.0, 30.0), Building(50, 60, 10, 14, 5.0)],
    ramps=[Ramp(20, 150, 280, 150, 8, 6)],
    waters=[WaterBody(_rect_polygon(130, 220, 40, 30), level=199.5)],
)


def test_cli_without_ground_regions_names_the_area_rules(tmp_path, capsys):
    path = tmp_path / "rural.xyz"
    write_points_xyz(sample_points(RURAL_SCENE), path)
    out = tmp_path / "out"
    assert run_cli(["dtm", path, "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "input error: [stage interpolate] need at least 3 non-collinear ground pixels"
    )
    assert "a2 = 100000 m^2" in err and "[a1 = 40000, a2] m^2" in err and "r = 0.5" in err
    # every region is under one of the two rules that make no ground
    assert "area_above_a2 0 (0 px)" in err and "mid_rect_at_most_r 0 (0 px)" in err
    assert "area_below_a1 " in err and "mid_rect_above_r 1 " in err
    assert not out.exists()


def test_cli_text_without_valid_points_names_what_was_skipped_and_dropped(tmp_path, capsys):
    path = tmp_path / "p.xyz"
    path.write_text("nan nan nan\n1 2\n")
    out = tmp_path / "out"
    for command in ("dtm", "water"):
        assert run_cli([command, path, "--out-dir", out]) == 2
        assert capsys.readouterr().err == (
            "input error: [stage ingest] no valid points in text input: 1 malformed record(s) "
            "skipped (--strict names the first), 1 with non-finite coordinates dropped\n"
        )
        assert not out.exists()


def test_slope_help_describes_the_slope_threshold(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["slope", "--help"])
    assert exc.value.code == 0
    assert "break-line slope threshold in degrees" in capsys.readouterr().out

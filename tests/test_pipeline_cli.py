import json

import numpy as np
import pytest

from breakline_dtm.asciigrid import read_ascii_grid, write_ascii_grid
from breakline_dtm.cli import main
from breakline_dtm.errors import EmptyInputError
from breakline_dtm.groundfilter import FilterParams
from breakline_dtm.ingest import BBox, write_points_xyz
from breakline_dtm.interp import SOURCE_INTERPOLATED
from breakline_dtm.pipeline import PipelineConfig, run_pipeline
from breakline_dtm.raster import GridSpec
from breakline_dtm.scene import (
    Building,
    Plane,
    Scene,
    WaterBody,
    sample_points,
    truth_rasters,
    _rect_polygon,
)

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
    for name in (
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
    ):
        assert (out_dir / name).exists(), name

    report = json.loads((out_dir / "report.json").read_text())
    assert report["parameters"]["a1_m2"] == 100.0
    dtm, grid = read_ascii_grid(out_dir / "dtm.asc")
    assert grid.shape == (240, 240)
    # flat scene: away from the building the DTM reads the plane
    assert abs(dtm[10, 10] - 50.0) < 1e-5


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


def test_cli_exit_codes(tmp_path):
    # missing file -> input error
    assert run_cli(["dtm", tmp_path / "missing.xyz"]) == 2
    # empty input -> input error
    empty = tmp_path / "empty.xyz"
    empty.write_text("")
    assert run_cli(["dtm", empty, "--out-dir", tmp_path]) == 2
    # bad parameter -> parameter error
    pts = tmp_path / "p.xyz"
    pts.write_text("0 0 1\n1 0 1\n0 1 1\n1 1 1\n")
    assert run_cli(["dtm", pts, "--out-dir", tmp_path, "--slope-threshold", "95"]) == 3
    assert run_cli(["water", pts, "--out-dir", tmp_path, "--window", "4"]) == 3


def _grid_header(ncols, nrows):
    return (
        f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\n"
        "cellsize 1\nNODATA_value -9999\n"
    )


def _compare_bad_grid(tmp_path, capsys, payload):
    grid = GridSpec(0, 0, 1.0, 3, 2)
    write_ascii_grid(np.zeros((2, 3)), grid, tmp_path / "a.asc")
    bad = tmp_path / "bad.asc"
    bad.write_bytes(payload)
    code = run_cli(["compare", tmp_path / "a.asc", bad, "--out", tmp_path / "t.csv"])
    return code, capsys.readouterr().err


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
    # a truncated ncols, a NaN origin and a zero cell size all fault the file
    for old, new in [("ncols 3", "ncols 2.7"), ("xllcorner 0", "xllcorner nan"),
                     ("cellsize 1", "cellsize 0")]:
        payload = (_grid_header(3, 2).replace(old, new) + "1 2 3\n4 5 6\n").encode()
        code, err = _compare_bad_grid(tmp_path, capsys, payload)
        assert code == 2, err
        assert err.startswith("input error: ") and "bad.asc: header " + new.split()[0] in err


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

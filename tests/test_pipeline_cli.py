import json
import weakref
from unittest import mock

import numpy as np
import pytest
from scipy import ndimage

from breakline_dtm import asciigrid, pipeline
from breakline_dtm.asciigrid import format_ascii_grid, read_ascii_grid, write_ascii_grid
from breakline_dtm.cli import main
from breakline_dtm.errors import EmptyInputError
from breakline_dtm.groundfilter import FilterParams
from breakline_dtm.ingest import BBox, PointCloud, write_points_xyz
from breakline_dtm.interp import SOURCE_INTERPOLATED
from breakline_dtm.pipeline import PipelineConfig, run_pipeline
from breakline_dtm.raster import GridSpec, fill_voids_nearest
from breakline_dtm.scene import (
    Building,
    Plane,
    Scene,
    WaterBody,
    sample_points,
    truth_rasters,
    _rect_polygon,
)
from oracles import per_cell_ascii_grid
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
    # the high-water mark after each stage, in stage order
    assert list(report["peak_rss_mb"]) == list(report["timings_s"])
    peaks = list(report["peak_rss_mb"].values())
    assert peaks[0] > 0 and peaks == sorted(peaks)
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
    """Exit code and stderr of compare on a faulty grid, the same at every read block size."""
    grid = GridSpec(0, 0, 1.0, 3, 2)
    write_ascii_grid(np.zeros((2, 3)), grid, tmp_path / "a.asc")
    bad = tmp_path / "bad.asc"
    bad.write_bytes(payload)
    results = set()
    for block_bytes in BLOCK_BYTES:
        with mock.patch.object(asciigrid, "_READ_BLOCK_BYTES", block_bytes):
            code = run_cli(["compare", tmp_path / "a.asc", bad, "--out", tmp_path / "t.csv"])
        results.add((code, capsys.readouterr().err))
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


def test_cli_compare_mask_excludes_every_nonzero_but_nodata(tmp_path, capsys):
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
    ],
)
def test_cli_out_of_domain_parameter_exits_3(tmp_path, capsys, argv):
    pts = tmp_path / "p.xyz"
    pts.write_text("0 0 1\n10 0 1\n0 10 1\n10 10 1\n")
    scene = tmp_path / "scene.txt"
    write_scene_file(scene)
    argv = [a.format(pts=pts, scene=scene) for a in argv]
    assert run_cli(argv + ["--out-dir", tmp_path / "out"]) == 3
    assert capsys.readouterr().err.startswith("parameter error: ")

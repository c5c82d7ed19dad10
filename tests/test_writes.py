"""Every output file is written through ``ingest.write_blocks``: whole, or not at all.

A write that fails partway leaves no ``.part`` file, no file at a path
that had none, and an earlier file at the path as it was, byte for byte.
"""

import csv

import numpy as np
import pytest

from breakline_dtm import asciigrid, cli, ingest
from breakline_dtm.asciigrid import write_ascii_grid
from breakline_dtm.ingest import BBox, PointCloud, write_csv, write_points_xyz
from breakline_dtm.raster import GridSpec
from breakline_dtm.scene import Building, Plane, Scene, sample_points
from breakline_dtm.tiling import compare_tiled, write_tile_csv
from breakline_dtm.water import WaterMap, WaterSegment

EARLIER = b"an earlier run's file\n"


class Fault(Exception):
    pass


def _raster(path):
    write_ascii_grid(np.arange(12.0).reshape(3, 4), GridSpec(0, 0, 1.0, 4, 3), path)


def _points(path):
    write_points_xyz(PointCloud(np.arange(30.0).reshape(10, 3)), path)


def _csv(path):
    write_csv(path, ["a", "b"], [[1, 2.5], [2, None]])


def _csv_rows_fault(path):
    def rows():
        yield [1, 2.5]
        raise Fault("a row that cannot be made")

    write_csv(path, ["a", "b"], rows())


def _water_csv(path):
    label = np.array([[1, 0], [0, 2]], dtype=np.int32)
    segments = [WaterSegment(1, np.array([0]), 3.25), WaterSegment(2, np.array([3]), float("nan"))]
    cli._write_water_csv(path, WaterMap(GridSpec(0, 0, 1.0, 2, 2), label > 0, label, segments))


def _tile_csv(path):
    write_tile_csv(compare_tiled(np.zeros((4, 4)), np.ones((4, 4)), tile_px=2), path)


WRITERS = {
    "asc": _raster,
    "points.xyz": _points,
    "csv": _csv,
    "csv_rows_fault": _csv_rows_fault,
    "water_segments.csv": _water_csv,
    "tiles.csv": _tile_csv,
}


def _fail_after_first_block(monkeypatch, *modules):
    """Make each ``write_blocks`` call of ``modules`` write its first block, then fail."""
    write_blocks = ingest.write_blocks

    def first_block_then_fault(path, blocks):
        def faulty():
            yield next(iter(blocks))
            raise Fault("a block that cannot be made")

        write_blocks(path, faulty())

    for module in modules:
        monkeypatch.setattr(module, "write_blocks", first_block_then_fault)


def _part_files(directory):
    return sorted(p.name for p in directory.rglob("*.part"))


@pytest.mark.parametrize("earlier", [None, EARLIER])
@pytest.mark.parametrize("name", WRITERS)
def test_write_that_fails_partway_leaves_the_earlier_file(tmp_path, monkeypatch, name, earlier):
    _fail_after_first_block(monkeypatch, asciigrid, ingest)
    path = tmp_path / name
    if earlier is not None:
        path.write_bytes(earlier)
    with pytest.raises(Fault):
        WRITERS[name](path)
    assert _part_files(tmp_path) == []
    if earlier is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == earlier


@pytest.mark.parametrize("name", [name for name in WRITERS if name != "csv_rows_fault"])
def test_every_writer_writes_through_write_blocks(tmp_path, monkeypatch, name):
    # a writer that opened its file itself would leave it here
    monkeypatch.setattr(ingest.os, "replace", lambda part, path: None)
    WRITERS[name](tmp_path / name)
    assert _part_files(tmp_path) == [name + ".part"]
    assert not (tmp_path / name).exists()


def test_write_csv_bytes_are_csv_writers_on_a_newline_free_file(tmp_path):
    header = ["label", "area_m2", "note", "rank"]
    rows = [
        [1, 2.5, "ground", 3],
        [2, -0.0000004, "", None],
        [np.int64(3), np.float64(1 / 3), 'a "quoted", text', ""],
        [4, float("nan"), "line\nbreak", float("inf")],
        [5, 1e20, " spaced ", -7],
    ]
    with open(tmp_path / "expected.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.6f}" if isinstance(v, float) else v for v in row])
    write_csv(tmp_path / "got.csv", header, iter(rows))
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "expected.csv").read_bytes()
    assert got.startswith(b"label,area_m2,note,rank\r\n1,2.500000,ground,3\r\n2,-0.000000,,\r\n")


SCENE = Scene(
    extent=BBox(0, 0, 120, 120),
    density=4.0,
    seed=3,
    plane=Plane(base=50.0),
    buildings=[Building(30, 30, 20, 20, 8.0)],
)


@pytest.fixture(scope="module")
def filled_out_dir(tmp_path_factory):
    """An out-dir that holds one dtm run's files, and their bytes."""
    root = tmp_path_factory.mktemp("filled")
    write_points_xyz(sample_points(SCENE), root / "points.xyz")
    out = root / "out"
    argv = ["dtm", str(root / "points.xyz"), "--out-dir", str(out), "--a1", "100", "--a2", "200"]
    assert cli.main(argv) == 0
    return argv, {p.name: p.read_bytes() for p in out.iterdir()}


def _rerun(tmp_path, filled_out_dir, capsys):
    """Run dtm again into a copy of the filled out-dir; its exit code and the copy."""
    argv, files = filled_out_dir
    out = tmp_path / "out"
    out.mkdir()
    for name, data in files.items():
        (out / name).write_bytes(data)
    code = cli.main(argv[:3] + [str(out)] + argv[4:])
    assert "internal error: " in capsys.readouterr().err
    return code, out


def test_cli_dtm_fault_before_regions_csv_leaves_the_earlier_regions_csv(
    tmp_path, monkeypatch, capsys, filled_out_dir
):
    def region_report_rows(*args):
        raise Fault("no rows")

    monkeypatch.setattr(cli, "region_report_rows", region_report_rows)
    code, out = _rerun(tmp_path, filled_out_dir, capsys)
    assert code == 4
    earlier = filled_out_dir[1]["regions.csv"]
    assert earlier.count(b"\r\n") > 1  # a header and at least one region
    assert (out / "regions.csv").read_bytes() == earlier
    assert _part_files(out) == []


def test_cli_dtm_report_write_that_fails_leaves_the_earlier_report(
    tmp_path, monkeypatch, capsys, filled_out_dir
):
    _fail_after_first_block(monkeypatch, cli)  # report.json's write alone
    code, out = _rerun(tmp_path, filled_out_dir, capsys)
    assert code == 4
    assert (out / "report.json").read_bytes() == filled_out_dir[1]["report.json"]
    assert _part_files(out) == []


def test_cli_dtm_writes_every_file_through_write_blocks(tmp_path, monkeypatch, filled_out_dir):
    # with the renames dropped, each output is left as its .part file alone
    monkeypatch.setattr(ingest.os, "replace", lambda part, path: None)
    argv, files = filled_out_dir
    out = tmp_path / "out"
    assert cli.main(argv[:3] + [str(out)] + argv[4:]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(name + ".part" for name in files)
    assert {"report.json", "regions.csv", "water_segments.csv"} <= files.keys()

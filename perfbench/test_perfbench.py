"""Self-tests of the benchmark: writers, span arithmetic and the digest check.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from breakline_dtm.asciigrid import read_ascii_grid  # noqa: E402
from breakline_dtm.ingest import read_points  # noqa: E402
from breakline_dtm.raster import GridSpec  # noqa: E402


def test_las_writer_round_trips_through_read_points(tmp_path):
    rng = np.random.default_rng(7)
    xyz = np.column_stack(
        [rng.uniform(0, 400, 1000), rng.uniform(0, 400, 1000), rng.uniform(150, 260, 1000)]
    )
    xyz[:4, :2] = [[0, 0], [400, 0], [0, 400], [400, 400]]
    path = tmp_path / "points.las"
    inputs.write_las(xyz, path)
    pc = read_points(path)
    assert pc.count == len(xyz)
    assert pc.skipped_records == 0 and pc.dropped_nonfinite == 0
    assert np.abs(pc.xyz - xyz).max() <= inputs.LAS_SCALE / 2 + 1e-9
    assert np.array_equal(pc.xyz[:4, :2], xyz[:4, :2])  # extent corners are exact


def test_xyz_and_grid_writers_round_trip(tmp_path):
    xyz = np.array([[0.5, 1.25, 100.0], [2.0, 3.0, -4.1234567]])
    inputs.write_xyz(xyz, tmp_path / "p.xyz")
    assert np.allclose(read_points(tmp_path / "p.xyz").xyz, np.round(xyz, 6))

    grid = GridSpec(10.0, 20.0, 0.5, 3, 2)
    vals = np.array([[1.0, np.nan, 3.5], [-0.25, 5.0, 6.125]])
    inputs.write_grid(vals, grid, tmp_path / "g.asc")
    back, back_grid = read_ascii_grid(tmp_path / "g.asc")
    assert back_grid == grid
    assert np.array_equal(np.isnan(back), np.isnan(vals))
    assert np.allclose(back[~np.isnan(vals)], vals[~np.isnan(vals)])
    assert np.array_equal(inputs.read_grid(tmp_path / "g.asc"), back, equal_nan=True)


def span(name, start, end, parent=-1):
    return {"name": name, "site": "t", "parent": parent, "start": start, "end": end}


def test_covered_is_the_union_of_intervals():
    assert traced.covered([]) == 0.0
    assert traced.covered([(0, 1), (2, 4)]) == 3
    assert traced.covered([(0, 3), (1, 2), (2.5, 5)]) == 5
    assert traced.covered([(4, 6), (0, 1), (0.5, 2)]) == 4


def test_self_time_subtracts_children_but_not_grandchildren():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("pipeline.run_pipeline", 1.0, 7.0, parent=0),
        span("ingest.read_points", 1.5, 3.5, parent=1),
        span("groundfilter.min_area_rect", 4.0, 4.5, parent=1),
        span("groundfilter.min_area_rect", 5.0, 6.0, parent=1),
        span("asciigrid.write_ascii_grid", 8.0, 9.0, parent=0),
    ]
    own = traced.self_times(spans)
    assert own == pytest.approx([10 - 6 - 1, 6 - 2 - 0.5 - 1, 2, 0.5, 1, 1])
    agg = traced.aggregate(spans)
    assert agg["groundfilter.min_area_rect"] == pytest.approx({"s": 1.5, "self_s": 1.5, "calls": 2})
    assert agg["cli.main"]["self_s"] == pytest.approx(3)


def test_self_time_counts_overlapping_children_once():
    spans = [span("a.p", 0.0, 4.0), span("a.c", 1.0, 3.0, parent=0), span("a.c", 2.0, 3.5, parent=0)]
    assert traced.self_times(spans)[0] == pytest.approx(4 - 2.5)


def test_output_digests_ignore_the_run_directory_and_catch_a_changed_byte(tmp_path):
    outs = []
    for name in ("out0", "out1"):
        out = tmp_path / name
        out.mkdir()
        (out / "tiles.csv").write_text("tile_row,tile_col\n0,0\n")
        (out / "stdout.txt").write_text(f"tile report written to {out}/tiles.csv\n")
        outs.append(out)
    first, second = (run.output_digests(o, ("tiles.csv", "stdout.txt")) for o in outs)
    assert first == second
    (outs[1] / "tiles.csv").write_text("tile_row,tile_col\n0,1\n")
    assert run.output_digests(outs[1], ("tiles.csv", "stdout.txt")) != first
    assert run.output_digests(tmp_path, ("dtm.asc",)) == {"dtm.asc": "missing"}


def test_golden_check_flags_changed_inputs_and_outputs():
    gold = {"inputs": {"points.las": "a" * 64}, "outputs": {"dtm.asc": "b" * 64, "regions.csv": "c" * 64}}
    same_out = {"dtm.asc": "b" * 64, "regions.csv": "c" * 64}
    assert run.golden_problems(None, {}, {}) == []
    assert run.golden_problems(gold, gold["inputs"], same_out) == []
    assert len(run.golden_problems(gold, {"points.las": "0" * 64}, same_out)) == 1
    problems = run.golden_problems(gold, gold["inputs"], {"dtm.asc": "b" * 64, "regions.csv": "d" * 64})
    assert problems == ["regions.csv differs from the digest recorded for this seed"]


def test_recorded_digests_cover_the_default_seed_of_every_workload():
    table = json.loads(run.DIGESTS.read_text())
    for workload in run.WORKLOADS:
        gold = run.golden(workload, 0)
        assert gold is not None, workload
        expected = run.DTM_OUTPUTS if workload != "qa_compare" else ("tiles.csv", "stdout.txt")
        assert sorted(gold["outputs"]) == sorted(expected)
        assert all(len(d) == 64 for d in [*gold["inputs"].values(), *gold["outputs"].values()])
    assert set(table) == set(run.WORKLOADS)

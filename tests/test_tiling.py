import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breakline_dtm.errors import GridMismatchError, ParameterError
from breakline_dtm.tiling import compare_tiled, write_tile_csv
from oracles import full_raster_tiles, tile_metrics


def test_identical_rasters_all_zero():
    a = np.linspace(0, 99, 100).reshape(10, 10)
    rep = compare_tiled(a, a.copy(), tile_px=4)
    for t in rep.tiles:
        assert t.mae == 0.0 and t.rmse == 0.0
    assert rep.global_mae == 0.0 and rep.global_rmse == 0.0


def test_constant_offset_exact():
    rng = np.random.default_rng(12)
    a = rng.normal(100, 5, (40, 40))
    rep = compare_tiled(a, a + 2.5, tile_px=10)
    for t in rep.tiles:
        assert t.mae == pytest.approx(2.5, abs=1e-12)
        assert t.rmse == pytest.approx(2.5, abs=1e-12)


def test_toy_rasters_match_direct_summation():
    a = np.array(
        [
            [1.0, 2.0, 3.0, 4.0],
            [5.0, 6.0, 7.0, 8.0],
            [9.0, 10.0, 11.0, 12.0],
            [13.0, 14.0, 15.0, 16.0],
        ]
    )
    b = np.array(
        [
            [1.0, 1.0, 3.5, 4.0],
            [5.0, 8.0, 7.0, 8.0],
            [9.0, 10.0, 11.0, 10.5],
            [12.0, 14.0, 15.0, 16.0],
        ]
    )
    rep = compare_tiled(a, b, tile_px=2)
    oracle = tile_metrics(a, b, np.ones_like(a, bool), 2)
    for t in rep.tiles:
        mae, rmse, n = oracle[(t.row, t.col)]
        assert t.valid_px == n
        assert t.mae == pytest.approx(mae, abs=1e-12)
        assert t.rmse == pytest.approx(rmse, abs=1e-12)


def test_mask_excludes_pixels():
    a = np.zeros((6, 6))
    b = np.ones((6, 6)) * 4.0
    exclude = np.zeros((6, 6), bool)
    exclude[:, :3] = True
    rep = compare_tiled(a, b, exclude=exclude, tile_px=6)
    assert rep.tiles[0].valid_px == 18
    assert rep.global_mae == pytest.approx(4.0)


def test_all_excluded_tile_reports_null():
    a = np.zeros((8, 4))
    b = np.ones((8, 4))
    exclude = np.zeros((8, 4), bool)
    exclude[0:4, :] = True
    rep = compare_tiled(a, b, exclude=exclude, tile_px=4)
    null_tile = next(t for t in rep.tiles if (t.row, t.col) == (0, 0))
    assert null_tile.valid_px == 0 and null_tile.mae is None and null_tile.rmse is None
    assert (0, 0) not in rep.ranking
    assert (1, 0) in rep.ranking


def test_ranking_descending_mae_ties_by_position():
    a = np.zeros((4, 8))
    b = np.zeros((4, 8))
    b[0:4, 0:4] = 1.0  # tile (0,0) MAE 1
    b[0:4, 4:8] = 3.0  # tile (0,1) MAE 3
    rep = compare_tiled(a, b, tile_px=4)
    assert rep.ranking == [(0, 1), (0, 0)]
    c = np.full((4, 8), 2.0)
    rep_tie = compare_tiled(a, c, tile_px=4)
    assert rep_tie.ranking == [(0, 0), (0, 1)]


def test_symmetry():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(20, 30))
    b = rng.normal(size=(20, 30))
    ra = compare_tiled(a, b, tile_px=7)
    rb = compare_tiled(b, a, tile_px=7)
    for ta, tb in zip(ra.tiles, rb.tiles):
        assert ta.mae == tb.mae and ta.rmse == tb.rmse


def test_partial_edge_tiles_have_actual_counts():
    a = np.zeros((10, 13))
    rep = compare_tiled(a, a, tile_px=4)
    sizes = {(t.row, t.col): t.valid_px for t in rep.tiles}
    assert sizes[(0, 0)] == 16
    assert sizes[(0, 3)] == 4  # 4 rows x 1 col
    assert sizes[(2, 3)] == 2  # 2 rows x 1 col
    assert sum(sizes.values()) == a.size


def test_global_mae_is_weighted_mean_of_tiles():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(23, 17))
    b = rng.normal(size=(23, 17))
    rep = compare_tiled(a, b, tile_px=5)
    acc = sum(t.mae * t.valid_px for t in rep.tiles if t.valid_px)
    assert rep.global_mae == pytest.approx(acc / rep.total_valid, rel=1e-12)


def test_rmse_at_least_mae():
    rng = np.random.default_rng(15)
    a = rng.normal(size=(30, 30))
    b = rng.normal(size=(30, 30))
    rep = compare_tiled(a, b, tile_px=6)
    for t in rep.tiles:
        assert t.rmse >= t.mae >= 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 30))
def test_growing_exclusion_never_increases_valid(seed, extra):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(12, 12))
    b = rng.normal(size=(12, 12))
    ex1 = rng.uniform(size=(12, 12)) < 0.3
    ex2 = ex1.copy()
    idx = rng.integers(0, 12, size=(extra, 2))
    ex2[idx[:, 0], idx[:, 1]] = True
    r1 = compare_tiled(a, b, exclude=ex1, tile_px=5)
    r2 = compare_tiled(a, b, exclude=ex2, tile_px=5)
    for t1, t2 in zip(r1.tiles, r2.tiles):
        assert t2.valid_px <= t1.valid_px


def test_shape_mismatch_raises():
    with pytest.raises(GridMismatchError):
        compare_tiled(np.zeros((3, 3)), np.zeros((3, 4)))
    with pytest.raises(ParameterError):
        compare_tiled(np.zeros((3, 3)), np.zeros((3, 3)), tile_px=0)


def test_csv_output(tmp_path):
    a = np.zeros((4, 4))
    b = np.ones((4, 4)) * 1.5
    rep = compare_tiled(a, b, tile_px=2)
    out = tmp_path / "tiles.csv"
    write_tile_csv(rep, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tile_row,tile_col,valid_px,mae,rmse,rank"
    assert len(lines) == 5
    assert lines[1].startswith("0,0,4,1.500000,1.500000,")


def _bits(*values):
    """The float64 bits of each value; None reads as NaN."""
    return np.array([np.nan if v is None else v for v in values], np.float64).view(np.int64).tolist()


@pytest.mark.filterwarnings("ignore:(overflow|invalid value):RuntimeWarning")
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("tile_px", [1, 4, 7, 16, 41, 1000])
def test_tile_by_tile_equals_full_raster_oracle_bit_for_bit(seed, tile_px):
    # 37x41 leaves edge tiles for every tile_px but 1 and 41; the cells hold
    # NaN, +-inf and differences whose squares overflow
    rng = np.random.default_rng(seed)
    a = rng.normal(100.0, 30.0, (37, 41))
    b = rng.normal(100.0, 30.0, (37, 41))
    for arr in (a, b):
        arr.flat[rng.choice(arr.size, 120, replace=False)] = rng.choice(
            [np.nan, np.inf, -np.inf, 1e300, -1e300], 120
        )
    exclude = rng.random(a.shape) < 0.3
    exclude[:, :tile_px] = True  # whole tiles without a valid pixel
    for mask in (None, exclude):
        rep = compare_tiled(a, b, exclude=mask, tile_px=tile_px)
        expected = full_raster_tiles(a, b, mask, tile_px)
        assert [(t.row, t.col, t.valid_px) for t in rep.tiles] == [e[:3] for e in expected]
        sums = [(s_abs / n, math.sqrt(s_sq / n)) if n else (None, None)
                for *_, n, s_abs, s_sq in expected]
        assert _bits(*[v for t in rep.tiles for v in (t.mae, t.rmse)]) == _bits(
            *[v for pair in sums for v in pair]
        )
        total = sum(e[2] for e in expected)
        assert rep.total_valid == total
        if total:
            sum_abs, sum_sq = sum(e[3] for e in expected), sum(e[4] for e in expected)
            assert _bits(rep.global_mae, rep.global_rmse) == _bits(
                sum_abs / total, math.sqrt(sum_sq / total)
            )
        else:  # the mask covers every tile
            assert rep.global_mae is rep.global_rmse is None
        ranked = sorted((e for e in expected if e[2]), key=lambda e: (-e[3] / e[2], e[0], e[1]))
        assert rep.ranking == [e[:2] for e in ranked]

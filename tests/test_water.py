import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from breakline_dtm import water
from breakline_dtm.errors import ParameterError
from breakline_dtm.interp import SOURCE_INTERPOLATED, SOURCE_WATER, DtmRaster
from breakline_dtm.raster import GridSpec, SparseDsm
from breakline_dtm.water import (
    _STRIP_ROWS,
    WaterParams,
    apply_water,
    nearest_rank,
    nonvoid_fraction,
    water_mask,
    water_segments,
    water_threshold,
    window_sums,
)
from oracles import brute_window_sums, nearest_rank_sorted, scan_water_segments


def sparse_from(elev, occ, cell=1.0):
    nrows, ncols = occ.shape
    return SparseDsm(GridSpec(0, 0, cell, ncols, nrows), elev, occ)


def test_threshold_reproduces_worked_number():
    # N=81, P=0.6, k=4 -> T=7
    occ = np.zeros((100, 100), dtype=np.int64)
    occ.ravel()[:6000] = 1
    assert water_threshold(occ, WaterParams()) == 7


def test_threshold_zero_density_disables_detection():
    occ = np.zeros((50, 50), dtype=np.int64)
    assert water_threshold(occ, WaterParams()) == 0
    assert not water_mask(occ, 0, WaterParams(9)).any()


def test_nonvoid_fraction_counts_occupied_cells():
    occ = np.array([[0, 1, 3], [0, 0, 2]], dtype=np.int32)
    assert nonvoid_fraction(occ) == (3, 0.5)
    with pytest.raises(ParameterError, match="occupancy raster is empty"):
        water_threshold(np.zeros((0, 4), dtype=np.int32), WaterParams())


def test_threshold_direct_arithmetic():
    # P=0.4: p=0.2, mean=16.2, sd=3.6 -> floor(1.8) = 1
    occ = np.zeros((100, 100), dtype=np.int64)
    occ.ravel()[:4000] = 1
    assert water_threshold(occ, WaterParams()) == 1


def test_window_sums_match_slicing_oracle():
    rng = np.random.default_rng(21)
    arr = rng.integers(0, 5, size=(17, 23)).astype(np.int64)
    for window in (3, 5, 9):
        sums, vis = window_sums(arr, window)
        o_sums, o_vis = brute_window_sums(arr, window)
        assert np.array_equal(sums, o_sums)
        assert np.array_equal(vis, o_vis)


def _whole_raster_mask(occ, threshold, window):
    """The water-mask rule on the brute-force window sums of the whole raster."""
    o_sums, o_vis = brute_window_sums(occ, window)
    n = window * window
    return o_sums < np.where(o_vis == n, threshold, -(-threshold * o_vis // n))


@settings(max_examples=150, deadline=None)
@given(
    hnp.arrays(
        np.int32, st.tuples(st.integers(1, 14), st.integers(1, 14)), elements=st.integers(0, 9)
    ),
    st.sampled_from([3, 5, 9, 15]),
    st.integers(0, 90),
    st.integers(1, 6),
)
# counts at the int32 maximum: every sum is exact, and none wraps
@example(np.full((14, 14), np.iinfo(np.int32).max, np.int32), 15, 90, _STRIP_ROWS)
def test_window_sums_and_mask_match_slicing_oracle_on_any_shape(occ, window, threshold, strip):
    # windows wider than the raster, single rows and columns, int32 counts;
    # the mask in strips of a few rows: many strips, windows wider than one
    sums, vis = window_sums(occ, window)
    o_sums, o_vis = brute_window_sums(occ, window)
    assert sums.dtype == np.int64
    assert np.array_equal(sums, o_sums) and np.array_equal(vis, o_vis)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(water, "_STRIP_ROWS", strip)
        got = water_mask(occ, threshold, WaterParams(window))
    assert np.array_equal(got, _whole_raster_mask(occ, threshold, window))


@pytest.mark.parametrize(
    "nrows", [3, _STRIP_ROWS - 1, _STRIP_ROWS + 1, 2 * _STRIP_ROWS, 2 * _STRIP_ROWS + 5]
)
@pytest.mark.parametrize("window", [9, 2 * _STRIP_ROWS + 1])
def test_water_mask_strips_of_full_height_equal_whole_raster_rule(nrows, window):
    rng = np.random.default_rng(nrows * window)
    occ = rng.poisson(1.0, (nrows, 5)).astype(np.int32)
    occ[nrows // 3 : nrows // 2 + 1] = 0  # a band without returns
    threshold = window * window  # water where a window averages below one return a pixel
    got = water_mask(occ, threshold, WaterParams(window))
    want = _whole_raster_mask(occ, threshold, window)
    assert np.array_equal(got, want) and want.any()


def test_water_mask_dense_field_no_water():
    occ = np.ones((30, 30), dtype=np.int64)
    assert not water_mask(occ, 7, WaterParams(9)).any()


def test_water_mask_hole_interior_detected():
    rng = np.random.default_rng(22)
    occ = rng.poisson(1.0, size=(60, 60)).astype(np.int64)
    occ[10:50, 10:50] = 0  # 40x40 void hole
    mask = water_mask(occ, 7, WaterParams(9))
    interior = np.zeros_like(mask)
    interior[14:46, 14:46] = True  # margin >= 4 px from the dense field
    assert mask[interior].all()
    assert np.array_equal(mask, _whole_raster_mask(occ, 7, 9))


def test_water_mask_monotone_in_threshold():
    rng = np.random.default_rng(23)
    occ = rng.poisson(0.3, size=(40, 40)).astype(np.int64)
    prev = water_mask(occ, 2, WaterParams(9))
    for t in (4, 6, 11):
        cur = water_mask(occ, t, WaterParams(9))
        assert not (prev & ~cur).any()
        prev = cur


def test_water_mask_t_zero_empty():
    occ = np.zeros((20, 20), dtype=np.int64)
    assert not water_mask(occ, 0, WaterParams(9)).any()


def test_nearest_rank_examples():
    assert nearest_rank(np.arange(1, 11), 0.10) == 1.0
    assert nearest_rank(np.array([5.0]), 0.10) == 5.0
    assert nearest_rank(np.arange(1, 11), 0.95) == 10.0
    vals = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    assert nearest_rank(np.array(vals), 0.5) == nearest_rank_sorted(vals, 0.5)


@settings(max_examples=50)
@given(
    st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=60),
    st.floats(0.01, 0.99),
)
def test_nearest_rank_matches_sorted_oracle(values, q):
    got = nearest_rank(np.array(values), q)
    assert got == nearest_rank_sorted(values, q)


@settings(max_examples=30)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=30), st.integers(0, 2**16))
def test_percentile_invariant_to_order(values, seed):
    rng = np.random.default_rng(seed)
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert nearest_rank(np.array(values), 0.1) == nearest_rank(np.array(shuffled), 0.1)


def test_segments_percentile_of_occupied():
    occ = np.zeros((4, 10), dtype=np.int64)
    elev = np.full((4, 10), np.nan)
    occ[1, :] = 1
    elev[1, :] = np.arange(1, 11)
    mask = np.zeros((4, 10), dtype=bool)
    mask[1, :] = True
    wm = water_segments(mask, sparse_from(elev, occ), WaterParams())
    assert len(wm.segments) == 1
    assert wm.segments[0].elevation == 1.0  # ceil(0.1 * 10) = rank 1


def test_single_water_pixel_occupied():
    occ = np.zeros((3, 3), dtype=np.int64)
    elev = np.full((3, 3), np.nan)
    occ[1, 1] = 1
    elev[1, 1] = 5.0
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    wm = water_segments(mask, sparse_from(elev, occ), WaterParams())
    assert wm.segments[0].elevation == 5.0


def test_empty_mask_zero_segments():
    occ = np.ones((5, 5), dtype=np.int64)
    elev = np.ones((5, 5))
    wm = water_segments(np.zeros((5, 5), bool), sparse_from(elev, occ), WaterParams())
    assert wm.segments == []
    assert not wm.is_water.any()


def test_zero_occupied_segment_takes_nearest_occupied_elevation():
    occ = np.zeros((5, 8), dtype=np.int64)
    elev = np.full((5, 8), np.nan)
    occ[2, 7] = 1
    elev[2, 7] = 42.0
    mask = np.zeros((5, 8), dtype=bool)
    mask[1:4, 1:4] = True  # all-void segment
    wm = water_segments(mask, sparse_from(elev, occ), WaterParams())
    assert wm.segments[0].elevation == 42.0


def test_dry_segments_share_one_nearest_donor_lookup(monkeypatch):
    from breakline_dtm import water

    real = water.nearest_donor_indices
    calls = []
    monkeypatch.setattr(
        water, "nearest_donor_indices", lambda m, t: calls.append(t.size) or real(m, t)
    )
    occ = np.zeros((5, 12), dtype=np.int64)
    elev = np.full((5, 12), np.nan)
    occ[2, 0], elev[2, 0] = 1, 10.0
    occ[0, 11], elev[0, 11] = 1, 20.0
    occ[4, 11], elev[4, 11] = 1, 30.0
    mask = np.zeros((5, 12), dtype=bool)
    mask[1:4, 2:4] = True  # closest to (2, 0)
    mask[2, 6] = True  # (0, 11) and (4, 11) tie at d2 = 29; row-major picks (0, 11)
    mask[2:4, 8:10] = True  # its pixel (3, 9) is closest, d2 = 5 to (4, 11)
    wm = water_segments(mask, sparse_from(elev, occ), WaterParams())
    assert calls == [6 + 1 + 4]
    assert [seg.elevation for seg in wm.segments] == [10.0, 20.0, 30.0]


def test_min_segment_px_filters_speckles():
    occ = np.ones((10, 10), dtype=np.int64)
    elev = np.ones((10, 10))
    mask = np.zeros((10, 10), bool)
    mask[1, 1] = True  # 1 px speckle
    mask[5:8, 5:8] = True  # 9 px blob
    wp = WaterParams(min_segment_px=4)
    wm = water_segments(mask, sparse_from(elev, occ), wp)
    assert len(wm.segments) == 1
    assert wm.segments[0].pixel_count == 9
    assert wm.is_water.sum() == 9


def test_negative_min_segment_px_is_named_with_its_value():
    with pytest.raises(ParameterError, match=r"^min_segment_px must be >= 0, got -1$"):
        WaterParams(min_segment_px=-1)


def test_min_segment_px_can_drop_every_segment():
    occ = np.ones((6, 6), dtype=np.int64)
    elev = np.ones((6, 6))
    mask = np.zeros((6, 6), bool)
    mask[1, 1] = mask[4, 2:5] = True
    wm = water_segments(mask, sparse_from(elev, occ), WaterParams(min_segment_px=4))
    assert wm.segments == []
    assert wm.is_water.dtype == bool and not wm.is_water.any()
    assert wm.label.dtype == np.int32 and not wm.label.any()


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 30), st.integers(1, 30)),
    water=st.sampled_from([0.3, 0.5, 0.7]),
    occupied=st.sampled_from([0.0, 0.03, 0.3]),
    min_segment_px=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_water_segments_match_per_segment_scan_oracle(shape, water, occupied, min_segment_px, seed):
    # speckled masks: many segments, and with few occupied cells many dry ones
    rng = np.random.default_rng(seed)
    mask = rng.uniform(size=shape) < water
    occ = (rng.uniform(size=shape) < occupied).astype(np.int64)
    elev = np.where(occ > 0, rng.normal(50, 3, shape).round(2), np.nan)
    wp = WaterParams(min_segment_px=min_segment_px)
    wm = water_segments(mask, sparse_from(elev, occ), wp)
    label, expected = scan_water_segments(mask, occ > 0, elev, min_segment_px, wp.percentile)
    assert np.array_equal(wm.label, label)
    assert np.array_equal(wm.is_water, label > 0)
    assert [seg.id for seg in wm.segments] == list(range(1, len(expected) + 1))
    for seg, (pixels, elevation) in zip(wm.segments, expected):
        assert seg.pixels.tolist() == pixels.tolist()
        np.testing.assert_array_equal(seg.elevation, elevation)


def test_segment_elevation_invariant_to_pixel_order():
    rng = np.random.default_rng(31)
    occ = rng.poisson(1.0, (20, 20)).astype(np.int64)
    elev = np.where(occ > 0, rng.normal(50, 3, (20, 20)), np.nan)
    mask = np.zeros((20, 20), bool)
    mask[4:16, 4:16] = True
    wp = WaterParams()
    a = water_segments(mask, sparse_from(elev, occ), wp)
    b = water_segments(mask[:, :], sparse_from(elev.copy(), occ.copy()), wp)
    assert [s.elevation for s in a.segments] == [s.elevation for s in b.segments]


def test_apply_water_flattens_segments():
    grid = GridSpec(0, 0, 1, 6, 6)
    elev = np.linspace(0, 35, 36).reshape(6, 6)
    dtm = DtmRaster(grid, elev.copy(), np.zeros((6, 6), np.uint8))
    occ = np.ones((6, 6), dtype=np.int64)
    sp = SparseDsm(grid, elev.copy(), occ)
    mask = np.zeros((6, 6), bool)
    mask[2:5, 1:4] = True
    wm = water_segments(mask, sp, WaterParams())
    out = apply_water(dtm, wm)
    seg_elev = wm.segments[0].elevation
    assert (out.elev[mask] == seg_elev).all()
    assert (out.source[mask] == SOURCE_WATER).all()
    assert np.array_equal(out.elev[~mask], elev[~mask])
    # variance within the segment is exactly zero
    assert np.var(out.elev[mask]) == 0.0


def test_apply_water_no_water_identity():
    grid = GridSpec(0, 0, 1, 4, 4)
    elev = np.arange(16.0).reshape(4, 4)
    dtm = DtmRaster(grid, elev.copy(), np.full((4, 4), SOURCE_INTERPOLATED, np.uint8))
    wm = water_segments(
        np.zeros((4, 4), bool),
        SparseDsm(grid, elev.copy(), np.ones((4, 4), np.int64)),
        WaterParams(),
    )
    out = apply_water(dtm, wm)
    assert np.array_equal(out.elev, elev)
    assert np.array_equal(out.source, dtm.source)


def test_water_params_validation():
    with pytest.raises(ParameterError):
        WaterParams(window=8)
    with pytest.raises(ParameterError):
        WaterParams(window=1)
    with pytest.raises(ParameterError):
        WaterParams(k=-1)
    with pytest.raises(ParameterError):
        WaterParams(percentile=1.0)

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from breakline_dtm.errors import ParameterError
from breakline_dtm.groundfilter import (
    FilterParams,
    RegionStats,
    Segmentation,
    _region_boundary_corners,
    classify_regions,
    label_4connected,
    label_regions,
    min_area_rect,
    region_ground_flags,
    region_rule_counts,
    region_stats,
)
from breakline_dtm.raster import GridSpec
from breakline_dtm.slope import BreakMask
from oracles import (
    bfs_label_4connected,
    calipers_min_rect_area,
    row_extreme_corners,
    sweep_min_rect_area,
)


def break_mask(arr):
    arr = np.asarray(arr, dtype=bool)
    return BreakMask(GridSpec(0, 0, 1.0, arr.shape[1], arr.shape[0]), arr)


def bordered(nrows, ncols):
    m = np.zeros((nrows, ncols), dtype=bool)
    m[0, :] = m[-1, :] = m[:, 0] = m[:, -1] = True
    return m


def test_single_region_inside_border():
    seg = label_regions(break_mask(bordered(8, 8)))
    assert seg.region_count == 1
    assert (seg.label[1:-1, 1:-1] == 1).all()
    assert (seg.label[0, :] == 0).all()


def test_closed_rectangle_gives_two_regions():
    m = bordered(12, 12)
    m[3, 3:8] = m[7, 3:8] = True
    m[3:8, 3] = m[3:8, 7] = True
    seg = label_regions(break_mask(m))
    assert seg.region_count == 2
    # outside region is encountered first in row-major order
    assert seg.label[1, 1] == 1
    assert seg.label[5, 5] == 2


def test_all_break_yields_zero_regions():
    seg = label_regions(break_mask(np.ones((5, 5), dtype=bool)))
    assert seg.region_count == 0
    assert (seg.label == 0).all()
    stats = region_stats(seg)
    assert stats.pixel_count.shape == (0,) and stats.pixel_count.dtype == np.int64
    for values in (stats.area_m2, stats.mbr_area_m2, stats.rectangularity):
        assert values.shape == (0,) and values.dtype == np.float64


def test_diagonal_wall_seals_with_4_connectivity():
    # a 1-px diagonal break wall must separate the two sides
    m = bordered(10, 10)
    for i in range(1, 9):
        m[i, i] = True
    seg = label_regions(break_mask(m))
    assert seg.region_count == 2


def test_labels_are_first_encounter_row_major():
    m = bordered(10, 14)
    m[:, 5] = True
    m[:, 9] = True
    seg = label_regions(break_mask(m))
    assert seg.region_count == 3
    assert seg.label[1, 1] == 1
    assert seg.label[1, 6] == 2
    assert seg.label[1, 10] == 3

    # a U whose arms start on row 1 but join only at its bottom row, with a
    # second region starting between the arms: the U is still region 1
    m = bordered(8, 9)
    m[1:6, 2] = m[1:6, 6] = m[5, 2:7] = True
    seg = label_regions(break_mask(m))
    assert seg.region_count == 2
    assert seg.label[1, 1] == seg.label[1, 7] == seg.label[6, 4] == 1
    assert (seg.label[1:5, 3:6] == 2).all()


@settings(max_examples=60, deadline=None)
@given(
    nrows=st.integers(1, 48),
    ncols=st.integers(1, 48),
    density=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_labeling_matches_bfs_oracle(nrows, ncols, density, seed):
    rng = np.random.default_rng(seed)
    is_break = rng.uniform(size=(nrows, ncols)) < density
    lab, n = label_4connected(~is_break)
    oracle_lab, oracle_n = bfs_label_4connected(~is_break)
    assert n == oracle_n
    assert lab.dtype == np.int32
    # both label in row-major first-encounter order, so equality is exact
    assert np.array_equal(lab, oracle_lab)


def test_labels_stay_int32_where_scipy_would_pick_int64(monkeypatch):
    # scipy picks int64 labels by itself only for 2**31 - 2 cells or more,
    # which no test can allocate; this stand-in picks int64 whenever it is
    # not told the output type, as scipy does at MAX_GRID_CELLS
    from scipy import ndimage

    real_label = ndimage.label

    def label_as_at_the_limit(input, structure=None, output=None):
        if output is None:
            lab, n = real_label(input, structure)
            return lab.astype(np.int64), n
        return real_label(input, structure, output)

    monkeypatch.setattr(ndimage, "label", label_as_at_the_limit)
    mask = np.array([[1, 0, 1], [1, 0, 0], [0, 1, 1]], dtype=bool)
    lab, n = label_4connected(mask)
    assert lab.dtype == np.int32
    assert n == 3
    assert np.array_equal(lab, bfs_label_4connected(mask)[0])


def region_from_pixels(pixels, shape, cell=1.0):
    lab = np.zeros(shape, dtype=np.int32)
    for r, c in pixels:
        lab[r, c] = 1
    return Segmentation(GridSpec(0, 0, cell, shape[1], shape[0]), lab, 1)


def test_solid_rectangle_rectangularity_one():
    pixels = [(r, c) for r in range(5, 15) for c in range(3, 23)]
    seg = region_from_pixels(pixels, (20, 30))
    stats = region_stats(seg)
    assert stats.pixel_count[0] == 200
    assert stats.area_m2[0] == pytest.approx(200.0)
    assert stats.rectangularity[0] == pytest.approx(1.0, abs=1e-12)


def test_single_pixel_region():
    seg = region_from_pixels([(2, 2)], (5, 5), cell=0.5)
    stats = region_stats(seg)
    assert stats.mbr_area_m2[0] == pytest.approx(0.25)
    assert stats.rectangularity[0] == pytest.approx(1.0)


def test_l_shape_matches_rotation_sweep_oracle():
    # two 10x20 arms
    pixels = [(r, c) for r in range(0, 20) for c in range(0, 10)]
    pixels += [(r, c) for r in range(0, 10) for c in range(10, 30)]
    seg = region_from_pixels(pixels, (25, 35))
    stats = region_stats(seg)
    corners = []
    for r, c in pixels:
        corners += [(c, r), (c + 1, r), (c, r + 1), (c + 1, r + 1)]
    oracle = sweep_min_rect_area(np.array(corners), step_deg=0.1)
    assert stats.mbr_area_m2[0] == pytest.approx(oracle, rel=1e-3)
    assert stats.rectangularity[0] == pytest.approx(len(pixels) / oracle, rel=1e-3)


def test_rotated_rectangle_mbr_tracks_rotation():
    # rasterized 45-degree bar: its rotated MBR is far smaller than the
    # axis-aligned bounding box
    pixels = []
    for i in range(30):
        for w in range(-2, 3):
            r, c = 5 + i, 5 + i + w
            pixels.append((r, c))
    shape = (45, 45)
    seg = region_from_pixels(pixels, shape)
    stats = region_stats(seg)
    corners = []
    for r, c in pixels:
        corners += [(c, r), (c + 1, r), (c, r + 1), (c + 1, r + 1)]
    oracle = sweep_min_rect_area(np.array(corners), step_deg=0.05)
    assert stats.mbr_area_m2[0] == pytest.approx(oracle, rel=1e-3)
    rows = max(r for r, _ in pixels) - min(r for r, _ in pixels) + 1
    cols = max(c for _, c in pixels) - min(c for _, c in pixels) + 1
    assert stats.mbr_area_m2[0] < 0.5 * rows * cols


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_min_rect_never_smaller_than_region(seed):
    rng = np.random.default_rng(seed)
    nrows, ncols = 16, 16
    lab = np.zeros((nrows, ncols), dtype=np.int32)
    n_px = rng.integers(1, 40)
    rr = rng.integers(0, nrows, n_px)
    cc = rng.integers(0, ncols, n_px)
    lab[rr, cc] = 1
    seg = Segmentation(GridSpec(0, 0, 1.0, ncols, nrows), lab, 1)
    stats = region_stats(seg)
    assert stats.rectangularity[0] <= 1.0 + 1e-9
    assert stats.area_m2[0] > 0


# integer and half-integer coordinates: pixel corners at cell units and halves
coords = st.integers(-12, 12).map(lambda v: v / 2)
point_sets = st.one_of(
    st.lists(st.tuples(coords, coords), min_size=1, max_size=40),
    st.lists(st.sampled_from([(0.0, 0.0), (1.0, 0.5), (2.5, 3.0)]), min_size=1, max_size=8),
    # collinear: points a + t * d on one line
    st.builds(
        lambda a, d, ts: [(a[0] + t * d[0], a[1] + t * d[1]) for t in ts],
        st.tuples(coords, coords),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.lists(st.integers(-6, 6), min_size=1, max_size=10),
    ),
)


@settings(max_examples=400, deadline=None)
@given(point_sets)
def test_min_area_rect_equals_monotone_chain_oracle(points):
    pts = np.array(points, dtype=np.float64)
    assert min_area_rect(pts) == calipers_min_rect_area(pts)


@settings(max_examples=60, deadline=None)
@given(
    nrows=st.integers(1, 20),
    ncols=st.integers(1, 20),
    labels=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_region_stats_equals_row_corner_oracle(nrows, ncols, labels, seed):
    # regions need not be connected; the k-th smallest value drawn is label k
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, labels + 1, size=(nrows, ncols))
    present = np.unique(raw[raw > 0])
    lab = (np.searchsorted(present, raw) + (raw > 0)).astype(np.int32)
    cell = 0.5
    seg = Segmentation(GridSpec(0, 0, cell, ncols, nrows), lab, present.size)
    stats = region_stats(seg)
    mbr = [calipers_min_rect_area(c) * cell * cell for c in row_extreme_corners(lab, present.size)]
    assert stats.mbr_area_m2.tobytes() == np.array(mbr, dtype=np.float64).tobytes()
    assert stats.pixel_count.tolist() == [int((lab == i).sum()) for i in range(1, present.size + 1)]


@st.composite
def label_rasters(draw):
    """Labels 1..k, each present, with zeros; a label may recur along a row."""
    shape = draw(st.tuples(st.integers(1, 12), st.integers(1, 12)))
    k = draw(st.integers(0, 5))
    raw = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, k)))
    present = np.unique(raw[raw > 0])
    return (np.searchsorted(present, raw) + (raw > 0)).astype(np.int32), present.size


@settings(max_examples=300, deadline=None)
@given(label_rasters())
@example((np.zeros((3, 4), dtype=np.int32), 0))
@example((np.array([[0, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=np.int32), 1))
@example((np.array([[1, 0, 1, 2, 1], [2, 2, 0, 1, 1]], dtype=np.int32), 2))
@example((np.array([[1], [0], [2], [1]], dtype=np.int32), 2))
def test_region_boundary_corners_equal_row_corner_oracle(raster):
    lab, n = raster
    seg = Segmentation(GridSpec(0, 0, 0.5, lab.shape[1], lab.shape[0]), lab, n)
    counts, got = _region_boundary_corners(seg)
    assert counts.dtype == np.int64
    assert counts.tolist() == np.bincount(lab.ravel(), minlength=n + 1)[1:].tolist()
    expected = row_extreme_corners(lab, n)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and g.shape == e.shape and g.tobytes() == e.tobytes()


def make_stats(area_m2, rect, cell=0.5):
    n = np.int64(round(area_m2 / (cell * cell)))
    return RegionStats(
        np.array([n]),
        np.array([float(area_m2)]),
        np.array([float(area_m2) / rect]),
        np.array([float(rect)]),
    )


def classify_one(area_m2, rect, params=FilterParams()):
    lab = np.array([[1]], dtype=np.int32)
    seg = Segmentation(GridSpec(0, 0, 0.5, 1, 1), lab, 1)
    gm = classify_regions(seg, make_stats(area_m2, rect), params)
    return bool(gm.is_ground[0, 0])


def test_enclosure_rule_branches():
    assert classify_one(30_000, 1.0) is False  # below A1 -> non-ground
    assert classify_one(150_000, 1.0) is True  # above A2 -> ground
    assert classify_one(60_000, 0.8) is False  # mid, rectangular -> non-ground
    assert classify_one(60_000, 0.3) is True  # mid, irregular -> ground


def test_enclosure_rule_interval_edges__inclusive():
    # areas exactly at A1/A2 take the rectangularity branch
    assert classify_one(40_000, 0.8) is False
    assert classify_one(40_000, 0.3) is True
    assert classify_one(100_000, 0.8) is False
    assert classify_one(100_000, 0.3) is True
    # strict rectangularity comparison: rect == R stays ground
    assert classify_one(60_000, 0.5) is True


def test_break_pixels_always_nonground():
    m = bordered(8, 8)
    seg = label_regions(break_mask(m))
    stats = region_stats(seg)
    gm = classify_regions(seg, stats, FilterParams(a1_m2=1.0, a2_m2=2.0))
    assert not gm.is_ground[m].any()


def test_classification_constant_within_region():
    m = bordered(16, 16)
    m[7, :] = True
    seg = label_regions(break_mask(m))
    stats = region_stats(seg)
    gm = classify_regions(seg, stats, FilterParams())
    for lab in range(1, seg.region_count + 1):
        vals = gm.is_ground[seg.label == lab]
        assert vals.all() or not vals.any()


def test_filter_params_validation():
    with pytest.raises(ParameterError):
        FilterParams(a1_m2=10.0, a2_m2=5.0)
    with pytest.raises(ParameterError):
        FilterParams(r=0.0)
    with pytest.raises(ParameterError):
        FilterParams(tau_deg=90.0)


def test_flat_scene_only_border_ring_nonground():
    # constant surface: the stamped data edge is the only non-ground
    from breakline_dtm.raster import Dsm
    from breakline_dtm.slope import break_line_mask, slope_map

    grid = GridSpec(0, 0, 0.5, 40, 30)
    sm = slope_map(Dsm(grid, np.full(grid.shape, 77.0)))
    mask = break_line_mask(sm, 45.0)
    seg = label_regions(mask)
    gm = classify_regions(seg, region_stats(seg), FilterParams(a1_m2=10.0, a2_m2=50.0))
    border = np.zeros(grid.shape, bool)
    border[[0, -1], :] = True
    border[:, [0, -1]] = True
    assert np.array_equal(~gm.is_ground, border)


def test_enclosed_small_region_nonground_regardless_of_labels():
    # permuting which label a region gets must not change pixel classes
    m = bordered(20, 20)
    m[4, 4:10] = m[9, 4:10] = True
    m[4:10, 4] = m[4:10, 9] = True
    seg = label_regions(break_mask(m))
    stats = region_stats(seg)
    gm = classify_regions(seg, stats, FilterParams(a1_m2=30.0, a2_m2=200.0, r=0.5))
    inner = np.zeros((20, 20), dtype=bool)
    inner[5:9, 5:9] = True
    # inner region is 16 px = 16 m2 < A1 -> non-ground whatever its elevation
    assert not gm.is_ground[inner].any()


def test_region_rule_counts_put_each_region_under_one_rule():
    params = FilterParams(a1_m2=100, a2_m2=200, r=0.5)
    # area < a1, the limits a1 and a2 themselves, area > a2, each side of r
    area = np.array([99.0, 100.0, 100.0, 150.0, 200.0, 200.5, 300.0])
    rect = np.array([0.9, 0.5, 0.51, 0.2, 0.9, 0.9, 0.1])
    pixels = np.array([1, 2, 4, 8, 16, 32, 64])
    stats = RegionStats(pixels, area, area / rect, rect)
    counts = region_rule_counts(stats, params)
    assert counts == {
        "area_below_a1": {"regions": 1, "px": 1},
        "area_above_a2": {"regions": 2, "px": 96},
        "mid_rect_above_r": {"regions": 2, "px": 20},
        "mid_rect_at_most_r": {"regions": 2, "px": 10},
    }
    ground = region_ground_flags(stats, params)
    assert ground.tolist() == [False, True, False, True, False, True, True]

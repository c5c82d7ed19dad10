import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from breakline_dtm import raster
from breakline_dtm.errors import AllVoidError, NonPositiveCellError, ParameterError
from breakline_dtm.ingest import BBox, PointCloud, bounds
from breakline_dtm.raster import (
    MAX_GRID_CELLS,
    GridSpec,
    SparseDsm,
    fill_voids_nearest,
    make_grid_spec,
    nearest_donor_indices,
    rasterize_min,
)
from oracles import brute_nearest_donor, brute_nearest_fill, bucket_min_count


def test_make_grid_spec_exact_and_ceil():
    g = make_grid_spec(BBox(0, 0, 10, 10), 0.5)
    assert (g.ncols, g.nrows) == (20, 20)
    g = make_grid_spec(BBox(0, 0, 10.1, 10), 0.5)
    assert (g.ncols, g.nrows) == (21, 20)


def test_make_grid_spec_degenerate_bbox():
    g = make_grid_spec(BBox(5, 5, 5, 5), 1.0)
    assert (g.ncols, g.nrows) == (1, 1)


def test_make_grid_spec_bad_cell():
    with pytest.raises(NonPositiveCellError):
        make_grid_spec(BBox(0, 0, 1, 1), 0.0)


def test_make_grid_spec_cell_count_at_the_limit():
    # make_grid_spec allocates nothing, so a grid at the limit is cheap to build
    g = make_grid_spec(BBox(0, 0, MAX_GRID_CELLS, 0), 1.0)
    assert (g.ncols, g.nrows) == (MAX_GRID_CELLS, 1)
    with pytest.raises(ParameterError, match=f"more than the {MAX_GRID_CELLS}"):
        make_grid_spec(BBox(0, 0, MAX_GRID_CELLS + 1, 0), 1.0)


@pytest.mark.parametrize(
    "cell, count",
    [(1e-4, "1e+10"), (1e-300, "inf"), (5e-324, "inf")],
)
def test_make_grid_spec_too_many_cells_names_bbox_cell_and_count(cell, count):
    # 1e-300 overflows no float but its cell count no int32 holds;
    # 5e-324 makes the column count itself infinite
    with pytest.raises(ParameterError) as err:
        make_grid_spec(BBox(0, 0, 10, 10), cell)
    msg = str(err.value)
    assert f"cell size {cell} m" in msg
    assert "bbox x 0..10, y 0..10" in msg
    assert f"about {count} cells" in msg


def test_grid_covers_bbox():
    bbox = BBox(3.2, -7.9, 104.77, 55.01)
    g = make_grid_spec(bbox, 0.5)
    assert g.cell * g.ncols >= bbox.width - 1e-9
    assert g.cell * g.nrows >= bbox.height - 1e-9


def test_rasterize_min_takes_lowest_point():
    pc = PointCloud(np.array([[0.1, 0.1, 5.0], [0.2, 0.3, 3.0]]))
    grid = GridSpec(0, 0, 0.5, 2, 2)
    sp = rasterize_min(pc, grid)
    assert sp.elev[0, 0] == 3.0
    assert sp.occupancy[0, 0] == 2
    assert np.isnan(sp.elev[1, 1])
    assert sp.occupancy[1, 1] == 0
    assert sp.occupancy.dtype == np.int32


def test_rasterize_max_edge_points_clamped():
    grid = GridSpec(0, 0, 1.0, 4, 4)
    pc = PointCloud(np.array([[4.0, 4.0, 7.0]]))  # exactly on the max corner
    sp = rasterize_min(pc, grid)
    assert sp.occupancy[3, 3] == 1
    assert sp.oob_dropped == 0


def test_rasterize_points_in_grid_sliver_kept():
    # the grid of this cloud ends 1e-9 cell short of its bbox in x and y;
    # the points in that sliver belong to the last column and row
    pc = PointCloud(
        np.array([[0.0, 0.0, 5.0], [10.0000000001, 3.0, 1.0], [4.0, 6.0000000001, 2.0]])
    )
    grid = make_grid_spec(bounds(pc), 0.5)
    assert (grid.max_x, grid.max_y) == (10.0, 6.0)
    sp = rasterize_min(pc, grid)
    assert sp.oob_dropped == 0
    assert sp.elev[6, 19] == 1.0
    assert sp.elev[11, 8] == 2.0
    assert sp.occupancy.sum() == 3


def test_rasterize_out_of_bounds_dropped_and_counted():
    grid = GridSpec(0, 0, 1.0, 2, 2)
    pc = PointCloud(np.array([[0.5, 0.5, 1.0], [5.0, 0.5, 2.0], [-1.0, 0.0, 3.0]]))
    sp = rasterize_min(pc, grid)
    assert sp.oob_dropped == 2
    assert sp.occupancy.sum() == 1


def test_rasterize_matches_bucketing_oracle():
    rng = np.random.default_rng(123)
    n = 10_000
    xyz = np.column_stack(
        [rng.uniform(0, 8, n), rng.uniform(0, 6, n), rng.uniform(-5, 5, n)]
    )
    grid = make_grid_spec(BBox(0, 0, 8, 6), 0.5)
    sp = rasterize_min(PointCloud(xyz), grid)
    mins, counts = bucket_min_count(xyz, grid)
    for (r, c), v in mins.items():
        assert sp.elev[r, c] == v
        assert sp.occupancy[r, c] == counts[(r, c)]
    assert sp.occupancy.sum() == n


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(0, 40),
    workers=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    margin=st.sampled_from([0.0, 1.0]),
)
@example(n=5000, workers=8, seed=7, margin=0.0)
def test_rasterize_order_invariant_and_worker_invariant(n, workers, seed, margin):
    rng = np.random.default_rng(seed)
    # with a margin, some points fall outside the grid and every chunk drops its own
    lo, hi = -margin, 10 + margin
    xyz = np.column_stack(
        [rng.uniform(lo, hi, n), rng.uniform(lo, hi, n), rng.uniform(0, 10, n)]
    )
    grid = make_grid_spec(BBox(0, 0, 10, 10), 0.5)
    base = rasterize_min(PointCloud(xyz), grid)
    shuffled = rasterize_min(PointCloud(xyz[rng.permutation(n)]), grid)
    threaded = rasterize_min(PointCloud(xyz), grid, workers=workers)
    for sp in (shuffled, threaded):
        assert np.array_equal(base.elev, sp.elev, equal_nan=True)
        assert np.array_equal(base.occupancy, sp.occupancy)
        assert base.oob_dropped == sp.oob_dropped

    mins, counts = bucket_min_count(xyz, grid)
    elev = np.full(grid.shape, np.nan)
    occupancy = np.zeros(grid.shape, dtype=np.int64)
    for rc, v in mins.items():
        elev[rc] = v
        occupancy[rc] = counts[rc]
    assert np.array_equal(threaded.elev, elev, equal_nan=True)
    assert np.array_equal(threaded.occupancy, occupancy)
    assert threaded.oob_dropped == n - occupancy.sum()


@pytest.mark.parametrize("workers", [0, -3])
def test_rasterize_workers_below_one_rejected(workers):
    pc = PointCloud(np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 2.0]]))
    with pytest.raises(ParameterError, match=f"workers must be at least 1, got {workers}"):
        rasterize_min(pc, make_grid_spec(bounds(pc), 0.5), workers)


def test_rasterize_any_worker_count_bins_on_the_callers_thread(monkeypatch):
    # cell (0, 0) gets 0.0 before -0.0 and cell (0, 1) -0.0 before 0.0,
    # so the sign of each minimum depends on the order min is applied in
    rng = np.random.default_rng(9)
    xyz = rng.uniform(0, 10, (500, 3))
    xyz[[100, 300], :2] = xyz[[200, 400], :2] = [[0.2, 0.2], [0.7, 0.2]]
    xyz[[100, 200, 300, 400], 2] = [0.0, -0.0, -0.0, 0.0]
    pc = PointCloud(xyz)
    grid = make_grid_spec(BBox(0, 0, 10, 10), 0.5)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
    before = threading.active_count()
    one = rasterize_min(pc, grid, 1)
    many = rasterize_min(pc, grid, 64)
    assert started == [] and threading.active_count() == before
    assert one.elev[0, :2].tolist() == [0.0, 0.0]
    assert np.signbit(one.elev[0, :2]).any()
    assert np.array_equal(np.signbit(one.elev), np.signbit(many.elev))
    assert np.array_equal(one.elev, many.elev, equal_nan=True)
    assert np.array_equal(one.occupancy, many.occupancy)
    assert one.oob_dropped == many.oob_dropped


# its grid ends 1e-9 cell short of it, so points on the bbox's max edges
# lie in the sliver past the grid's
SLIVER_BBOX = BBox(0, 0, 10.0000000001, 6.0000000001)
# points outside the grid: past each edge, and past the max edges by more than the sliver
OUTSIDE_XY = np.array([[-0.1, 3.0], [10.001, 3.0], [5.0, 6.001], [5.0, -1e-12], [12.0, 7.0]])


def _cloud_across_blocks(rng, n, block, zero_first):
    """``n`` points of SLIVER_BBOX, binned ``block`` at a time (n > 2 * block).

    A 0.0 and a -0.0 share a cell on either side of a block boundary,
    0.0 first if ``zero_first``; two points lie on the grid's max edges
    and two in the sliver past them; the first points of the last block
    lie outside the grid.  Returns the cloud, the cell of the zeros and
    the number of points outside.
    """
    last = (n - 1) // block * block  # the last block's first point
    boundary = block * int(rng.integers(1, last // block))
    i, j = int(rng.integers(0, boundary)), int(rng.integers(boundary, last))
    xyz = np.column_stack([rng.uniform(0, 10, n), rng.uniform(0, 6, n), rng.uniform(0.5, 9, n)])
    xyz[j, :2] = xyz[i, :2]
    xyz[[i, j], 2] = [0.0, -0.0] if zero_first else [-0.0, 0.0]
    edge = rng.choice(np.setdiff1d(np.arange(last), [i, j]), 4, replace=False)
    xyz[edge[:2], [0, 1]] = [10.0, 6.0]
    xyz[edge[2:], [0, 1]] = [10.0000000001, 6.0000000001]
    n_out = int(rng.integers(1, n - last + 1))
    xyz[last : last + n_out, :2] = OUTSIDE_XY[rng.integers(0, len(OUTSIDE_XY), n_out)]
    return xyz, (int(xyz[i, 1] / 0.5), int(xyz[i, 0] / 0.5)), n_out


def _assert_rasterize_equals_oracle(cloud, zero_first):
    xyz, zero_cell, n_out = cloud
    grid = make_grid_spec(SLIVER_BBOX, 0.5)
    assert (grid.max_x, grid.max_y) == (10.0, 6.0)
    sp = rasterize_min(PointCloud(xyz), grid)
    mins, counts = bucket_min_count(xyz, grid)
    elev = np.full(grid.shape, np.nan)
    occupancy = np.zeros(grid.shape, dtype=np.int32)
    for rc, v in mins.items():
        elev[rc] = v
        occupancy[rc] = counts[rc]
    assert np.array_equal(sp.elev, elev, equal_nan=True)
    assert np.array_equal(np.signbit(sp.elev), np.signbit(elev))
    assert np.array_equal(sp.occupancy, occupancy)
    assert sp.oob_dropped == len(xyz) - occupancy.sum() == n_out
    # the later zero's sign stays
    assert sp.elev[zero_cell] == 0.0 and np.signbit(sp.elev[zero_cell]) == zero_first


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(12, 300),
    seed=st.integers(0, 2**32 - 1),
    zero_first=st.booleans(),
    data=st.data(),
)
def test_rasterize_min_in_point_blocks_equals_bucketing_oracle(n, seed, zero_first, data):
    block = data.draw(st.integers(1, (n - 1) // 2), label="block")
    cloud = _cloud_across_blocks(np.random.default_rng(seed), n, block, zero_first)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(raster, "_BLOCK_ELEMENTS", block)
        _assert_rasterize_equals_oracle(cloud, zero_first)


@pytest.mark.parametrize("zero_first", [True, False])
def test_rasterize_min_equals_bucketing_oracle_over_two_full_blocks(zero_first):
    block = raster._BLOCK_ELEMENTS
    cloud = _cloud_across_blocks(np.random.default_rng(11), 2 * block + 500, block, zero_first)
    _assert_rasterize_equals_oracle(cloud, zero_first)


def test_fill_single_occupied_cell_floods_grid():
    elev = np.full((5, 5), np.nan)
    occ = np.zeros((5, 5), dtype=np.int64)
    elev[2, 3] = 7.0
    occ[2, 3] = 1
    dsm = fill_voids_nearest(SparseDsm(GridSpec(0, 0, 1, 5, 5), elev, occ))
    assert (dsm.elev == 7.0).all()


def test_fill_row_example_with_tie_rule():
    elev = np.full((1, 10), np.nan)
    occ = np.zeros((1, 10), dtype=np.int64)
    elev[0, 0], occ[0, 0] = 1.0, 1
    elev[0, 9], occ[0, 9] = 9.0, 1
    dsm = fill_voids_nearest(SparseDsm(GridSpec(0, 0, 1, 10, 1), elev, occ))
    assert dsm.elev[0].tolist() == [1, 1, 1, 1, 1, 9, 9, 9, 9, 9]


def test_fill_equidistant_prefers_smaller_row_major_donor():
    # donors at (0,2) and (2,0) are both sqrt(2) from (1,1); row-major
    # order picks (0,2)
    elev = np.full((3, 3), np.nan)
    occ = np.zeros((3, 3), dtype=np.int64)
    elev[0, 2], occ[0, 2] = 5.0, 1
    elev[2, 0], occ[2, 0] = 9.0, 1
    dsm = fill_voids_nearest(SparseDsm(GridSpec(0, 0, 1, 3, 3), elev, occ))
    assert dsm.elev[1, 1] == 5.0


def test_fill_never_alters_occupied_cells():
    rng = np.random.default_rng(3)
    elev = rng.normal(size=(20, 20))
    occ = (rng.uniform(size=(20, 20)) < 0.3).astype(np.int64)
    elev[occ == 0] = np.nan
    sp = SparseDsm(GridSpec(0, 0, 1, 20, 20), elev.copy(), occ)
    dsm = fill_voids_nearest(sp)
    assert np.array_equal(dsm.elev[occ > 0], elev[occ > 0])


def test_fill_all_void_raises():
    sp = SparseDsm(
        GridSpec(0, 0, 1, 4, 4),
        np.full((4, 4), np.nan),
        np.zeros((4, 4), dtype=np.int64),
    )
    with pytest.raises(AllVoidError):
        fill_voids_nearest(sp)


@settings(max_examples=40, deadline=None)
@given(
    nrows=st.integers(2, 16),
    ncols=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_fill_matches_brute_force_oracle(nrows, ncols, seed):
    rng = np.random.default_rng(seed)
    occ = (rng.uniform(size=(nrows, ncols)) < 0.25).astype(np.int64)
    if not occ.any():
        occ[rng.integers(nrows), rng.integers(ncols)] = 1
    elev = np.where(occ > 0, rng.normal(size=occ.shape), np.nan)
    sp = SparseDsm(GridSpec(0, 0, 1, ncols, nrows), elev.copy(), occ)
    dsm = fill_voids_nearest(sp)
    expected = brute_nearest_fill(elev, occ > 0)
    assert np.array_equal(dsm.elev, expected)


@settings(max_examples=100, deadline=None)
@given(
    nrows=st.integers(1, 16),
    ncols=st.integers(1, 16),
    density=st.sampled_from([0.02, 0.1, 0.3, 0.8]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_nearest_donor_indices_match_brute_force_on_targets(nrows, ncols, density, seed, data):
    rng = np.random.default_rng(seed)
    donors = rng.uniform(size=(nrows, ncols)) < density
    if not donors.any():
        donors[rng.integers(nrows), rng.integers(ncols)] = True
    # any cells, donor cells among them, in any order and with repeats
    targets = np.array(
        data.draw(st.lists(st.integers(0, nrows * ncols - 1), max_size=3 * nrows * ncols)),
        dtype=np.int64,
    )
    got = nearest_donor_indices(donors, targets)
    assert got.dtype == np.int64
    assert got.tolist() == brute_nearest_donor(donors, targets).tolist()


def _ring(nrows, ncols):
    """Donors everywhere but a one-cell border ring; its corners are at d2 = 2."""
    donors = np.ones((nrows, ncols), dtype=bool)
    donors[[0, -1], :] = donors[:, [0, -1]] = False
    return donors


def _isolated_voids(rng, nrows, ncols):
    """Voids at random cells of one checkerboard colour, so no two are 4-neighbours."""
    void = rng.uniform(size=(nrows, ncols)) < 0.3
    return ~(void & (np.indices((nrows, ncols)).sum(axis=0) % 2 == 0))


def _disk(nrows, ncols, r0, c0, radius):
    r, c = np.ogrid[:nrows, :ncols]
    return (r - r0) ** 2 + (c - c0) ** 2 <= radius**2


@st.composite
def structured_donor_masks(draw):
    """Isolated voids, a void border ring, or a lake that uses up the probe budget."""
    kind = draw(st.sampled_from(["isolated", "ring", "lake"]))
    size = st.integers(3, 40) if kind != "lake" else st.integers(30, 50)
    nrows, ncols = draw(size), draw(size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "isolated":
        donors = _isolated_voids(rng, nrows, ncols)
    elif kind == "ring":
        donors = _ring(nrows, ncols)
    else:
        donors = rng.uniform(size=(nrows, ncols)) < 0.7
        radius = draw(st.integers(12, 20))
        donors &= ~_disk(nrows, ncols, rng.integers(nrows), rng.integers(ncols), radius)
    if not donors.any():
        donors[rng.integers(nrows), rng.integers(ncols)] = True
    return donors


@settings(max_examples=60, deadline=None)
@given(structured_donor_masks())
def test_nearest_donor_indices_match_brute_force_on_structured_masks(donors):
    # every void, then every cell
    targets = np.concatenate([np.flatnonzero(~donors), np.arange(donors.size)])
    got = nearest_donor_indices(donors, targets)
    assert got.tolist() == brute_nearest_donor(donors, targets).tolist()


def test_edt_runs_only_for_targets_the_shell_search_leaves(monkeypatch):
    from scipy import ndimage

    real = ndimage.distance_transform_edt
    calls = []
    monkeypatch.setattr(
        ndimage, "distance_transform_edt", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    ring = _ring(120, 90)
    isolated = _isolated_voids(np.random.default_rng(3), 120, 90)
    lake = ~_disk(80, 80, 40, 35, 30)  # 2,821 voids in 6,400 cells
    for donors, edt_calls in ((ring, 0), (isolated, 0), (lake, 1)):
        calls.clear()
        targets = np.flatnonzero(~donors)
        got = nearest_donor_indices(donors, targets)
        assert len(calls) == edt_calls
        assert got.tolist() == brute_nearest_donor(donors, targets).tolist()


@pytest.mark.parametrize("annulus_d2, probe_block", [(1, 1), (7, 5), (64, 300)])
def test_edt_donors_match_brute_force_in_any_grouping(monkeypatch, annulus_d2, probe_block):
    # small groups cut the EDT's targets inside shells, distance ranges and
    # runs of equal distance
    from breakline_dtm import raster

    monkeypatch.setattr(raster, "_ANNULUS_D2", annulus_d2)
    monkeypatch.setattr(raster, "_BLOCK_ELEMENTS", probe_block)
    donors = ~_disk(70, 60, 30, 25, 24)
    donors[30, 25] = True  # a donor inside the lake
    targets = np.flatnonzero(~donors)
    got = nearest_donor_indices(donors, targets)
    assert got.tolist() == brute_nearest_donor(donors, targets).tolist()


@pytest.mark.parametrize("target_block", [1, 97, 1000])
def test_blocked_targets_share_one_edt_call(monkeypatch, target_block):
    # a lake of no returns spreads its inner voids over many target
    # blocks; every block's leftovers go to a single whole-mask EDT
    from scipy import ndimage

    real_edt, real_donors = ndimage.distance_transform_edt, raster._edt_donors
    edt_calls, handed = [], []
    monkeypatch.setattr(
        ndimage, "distance_transform_edt", lambda *a, **k: edt_calls.append(1) or real_edt(*a, **k)
    )
    monkeypatch.setattr(raster, "_edt_donors", lambda *a: handed.append(a[2]) or real_donors(*a))
    monkeypatch.setattr(raster, "_BLOCK_ELEMENTS", target_block)
    donors = ~_disk(80, 80, 40, 35, 30)  # 2,821 voids in 6,400 cells
    targets = np.concatenate([np.flatnonzero(~donors), np.arange(0, donors.size, 7)])
    assert targets.size > target_block
    got = nearest_donor_indices(donors, targets)
    assert got.tolist() == brute_nearest_donor(donors, targets).tolist()
    assert len(edt_calls) == 1 and len(handed) == 1
    assert np.unique(handed[0] // target_block).size > 1  # leftovers of several blocks


def test_nearest_donor_indices_no_donor_raises():
    with pytest.raises(AllVoidError):
        nearest_donor_indices(np.zeros((3, 3), dtype=bool), np.array([0, 4]))

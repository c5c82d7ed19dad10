from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay, QhullError

from breakline_dtm.errors import InsufficientGroundError
from breakline_dtm.groundfilter import GroundMask
from breakline_dtm.interp import (
    SOURCE_INTERPOLATED,
    SOURCE_MEASURED,
    _barycentric_transform,
    _fill_hole_1d,
    _fill_hole_linear,
    _fma_small,
    _triangulate,
    interpolate_nonground,
)
from breakline_dtm.raster import Dsm, GridSpec
from oracles import per_hole_fill, scipy_linear_fill


def plane(grid, base=0.0, a=0.0, b=0.0):
    gx, gy = np.meshgrid(grid.x_centers(), grid.y_centers())
    return base + a * gx + b * gy


def test_all_ground_is_identity():
    grid = GridSpec(0, 0, 1, 10, 10)
    z = plane(grid, 3.0, 0.2, -0.1)
    dtm = interpolate_nonground(Dsm(grid, z), GroundMask(grid, np.ones(grid.shape, bool)))
    assert np.array_equal(dtm.elev, z)
    assert (dtm.source == SOURCE_MEASURED).all()


def test_flat_plane_masked_rectangle():
    grid = GridSpec(0, 0, 1, 20, 16)
    z = np.full(grid.shape, 10.0)
    ground = np.ones(grid.shape, bool)
    ground[5:10, 6:14] = False
    dtm = interpolate_nonground(Dsm(grid, z), GroundMask(grid, ground))
    assert np.abs(dtm.elev - 10.0).max() < 1e-9
    assert (dtm.source[~ground] == SOURCE_INTERPOLATED).all()
    assert (dtm.source[ground] == SOURCE_MEASURED).all()


def test_tilted_plane_masked_strip():
    grid = GridSpec(0, 0, 0.5, 40, 12)
    z = plane(grid, 2.0, 0.1, 0.0)
    ground = np.ones(grid.shape, bool)
    ground[:, 10:20] = False  # full-height strip
    dtm = interpolate_nonground(Dsm(grid, z), GroundMask(grid, ground))
    assert np.abs(dtm.elev - z).max() < 1e-6


def test_masked_pixels_with_measured_ground_untouched():
    rng = np.random.default_rng(8)
    grid = GridSpec(0, 0, 1, 15, 15)
    z = rng.normal(100, 5, grid.shape)
    ground = rng.uniform(size=grid.shape) > 0.3
    ground[[0, -1], :] = True
    ground[:, [0, -1]] = True
    dtm = interpolate_nonground(Dsm(grid, z), GroundMask(grid, ground))
    assert np.array_equal(dtm.elev[ground], z[ground])


def test_interpolated_values_bounded_by_rim():
    rng = np.random.default_rng(9)
    grid = GridSpec(0, 0, 1, 24, 24)
    z = rng.normal(50, 10, grid.shape)
    ground = np.ones(grid.shape, bool)
    ground[6:18, 6:18] = False
    dtm = interpolate_nonground(Dsm(grid, z), GroundMask(grid, ground))
    hole = ~ground
    # the rim is every ground pixel 4-adjacent to the hole
    rim = np.zeros(grid.shape, bool)
    rim[5, 6:18] = rim[18, 6:18] = True
    rim[6:18, 5] = rim[6:18, 18] = True
    lo, hi = z[rim].min(), z[rim].max()
    assert dtm.elev[hole].min() >= lo - 1e-9
    assert dtm.elev[hole].max() <= hi + 1e-9


def test_collinear_rim_falls_back_to_1d():
    # a hole hugging the left edge has a single-column rim (collinear);
    # the 1-D fallback interpolates along that column's axis
    grid = GridSpec(0, 0, 1, 12, 8)
    z = plane(grid, 5.0, 0.0, 1.0)  # varies only with y
    ground = np.ones(grid.shape, bool)
    ground[:, 0:3] = False
    dtm = interpolate_nonground(Dsm(grid, z), GroundMask(grid, ground))
    assert np.abs(dtm.elev - z).max() < 1e-9


def test_collinear_fill_bits_do_not_depend_on_memory_order():
    # matmul rounds differently on a Fortran-ordered array; the fill must
    # give the same bits however its caller gathered the rim points
    rng = np.random.default_rng(5)
    for _ in range(200):
        donor_xy = rng.uniform(0, 50, (3, 2))
        donor_z = rng.normal(50, 2, 3)
        hole_xy = rng.uniform(0, 50, (4, 2))
        c_ordered = _fill_hole_1d(donor_xy, donor_z, hole_xy)
        f_ordered = _fill_hole_1d(np.asfortranarray(donor_xy), donor_z, hole_xy)
        assert c_ordered.tobytes() == f_ordered.tobytes()


def test_collinear_hole_pixels_are_projected_in_the_pipelines_memory_order():
    # a corner hole whose rim is one diagonal: interpolate_nonground builds
    # hole_xy Fortran-ordered, and (n, 2) @ (2,) rounds by memory order
    # for some n, so a C-ordered copy of hole_xy would move these bits
    grid = GridSpec(0, 0, 1, 6, 6)
    ground = np.ones(grid.shape, bool)
    hole = ([0, 0, 1], [4, 5, 5])
    ground[hole] = False
    z = np.random.default_rng(3).normal(50, 5, grid.shape)
    dtm = interpolate_nonground(Dsm(grid, z), GroundMask(grid, ground))
    # the arguments interpolate_nonground passes, in its window rows 0:3, columns 3:6
    donor_xy = np.array([[0.5, 0.5], [1.5, 1.5], [2.5, 2.5]])
    donor_z = z[[0, 1, 2], [3, 4, 5]]
    hole_xy = np.argwhere(~ground[:3, 3:])[:, ::-1] + 0.5
    assert hole_xy.strides == (8, 24)
    f_ordered = _fill_hole_1d(donor_xy, donor_z, hole_xy)
    c_ordered = _fill_hole_1d(donor_xy, donor_z, np.ascontiguousarray(hole_xy))
    assert dtm.elev[hole].tobytes() == f_ordered.tobytes()
    assert f_ordered.tobytes() != c_ordered.tobytes()


def test_collinear_rim_clamps_outside_range():
    grid = GridSpec(0, 0, 1, 12, 8)
    z = plane(grid, 5.0, 1.0, 0.0)  # varies only with x
    ground = np.ones(grid.shape, bool)
    ground[:, 0:3] = False
    dtm = interpolate_nonground(Dsm(grid, z), GroundMask(grid, ground))
    # rim is column 3: every hole pixel projects to the same axis value
    # range, so the fill is the rim value of its own row
    assert np.allclose(dtm.elev[:, 0:3], z[:, 3:4])


def test_insufficient_ground_raises():
    grid = GridSpec(0, 0, 1, 8, 8)
    z = np.zeros(grid.shape)
    ground = np.zeros(grid.shape, bool)
    ground[2, 2] = ground[2, 5] = True  # two pixels only
    with pytest.raises(InsufficientGroundError):
        interpolate_nonground(Dsm(grid, z), GroundMask(grid, ground))


def _line_cells(shape, line):
    ground = np.zeros(shape, bool)
    if line == "row":
        ground[shape[0] // 2, :] = True
    elif line == "column":
        ground[:, shape[1] // 2] = True
    else:
        np.fill_diagonal(ground, True)
    return ground


@pytest.mark.parametrize(
    "shape, line, off_line",
    [
        ((5, 8), "row", (0, 0)),
        ((8, 5), "column", (0, 0)),
        ((7, 7), "diagonal", (0, 1)),
        ((1, 9), "row", None),  # every cell of the grid is on the line
    ],
)
def test_ground_on_one_line_of_max_side_cells_raises(shape, line, off_line):
    # the most cells one line can hold, max(nrows, ncols), still get the exact test
    grid = GridSpec(0, 0, 1, shape[1], shape[0])
    ground = _line_cells(shape, line)
    assert ground.sum() == max(shape)
    with pytest.raises(InsufficientGroundError):
        interpolate_nonground(Dsm(grid, np.zeros(shape)), GroundMask(grid, ground))
    if off_line is not None:
        ground[off_line] = True
        dtm = interpolate_nonground(Dsm(grid, np.ones(shape)), GroundMask(grid, ground))
        assert np.array_equal(dtm.elev, np.ones(shape))


def test_determinism_bit_identical():
    rng = np.random.default_rng(10)
    grid = GridSpec(0, 0, 1, 30, 30)
    z = rng.normal(size=grid.shape)
    ground = rng.uniform(size=grid.shape) > 0.35
    ground[[0, -1], :] = True
    ground[:, [0, -1]] = True
    a = interpolate_nonground(Dsm(grid, z), GroundMask(grid, ground))
    b = interpolate_nonground(Dsm(grid, z), GroundMask(grid, ground))
    assert np.array_equal(a.elev, b.elev)
    assert np.array_equal(a.source, b.source)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(-0.5, 0.5),
    b=st.floats(-0.5, 0.5),
    base=st.floats(-100, 100),
)
def test_affine_reproduction_random_interior_masks(seed, a, b, base):
    rng = np.random.default_rng(seed)
    grid = GridSpec(0, 0, 1, 20, 20)
    z = plane(grid, base, a, b)
    ground = np.ones(grid.shape, bool)
    # a few random rectangles kept away from the border so every hole is
    # enclosed by its rim
    for _ in range(rng.integers(1, 4)):
        r0 = int(rng.integers(1, 14))
        c0 = int(rng.integers(1, 14))
        ground[r0 : r0 + int(rng.integers(2, 6)), c0 : c0 + int(rng.integers(2, 6))] = False
    ground[[0, -1], :] = True
    ground[:, [0, -1]] = True
    dtm = interpolate_nonground(Dsm(grid, z), GroundMask(grid, ground))
    assert np.abs(dtm.elev - z).max() < 1e-6


def _same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _half_cell_queries(xy):
    """Every half-cell point of a box one cell wider than ``xy``: vertices,
    edge midpoints, triangle interiors and points outside the hull."""
    lo = np.floor(xy.min(axis=0)) - 1
    hi = np.ceil(xy.max(axis=0)) + 1
    gx, gy = np.meshgrid(np.arange(lo[0], hi[0] + 0.25, 0.5), np.arange(lo[1], hi[1] + 0.25, 0.5))
    return np.column_stack([gx.ravel(), gy.ravel()])


def test_linear_fill_matches_scipy_on_a_concave_rim():
    # an L-shaped rim; the query box reaches past its hull, so NaN cells occur
    xy = np.array([(0, 0), (4, 0), (4, 1), (1, 1), (1, 4), (0, 4)], dtype=float) + 0.5
    z = np.array([1.0, 2.0, -3.0, 0.25, 7.0, -0.5])
    q = _half_cell_queries(xy)
    tri = Delaunay(xy)
    got = _fill_hole_linear(tri, z, q)
    assert np.isnan(got).any() and np.isfinite(got).any()
    assert _same_bits(got, scipy_linear_fill(tri, z, q))


@st.composite
def _donor_sets(draw):
    """Rim-like donor points on the cell-centre lattice, with values.

    Three kinds: arbitrary lattice points (duplicates allowed); a box whose
    corners make it the hull, with points and duplicates on its sides, so
    queries fall on hull edges; a line of points with one lifted off it
    by as little as 1e-12 cell, a near-collinear rim.
    """
    side = draw(st.integers(2, 12))
    coord = st.integers(0, side)
    kind = draw(st.sampled_from(["lattice", "hull_edges", "near_collinear"]))
    if kind == "near_collinear":
        n = draw(st.integers(2, 12))
        dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1)]))
        lift = draw(st.sampled_from([1.0, 1e-3, 1e-7, 1e-12]))
        k = draw(st.integers(0, n))
        pts = [(i * dx, i * dy) for i in range(n + 1)]
        pts.append((k * dx - dy * lift, k * dy + dx * lift))
    else:
        pts = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=30))
        if kind == "hull_edges":
            on_side = draw(st.lists(st.tuples(st.sampled_from([0, side]), coord), max_size=8))
            corners = [(0, 0), (0, side), (side, 0), (side, side)]
            pts = corners + pts + on_side + [(y, x) for x, y in on_side] + on_side
    xy = np.asarray(pts, dtype=np.float64) + 0.5
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    # signed zeros often, so that every product of a sum can be -0.0
    value = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-100, 100, allow_nan=False, allow_subnormal=False),
    )
    z = draw(st.lists(value, min_size=len(xy), max_size=len(xy)))
    return xy, np.asarray(z) * scale


@settings(max_examples=300, deadline=None)
@given(case=_donor_sets())
def test_linear_fill_matches_scipy_interpolator_bit_for_bit(case):
    xy, z = case
    try:
        tri = Delaunay(xy)
    except QhullError:
        assume(False)  # interpolate_nonground sends collinear rims to the 1-D fill first
    q = _half_cell_queries(xy)
    assert _same_bits(_fill_hole_linear(tri, z, q), scipy_linear_fill(tri, z, q))


@settings(max_examples=300, deadline=None)
@given(
    a=st.integers(-2047, 2047),
    b=st.floats(-4, 4, allow_subnormal=False).filter(lambda b: b == 0 or abs(b) > 2.0**-500),
    c=st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-4, 4, allow_subnormal=False)),
)
# 1 - 2^-54 - a hair: summed to nearest, the low parts meet on a tie and
# round to 1 - 2^-53's even neighbour 1.0; rounded to odd they do not
@example(a=-5, b=2.0**-54 / 5, c=1.0)
@example(a=-11, b=2.0**-54 / 11, c=1.0)
def test_fma_small_rounds_once(a, b, c):
    got = _fma_small(np.array([float(a)]), np.array([b]), np.array([c]))
    assert got[0] == float(Fraction(a) * Fraction(b) + Fraction(c))


@st.composite
def _lattice_rims(draw):
    """Cell-centre points whose triangles stress the numpy transform.

    ``scatter`` draws points in a box up to 2047 cells wide, the widest
    the helper takes; ``ties`` puts points on the diagonals, so pivots tie
    (|a10| = |a00|); ``sliver`` lifts one point of a long line by one
    cell, so triangles are thin.  Each axis may be mirrored, so edges and
    coordinates take both signs.
    """
    kind = draw(st.sampled_from(["scatter", "ties", "sliver"]))
    if kind == "scatter":
        side = draw(st.sampled_from([3, 12, 200, 2047]))
        coord = st.integers(0, side)
        pts = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=40))
        pts += [(0, 0), (side, side)]
    elif kind == "ties":
        n = draw(st.integers(2, 12))
        pts = [(i, i) for i in range(n)] + [(i, n - i) for i in range(n)]
        pts += draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=10))
    else:
        n = draw(st.integers(2, 30))
        dx, dy = draw(st.sampled_from([(1, 0), (1, 1), (2, 1), (7, 3), (60, 1)]))
        k = draw(st.integers(0, n))
        pts = [(i * dx, i * dy) for i in range(n + 1)] + [(k * dx, k * dy + 1)]
    flip = np.array([draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))])
    return np.unique(np.asarray(pts) * flip, axis=0).astype(np.float64) + 0.5


@settings(max_examples=300, deadline=None)
@given(xy=_lattice_rims())
@example(xy=np.array([(0, 0), (1, 0), (0, 1), (1, 1)], dtype=float) + 0.5)
@example(xy=np.array([(0, 0), (-1, 1), (1, 1), (0, 2)], dtype=float) - 0.5)
def test_numpy_transform_equals_scipys_bit_for_bit(xy):
    try:
        tri = Delaunay(xy)
    except QhullError:
        assume(False)  # a collinear rim is filled in 1-D, never triangulated
    got = _barycentric_transform(tri.points, tri.simplices)
    assert got is not None
    assert _same_bits(got, tri.transform)


@settings(max_examples=50, deadline=None)
@given(xy=_lattice_rims())
def test_find_simplex_reads_the_numpy_transform(xy):
    # scipy's Delaunay caches its transform in the private _transform,
    # and both its transform property and find_simplex read that cache;
    # if a scipy version stops doing so, this test must fail
    try:
        fresh = Delaunay(xy)
    except QhullError:
        assume(False)
    tri = _triangulate(xy)
    assert tri._transform is not None and tri.transform is tri._transform
    q = _half_cell_queries(xy) if np.ptp(xy, axis=0).max() < 64 else xy + 0.25
    assert np.array_equal(tri.find_simplex(q), fresh.find_simplex(q))
    tri._transform = np.full_like(tri._transform, np.nan)
    assert (tri.find_simplex(q) == -1).all()


@pytest.mark.parametrize(
    "xy",
    [
        [(0, 0), (2048, 0), (0, 3)],  # an edge of 2^11 cells
        [(0, 0), (5, 0.25), (0, 3)],  # off the lattice
    ],
)
def test_triangles_outside_the_helpers_range_keep_scipys_transform(xy):
    xy = np.asarray(xy, dtype=np.float64) + 0.5
    tri = _triangulate(xy)
    assert _barycentric_transform(tri.points, tri.simplices) is None
    assert tri._transform is None
    assert _same_bits(tri.transform, Delaunay(xy).transform)


def test_hole_wider_than_the_helpers_range_is_filled_as_scipy_fills_it(monkeypatch):
    from breakline_dtm import interp

    made = []
    real = interp._barycentric_transform
    monkeypatch.setattr(
        interp, "_barycentric_transform", lambda *a: made.append(real(*a)) or made[-1]
    )
    # three ground pixels, the rim of one hole: a triangle 2099 cells wide
    grid = GridSpec(0, 0, 1, 2100, 3)
    z = np.random.default_rng(5).normal(0.0, 10.0, grid.shape)
    ground = np.zeros(grid.shape, bool)
    ground[0, 0] = ground[2, 0] = ground[0, -1] = True
    dtm = interpolate_nonground(Dsm(grid, z), GroundMask(grid, ground))
    assert made == [None]
    assert _same_bits(dtm.elev, per_hole_fill(z, ground))


@st.composite
def _ground_masks(draw):
    """Ground masks whose holes have the rims the fill must handle.

    ``random`` scatters non-ground pixels (density 0 gives an all-ground
    mask); ``ring`` makes the raster border non-ground, merged with random
    interior breaks as the stamped break-line ring is; ``ring_only`` keeps
    the interior breaks off the ring, whose hole is then the ring alone and
    lies wholly outside its rim's bounding box; ``corner`` cuts a
    staircase triangle whose rim is one diagonal (2 pixels for the corner
    pixel alone); ``strip`` cuts full-width rows or full-height columns,
    whose rim is one row or one column.  Sparse random holes may be added
    on top.  Masks with fewer than 3 or only collinear ground pixels occur
    too, among them rims of a single pixel.
    """
    nrows = draw(st.one_of(st.just(3), st.integers(2, 14)))
    ncols = draw(st.one_of(st.just(3), st.integers(2, 14)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "ring", "ring_only", "corner", "strip"]))
    ground = np.ones((nrows, ncols), bool)
    if kind == "random":
        ground = rng.uniform(size=ground.shape) >= draw(st.sampled_from([0.0, 0.2, 0.4, 0.6]))
    elif kind == "ring":
        ground[[0, -1], :] = ground[:, [0, -1]] = False
        ground &= rng.uniform(size=ground.shape) >= draw(st.floats(0.0, 0.4))
    elif kind == "ring_only":
        breaks = rng.uniform(size=ground.shape) < draw(st.floats(0.0, 0.4))
        ground[2:-2, 2:-2] = ~breaks[2:-2, 2:-2]
        ground[[0, -1], :] = ground[:, [0, -1]] = False
    elif kind == "corner":
        r, c = np.indices(ground.shape)
        k = draw(st.integers(1, min(nrows, ncols)))
        ground = r + c >= k
        ground = ground[:: draw(st.sampled_from([1, -1])), :: draw(st.sampled_from([1, -1]))]
    else:
        k = draw(st.integers(1, 3))
        if draw(st.booleans()):
            ground[:k] = False
        else:
            ground[:, -k:] = False
    extra = 0.0 if kind == "ring_only" else draw(st.sampled_from([0.0, 0.0, 0.05, 0.15]))
    ground &= rng.uniform(size=ground.shape) >= extra
    z = rng.normal(0.0, 10.0, ground.shape)
    if draw(st.booleans()):
        z = np.round(z)  # ties, integers and signed zeros among the donors
    return ground, z


# the hole (2, 1) lies on the raster border, yet on the hull edge between
# its rim pixels (2, 0) and (2, 2): find_simplex places it inside, so a
# border-pixel rule would wrongly give it the nearest donor
_BORDER_ON_HULL = np.ones((3, 3), bool)
_BORDER_ON_HULL[2, 1] = False


@settings(max_examples=300, deadline=None)
@given(case=_ground_masks())
@example(case=(_BORDER_ON_HULL, np.arange(9.0).reshape(3, 3) ** 1.5))
def test_interpolation_matches_per_hole_oracle_bit_for_bit(case):
    ground, z = case
    grid = GridSpec(0, 0, 1, ground.shape[1], ground.shape[0])
    expected = per_hole_fill(z, ground)
    if expected is None:
        with pytest.raises(InsufficientGroundError):
            interpolate_nonground(Dsm(grid, z), GroundMask(grid, ground))
        return
    dtm = interpolate_nonground(Dsm(grid, z), GroundMask(grid, ground))
    assert _same_bits(dtm.elev, expected)
    assert np.array_equal(dtm.source, np.where(ground, SOURCE_MEASURED, SOURCE_INTERPOLATED))


@pytest.mark.parametrize(
    "breaks, triangulations",
    [
        ([], 0),  # the ring alone: every hole pixel is outside its rim's box
        ([(slice(4, 6), slice(5, 8))], 1),  # plus an interior hole
        ([(1, 5)], 1),  # a break merged with the ring lies inside its rim's box
    ],
)
def test_delaunay_built_only_for_hole_pixels_inside_the_rim_box(
    monkeypatch, breaks, triangulations
):
    import scipy.spatial

    real_delaunay = scipy.spatial.Delaunay
    built = []

    def counting_delaunay(points, *args, **kwargs):
        built.append(len(points))
        return real_delaunay(points, *args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "Delaunay", counting_delaunay)
    grid = GridSpec(0, 0, 1, 12, 10)
    z = plane(grid, 5.0, 0.3, -0.2) + np.random.default_rng(3).normal(0, 1, grid.shape)
    ground = np.ones(grid.shape, bool)
    ground[[0, -1], :] = ground[:, [0, -1]] = False  # the stamped border ring
    for index in breaks:
        ground[index] = False
    dtm = interpolate_nonground(Dsm(grid, z), GroundMask(grid, ground))
    assert len(built) == triangulations
    assert _same_bits(dtm.elev, per_hole_fill(z, ground))

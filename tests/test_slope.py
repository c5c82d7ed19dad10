import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from breakline_dtm.errors import BadThresholdError, GridTooSmallError, ParameterError
from breakline_dtm.groundfilter import FilterParams
from breakline_dtm.raster import Dsm, GridSpec
from breakline_dtm.slope import _STRIP_ROWS, SlopeMap, break_line_mask, slope_map
from oracles import direct_sobel_slope, whole_raster_slope


def plane_dsm(grid, a=0.0, b=0.0, base=0.0):
    x = grid.x_centers()
    y = grid.y_centers()
    gx, gy = np.meshgrid(x, y)
    return Dsm(grid, base + a * gx + b * gy)


def test_constant_dsm_has_zero_slope():
    grid = GridSpec(0, 0, 0.5, 10, 10)
    sm = slope_map(Dsm(grid, np.full(grid.shape, 42.0)))
    assert (sm.slope_deg == 0).all()


def test_inclined_plane_interior_slope_is_exact():
    # edge-replication flattens the outermost ring, so check the interior
    grid = GridSpec(0, 0, 0.5, 30, 30)
    sm = slope_map(plane_dsm(grid, a=np.tan(np.radians(30.0))))
    assert np.abs(sm.slope_deg[1:-1, 1:-1] - 30.0).max() < 1e-9


def test_step_slope_matches_direct_convolution_oracle():
    grid = GridSpec(0, 0, 0.5, 12, 8)
    z = np.zeros(grid.shape)
    z[:, 6:] = 0.5  # half-meter step between flat halves
    sm = slope_map(Dsm(grid, z))
    oracle = direct_sobel_slope(z, 0.5)
    assert np.allclose(sm.slope_deg, oracle, atol=1e-12)
    # frozen from the oracle: pixels flanking the step see atan(0.5)
    assert sm.slope_deg[4, 5] == pytest.approx(26.56505117707799, abs=1e-9)
    assert sm.slope_deg[4, 6] == pytest.approx(26.56505117707799, abs=1e-9)


def test_building_wall_scene_against_oracle():
    rng = np.random.default_rng(11)
    grid = GridSpec(0, 0, 0.5, 24, 20)
    z = rng.normal(100.0, 0.05, grid.shape)
    z[5:15, 8:16] += 12.0  # block building
    sm = slope_map(Dsm(grid, z))
    oracle = direct_sobel_slope(z, 0.5)
    assert np.allclose(sm.slope_deg, oracle, atol=1e-10)
    tau = 45.0
    mask = break_line_mask(sm, tau)
    inner = np.zeros(grid.shape, dtype=bool)
    inner[1:-1, 1:-1] = True
    assert np.array_equal(mask.is_break[inner], (oracle > tau)[inner])


def test_slope_values_in_range():
    rng = np.random.default_rng(2)
    grid = GridSpec(0, 0, 0.5, 16, 16)
    sm = slope_map(Dsm(grid, rng.normal(0, 50, grid.shape)))
    assert np.isfinite(sm.slope_deg).all()
    assert (sm.slope_deg >= 0).all() and (sm.slope_deg < 90).all()


def test_grid_too_small():
    with pytest.raises(GridTooSmallError):
        slope_map(Dsm(GridSpec(0, 0, 1, 2, 5), np.zeros((5, 2))))


def test_translation_invariance():
    rng = np.random.default_rng(5)
    grid = GridSpec(0, 0, 0.5, 15, 13)
    z = rng.normal(size=grid.shape)
    a = slope_map(Dsm(grid, z)).slope_deg
    b = slope_map(Dsm(grid, z + 123.456)).slope_deg
    assert np.allclose(a, b, atol=1e-9)


def test_rotation_consistency_90_degrees():
    rng = np.random.default_rng(6)
    grid = GridSpec(0, 0, 0.5, 14, 14)
    z = rng.normal(size=(14, 14))
    rotated_grid = GridSpec(0, 0, 0.5, 14, 14)
    a = slope_map(Dsm(grid, z)).slope_deg
    b = slope_map(Dsm(rotated_grid, np.rot90(z))).slope_deg
    assert np.allclose(np.rot90(a), b, atol=1e-12, rtol=0)


def test_break_mask_border_ring_always_true():
    grid = GridSpec(0, 0, 1, 8, 6)
    sm = SlopeMap(grid, np.zeros(grid.shape))
    mask = break_line_mask(sm, 45.0)
    assert mask.is_break[0, :].all() and mask.is_break[-1, :].all()
    assert mask.is_break[:, 0].all() and mask.is_break[:, -1].all()
    assert not mask.is_break[1:-1, 1:-1].any()


def test_break_threshold_is_strict():
    grid = GridSpec(0, 0, 1, 6, 6)
    sm = SlopeMap(grid, np.full(grid.shape, 45.0))
    mask = break_line_mask(sm, 45.0)
    assert not mask.is_break[1:-1, 1:-1].any()


def test_break_threshold_validation():
    grid = GridSpec(0, 0, 1, 6, 6)
    sm = SlopeMap(grid, np.zeros(grid.shape))
    for bad in (0.0, 90.0, -3.0, 120.0):
        with pytest.raises(BadThresholdError):
            break_line_mask(sm, bad)


def test_filter_params_and_break_mask_refuse_a_threshold_alike():
    sm = SlopeMap(GridSpec(0, 0, 1, 6, 6), np.zeros((6, 6)))
    with pytest.raises(ParameterError) as by_params:
        FilterParams(tau_deg=95)
    with pytest.raises(ParameterError) as by_mask:
        break_line_mask(sm, 95)
    assert type(by_params.value) is type(by_mask.value) is BadThresholdError
    assert str(by_params.value) == str(by_mask.value)
    assert str(by_mask.value) == "slope threshold must be in (0, 90), got 95"


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t1=st.floats(5, 85), t2=st.floats(5, 85))
def test_break_sets_monotone_in_threshold(seed, t1, t2):
    lo, hi = sorted((t1, t2))
    rng = np.random.default_rng(seed)
    grid = GridSpec(0, 0, 0.5, 12, 12)
    sm = slope_map(Dsm(grid, rng.normal(0, 5, grid.shape)))
    mask_hi = break_line_mask(sm, hi).is_break
    mask_lo = break_line_mask(sm, lo).is_break
    assert not (mask_hi & ~mask_lo).any()


# cells that stress the arithmetic: signed zeros, overflow to inf in the
# sums (and inf - inf = NaN), and subnormals
SPECIAL_CELLS = [0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072e-308]
STRIP_HEIGHTS = [k * _STRIP_ROWS + d for k in (1, 2, 3) for d in (-1, 0, 1)]


@settings(max_examples=60, deadline=None)
@example(nrows=_STRIP_ROWS + 1, ncols=3, seed=0, special=1.0, cell=0.5)
@example(nrows=2 * _STRIP_ROWS, ncols=5, seed=1, special=0.3, cell=1e-300)
@given(
    nrows=st.one_of(st.integers(3, 12), st.sampled_from(STRIP_HEIGHTS)),
    ncols=st.integers(3, 9),
    seed=st.integers(0, 2**32 - 1),
    special=st.floats(0.0, 1.0),
    cell=st.sampled_from([0.5, 1.0, 3.7, 1e-300, 1e300]),
)
def test_strips_match_the_whole_raster_pass_bit_for_bit(nrows, ncols, seed, special, cell):
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, 10.0, (nrows, ncols))
    picks = rng.random((nrows, ncols)) < special
    z[picks] = rng.choice(SPECIAL_CELLS, int(picks.sum()))
    with np.errstate(all="ignore"):
        got = slope_map(Dsm(GridSpec(0, 0, cell, ncols, nrows), z)).slope_deg
        want = whole_raster_slope(z, cell)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()

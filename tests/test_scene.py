import dataclasses

import numpy as np
import pytest

from breakline_dtm import scene

from breakline_dtm.errors import EmptyExtentError, ParameterError
from breakline_dtm.ingest import BBox
from breakline_dtm.raster import make_grid_spec
from breakline_dtm.scene import (
    Building,
    Hill,
    Plane,
    Ramp,
    Scene,
    WaterBody,
    load_scene,
    points_in_polygon,
    ramp_mask,
    sample_points,
    truth_rasters,
    _rect_polygon,
)
from oracles import point_in_polygon


def flat_scene(**kwargs):
    defaults = dict(extent=BBox(0, 0, 100, 100), density=4.35, seed=17, plane=Plane(100.0))
    defaults.update(kwargs)
    return Scene(**defaults)


def test_sample_count_within_3_sigma():
    scn = flat_scene()
    pc = sample_points(scn)
    expected = 4.35 * 100 * 100
    sigma = np.sqrt(expected)
    assert abs(pc.count - 4 - expected) < 3 * sigma  # 4 corner control points


def test_sampling_is_deterministic():
    scn = flat_scene()
    a = sample_points(scn)
    b = sample_points(scn)
    assert np.array_equal(a.xyz, b.xyz)
    c = sample_points(scn, seed=18)
    assert not np.array_equal(a.xyz, c.xyz)


def test_corners_pin_bounds_to_extent():
    scn = flat_scene()
    pc = sample_points(scn)
    assert pc.x.min() == 0.0 and pc.x.max() == 100.0
    assert pc.y.min() == 0.0 and pc.y.max() == 100.0


def test_water_suppression_zero_removes_all_points():
    water = WaterBody(_rect_polygon(20, 20, 30, 30), level=95.0, suppression=0.0)
    scn = flat_scene(waters=[water])
    pc = sample_points(scn)
    inside = points_in_polygon(pc.x, pc.y, water.poly_array())
    assert inside.sum() == 0


def test_water_suppression_fraction_retains_some():
    water = WaterBody(_rect_polygon(10, 10, 80, 80), level=95.0, suppression=0.05)
    scn = flat_scene(waters=[water])
    pc = sample_points(scn)
    inside = points_in_polygon(pc.x, pc.y, water.poly_array())
    n_expected = 0.05 * 4.35 * 80 * 80
    assert 0 < inside.sum() < 3 * n_expected
    assert (pc.z[inside] == 95.0).all()


def test_building_points_raised_by_height():
    bld = Building(40, 40, 20, 20, 12.0)
    scn = flat_scene(buildings=[bld])
    pc = sample_points(scn)
    inside = points_in_polygon(pc.x, pc.y, bld.polygon())
    assert inside.any()
    assert np.allclose(pc.z[inside], 112.0)
    assert np.allclose(pc.z[~inside], 100.0)


def test_ramp_slope_never_exceeds_limit():
    ramp = Ramp(20, 50, 80, 50, width=6, height=10, slope_deg=30)
    scn = flat_scene(ramps=[ramp])
    xs = np.linspace(0, 100, 401)
    ys = np.linspace(0, 100, 401)
    gx, gy = np.meshgrid(xs, ys)
    z = scn.terrain_height(gx, gy)
    dzdx = np.diff(z, axis=1) / np.diff(xs)[0]
    dzdy = np.diff(z, axis=0) / np.diff(ys)[0]
    max_grad = max(np.abs(dzdx).max(), np.abs(dzdy).max())
    assert max_grad <= np.tan(np.radians(30)) + 0.02
    assert z.max() == pytest.approx(110.0)


def test_truth_rasters_plane_exact():
    scn = flat_scene(plane=Plane(50.0, 0.1, -0.05))
    grid = make_grid_spec(scn.extent, 0.5)
    truth = truth_rasters(scn, grid)
    gx, gy = np.meshgrid(grid.x_centers(), grid.y_centers())
    assert np.array_equal(truth.dtm, 50.0 + 0.1 * gx - 0.05 * gy)
    assert truth.ground_mask.all()
    assert not truth.water_mask.any()


def test_truth_building_pixel_count():
    # 20x30 m footprint on a 0.5 m grid covers exactly 2400 cells
    bld = Building(40, 30, 20, 30, 10.0)
    scn = flat_scene(extent=BBox(0, 0, 100, 100), buildings=[bld])
    grid = make_grid_spec(scn.extent, 0.5)
    truth = truth_rasters(scn, grid)
    assert (~truth.ground_mask).sum() == 2400


def test_truth_masks_match_point_in_polygon_oracle():
    bld = Building(22, 31, 17, 9, 8.0, angle_deg=25.0)
    water = WaterBody(((60, 10), (90, 25), (75, 55), (55, 40)), level=95.0)
    scn = flat_scene(buildings=[bld], waters=[water])
    grid = make_grid_spec(scn.extent, 1.0)
    truth = truth_rasters(scn, grid)
    xs, ys = grid.x_centers(), grid.y_centers()
    poly_b = [tuple(p) for p in bld.polygon()]
    poly_w = [tuple(p) for p in water.poly_array()]
    for r in range(grid.nrows):
        for c in range(grid.ncols):
            assert truth.ground_mask[r, c] == (not point_in_polygon(xs[c], ys[r], poly_b))
            assert truth.water_mask[r, c] == point_in_polygon(xs[c], ys[r], poly_w)


def test_ramp_mask_covers_deck():
    ramp = Ramp(20, 50, 80, 50, width=6, height=10, slope_deg=30)
    scn = flat_scene(ramps=[ramp])
    grid = make_grid_spec(scn.extent, 0.5)
    mask = ramp_mask(scn, grid)
    assert mask.any()
    # deck center is inside
    r = int(50 / 0.5)
    c = int(50 / 0.5)
    assert mask[r, c]


def test_empty_extent_and_bad_density():
    with pytest.raises(EmptyExtentError):
        sample_points(flat_scene(extent=BBox(5, 5, 5, 5)))
    with pytest.raises(ParameterError):
        sample_points(flat_scene(), density=0.0)


SCENE_TEXT = """
# demo
extent min_x=0 min_y=0 max_x=120 max_y=80
density value=3.5
seed value=9
plane base=200 slope_x=0.01
hill cx=60 cy=40 sigma=15 height=5
valley cx=20 cy=20 sigma=8 depth=4
building x=10 y=50 width=20 depth=15 height=9 angle=10
ramp x0=30 y0=10 x1=90 y1=10 width=5 height=8 slope_deg=25
water x=70 y=50 width=30 height=20 level=195 suppression=0.01
waterpoly points=5,5;15,5;10,14 level=198
"""


def test_load_scene_round_trip_fields():
    scn = load_scene(SCENE_TEXT)
    assert scn.extent == BBox(0, 0, 120, 80)
    assert scn.density == 3.5
    assert scn.seed == 9
    assert scn.plane == Plane(200.0, 0.01, 0.0)
    assert scn.hills == [Hill(60, 40, 15, 5), Hill(20, 20, 8, -4)]
    assert len(scn.buildings) == 1 and scn.buildings[0].angle_deg == 10
    assert len(scn.ramps) == 1 and scn.ramps[0].slope_deg == 25
    assert len(scn.waters) == 2
    assert scn.waters[1].polygon == ((5, 5), (15, 5), (10, 14))


def test_load_scene_from_file(tmp_path):
    p = tmp_path / "scene.txt"
    p.write_text(SCENE_TEXT)
    scn = load_scene(p)
    assert scn.extent == BBox(0, 0, 120, 80)


def test_load_scene_errors():
    with pytest.raises(ParameterError):
        load_scene("density value=2\n")  # no extent
    with pytest.raises(ParameterError):
        load_scene("extent min_x=0 min_y=0 max_x=1 max_y=1\nblob a=1\n")
    with pytest.raises(ParameterError):
        load_scene("extent min_x=0 min_y=0 max_x=1 max_y=1\nhill cx=1\n")


def test_points_in_polygon_vectorized_matches_oracle():
    rng = np.random.default_rng(19)
    poly = np.array([(2, 1), (9, 3), (7, 9), (4, 7), (1, 6)], dtype=float)
    px = rng.uniform(0, 10, 300)
    py = rng.uniform(0, 10, 300)
    got = points_in_polygon(px, py, poly)
    expected = [point_in_polygon(x, y, [tuple(p) for p in poly]) for x, y in zip(px, py)]
    assert got.tolist() == expected


def _features(scn):
    return [scn.extent, scn.plane, *scn.hills, *scn.buildings, *scn.ramps, *scn.waters]


def test_load_scene_parses_the_module_docstring_example():
    # every feature kind, every key written out
    example = "\n".join(
        line for line in scene.__doc__.splitlines() if line.startswith("    ")
    )
    rect = ((30.0, 30.0), (130.0, 30.0), (130.0, 90.0), (30.0, 90.0))
    assert load_scene(example) == Scene(
        BBox(0, 0, 500, 500),
        4.0,
        42,
        Plane(100, 0, 0),
        hills=[Hill(250, 250, 40, 8), Hill(100, 100, 12, -25)],
        buildings=[Building(120, 300, 20, 30, 12, 0)],
        ramps=[Ramp(50, 200, 170, 200, 6, 12, 30)],
        waters=[WaterBody(rect, 95, 0.02), WaterBody(rect, 95, 0.02)],
    )


def test_load_scene_optional_keys_take_the_dataclass_defaults():
    scn = load_scene(
        "extent min_x=0 min_y=0 max_x=10 max_y=10\n"
        "plane\n"
        "hill cx=1 cy=2 sigma=3 height=4\n"
        "valley cx=1 cy=2 sigma=3 depth=4\n"
        "building x=1 y=2 width=3 depth=4 height=5\n"
        "ramp x0=1 y0=2 x1=3 y1=4 width=5 height=6\n"
        "water x=1 y=2 width=3 height=4 level=5\n"
        "waterpoly points=0,0;1,0;0,1 level=5\n"
    )
    assert scn == Scene(
        BBox(0, 0, 10, 10),
        hills=[Hill(1, 2, 3, 4), Hill(1, 2, 3, -4)],
        buildings=[Building(1, 2, 3, 4, 5)],
        ramps=[Ramp(1, 2, 3, 4, 5, 6)],
        waters=[
            WaterBody(_rect_polygon(1.0, 2.0, 3.0, 4.0), 5),
            WaterBody(((0, 0), (1, 0), (0, 1)), 5),
        ],
    )
    assert (scn.density, scn.seed, scn.plane) == (4.0, 0, Plane(0, 0, 0))
    assert scn.buildings[0].angle_deg == 0 and scn.ramps[0].slope_deg == 30
    assert [w.suppression for w in scn.waters] == [0.02, 0.02]
    # every value read or defaulted is a float
    for feature in _features(scn):
        for f in dataclasses.fields(feature):
            value = getattr(feature, f.name)
            values = [v for pt in value for v in pt] if f.name == "polygon" else [value]
            assert all(type(v) is float for v in values), (feature, f.name)


@pytest.mark.parametrize(
    "line, key",
    [
        ("extent min_x=0 max_y=1", "min_y"),
        ("density", "value"),
        ("seed", "value"),
        ("hill cx=1 height=2", "cy"),
        ("hill cy=2 sigma=3", "cx"),
        ("valley cx=1 cy=2 height=3", "sigma"),
        ("valley cx=1 cy=2 sigma=3 height=4", "depth"),
        ("building x=1 width=2 angle_deg=5", "y"),
        ("building x=1 y=2 width=3 height=5 angle=7", "depth"),
        ("ramp x0=1 y1=2 height=3 slope_deg=20", "y0"),
        ("ramp x0=1 y0=2 x1=3 y1=4 height=6", "width"),
        ("water x=1 y=2 level=3", "width"),
        ("water x=1 y=2 width=3 height=4 suppression=0.5", "level"),
        ("waterpoly suppression=0.1", "points"),
        ("waterpoly points=0,0;1,0;0,1 suppression=0.1", "level"),
    ],
)
def test_load_scene_names_the_first_missing_key(line, key):
    with pytest.raises(ParameterError) as exc:
        load_scene("extent min_x=0 min_y=0 max_x=1 max_y=1\n" + line)
    assert str(exc.value) == f"scene line 2: missing key '{key}'"


@pytest.mark.parametrize(
    "line, message",
    [
        # keys are read in field order: a bad value before a missing key is named
        ("hill cx=abc", "could not convert string to float: 'abc'"),
        ("hill cx=1 cy=zz", "could not convert string to float: 'zz'"),
        ("water x=1 y=q level=3", "could not convert string to float: 'q'"),
        ("seed value=1.5", "invalid literal for int() with base 10: '1.5'"),
        (
            "extent min_x=2 min_y=0 max_x=1 max_y=1",
            "inverted bbox: BBox(min_x=2.0, min_y=0.0, max_x=1.0, max_y=1.0)",
        ),
    ],
)
def test_load_scene_names_the_first_bad_value(line, message):
    with pytest.raises(ParameterError) as exc:
        load_scene("extent min_x=0 min_y=0 max_x=1 max_y=1\n" + line)
    assert str(exc.value) == f"scene line 2: {message}"


def test_load_scene_ignores_keys_the_syntax_does_not_define():
    scn = load_scene(
        "extent min_x=0 min_y=0 max_x=10 max_y=10 colour=red\n"
        "plane base=1 slope=9\n"
        "hill cx=1 cy=2 sigma=3 height=4 depth=9\n"
        "valley cx=1 cy=2 sigma=3 depth=4 height=9\n"
        "building x=1 y=2 width=3 depth=4 height=5 angle_deg=45\n"
        "ramp x0=1 y0=2 x1=3 y1=4 width=5 height=6 angle=9\n"
        "water x=1 y=2 width=3 height=4 level=5 polygon=0 points=0,0;1,0;0,1\n"
        "waterpoly points=0,0;1,0;0,1 level=5 x=1 polygon=0\n"
    )
    assert scn == load_scene(
        "extent min_x=0 min_y=0 max_x=10 max_y=10\n"
        "plane base=1\n"
        "hill cx=1 cy=2 sigma=3 height=4\n"
        "valley cx=1 cy=2 sigma=3 depth=4\n"
        "building x=1 y=2 width=3 depth=4 height=5\n"
        "ramp x0=1 y0=2 x1=3 y1=4 width=5 height=6\n"
        "water x=1 y=2 width=3 height=4 level=5\n"
        "waterpoly points=0,0;1,0;0,1 level=5\n"
    )
    assert scn.hills[1].height == -4.0 and scn.buildings[0].angle_deg == 0.0

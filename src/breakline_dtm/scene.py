"""Deterministic synthetic LiDAR scenes with known ground truth.

A scene is an analytic height field (plane plus Gaussian hills or
valleys) decorated with features: box buildings, ramps that connect to
the ground at a bounded slope, and water bodies that suppress returns.
Sampling uses a counter-based Philox generator, so a (scene, seed) pair
reproduces the same point cloud byte for byte on any platform.

Scene description files are line-oriented: the first token names the
feature, the rest are key=value pairs.  ``#`` starts a comment.  A key
is the name of a field of the feature's dataclass, and a key left out
takes that field's default; a building's ``angle`` fills ``angle_deg``
and a valley's ``depth`` is a negative ``Hill.height``.

    extent min_x=0 min_y=0 max_x=500 max_y=500
    density value=4.0
    seed value=42
    plane base=100 slope_x=0 slope_y=0
    hill cx=250 cy=250 sigma=40 height=8
    valley cx=100 cy=100 sigma=12 depth=25
    building x=120 y=300 width=20 depth=30 height=12 angle=0
    ramp x0=50 y0=200 x1=170 y1=200 width=6 height=12 slope_deg=30
    water x=30 y=30 width=100 height=60 level=95 suppression=0.02
    waterpoly points=30,30;130,30;130,90;30,90 level=95 suppression=0.02
"""

from __future__ import annotations

import errno
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import EmptyExtentError, ParameterError
from .ingest import BBox, PointCloud
from .raster import GridSpec


@dataclass(frozen=True)
class Plane:
    base: float = 0.0
    slope_x: float = 0.0
    slope_y: float = 0.0


@dataclass(frozen=True)
class Hill:
    """Gaussian bump; a negative height is a valley."""

    cx: float
    cy: float
    sigma: float
    height: float


@dataclass(frozen=True)
class Building:
    """Box with a flat roof ``height`` meters above the local terrain."""

    x: float
    y: float
    width: float
    depth: float
    height: float
    angle_deg: float = 0.0

    def polygon(self) -> np.ndarray:
        corners = np.array(
            [
                [0.0, 0.0],
                [self.width, 0.0],
                [self.width, self.depth],
                [0.0, self.depth],
            ]
        )
        if self.angle_deg:
            ang = math.radians(self.angle_deg)
            rot = np.array(
                [[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]]
            )
            center = corners.mean(axis=0)
            corners = (corners - center) @ rot.T + center
        return corners + np.array([self.x, self.y])


@dataclass(frozen=True)
class Ramp:
    """Ridge rising to ``height`` over a deck, every side sloped at most ``slope_deg``.

    The deck is the segment (x0,y0)-(x1,y1) shrunk by the run length at
    both ends, widened to ``width``; elevation falls off linearly with
    Euclidean distance from the deck, so the gradient magnitude never
    exceeds tan(slope_deg).
    """

    x0: float
    y0: float
    x1: float
    y1: float
    width: float
    height: float
    slope_deg: float = 30.0

    def height_at(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        run = self.height / math.tan(math.radians(self.slope_deg))
        dx = self.x1 - self.x0
        dy = self.y1 - self.y0
        length = math.hypot(dx, dy)
        ux, uy = dx / length, dy / length
        u = (x - self.x0) * ux + (y - self.y0) * uy
        v = (x - self.x0) * -uy + (y - self.y0) * ux
        du = np.maximum(0.0, np.maximum(run - u, u - (length - run)))
        dv = np.maximum(0.0, np.abs(v) - self.width / 2.0)
        dist = np.hypot(du, dv)
        return self.height * np.maximum(0.0, 1.0 - dist / run)


@dataclass(frozen=True)
class WaterBody:
    """Polygon with a flat surface at ``level``; returns are suppressed.

    Points falling inside are kept with probability ``suppression``.
    """

    polygon: tuple[tuple[float, float], ...]
    level: float
    suppression: float = 0.02

    def poly_array(self) -> np.ndarray:
        return np.asarray(self.polygon, dtype=np.float64)


@dataclass
class Scene:
    extent: BBox
    density: float = 4.0
    seed: int = 0
    plane: Plane = field(default_factory=Plane)
    hills: list[Hill] = field(default_factory=list)
    buildings: list[Building] = field(default_factory=list)
    ramps: list[Ramp] = field(default_factory=list)
    waters: list[WaterBody] = field(default_factory=list)

    def terrain_height(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Bare-earth height: plane, hills, valleys and ramps."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        z = self.plane.base + self.plane.slope_x * x + self.plane.slope_y * y
        for h in self.hills:
            r2 = (x - h.cx) ** 2 + (y - h.cy) ** 2
            z = z + h.height * np.exp(-r2 / (2.0 * h.sigma**2))
        for r in self.ramps:
            z = z + r.height_at(x, y)
        return z

    def surface_height(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """First-return surface: terrain plus roofs, water surface on water."""
        z = self.terrain_height(x, y)
        for b in self.buildings:
            inside = points_in_polygon(x, y, b.polygon())
            z = np.where(inside, z + b.height, z)
        for w in self.waters:
            inside = points_in_polygon(x, y, w.poly_array())
            z = np.where(inside, w.level, z)
        return z


def points_in_polygon(x: np.ndarray, y: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd (crossing number) point-in-polygon test, vectorized over points."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    inside = np.zeros(x.shape, dtype=bool)
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        crosses = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (x < np.where(crosses, xi, np.inf))
    return inside


def sample_points(
    scene: Scene, density: float | None = None, seed: int | None = None
) -> PointCloud:
    """Sample a Poisson point process over the extent at the given density.

    The four extent corners are always appended as control points, which
    pins the data bounds to the extent so downstream grids align with the
    scene geometry.  Inside water polygons points are kept with the
    polygon's suppression probability (first matching polygon wins).
    """
    density = scene.density if density is None else density
    seed = scene.seed if seed is None else seed
    if not 0 < density < math.inf:
        raise ParameterError(f"density must be finite and > 0, got {density}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    ext = scene.extent
    area = ext.width * ext.height
    if area <= 0:
        raise EmptyExtentError(f"scene extent has zero area: {ext}")

    rng = np.random.Generator(np.random.Philox(seed))
    n = int(rng.poisson(density * area))
    x = rng.uniform(ext.min_x, ext.max_x, n)
    y = rng.uniform(ext.min_y, ext.max_y, n)
    u = rng.uniform(0.0, 1.0, n)

    keep = np.ones(n, dtype=bool)
    claimed = np.zeros(n, dtype=bool)
    for w in scene.waters:
        inside = points_in_polygon(x, y, w.poly_array()) & ~claimed
        keep[inside] = u[inside] < w.suppression
        claimed |= inside
    x, y = x[keep], y[keep]

    corners = np.array(
        [
            [ext.min_x, ext.min_y],
            [ext.max_x, ext.min_y],
            [ext.min_x, ext.max_y],
            [ext.max_x, ext.max_y],
        ]
    )
    x = np.concatenate([x, corners[:, 0]])
    y = np.concatenate([y, corners[:, 1]])
    z = scene.surface_height(x, y)
    return PointCloud(np.column_stack([x, y, z]))


@dataclass
class TruthRasters:
    dtm: np.ndarray
    ground_mask: np.ndarray
    water_mask: np.ndarray


def truth_rasters(scene: Scene, grid: GridSpec) -> TruthRasters:
    """Analytic truth sampled at cell centers.

    The truth DTM is the bare-earth surface (ramps included, buildings
    excluded) with water polygons flattened to their level; the ground
    mask is false exactly on building footprints.
    """
    xs = grid.x_centers()
    ys = grid.y_centers()
    gx, gy = np.meshgrid(xs, ys)
    dtm = scene.terrain_height(gx, gy)
    ground = np.ones(grid.shape, dtype=bool)
    water = np.zeros(grid.shape, dtype=bool)
    for b in scene.buildings:
        ground &= ~points_in_polygon(gx, gy, b.polygon())
    for w in scene.waters:
        inside = points_in_polygon(gx, gy, w.poly_array())
        water |= inside
        dtm = np.where(inside, w.level, dtm)
    return TruthRasters(dtm, ground, water)


def ramp_mask(scene: Scene, grid: GridSpec) -> np.ndarray:
    """Cells whose center gains any height from a ramp feature."""
    xs = grid.x_centers()
    ys = grid.y_centers()
    gx, gy = np.meshgrid(xs, ys)
    mask = np.zeros(grid.shape, dtype=bool)
    for r in scene.ramps:
        mask |= r.height_at(gx, gy) > 1e-9
    return mask


def _rect_polygon(x: float, y: float, width: float, height: float) -> tuple:
    return (
        (x, y),
        (x + width, y),
        (x + width, y + height),
        (x, y + height),
    )


def _parse_kv(tokens: list[str], lineno: int) -> dict[str, str]:
    kv = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParameterError(f"scene line {lineno}: expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        kv[key] = val
    return kv


def _feature(cls, kv: dict[str, str], *head, **keys: str):
    """``cls(*head, ...)``, each further field a float read from ``kv``, in field order.

    A field's key is its name, or ``keys[name]``; a key left out takes
    the field's default, or raises KeyError naming the key.
    """
    args = list(head)
    for f in fields(cls)[len(head) :]:
        key = keys.get(f.name, f.name)
        if key in kv:
            args.append(float(kv[key]))
        elif f.default is MISSING:
            raise KeyError(key)
        else:
            args.append(f.default)
    return cls(*args)


def load_scene(source) -> Scene:
    """Parse a scene description file (path, text, or file-like)."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            is_file = Path(source).exists()
        except (OSError, ValueError):
            is_file = False
        if is_file:
            text = Path(source).read_text(encoding="utf-8")
        elif isinstance(source, str):
            text = source
        else:
            raise FileNotFoundError(errno.ENOENT, "no such scene file", str(source))

    given: dict = {}  # extent, density, seed and plane as set; unset ones keep Scene's defaults
    hills, buildings, ramps, waters = [], [], [], []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *rest = line.split()
        kv = _parse_kv(rest, lineno)
        try:
            if kind == "extent":
                given["extent"] = _feature(BBox, kv)
            elif kind == "density":
                given["density"] = float(kv["value"])
            elif kind == "seed":
                given["seed"] = int(kv["value"])
            elif kind == "plane":
                given["plane"] = _feature(Plane, kv)
            elif kind == "hill":
                hills.append(_feature(Hill, kv))
            elif kind == "valley":
                hill = _feature(Hill, kv, height="depth")
                hills.append(replace(hill, height=-hill.height))
            elif kind == "building":
                buildings.append(_feature(Building, kv, angle_deg="angle"))
            elif kind == "ramp":
                ramps.append(_feature(Ramp, kv))
            elif kind == "water":
                rect = _rect_polygon(*(float(kv[k]) for k in ("x", "y", "width", "height")))
                waters.append(_feature(WaterBody, kv, rect))
            elif kind == "waterpoly":
                pts = tuple(
                    tuple(float(v) for v in pair.split(","))
                    for pair in kv["points"].split(";")
                )
                waters.append(_feature(WaterBody, kv, pts))
            else:
                raise ParameterError(f"scene line {lineno}: unknown feature {kind!r}")
        except KeyError as exc:
            raise ParameterError(f"scene line {lineno}: missing key {exc}") from None
        except ValueError as exc:
            raise ParameterError(f"scene line {lineno}: {exc}") from None

    if "extent" not in given:
        raise ParameterError("scene file must declare an extent")
    return Scene(**given, hills=hills, buildings=buildings, ramps=ramps, waters=waters)

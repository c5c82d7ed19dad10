"""Seeded benchmark inputs and the benchmark's own file writers.

Scenes are built from a seed with the package's scene model
(``breakline_dtm.scene``), but every file the program under test reads is
written here, not with ``write_points_xyz`` or ``write_ascii_grid``: a
change to the package's writers must not change the benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

from breakline_dtm.ingest import BBox
from breakline_dtm.raster import GridSpec, make_grid_spec
from breakline_dtm.scene import Building, Hill, Plane, Ramp, Scene, WaterBody, truth_rasters

CELL = 0.5
DENSITY = 4.0
LAS_SCALE = 0.001
NODATA_TOKEN = "-9999"


def _rng(seed: int, stream: int) -> np.random.Generator:
    # one Philox stream per purpose, so layout and sampling never share draws
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def urban_scene(seed: int, size_m: float, spacing_m: float = 25.0) -> Scene:
    """Building-dense city: one rotated box per lattice slot, plus one hill.

    Footprints are at most 13 m square, so their diagonal (18.4 m) leaves
    a street of at least 6 m between neighbouring slots.
    """
    rng = _rng(seed, 1)
    n = int(size_m // spacing_m)
    margin = (size_m - n * spacing_m) / 2.0
    jitter = (spacing_m - 6.0 - math.hypot(13.0, 13.0)) / 2.0
    buildings = []
    for i in range(n):
        for j in range(n):
            w, d = rng.uniform(8.0, 13.0, 2)
            cx = margin + (i + 0.5) * spacing_m + rng.uniform(-jitter, jitter)
            cy = margin + (j + 0.5) * spacing_m + rng.uniform(-jitter, jitter)
            buildings.append(
                Building(
                    cx - w / 2.0,
                    cy - d / 2.0,
                    w,
                    d,
                    rng.uniform(6.0, 25.0),
                    rng.uniform(0.0, 90.0),
                )
            )
    # the terrain is the same for every seed: its slope sets the min-z
    # rasterization error, which would otherwise swamp the seed-to-seed
    # differences of interpolation under the buildings
    hill = Hill(size_m / 2.0, size_m / 2.0, size_m / 4.0, 6.0)
    return Scene(
        BBox(0.0, 0.0, size_m, size_m),
        DENSITY,
        seed,
        Plane(50.0, 0.003, 0.002),
        hills=[hill],
        buildings=buildings,
    )


def rural_scene(seed: int, size_m: float) -> Scene:
    """Open terrain: gentle hills and valleys, one overpass ramp, 4 lakes, 10 sheds.

    Features sit in distinct slots of a 5x5 lattice; the ramp has the
    middle row to itself.  Hills and valleys sit only in slots without a
    lake, and each lake level is the mean terrain height over its
    polygon, so lake banks stay gentle: a lake set metres below the
    terrain makes a cliff whose error swamps the RMSE of the result.
    """
    rng = _rng(seed, 2)
    slot = size_m / 5.0
    slots = [(i, j) for j in (0, 1, 3, 4) for i in range(5)]
    order = rng.permutation(len(slots))
    lake_slots = [slots[k] for k in order[:4]]
    shed_slots = [slots[k] for k in order[4:14]]
    free_slots = [slots[k] for k in order[14:]]

    hills = []
    for k, (i, j) in enumerate(free_slots):
        sign = 1.0 if k % 2 == 0 else -1.0
        hills.append(
            Hill(
                (i + 0.5) * slot,
                (j + 0.5) * slot,
                rng.uniform(0.25, 0.35) * slot,
                sign * rng.uniform(3.0, 6.0),
            )
        )
    plane = Plane(200.0, rng.uniform(-0.004, 0.004), rng.uniform(-0.004, 0.004))
    scene = Scene(BBox(0.0, 0.0, size_m, size_m), DENSITY, seed, plane, hills=hills)

    for i, j in shed_slots:
        w, d = rng.uniform(8.0, 15.0, 2)
        cx = (i + rng.uniform(0.3, 0.7)) * slot
        cy = (j + rng.uniform(0.3, 0.7)) * slot
        scene.buildings.append(
            Building(cx - w / 2, cy - d / 2, w, d, rng.uniform(4.0, 8.0), rng.uniform(0, 90))
        )

    # the ramp's embankments carry most of the min-z error, so its size is
    # the same for every seed
    y_ramp = 2.5 * slot + rng.uniform(-0.1, 0.1) * slot
    scene.ramps.append(Ramp(0.15 * size_m, y_ramp, 0.85 * size_m, y_ramp, 8.0, 7.5, 25.0))

    for i, j in lake_slots:
        w, h = rng.uniform(0.4, 0.6, 2) * slot
        x0 = (i + 0.5) * slot - w / 2
        y0 = (j + 0.5) * slot - h / 2
        poly = ((x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h))
        gx, gy = np.meshgrid(np.linspace(x0, x0 + w, 16), np.linspace(y0, y0 + h, 16))
        level = float(scene.terrain_height(gx, gy).mean())
        scene.waters.append(WaterBody(poly, level, 0.02))
    return scene


def scene_grid(scene: Scene) -> GridSpec:
    return make_grid_spec(scene.extent, CELL)


# --- writers ---------------------------------------------------------------


def _format_rows(values: np.ndarray, fmt: str, chunk_rows: int) -> bytes:
    ncols = values.shape[1]
    row_fmt = " ".join([fmt] * ncols) + "\n"
    parts = []
    for start in range(0, values.shape[0], chunk_rows):
        block = values[start : start + chunk_rows]
        parts.append((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))
    return "".join(parts).encode("ascii")


def write_xyz(xyz: np.ndarray, path: Path) -> None:
    """Plain ``x y z`` text, 6 decimal places, one point per line."""
    path.write_bytes(_format_rows(xyz, "%.6f", 50_000))


def write_las(xyz: np.ndarray, path: Path) -> None:
    """Uncompressed LAS 1.2, point format 0, millimetre scale."""
    offsets = xyz.min(axis=0)
    ixyz = np.round((xyz - offsets) / LAS_SCALE).astype("<i4")
    n = xyz.shape[0]
    rec = np.zeros(
        n,
        dtype=[
            ("xyz", "<i4", 3),
            ("intensity", "<u2"),
            ("flags", "u1"),
            ("cls", "u1"),
            ("scan_angle", "i1"),
            ("user", "u1"),
            ("source_id", "<u2"),
        ],
    )
    rec["xyz"] = ixyz
    rec["flags"] = 0b001001  # return 1 of 1
    rec["cls"] = 1
    lo = ixyz.min(axis=0) * LAS_SCALE + offsets
    hi = ixyz.max(axis=0) * LAS_SCALE + offsets
    header = struct.pack(
        "<4sHH16sBB32s32sHHHIIBHI5I3d3d6d",
        b"LASF",
        0,
        0,
        bytes(16),
        1,
        2,
        b"perfbench".ljust(32, b"\0"),
        b"perfbench".ljust(32, b"\0"),
        1,
        2026,
        227,
        227,
        0,
        0,
        20,
        n,
        n,
        0,
        0,
        0,
        0,
        LAS_SCALE,
        LAS_SCALE,
        LAS_SCALE,
        *offsets,
        hi[0],
        lo[0],
        hi[1],
        lo[1],
        hi[2],
        lo[2],
    )
    assert len(header) == 227 and rec.itemsize == 20
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(rec.tobytes())


def write_grid(values: np.ndarray, grid: GridSpec, path: Path) -> None:
    """ESRI ASCII grid, top row first, 6 decimals, NaN as ``-9999``."""
    header = (
        f"ncols {grid.ncols}\nnrows {grid.nrows}\n"
        f"xllcorner {grid.origin_x:.6f}\nyllcorner {grid.origin_y:.6f}\n"
        f"cellsize {grid.cell:.6f}\nNODATA_value {NODATA_TOKEN}\n"
    )
    body = _format_rows(np.flipud(values), "%.6f", 100).decode("ascii")
    path.write_bytes(header.encode("ascii") + body.replace("nan", NODATA_TOKEN).encode("ascii"))


def read_grid(path: Path) -> np.ndarray:
    """Values of an ASCII grid written by the program, row 0 = south, NODATA as NaN."""
    lines = path.read_bytes().split(b"\n", 6)
    header = {ln.split()[0].lower(): ln.split()[1] for ln in lines[:6]}
    ncols, nrows = int(header[b"ncols"]), int(header[b"nrows"])
    vals = np.array(lines[6].split(), dtype=np.float64)
    if vals.size != ncols * nrows:
        raise ValueError(f"{path.name}: {vals.size} values for a {nrows}x{ncols} grid")
    vals[vals == float(header[b"nodata_value"])] = np.nan
    return np.flipud(vals.reshape(nrows, ncols))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def qa_rasters(seed: int, size_m: float):
    """(grid, dtm, truth, exclusion mask) for the raster comparison workload.

    The truth is the rural scene's analytic DTM; the "DTM" is that truth
    plus seeded 5 cm noise.  Both carry scattered NODATA cells, and the
    mask excludes the lakes.  Values are rounded to the 6 decimals the
    files hold, so the benchmark's own statistics match what is read back.
    """
    scene = rural_scene(seed, size_m)
    grid = scene_grid(scene)
    tr = truth_rasters(scene, grid)
    rng = _rng(seed, 4)
    ref = np.round(tr.dtm, 6)
    dtm = np.round(ref + rng.normal(0.0, 0.05, grid.shape), 6)
    dtm[rng.random(grid.shape) < 0.01] = np.nan
    ref[rng.random(grid.shape) < 0.005] = np.nan
    return grid, dtm, ref, tr.water_mask.astype(np.float64)

"""Golden SHA-256 digests of every raster ``dtm --emit-intermediates`` writes.

The benchmark's digests cover the five default outputs only.  These pin
the intermediate rasters too (DSM, occupancy, slope, break mask, labels
and source codes), so a change to how a stage stores its arrays (the
dtype of ``occupancy``, say) cannot change their bytes unseen.  The
digests were recorded with numpy 2.4.6 and scipy 1.17.1; Qhull's split
of cocircular rim pixels, and with it the DSM-derived rasters, can
differ in other versions.
"""

import hashlib

import numpy as np
import pytest

from breakline_dtm.cli import main
from breakline_dtm.ingest import BBox, write_points_xyz
from breakline_dtm.scene import (
    Building,
    Hill,
    Plane,
    Ramp,
    Scene,
    WaterBody,
    _rect_polygon,
    sample_points,
)
from test_ingest import make_las

# a hill, a valley, two sheds, an overpass ramp and two lakes on 120 m square
SCENE = Scene(
    extent=BBox(0, 0, 120, 120),
    density=4.0,
    seed=5,
    plane=Plane(80.0, 0.003, -0.002),
    hills=[Hill(30, 90, 12, 4.0), Hill(95, 95, 10, -3.0)],
    buildings=[Building(15, 15, 12, 9, 6.0, 20.0), Building(70, 20, 10, 14, 5.0)],
    ramps=[Ramp(20, 60, 100, 60, 8.0, 6.0, 25.0)],
    waters=[
        WaterBody(_rect_polygon(40, 10, 20, 15), level=80.2, suppression=0.02),
        WaterBody(_rect_polygon(85, 30, 15, 20), level=80.1, suppression=0.0),
    ],
)
ARGS = ["--a1", "100", "--a2", "200", "--emit-intermediates"]

GOLDEN = {
    "xyz": {
        "dsm.asc": "4f86b4cb6347aa7f0602757180cdae091ecf2d350c2d55190211bbb5bc2cbf3e",
        "occupancy.asc": "0daae505c15ffef89fcc072404903f9ac93fa61d452353fedbf506cdc170e57e",
        "slope.asc": "97277c981ea4b41b78a03d48716f4e5abeaeaa3e4453e1268569080adad0fe7e",
        "break_mask.asc": "cb82f0b60b65d0d10fc3887f2ff227a241d9c00b05a9f4db5f06d4affb4146bc",
        "labels.asc": "23805d4fe63e9ce04ace83fad89654282c4c85f4d71dfabcb46530c1c42e8ec6",
        "source.asc": "d1d118bce4c2615dd04712fc411af425517fc2d65f888dc6c24dce4c51f49ded",
    },
    "las": {
        "dsm.asc": "0467b9e0dabb9e125e25b846fcad9ce941d26412477f00e132e3a4c1e23669cc",
        "occupancy.asc": "ce71fec416f596e15f5ba4d4096350313f36e8a8e8421f86e51ef9af3f0b59c7",
        "slope.asc": "7e1f940ec71a79facdc2172de9042636ee14b944b47ed4e7591200eadcb0ea39",
        "break_mask.asc": "dd9744df88f7bcc0e79de47a87d4d4b2ce06a7e444bb8ec390931148f6b3d783",
        "labels.asc": "e0a0147470a9160e74a7036dbda73db52dc400a43bd84c1d03b261d69c4c1484",
        "source.asc": "e2bb7a3355e8f45c76cd6600a2dbfc94c39f38bfa16896f77f77b2364e894644",
    },
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN))
def test_emit_intermediates_bytes_match_golden_digests(tmp_path, fmt):
    pc = sample_points(SCENE)
    source = tmp_path / f"points.{fmt}"
    if fmt == "las":
        # millimetre scale, offsets at the minimum
        offsets = pc.xyz.min(axis=0)
        ixyz = np.round((pc.xyz - offsets) / 0.001)
        source.write_bytes(make_las(ixyz, scale=(0.001,) * 3, offset=offsets))
    else:
        write_points_xyz(pc, source)
    out = tmp_path / "out"
    assert main(["dtm", str(source), "--out-dir", str(out), *ARGS]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN[fmt]
    }
    assert digests == GOLDEN[fmt]

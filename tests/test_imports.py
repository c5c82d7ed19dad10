"""Which modules a command loads, checked in fresh interpreters.

Importing the package loads no numpy: each public name is loaded from
its module on first access. Importing a module of the package loads
numpy; scipy is imported inside the functions that call it, so `compare`
and `synth` never load it and `dtm` loads `scipy.ndimage` and
`scipy.spatial` but not `scipy.interpolate`. The scene model is loaded
by `synth` alone. The CLI sets
OPENBLAS_NUM_THREADS before numpy loads, so numpy's and scipy's OpenBLAS
run on one thread unless the caller chose a count, and neither its
import nor `compare` loads `concurrent.futures`.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import breakline_dtm
from breakline_dtm.asciigrid import write_ascii_grid
from breakline_dtm.raster import GridSpec

SRC = str(Path(breakline_dtm.__file__).resolve().parents[1])

# runs argv (if any) through the CLI, then prints the exit code and the
# scipy modules loaded
PROBE = """
import json, sys
import breakline_dtm.cli
rc = breakline_dtm.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else None
print(json.dumps({"rc": rc, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

# the same, printing whether a thread pool's module was loaded
POOL_PROBE = PROBE.replace(
    '"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")',
    '"futures": "concurrent.futures" in sys.modules',
)

# the same, printing whether the scene model was loaded
SCENE_PROBE = PROBE.replace(
    '"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")',
    '"scene": "breakline_dtm.scene" in sys.modules',
)

# runs argv (if any) through the CLI, then prints the exit code and the
# thread count of the OpenBLAS that numpy and scipy each loaded (absent
# where the package is not loaded, or its library lacks the symbol)
BLAS_PROBE = """
import ctypes, glob, json, os, sys
import breakline_dtm.cli
rc = breakline_dtm.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else None
threads = {}
for pkg, symbol in (
    ("numpy", "scipy_openblas_get_num_threads64_"),
    ("scipy", "scipy_openblas_get_num_threads"),
):
    if pkg in sys.modules:
        libs = os.path.join(os.path.dirname(sys.modules[pkg].__file__), os.pardir, pkg + ".libs")
        for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
            get = getattr(ctypes.CDLL(path), symbol, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                threads[pkg] = get()
print(json.dumps({"rc": rc, "threads": threads}))
"""


def probe(*argv, script=PROBE, blas_threads=None) -> dict:
    """Run ``script`` on ``argv``; ``blas_threads`` sets OPENBLAS_NUM_THREADS, None unsets it."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    out = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_import_cli_loads_no_scipy():
    assert probe() == {"rc": None, "scipy": []}


def _compare_argv(tmp_path) -> tuple:
    """A masked `compare` of two 6x5 grids in 3 px tiles."""
    grid = GridSpec(0, 0, 1, 6, 5)
    rng = np.random.default_rng(3)
    for name in ("a", "b"):
        write_ascii_grid(rng.normal(size=grid.shape), grid, tmp_path / f"{name}.asc")
    mask = np.zeros(grid.shape)
    mask[1:3, 2:4] = 1
    write_ascii_grid(mask, grid, tmp_path / "mask.asc")
    return (
        "compare", tmp_path / "a.asc", tmp_path / "b.asc",
        "--mask", tmp_path / "mask.asc", "--tile-px", 3, "--out", tmp_path / "tiles.csv",
    )


def test_compare_with_mask_loads_no_scipy(tmp_path):
    assert probe(*_compare_argv(tmp_path)) == {"rc": 0, "scipy": []}


def test_import_cli_and_compare_load_no_thread_pool(tmp_path):
    assert probe(script=POOL_PROBE) == {"rc": None, "futures": False}
    assert probe(*_compare_argv(tmp_path), script=POOL_PROBE) == {"rc": 0, "futures": False}


def test_synth_loads_no_scipy(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text(
        "extent min_x=0 min_y=0 max_x=40 max_y=40\n"
        "density value=2\n"
        "plane base=50\n"
        "building x=10 y=10 width=8 depth=8 height=6\n"
    )
    assert probe("synth", scene, "--out-dir", tmp_path / "s") == {"rc": 0, "scipy": []}


def test_only_synth_loads_the_scene_model(tmp_path):
    assert probe(script=SCENE_PROBE) == {"rc": None, "scene": False}
    argv = ("dtm", _tiny_scene(tmp_path), "--out-dir", tmp_path / "out", "--a1", 50, "--a2", 400)
    assert probe(*argv, script=SCENE_PROBE) == {"rc": 0, "scene": False}
    scene = tmp_path / "scene.txt"
    scene.write_text("extent min_x=0 min_y=0 max_x=20 max_y=20\nplane base=50\n")
    assert probe("synth", scene, "--out-dir", tmp_path / "s", script=SCENE_PROBE) == {
        "rc": 0, "scene": True,
    }


def _tiny_scene(tmp_path) -> Path:
    """A 40x40 m plane with one 10x10 m building, as XYZ text."""
    gx, gy = np.meshgrid(np.arange(0.25, 40, 0.5), np.arange(0.25, 40, 0.5))
    z = 50 + 0.01 * gx + 8.0 * ((abs(gx - 20) < 5) & (abs(gy - 20) < 5))
    pts = tmp_path / "p.xyz"
    np.savetxt(pts, np.column_stack([gx.ravel(), gy.ravel(), z.ravel()]), fmt="%.3f")
    return pts


def test_dtm_loads_no_scipy_interpolate_and_times_the_scipy_import(tmp_path):
    pts = _tiny_scene(tmp_path)
    res = probe("dtm", pts, "--out-dir", tmp_path / "out", "--a1", 50, "--a2", 400)
    assert res["rc"] == 0
    assert {"scipy.ndimage", "scipy.spatial"} <= set(res["scipy"])
    assert not [m for m in res["scipy"] if m.startswith("scipy.interpolate")]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["timings_s"]["scipy_import"] > 0


def test_import_package_loads_no_numpy():
    script = "import json, sys, breakline_dtm; print(json.dumps('numpy' in sys.modules))"
    assert probe(script=script) is False


def test_every_public_name_resolves_to_its_module_attribute():
    assert breakline_dtm.__all__ == sorted(breakline_dtm._EXPORTS)
    for name in breakline_dtm.__all__:
        owner = importlib.import_module(f"breakline_dtm.{breakline_dtm._EXPORTS[name]}")
        assert getattr(breakline_dtm, name) is getattr(owner, name)
        assert name in dir(breakline_dtm)
    assert "__version__" in dir(breakline_dtm)
    with pytest.raises(AttributeError, match="no_such_name"):
        breakline_dtm.no_such_name
    from breakline_dtm import raster

    assert raster is sys.modules["breakline_dtm.raster"]


@pytest.mark.parametrize("preset", [None, 2])
def test_cli_import_runs_numpy_openblas_on_one_thread_unless_set(preset):
    if preset is not None and (os.cpu_count() or 1) < preset:
        pytest.skip("OpenBLAS caps its threads at the CPU count")
    res = probe(script=BLAS_PROBE, blas_threads=preset)
    if "numpy" not in res["threads"]:
        pytest.skip("numpy loads no libscipy_openblas64_ with scipy_openblas_get_num_threads64_")
    assert res == {"rc": None, "threads": {"numpy": preset or 1}}


@pytest.mark.parametrize("preset", [None, 2])
def test_cli_runs_scipy_openblas_on_one_thread_unless_set(tmp_path, preset):
    if preset is not None and (os.cpu_count() or 1) < preset:
        pytest.skip("OpenBLAS caps its threads at the CPU count")
    argv = ("dtm", _tiny_scene(tmp_path), "--out-dir", tmp_path / "out", "--a1", 50, "--a2", 400)
    res = probe(*argv, script=BLAS_PROBE, blas_threads=preset)
    if "scipy" not in res["threads"]:
        pytest.skip("scipy loads no libscipy_openblas with scipy_openblas_get_num_threads")
    assert res["rc"] == 0
    assert res["threads"]["scipy"] == (preset or 1)

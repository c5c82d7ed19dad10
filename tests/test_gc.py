"""The cyclic garbage collector around a run.

The pipeline pauses the collector while it loads scipy and gives the
caller its state back, whatever the load does.  The CLI freezes the heap
only as the interpreter exits, so an in-process caller's heap is never
frozen, and a reporter registered with atexit before the CLI ran still
runs after the freeze.
"""

import atexit
import gc
import sys

import pytest

from breakline_dtm import cli
from breakline_dtm.groundfilter import FilterParams
from breakline_dtm.ingest import read_points
from breakline_dtm.pipeline import PipelineConfig, run_pipeline
from test_imports import _tiny_scene, probe

CFG = PipelineConfig(filter_params=FilterParams(a1_m2=50, a2_m2=400))

# registers a reporter, then runs argv through the CLI; the reporter
# prints the exit code and the freeze counts after main and at exit
EXIT_PROBE = """
import atexit, gc, json, sys
state = {}
atexit.register(lambda: print(json.dumps({**state, "at_exit": gc.get_freeze_count()})))
import breakline_dtm.cli
state["rc"] = breakline_dtm.cli.main(sys.argv[1:])
state["after_main"] = gc.get_freeze_count()
"""


@pytest.fixture
def gc_state():
    """Yields a setter for the collector's state, and restores the state at teardown."""
    enabled = gc.isenabled()

    def set_enabled(on: bool) -> None:
        (gc.enable if on else gc.disable)()

    yield set_enabled
    set_enabled(enabled)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pipeline_leaves_the_collector_as_it_found_it(tmp_path, gc_state, enabled):
    pc = read_points(_tiny_scene(tmp_path))
    gc_state(enabled)
    run_pipeline(pc, CFG)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_failed_scipy_load_leaves_the_collector_as_it_found_it(
    tmp_path, monkeypatch, gc_state, enabled
):
    pc = read_points(_tiny_scene(tmp_path))
    monkeypatch.setitem(sys.modules, "scipy.spatial", None)  # the import raises
    gc_state(enabled)
    with pytest.raises(ImportError):
        run_pipeline(pc, CFG)
    assert gc.isenabled() is enabled


def test_in_process_cli_freezes_nothing_and_registers_one_exit_freeze(tmp_path):
    argv = ["dtm", str(_tiny_scene(tmp_path)), "--out-dir", str(tmp_path / "out"),
            "--a1", "50", "--a2", "400"]
    frozen = gc.get_freeze_count()
    assert cli.main(argv) == 0
    callbacks = atexit._ncallbacks()
    assert cli.main(argv) == 0
    assert gc.get_freeze_count() == frozen
    assert atexit._ncallbacks() == callbacks


def test_cli_freezes_the_heap_at_exit_before_earlier_reporters(tmp_path):
    res = probe(
        "dtm", _tiny_scene(tmp_path), "--out-dir", tmp_path / "out", "--a1", 50, "--a2", 400,
        script=EXIT_PROBE,
    )
    assert res["rc"] == 0 and res["after_main"] == 0
    assert res["at_exit"] > 0

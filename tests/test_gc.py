"""The cyclic garbage collector around a run.

A block of imports runs with the collector paused.  Once the block has
loaded a module, every tracked object moves to the oldest generation
(``gc.freeze()`` then ``gc.unfreeze()``), so the first pass after the
block does not walk the tens of thousands of objects the load made; a
caller that froze objects itself keeps its freeze count and gets no
move.  ``import breakline_dtm.cli`` and the pipeline's scipy load each
run in such a block, and a later ``run_pipeline`` in the same process
loads nothing and moves nothing.  The caller's collector state comes
back, whatever the block does.  The CLI freezes the heap only as the
interpreter exits, so an in-process caller's heap is never frozen, and
a reporter registered with atexit before the CLI ran still runs after
the freeze.
"""

import atexit
import gc
import importlib
import sys

import pytest

from breakline_dtm import _imports_without_collection, cli, pipeline
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

# prints how many collections `import breakline_dtm.cli` runs
IMPORT_PROBE = """
import gc, json
runs = []
gc.callbacks.append(lambda phase, info: runs.append(info) if phase == "stop" else None)
import breakline_dtm.cli
print(json.dumps(len(runs)))
"""

# runs the pipeline on the cloud argv[1] and prints how many objects the
# two young generations hold once the scipy_import stage has returned
YOUNG_PROBE = """
import gc, json, sys
from breakline_dtm import pipeline
from breakline_dtm.groundfilter import FilterParams
young = []
load = pipeline._import_scipy
def import_scipy():
    load()
    young.append(len(gc.get_objects(0)) + len(gc.get_objects(1)))
pipeline._import_scipy = import_scipy
cfg = pipeline.PipelineConfig(filter_params=FilterParams(a1_m2=50, a2_m2=400))
pipeline.run_pipeline(sys.argv[1], cfg)
print(json.dumps(young))
"""


def _generation(obj) -> int | None:
    """The collector generation that holds ``obj``; None if it is frozen or untracked."""
    return next((g for g in range(3) if any(o is obj for o in gc.get_objects(g))), None)


@pytest.fixture
def fresh_module(tmp_path, monkeypatch):
    """The name of a module that is not loaded; it is unloaded again at teardown."""
    name = "gc_fresh_module"
    (tmp_path / f"{name}.py").write_text("VALUES = [[1], [2], [3]]\n")
    monkeypatch.syspath_prepend(tmp_path)
    yield name
    sys.modules.pop(name, None)


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


def test_import_cli_runs_at_most_two_collections():
    assert probe(script=IMPORT_PROBE) <= 2


def test_first_run_leaves_the_objects_of_the_scipy_load_out_of_the_young_generations(tmp_path):
    (young,) = probe(_tiny_scene(tmp_path), script=YOUNG_PROBE)
    assert young < 1000


@pytest.mark.parametrize("enabled", [True, False])
def test_a_block_that_loads_a_module_moves_every_object_to_the_oldest_generation(
    gc_state, fresh_module, enabled
):
    gc.collect()  # no pass can be due before the check
    marker = [fresh_module]
    assert _generation(marker) == 0
    gc_state(enabled)
    with _imports_without_collection():
        importlib.import_module(fresh_module)
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == 0
    assert _generation(marker) == 2


def test_a_caller_that_froze_objects_keeps_its_freeze_count_and_gets_no_move(fresh_module):
    gc.collect()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        marker = [fresh_module]
        with _imports_without_collection():
            importlib.import_module(fresh_module)
        assert gc.get_freeze_count() == frozen
        assert _generation(marker) == 0
    finally:
        gc.unfreeze()


def test_second_run_pipeline_moves_nothing(tmp_path, monkeypatch):
    pc = read_points(_tiny_scene(tmp_path))
    run_pipeline(pc, CFG)  # scipy is loaded from here on
    seen = []
    load = pipeline._import_scipy

    def import_scipy():
        load()
        seen.append(_generation(marker))

    monkeypatch.setattr(pipeline, "_import_scipy", import_scipy)
    gc.collect()
    marker = [pc]
    run_pipeline(pc, CFG)
    assert seen == [0]

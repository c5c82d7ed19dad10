"""Run ``breakline_dtm.cli.main(argv)`` in-process with a span on every layer call.

    PYTHONPATH=src python3 perfbench/traced.py --spans spans.json [--alloc] \
        [--rasterize-input points.xyz] -- dtm points.xyz --out-dir out

No source file is edited.  Public functions are wrapped in the module
namespaces where the program looks them up: every function that
``cli`` and ``pipeline`` import from another package module, plus the
nearest-donor helper where ``raster``, ``interp`` and ``water`` call it
and ``min_area_rect`` where ``groundfilter`` calls it.  A span records
name, call site, start, end and parent.  With ``--alloc`` the tracemalloc
peak of each pipeline stage (a span directly under
``pipeline.run_pipeline``) is recorded instead; tracemalloc runs only
inside ``run_pipeline``, that pass is slower, and its times are not used.

The span arithmetic below has no package imports, so the self-tests can
use it without the program on the path.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

STAGE_PARENT = "pipeline.run_pipeline"
# results kept (by reference, no work inside the span) to derive counters
KEEP = {
    "ingest.read_points",
    "raster.rasterize_min",
    "slope.break_line_mask",
    "interp.interpolate_nonground",
    "water.water_segments",
    "asciigrid.write_ascii_grid",
    "asciigrid.read_ascii_grid",
}


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for sp in spans:
        if sp["parent"] >= 0:
            parent = spans[sp["parent"]]
            children[sp["parent"]].append(
                (max(sp["start"], parent["start"]), min(sp["end"], parent["end"]))
            )
    return [sp["end"] - sp["start"] - covered(ch) for sp, ch in zip(spans, children)]


def aggregate(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Total time, self time and call count per span name."""
    out: dict[str, dict[str, float]] = {}
    for sp, own in zip(spans, self_times(spans)):
        agg = out.setdefault(sp["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
        agg["s"] += sp["end"] - sp["start"]
        agg["self_s"] += own
        agg["calls"] += 1
    return out


class Tracer:
    def __init__(self, alloc: bool) -> None:
        self.alloc = alloc
        self.spans: list[dict] = []
        self.kept: list[tuple[str, tuple, object]] = []
        self._stack: list[int] = []

    def wrap(self, fn, site: str):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = {"name": name, "site": site, "parent": parent}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            pipeline = self.alloc and name == "pipeline.run_pipeline"
            stage = self.alloc and parent >= 0 and self.spans[parent]["name"] == STAGE_PARENT
            if pipeline:
                tracemalloc.start()
            if stage:
                tracemalloc.reset_peak()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if pipeline:
                    tracemalloc.stop()
            if stage:
                span["alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            if name in KEEP and not self.alloc:
                self.kept.append((name, args, result))
            return result

        return traced

    def install(self) -> None:
        from breakline_dtm import cli, groundfilter, interp, pipeline, raster, water

        for mod in (cli, pipeline):
            site = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__.startswith("breakline_dtm.")
                    and fn.__module__ != mod.__name__
                ):
                    setattr(mod, attr, self.wrap(fn, site))
        for mod, attr in (
            (raster, "nearest_donor_indices"),
            (interp, "nearest_donor_indices"),
            (water, "nearest_donor_indices"),
            (groundfilter, "min_area_rect"),
        ):
            site = mod.__name__.rsplit(".", 1)[-1]
            setattr(mod, attr, self.wrap(getattr(mod, attr), site))

    def counters(self) -> dict[str, float]:
        """Work counts derived after the run from results the spans kept."""
        import numpy as np
        from scipy import ndimage

        c = {
            "ingest.points": 0,
            "ingest.mb": 0.0,
            "asciigrid.write_ascii_grid.mb": 0.0,
            "asciigrid.read_ascii_grid.mb": 0.0,
            "raster.void_cells": 0,
            "slope.break_px": 0,
            "interp.holes": 0,
            "interp.max_hole_px": 0,
            "water.segments": 0,
            "water.water_px": 0,
        }
        four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
        for name, args, result in self.kept:
            if name == "ingest.read_points":
                c["ingest.points"] += result.count
                if isinstance(args[0], (str, Path)):
                    c["ingest.mb"] += Path(args[0]).stat().st_size / 2**20
            elif name == "asciigrid.write_ascii_grid":
                c["asciigrid.write_ascii_grid.mb"] += Path(args[2]).stat().st_size / 2**20
            elif name == "asciigrid.read_ascii_grid":
                c["asciigrid.read_ascii_grid.mb"] += Path(args[0]).stat().st_size / 2**20
            elif name == "raster.rasterize_min":
                c["raster.void_cells"] += int((result.occupancy == 0).sum())
            elif name == "slope.break_line_mask":
                c["slope.break_px"] += int(result.is_break.sum())
            elif name == "interp.interpolate_nonground":
                holes, n = ndimage.label(~args[1].is_ground, structure=four)
                c["interp.holes"] += n
                if n:
                    sizes = np.bincount(holes.ravel())[1:]
                    c["interp.max_hole_px"] = max(c["interp.max_hole_px"], int(sizes.max()))
            elif name == "water.water_segments":
                c["water.segments"] += len(result.segments)
                c["water.water_px"] += int(result.is_water.sum())
        c["interp.outside_hull_calls"] = sum(
            1
            for sp in self.spans
            if sp["name"] == "raster.nearest_donor_indices" and sp["site"] == "interp"
        )
        return c


def rasterize_workers(path: str, reps: int = 3) -> dict[str, float]:
    """Median time of ``rasterize_min`` with 1 and with 2 workers, alternating."""
    from breakline_dtm.ingest import bounds, read_points
    from breakline_dtm.raster import make_grid_spec, rasterize_min

    pc = read_points(path)
    grid = make_grid_spec(bounds(pc), 0.5)
    times: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(reps):
        for workers in (1, 2):
            t0 = time.perf_counter()
            rasterize_min(pc, grid, workers)
            times[workers].append(time.perf_counter() - t0)
    return {f"raster.rasterize_min.w{w}_s": statistics.median(v) for w, v in times.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON file to write")
    parser.add_argument("--alloc", action="store_true", help="record tracemalloc peaks")
    parser.add_argument("--rasterize-input", help="cloud for the workers comparison")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from breakline_dtm import cli

    tracer = Tracer(args.alloc)
    tracer.install()
    rc = tracer.wrap(cli.main, "cli")(argv)
    payload = {"rc": rc, "spans": tracer.spans}
    if not args.alloc:
        payload["counters"] = tracer.counters()
        if args.rasterize_input:
            payload["counters"].update(rasterize_workers(args.rasterize_input))
    Path(args.spans).write_text(json.dumps(payload))
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

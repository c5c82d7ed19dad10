#!/usr/bin/env python3
"""Benchmark of the ``breakline-dtm`` command line on seeded synthetic inputs.

    python3 perfbench/run.py --workload urban_xyz --seed 0 --seconds 34 --trace 0
    python3 perfbench/run.py --all            # every workload, end-to-end metrics

Run from the repository root.  Inputs are generated from ``--seed``
outside any timed region and written by the benchmark's own writers;
each measured command runs in a fresh child process, and its time is
scaled to a nominal host speed by calibration runs on either side.
With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of an extra in-process traced run.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
DIGESTS = BENCH / "digests.json"

MIN_INVOCATIONS = 3
SETUP_SAMPLES = 3
# Runs the CLI module as ``python -m`` does and, at exit, writes the peak
# RSS of this process image to stderr.  The rusage of the child cannot give
# it: its ru_maxrss also keeps the high-water mark of the benchmark's own
# memory image, which the child was forked from before it ran the CLI.
HWM_TAG = "perfbench-vmhwm-kb"
CLI_CHILD = f"""
import atexit, runpy, sys
def vmhwm():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                sys.stderr.write("{HWM_TAG} " + line.split()[1] + "\\n")
atexit.register(vmhwm)
runpy.run_module("breakline_dtm.cli", run_name="__main__", alter_sys=True)
"""
# Each time is scaled by CAL_NOMINAL_S / the time of calibration_time()
# runs around it: on a shared host the speed of the machine swings by
# 20-30 % for tens of seconds, and the scaling cancels much of it.  The
# nominal host runs calibration_time() in 0.9 s; a 2-vCPU Xeon VM took 0.6-1.1 s.
CAL_NOMINAL_S = 0.90
DTM_OUTPUTS = ("dtm.asc", "ground_mask.asc", "water_mask.asc", "regions.csv", "water_segments.csv")
DTM_M = 300.0  # extent of both dtm scenes: 600x600 cells
# A1/A2 scaled from the 40,000/100,000 m2 defaults to the smaller scenes, so the
# street network and the open terrain stay larger than A2 and are ground
AREA_FLAGS = ["--a1", "20000", "--a2", "50000"]
QA_M = 700.0  # 1400x1400 cells
QA_TILE_PX = 250

# report.json timings_s key -> span of the function that pipeline stage calls
STAGE_SPANS = {
    "ingest": "ingest.read_points",
    "bounds": "ingest.bounds",
    "rasterize": "raster.rasterize_min",
    "fill_voids": "raster.fill_voids_nearest",
    "slope": "slope.slope_map",
    "break_lines": "slope.break_line_mask",
    "label_regions": "groundfilter.label_regions",
    "region_stats": "groundfilter.region_stats",
    "classify": "groundfilter.classify_regions",
    "interpolate": "interp.interpolate_nonground",
    "water_threshold": "water.water_threshold",
    "water_mask": "water.water_mask",
    "water_segments": "water.water_segments",
    "apply_water": "water.apply_water",
}
# span -> the aggregates reported for it as per-layer metrics
SPAN_STATS = {
    "ingest.read_points": ("s",),
    "asciigrid.write_ascii_grid": ("s", "calls"),
    "asciigrid.read_ascii_grid": ("s", "calls"),
    "groundfilter.label_regions": ("s",),
    "groundfilter.region_stats": ("s", "self_s"),
    "groundfilter.classify_regions": ("s",),
    "groundfilter.min_area_rect": ("s", "calls"),
    "interp.interpolate_nonground": ("s", "self_s"),
    "raster.rasterize_min": ("s",),
    "raster.fill_voids_nearest": ("s",),
    "raster.nearest_donor_indices": ("s", "calls"),
    "slope.slope_map": ("s",),
    "slope.break_line_mask": ("s",),
    "water.water_threshold": ("s",),
    "water.water_mask": ("s",),
    "water.water_segments": ("s",),
    "water.apply_water": ("s",),
    "tiling.compare_tiled": ("s",),
    "tiling.write_tile_csv": ("s",),
    "pipeline.run_pipeline": ("s", "self_s"),
    "cli.main": ("s", "self_s"),
}


@dataclass
class Prepared:
    """Generated inputs of one run and what the benchmark knows about them."""

    argv: list[str]  # CLI arguments; "{out}" stands for the output directory
    cells: int
    inputs: list[Path]
    outputs: tuple[str, ...]
    truth: object = None  # (dtm, water mask) for dtm runs, reference arrays for qa
    cloud: Path | None = None


@dataclass
class Invocation:
    out: Path
    rc: int
    wall_s: float
    rss_mb: float
    cal_s: float = float("nan")  # mean of the calibration runs just before and after
    digests: dict = field(default_factory=dict)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=34.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.all and args.workload is None:
        p.error("give --workload or --all")
    return args


# --- workloads ---------------------------------------------------------------


def prepare_dtm(scene, cloud: Path, write) -> Prepared:
    import inputs
    from breakline_dtm.scene import sample_points, truth_rasters

    write(sample_points(scene).xyz, cloud)
    grid = inputs.scene_grid(scene)
    tr = truth_rasters(scene, grid)
    return Prepared(
        ["dtm", str(cloud), "--out-dir", "{out}", *AREA_FLAGS],
        grid.nrows * grid.ncols,
        [cloud],
        DTM_OUTPUTS,
        (tr.dtm, tr.water_mask),
        cloud,
    )


def prepare_urban(seed: int, work: Path) -> Prepared:
    import inputs

    return prepare_dtm(inputs.urban_scene(seed, DTM_M), work / "points.xyz", inputs.write_xyz)


def prepare_rural(seed: int, work: Path) -> Prepared:
    import inputs

    return prepare_dtm(inputs.rural_scene(seed, DTM_M), work / "points.las", inputs.write_las)


def prepare_qa(seed: int, work: Path) -> Prepared:
    import inputs

    grid, dtm, ref, mask = inputs.qa_rasters(seed, QA_M)
    paths = [work / "dtm.asc", work / "truth.asc", work / "mask.asc"]
    for arr, path in zip((dtm, ref, mask), paths):
        inputs.write_grid(arr, grid, path)
    argv = ["compare", *map(str, paths[:2]), "--mask", str(paths[2])]
    argv += ["--tile-px", str(QA_TILE_PX), "--out", "{out}/tiles.csv"]
    return Prepared(argv, grid.nrows * grid.ncols, paths, ("tiles.csv", "stdout.txt"), (dtm, ref, mask != 0))


WORKLOADS = {
    "urban_xyz": prepare_urban,
    "rural_las": prepare_rural,
    "qa_compare": prepare_qa,
}


# --- measurement -------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def spawn(cmd: list[str], out: Path) -> tuple[int, float]:
    """Run ``cmd`` to completion: (exit code, spawn-to-exit seconds)."""
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=child_env(), cwd=ROOT)
        try:
            rc = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    return rc, wall


def scaled(seconds: float, cal_s: float) -> float:
    """A time taken between calibration runs of ``cal_s`` on average, at nominal host speed."""
    return seconds * CAL_NOMINAL_S / cal_s


def calibration_time() -> float:
    """Seconds of a fixed single-threaded task, run in this process.

    Pure Python, as most of the command's time is: float formatting,
    parsing and dict building over numbers drawn once with numpy.  It
    imports nothing of the package, so no change to the program can
    change it.  It runs in this process because an interpreter start and
    imports add noise of their own that the command's time does not
    share, and it has no numpy work because a numpy-heavy task tracked
    the command's time less well.
    """
    import numpy as np

    t0 = time.perf_counter()
    a = np.random.Generator(np.random.Philox(key=[0, 9])).normal(0.0, 1.0, 900_000).cumsum()
    text = " ".join(f"{v:.6f}" for v in a.tolist())
    vals = [float(t) for t in text.split()]
    buckets: dict[int, list[int]] = {}
    for i, v in enumerate(vals[:300_000]):
        buckets.setdefault(int(v) % 97, []).append(i)
    return time.perf_counter() - t0


def setup_time(scratch: Path) -> float:
    """Spawn-to-exit time of a fresh interpreter that imports the CLI module."""
    rc, wall = spawn([sys.executable, "-c", "import breakline_dtm.cli"], scratch)
    if rc != 0:
        raise RuntimeError("importing breakline_dtm.cli failed: " + (scratch / "stderr.txt").read_text())
    return wall


def output_digests(out: Path, names: tuple[str, ...]) -> dict[str, str]:
    """SHA-256 of each output; stdout with the run's own directory blanked out."""
    import inputs

    digests = {}
    for name in names:
        path = out / name
        if not path.exists():
            digests[name] = "missing"
        elif name == "stdout.txt":
            text = path.read_text().replace(str(out), "{out}")
            digests[name] = inputs.sha256_bytes(text.encode())
        else:
            digests[name] = inputs.sha256(path)
    return digests


def child_peak_mb(stderr: Path) -> float:
    """Peak RSS in MB that a CLI_CHILD reported, NaN if it reported none."""
    for line in reversed(stderr.read_text(errors="replace").splitlines()):
        if line.startswith(HWM_TAG + " "):
            return int(line.split()[1]) / 1024.0
    return float("nan")


def invoke(prep: Prepared, out: Path) -> Invocation:
    out.mkdir(parents=True)
    argv = [a.replace("{out}", str(out)) for a in prep.argv]
    rc, wall = spawn([sys.executable, "-c", CLI_CHILD, *argv], out)
    rss = child_peak_mb(out / "stderr.txt")
    inv = Invocation(out, rc, wall, rss)
    if rc == 0:
        inv.digests = output_digests(out, prep.outputs)
    return inv


def measure(prep: Prepared, work: Path, seconds: float) -> tuple[list[Invocation], list[tuple[float, float]]]:
    """Invoke the command until ``seconds`` are used, at least MIN_INVOCATIONS times.

    Returns the invocations and (set-up seconds, calibration seconds) pairs.
    The calibration task runs between invocations, and each invocation is
    scaled by the mean of the calibrations on either side of it.  A set-up
    sample precedes each of the first SETUP_SAMPLES invocations, within
    the same two calibrations.  One calibration and one set-up sample
    before timing warm the caches and are not kept.  Outputs of a
    successful invocation after the first are removed once digested, so
    they leave no dirty pages to be written back while later invocations
    are timed.
    """
    calibration_time()
    setup_time(work)
    runs: list[Invocation] = []
    setups: list[tuple[float, float]] = []
    cal = calibration_time()
    t0 = time.perf_counter()
    while True:
        setup = setup_time(work) if len(setups) < SETUP_SAMPLES else None
        inv = invoke(prep, work / f"out{len(runs)}")
        after = calibration_time()
        inv.cal_s = (cal + after) / 2.0
        cal = after
        runs.append(inv)
        if setup is not None:
            setups.append((setup, inv.cal_s))
        if len(runs) > 1 and inv.rc == 0:
            shutil.rmtree(inv.out, ignore_errors=True)
        elapsed = time.perf_counter() - t0
        expected = statistics.median(r.wall_s for r in runs) + after
        if len(runs) >= MIN_INVOCATIONS and elapsed + expected > seconds:
            return runs, setups


# --- correctness -------------------------------------------------------------


def check_dtm(prep: Prepared, out: Path) -> tuple[list[str], float]:
    """Problems with a dtm run's outputs, and RMSE against the truth DTM off water."""
    import numpy as np

    import inputs

    problems = []
    dtm = inputs.read_grid(out / "dtm.asc")
    truth_dtm, truth_water = prep.truth
    if dtm.shape != truth_dtm.shape:
        return [f"dtm.asc is {dtm.shape}, expected {truth_dtm.shape}"], float("nan")
    if not np.isfinite(dtm).all():
        problems.append(f"dtm.asc has {int((~np.isfinite(dtm)).sum())} NODATA/NaN cells")
    err = (dtm - truth_dtm)[~truth_water]
    return problems, float(np.sqrt(np.mean(err * err)))


def check_qa(prep: Prepared, out: Path) -> tuple[list[str], float]:
    """Recompute the tiled comparison; return problems and the global RMSE."""
    import csv
    import math

    import numpy as np

    a, b, exclude = prep.truth
    diff = a - b
    valid = np.isfinite(diff) & ~exclude
    problems = []
    with open(out / "tiles.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    nr, nc = diff.shape
    expected = [(r, c) for r in range(math.ceil(nr / QA_TILE_PX)) for c in range(math.ceil(nc / QA_TILE_PX))]
    if [(int(r["tile_row"]), int(r["tile_col"])) for r in rows] != expected:
        return ["tiles.csv does not list the expected tiles"], float("nan")
    for row in rows:
        r, c = int(row["tile_row"]), int(row["tile_col"])
        win = (slice(r * QA_TILE_PX, (r + 1) * QA_TILE_PX), slice(c * QA_TILE_PX, (c + 1) * QA_TILE_PX))
        d = diff[win][valid[win]]
        if int(row["valid_px"]) != d.size:
            problems.append(f"tile ({r},{c}): valid_px {row['valid_px']} != {d.size}")
        elif d.size and (
            abs(float(row["mae"]) - np.abs(d).mean()) > 2e-6
            or abs(float(row["rmse"]) - np.sqrt((d * d).mean())) > 2e-6
        ):
            problems.append(f"tile ({r},{c}): MAE/RMSE differ from the recomputation")
    d = diff[valid]
    rmse = float(np.sqrt((d * d).mean()))
    stdout = (out / "stdout.txt").read_text()
    if f"RMSE {rmse:.4f} m" not in stdout or f"valid px {d.size}" not in stdout:
        problems.append("printed global RMSE / valid pixel count differ from the recomputation")
    return problems, rmse


def golden(workload: str, seed: int) -> dict | None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return table.get(workload, {}).get(str(seed))


def golden_problems(gold: dict | None, input_digests: dict, output_digests: dict) -> list[str]:
    """Mismatches against the digests recorded for this seed, if any were recorded."""
    if gold is None:
        return []
    problems = []
    if gold["inputs"] != input_digests:
        problems.append("generated inputs differ from the digests recorded for this seed")
    for name, digest in gold["outputs"].items():
        if output_digests.get(name) != digest:
            problems.append(f"{name} differs from the digest recorded for this seed")
    return problems


# --- tracing -----------------------------------------------------------------


def traced_pass(prep: Prepared, work: Path, alloc: bool) -> tuple[Invocation, dict]:
    name = "alloc" if alloc else "traced"
    out = work / name
    out.mkdir()
    spans_path = work / f"{name}.json"
    cmd = [sys.executable, str(BENCH / "traced.py"), "--spans", str(spans_path)]
    if alloc:
        cmd.append("--alloc")
    elif prep.cloud is not None:
        cmd += ["--rasterize-input", str(prep.cloud)]
    cmd += ["--", *(a.replace("{out}", str(out)) for a in prep.argv)]
    rc, wall = spawn(cmd, out)
    inv = Invocation(out, rc, wall, float("nan"))
    if rc != 0:
        return inv, {}
    inv.digests = output_digests(out, prep.outputs)
    return inv, json.loads(spans_path.read_text())


def layer_metrics(trace: dict, alloc: dict, wall_s: float, setup_s: float) -> dict[str, float]:
    import traced

    agg = traced.aggregate(trace["spans"])
    m = {f"{name}.{stat}": agg.get(name, {}).get(stat, 0) for name, stats in SPAN_STATS.items() for stat in stats}
    m.update(trace["counters"])
    m.setdefault("raster.rasterize_min.w1_s", 0.0)
    m.setdefault("raster.rasterize_min.w2_s", 0.0)
    peaks: dict[str, float] = {}
    for sp in alloc.get("spans", []):
        if "alloc_peak_mb" in sp:
            peaks[sp["name"]] = max(peaks.get(sp["name"], 0.0), sp["alloc_peak_mb"])
    for name in STAGE_SPANS.values():
        m[f"{name}.alloc_peak_mb"] = peaks.get(name, 0.0)
    m["trace.overhead_s"] = m["cli.main.s"] - (wall_s - setup_s)
    return m


def report_agreement(trace: dict, out: Path, tolerance: float) -> list[str]:
    """Stage spans against the traced run's own report.json timings_s."""
    report = out / "report.json"
    if not report.exists():
        return []
    timings = json.loads(report.read_text())["timings_s"]
    spans: dict[str, float] = {}
    for sp in trace["spans"]:
        if sp["parent"] >= 0 and trace["spans"][sp["parent"]]["name"] == "pipeline.run_pipeline":
            spans[sp["name"]] = spans.get(sp["name"], 0.0) + sp["end"] - sp["start"]
    problems = []
    for key, seconds in timings.items():
        name = STAGE_SPANS.get(key)
        if name in spans and abs(spans[name] - seconds) > tolerance:
            problems.append(f"stage {key}: span {spans[name]:.6f} s vs report {seconds:.6f} s")
    return problems


# --- entry point -------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import inputs

    work = OUT / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems: list[str] = []
    try:
        prep = WORKLOADS[workload](seed, work)
        gold = golden(workload, seed)
        input_digests = {p.name: inputs.sha256(p) for p in prep.inputs}

        passes = []
        if trace:
            # the traced passes count against --seconds, so a trace run lasts as long as any other
            t0 = time.perf_counter()
            passes = [traced_pass(prep, work, alloc=False), traced_pass(prep, work, alloc=True)]
            seconds = max(0.0, seconds - (time.perf_counter() - t0))
        runs, setups = measure(prep, work, seconds)

        ok_runs = [r for r in runs if r.rc == 0]
        ref = ok_runs[0] if ok_runs else None
        rmse = float("nan")
        if ref is None:
            problems.append(f"every invocation failed; stderr: {(runs[0].out / 'stderr.txt').read_text()[-500:]}")
        else:
            check = check_dtm if prep.outputs == DTM_OUTPUTS else check_qa
            try:
                found, rmse = check(prep, ref.out)
            except (OSError, ValueError, KeyError) as exc:
                found = [f"unreadable output: {exc!r}"]
            problems += found + golden_problems(gold, input_digests, ref.digests)
        content_ok = not problems

        def ok(inv: Invocation) -> bool:
            return content_ok and ref is not None and inv.rc == 0 and inv.digests == ref.digests

        attempted = len(runs)
        failed = sum(not ok(r) for r in runs)
        if ref is not None and any(r.digests != ref.digests for r in ok_runs):
            problems.append("outputs differ between invocations of the same run")

        walls = [scaled(r.wall_s, r.cal_s) for r in runs]
        rss = [r.rss_mb for r in ok_runs]
        e2e = {
            "wall_s": (statistics.median(walls), "s"),
            "mcells_per_s": (statistics.median(prep.cells / w / 1e6 for w in walls), "Mcell/s"),
            "peak_rss_mb": (statistics.median(rss) if rss else float("nan"), "MB"),
            "setup_s": (statistics.median(scaled(t, c) for t, c in setups), "s"),
            "dtm_rmse_m": (rmse, "m"),
        }
        raw = {
            "raw.wall_s": statistics.median(r.wall_s for r in runs),
            "raw.setup_s": statistics.median(t for t, _ in setups),
            "raw.calibration_s": statistics.median(r.cal_s for r in runs),
        }
        result = {
            "workload": workload,
            "seed": seed,
            "environment": environment(),
            "cells": prep.cells,
            "input_digests": input_digests,
            "output_digests": ref.digests if ref else {},
            "samples": {
                "raw_wall_s": [r.wall_s for r in runs],
                "calibration_s": [r.cal_s for r in runs],
                "peak_rss_mb": [r.rss_mb for r in runs],
                "raw_setup_s": [t for t, _ in setups],
                "setup_calibration_s": [c for _, c in setups],
            },
        }
        metrics = dict(e2e)

        if trace:
            (t_inv, tr), (a_inv, al) = passes
            attempted += 2
            for inv in (t_inv, a_inv):
                if not ok(inv):
                    failed += 1
                    problems.append(f"traced run in {inv.out.name} failed or changed the outputs")
            if tr:
                # the spans are raw times, so the overhead compares them with raw times
                layer = layer_metrics(tr, al, raw["raw.wall_s"], raw["raw.setup_s"])
                layer.update(raw)
                tolerance = max(layer["trace.overhead_s"], 1e-3)
                problems += report_agreement(tr, t_inv.out, tolerance)
                metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
                result["spans"] = tr["spans"]
            else:
                metrics = {}
        result.update(attempted=attempted, failed=failed, fail_frac=failed / attempted, problems=problems)
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        (OUT / f"BENCH_{workload}_s{seed}_t{int(trace)}.json").write_text(json.dumps(result, indent=1))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def unit_of(metric: str) -> str:
    if metric.endswith("_mb") or metric.endswith(".mb"):
        return "MB"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "count"


def print_human(res: dict) -> None:
    env = res["environment"]
    print(
        f"[{res['workload']} seed {res['seed']}] nproc {env['nproc']} | {env['cpu']} | "
        f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']}"
    )
    for name, m in res["metrics"].items():
        print(f"  {name:<40s} {m['value']:>14.6f} {m['unit']}")
    print(f"  {'fail_frac':<40s} {res['failed'] / res['attempted']:>14.6f} ({res['failed']}/{res['attempted']})")
    for p in res["problems"]:
        print(f"  FAIL: {p}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit, so the running child is killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "breakline_dtm" / "cli.py").is_file():
        print(f"perfbench: program source not found at {SRC}/breakline_dtm", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import breakline_dtm

    if Path(breakline_dtm.__file__).resolve().parent != SRC / "breakline_dtm":
        print(f"perfbench: imported {breakline_dtm.__file__}, not the checkout", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.all else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for res in results:
        print_human(res)
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        for name, m in res["metrics"].items():
            value = m["value"] if math.isfinite(m["value"]) else 0.0
            metrics[prefix + name] = {"value": value, "unit": m["unit"]}
    final = {
        "correct": all(not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

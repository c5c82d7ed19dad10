#!/usr/bin/env python3
"""Slope-threshold sensitivity sweep on a steep-valley scene.

Runs the pipeline at several thresholds and reports, per threshold, the
masked (non-ground) pixel count and the MAE/RMSE against the lowest
threshold's DTM.  Steeper thresholds keep narrow valleys sharp but admit
more buildings into the terrain; this sweep makes the trade-off visible.

    python scripts/sweep_slope_threshold.py [--thresholds 45 60 75]
"""

import argparse
import os

# numpy sizes its OpenBLAS thread pool once, as it loads; like the command
# line, this library caller sets the variable before its first numpy import
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from breakline_dtm.groundfilter import FilterParams
from breakline_dtm.ingest import BBox
from breakline_dtm.pipeline import PipelineConfig, run_pipeline
from breakline_dtm.scene import Building, Hill, Plane, Scene, sample_points
from breakline_dtm.tiling import compare_tiled


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--thresholds", type=float, nargs="+", default=[45.0, 60.0, 75.0])
    parser.add_argument("--density", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=99)
    args = parser.parse_args()

    scene = Scene(
        extent=BBox(0, 0, 500, 500),
        density=args.density,
        seed=args.seed,
        plane=Plane(150.0),
        hills=[
            Hill(150, 150, 12.0, -35.0),   # deep narrow valley, walls ~60 deg
            Hill(350, 350, 60.0, 20.0),    # broad hill, gentle slopes
        ],
        buildings=[Building(320, 100, 50, 40, 18.0)],
    )
    pc = sample_points(scene)
    print(f"{pc.count} points over {scene.extent.width:.0f} m x {scene.extent.height:.0f} m")

    thresholds = sorted(args.thresholds)
    results = {}
    for tau in thresholds:
        cfg = PipelineConfig(filter_params=FilterParams(tau_deg=tau))
        results[tau] = run_pipeline(pc, cfg)

    base_tau = thresholds[0]
    base = results[base_tau]
    print(f"\n{'tau_deg':>8} {'masked_px':>10} {'regions':>8} {'MAE_vs_' + str(base_tau):>12} {'RMSE':>10}")
    for tau in thresholds:
        res = results[tau]
        masked = int((~res.ground.is_ground).sum())
        if tau == base_tau:
            mae = rmse = 0.0
        else:
            rep = compare_tiled(res.dtm, base.dtm, exclude=res.water.is_water, tile_px=200)
            mae, rmse = rep.global_mae, rep.global_rmse
        print(
            f"{tau:8.1f} {masked:10d} {res.segmentation.region_count:8d} "
            f"{mae:12.4f} {rmse:10.4f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

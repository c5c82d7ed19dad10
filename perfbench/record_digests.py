#!/usr/bin/env python3
"""Record the golden SHA-256 digests of inputs and outputs for given seeds.

    python3 perfbench/record_digests.py 0 1 2 [--workload rural_las]

Runs each workload briefly per seed and stores what it generated and
produced in ``perfbench/digests.json``.  Use it only for a deliberate
change of output bytes; the benchmark compares every run of a recorded
seed against these digests.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--workload", choices=sorted(run.WORKLOADS), help="default: all")
    args = parser.parse_args()
    sys.path[:0] = [str(run.SRC), str(run.BENCH)]
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    for workload in [args.workload] if args.workload else sorted(run.WORKLOADS):
        for seed in args.seeds:
            table.setdefault(workload, {}).pop(str(seed), None)
            run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
            res = run.run_workload(workload, seed, seconds=0.0, trace=False)
            if res["problems"]:
                print(f"{workload} seed {seed}: not recorded: {res['problems']}", file=sys.stderr)
                return 1
            table[workload][str(seed)] = {
                "inputs": res["input_digests"],
                "outputs": res["output_digests"],
            }
            run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
            print(f"{workload} seed {seed}: recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())

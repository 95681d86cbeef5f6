"""Record the expected output of every benchmark operation.

    python3 perfbench/record_goldens.py

Run at a commit whose outputs are trusted; it rewrites perfbench/goldens/.
A report golden is the report JSON without runtime_ms, a replay golden is
the (empty) problem list, a suite golden is the check lines plus summary.
compute-replay is recorded for every graph seed the benchmark can map to.
"""

from __future__ import annotations

import json

import paths
import workloads
from gengraph import GOLDEN_SEEDS


def record(workload: str, seed: int, goldens: dict[str, str]) -> None:
    out_dir = paths.OUT_DIR / "goldens" / workload
    workloads.write_instances(workload, seed, out_dir)
    reports: dict = {}
    for op in workloads.operations(workload, seed):
        if op.golden in goldens:
            continue
        text, _, _ = workloads.run_op(op, out_dir, reports)
        goldens[op.golden] = text
        print(f"{workload}: recorded {op.golden}", flush=True)


def main() -> None:
    paths.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        goldens: dict[str, str] = {}
        seeds = range(GOLDEN_SEEDS) if workload == "compute-replay" else (0,)
        for seed in seeds:
            record(workload, seed, goldens)
        path = paths.GOLDEN_DIR / f"{workload}.json"
        path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""Freeze golden outputs for the default seed (0) and a held-out seed (1).

    python3 perfbench/freeze.py [WORKLOAD ...]

Runs the first cycles of each workload's op stream at a fixed count, checks
every output against the reference engine, and writes
``perfbench/golden/<workload>-seed<seed>.json``.  Run it only at a commit
whose outputs are known good: later commits are compared against it.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import gen
import reference
from run import GOLDEN, WORK, spawn

SEEDS = (0, 1)
CYCLES = {"exact-sweep": 16, "rank-eval": 24, "sampler-nmae": 8}


def golden_outputs(records) -> dict:
    golden: dict = {}
    for r in records:
        out = r["out"]
        if r["kind"] == "table":
            out = out["tree_sums"]
        elif r["kind"] == "bench":
            out = [entry["nmae"] for entry in out]
        golden.setdefault(r["kind"], {})[str(r["i"])] = out
    return golden


def main(workloads) -> int:
    GOLDEN.mkdir(exist_ok=True)
    for workload in workloads or gen.WORKLOADS:
        for seed in SEEDS:
            run_dir = WORK / f"freeze-{workload}-seed{seed}"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            spec = gen.write_inputs(workload, seed, run_dir)
            model = json.loads((run_dir / spec["model"]).read_text())
            result = spawn("run", run_dir, time.monotonic() + 900, cycles=CYCLES[workload])
            failures, notes = reference.check_records(spec, model, result["records"])
            if failures:
                raise SystemExit(f"{workload} seed {seed}: not freezing, outputs fail: {failures}")
            path = GOLDEN / f"{workload}-seed{seed}.json"
            path.write_text(json.dumps(golden_outputs(result["records"]), indent=0) + "\n")
            print(f"{path.name}: {len(result['records'])} ops" + "".join(f"\n  note {n}" for n in notes))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

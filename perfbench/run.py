"""The predgap benchmark: one seeded workload per run, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload exact-sweep --seed 0 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``exact-sweep``  library calls to ``pg2_exact`` (|S| cycling 1, 2, 4, 8)
  plus one ``leaf_pair_probabilities`` table per cycle; T=12, depth 5, d=8.
* ``rank-eval``    ``pg2 rank`` then ``pg2 eval --metric pgi2`` on one seeded
  row per invocation; T=10, depth 4, d=8.
* ``sampler-nmae`` ``pg2 benchmark --workers 1 --sigmas 0.3,1.0 --methods
  mc,qmc`` over two seeded pairs per invocation (|S| = k and 9 - k, k
  cycling 1..4), each followed by two ``pg2 pg2 --method qmc --iterations
  10000`` queries of the same sizes; T=8, depth 3.

With ``--trace 0`` the run measures end-to-end metrics: six set-up-only
workload processes plus the measured one give the median ``setup_s``, and
the measured process runs whole op cycles for ``--seconds`` seconds, as one
closed-loop caller.  Shared machines slow down by up to 2x for seconds to
minutes, so every time is also scaled to nominal machine speed by a
calibration kernel run next to it (``worker.Calibrator``); the JSON line
reports the scaled values, the report prints both.

With ``--trace 1`` one process runs each cycle traced and then untraced
(the summed difference is the tracing overhead), then one counting cycle,
and the run reports per-layer wall-clock metrics.

Every op's output is checked against an independent reference engine and,
for the first ops of seeds 0 and 1, against golden outputs frozen by
``freeze.py``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything is written under ``perfbench/_work``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The benchmark measures one single-threaded process; keep BLAS to one thread
# in the workload processes and in the reference checks alike.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gen  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from worker import KINDS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
GOLDEN = HERE / "golden"
SETUP_SAMPLES = 7
# The calibration kernel's time at nominal machine speed (see worker.Calibrator),
# and how far from an op the kernel runs that scale it may be.
CAL_NOMINAL_S = 0.006
CAL_WINDOW_S = 3.0
# Every run must end within 180 s; leave room for the output check.
WORKER_DEADLINE_S = 160

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "aux_ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
# The generic end-to-end metrics under their per-workload names and units.
ALIASES = {
    "exact-sweep": {
        "ops_per_s": ("exact_qps", "queries/s"),
        "op_p50_ms": ("exact_p50_ms", "ms"),
        "op_tail_ms": ("exact_tail_ms", "ms"),
        "aux_ops_per_s": ("table_qps", "tables/s"),
    },
    "rank-eval": {
        "ops_per_s": ("rank_rows_per_s", "rows/s"),
        "op_p50_ms": ("rank_p50_ms", "ms"),
        "op_tail_ms": ("rank_tail_ms", "ms"),
        "aux_ops_per_s": ("eval_rows_per_s", "rows/s"),
    },
    "sampler-nmae": {
        "ops_per_s": ("nmae_pairs_per_s", "pair*sigma/s"),
        "op_p50_ms": ("nmae_p50_ms", "ms"),
        "op_tail_ms": ("nmae_tail_ms", "ms"),
        "aux_ops_per_s": ("qmc_qps", "queries/s"),
    },
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or ".ms_" in name:
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if "share" in name:
        return "fraction"
    if name.endswith("_per_query"):
        return "count/query"
    if name.endswith("_per_row"):
        return "count/row"
    return "count"


def tail_latency(values):
    """(percentile, value): the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        raise ValueError(f"{n} samples cannot give a percentile with ten beyond it")
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def spawn(mode, run_dir, deadline, seconds=1, cycles=None):
    """Start one workload process with an absolute ``src`` path and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = f"{mode}-result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--seconds", str(seconds), "--out", out]
    if cycles is not None:
        cmd += ["--cycles", str(cycles)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=run_dir, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process ({mode}) exited with {proc.returncode}:\n"
                           + proc.stderr[-3000:])
    result = json.loads((run_dir / out).read_text())
    result["setup_s"] = result["ready"] - start
    return result


def at_nominal_speed(records):
    """Op times scaled to nominal machine speed.

    Each op's wall time is multiplied by CAL_NOMINAL_S over the mean time
    of the calibration kernels run within CAL_WINDOW_S of it.  A mean, not
    a median: the machine's slow spells come and go faster than one op, so
    only an average over many short kernel runs sees their share.
    """
    return [
        r["s"] * CAL_NOMINAL_S
        / statistics.fmean(x["cal"] for x in records if abs(x["t"] - r["t"]) <= CAL_WINDOW_S)
        for r in records
    ]


def metadata(spec) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": spec["workload"],
        "seed": spec["seed"],
        "size": spec["size"],
    }


def _rates(workload, spec, records, times):
    primary, aux = KINDS[workload]
    lat = [t for t, r in zip(times, records) if r["kind"] == primary]
    aux_lat = [t for t, r in zip(times, records) if r["kind"] == aux]
    units = len(spec["sigmas"]) * spec["size"]["pairs_per_invocation"] if workload == "sampler-nmae" else 1
    pct, tail = tail_latency(lat)
    values = {
        "ops_per_s": units * len(lat) / sum(lat),
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_tail_ms": 1000.0 * tail,
        "aux_ops_per_s": len(aux_lat) / sum(aux_lat),
    }
    notes = {
        "ops_per_s": f"{len(lat)} samples",
        "op_p50_ms": f"{len(lat)} samples",
        "op_tail_ms": f"p{pct:.1f} of {len(lat)} samples",
        "aux_ops_per_s": f"{len(aux_lat)} samples",
    }
    return values, notes


def end_to_end(workload, spec, records, setups, peak_rss_mib):
    """Metrics at nominal machine speed, plus report lines that also show wall-clock values."""
    raw, notes = _rates(workload, spec, records, [r["s"] for r in records])
    values, _ = _rates(workload, spec, records, at_nominal_speed(records))
    raw["setup_s"] = statistics.median(s for s, _ in setups)
    values["setup_s"] = statistics.median(s * CAL_NOMINAL_S / cal for s, cal in setups)
    notes["setup_s"] = f"median of {len(setups)}"
    raw["peak_rss_mib"] = values["peak_rss_mib"] = peak_rss_mib
    notes["peak_rss_mib"] = "ru_maxrss"
    values = {k: values[k] for k in E2E_UNITS}
    lines = [f"{'metric':<22} {'nominal speed':>14} {'wall clock':>14}  unit"]
    for key, value in values.items():
        name, unit = ALIASES[workload].get(key, (key, E2E_UNITS[key]))
        lines.append(f"{name:<22} {value:>14.6g} {raw[key]:>14.6g}  {unit}  ({notes[key]}) [{key}]")
    return values, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="predgap benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "predgap" / "__init__.py").is_file():
        print(f"run.py: no predgap package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_DEADLINE_S
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec = gen.write_inputs(args.workload, args.seed, run_dir)
    model = json.loads((run_dir / spec["model"]).read_text())

    print(f"predgap benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("meta " + json.dumps(metadata(spec)))
    if args.trace:
        result = spawn("trace", run_dir, deadline, args.seconds)
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            setup = spawn("setup", run_dir, deadline)
            setups.append((setup["setup_s"], setup["cal"]))
        result = spawn("run", run_dir, deadline, args.seconds)
        setups.append((result["setup_s"], result["cal"]))

    records = result["records"]
    golden = reference.load_golden(GOLDEN / f"{args.workload}-seed{args.seed}.json")
    failures, notes = reference.check_records(spec, model, records, golden)
    print(f"output check: {len(records)} ops, {len(failures)} failed, golden "
          + ("used" if golden else f"not frozen for seed {args.seed}; reference only"))
    for why in list(failures.values())[:20]:
        print("  FAIL " + why)
    for note in dict.fromkeys(notes):
        print("  note " + note)
    correct = not failures

    if args.trace:
        missing = tracing.coverage_failures(args.workload, result["spans"], result["counts"])
        for what in missing:
            print(f"  FAIL trace coverage: {what} never fired")
        correct = correct and not missing
        overhead = result["traced_s"] - result["untraced_s"]
        print(f"tracing overhead: {overhead:.4f} s over {result['cycles']} cycles "
              f"(traced {result['traced_s']:.4f} s, untraced {result['untraced_s']:.4f} s)")
        values = tracing.layer_metrics(result["spans"], result["counts"], result["import_s"], overhead)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        for k, m in metrics.items():
            print(f"{k:<48} {m['value']:>14.6g} {m['unit']}")
    else:
        values, lines = end_to_end(args.workload, spec, records, setups, result["peak_rss_mib"])
        print("\n".join(lines))
        print(f"{'error_rate':<22} {len(failures) / len(records):>14.6g} fraction")
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

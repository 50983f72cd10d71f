"""One workload process of the predgap benchmark.

Started by ``run.py`` in a fresh interpreter, with ``PYTHONPATH`` set to the
absolute ``src`` directory and the run directory as its working directory.
It sets up (import, model and data load), stamps the moment it is ready,
then replays the workload's op stream in whole cycles and writes every op's
latency and output to a JSON file for the driver to check.

Modes:
  setup  set up, stamp readiness, exit;
  run    the timed closed loop (one caller, one op at a time);
  trace  each cycle traced and then untraced, then one counting cycle.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import time
import traceback
from pathlib import Path

import tracing

# Op kinds per workload: (primary, auxiliary).  Kept here, not in gen.py,
# so the workload process imports nothing heavy before it times its import.
KINDS = {"exact-sweep": ("exact", "table"), "rank-eval": ("rank", "eval"),
         "sampler-nmae": ("bench", "qmc")}
# The tail latency needs at least ten primary ops beyond it.
MIN_PRIMARY = 11


class Calibrator:
    """A fixed kernel whose duration tracks how fast this machine runs right now.

    Shared machines run the same code up to twice as slow for seconds to
    minutes at a time.  The kernel mixes interpreter-bound work shaped like
    the exact engine (recursive calls, list indexing, float math, erf) with
    numpy gathers shaped like ``predict_batch``; the driver scales each op's
    time by the kernel times measured around it.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._idx = rng.integers(0, 1 << 15, size=1 << 15)
        self._val = rng.random(1 << 15)
        self._lst = [0.1 * i for i in range(64)]

    def _python(self):
        lst = self._lst

        def visit(depth, acc):
            if depth == 0:
                return acc + lst[int(acc * 63.0) % 64]
            left = visit(depth - 1, 0.5 * acc + 1e-3 * math.erf(acc))
            return visit(depth - 1, 0.5 * left)

        acc = 0.0
        for _ in range(36):
            acc = visit(8, acc) % 1.0
        return acc

    def _numpy(self):
        np, idx = self._np, self._idx
        for _ in range(5):
            v = self._val[idx]
            idx = np.where(v < 0.5, idx >> 1, (idx * 3) & 0x7FFF)
        return float(v.sum())

    def __call__(self) -> float:
        start = time.perf_counter()
        self._python()
        self._numpy()
        return time.perf_counter() - start


class Workload:
    """The set-up program state and the op cycles of one workload."""

    def __init__(self, spec, tracer=None):
        import predgap

        self.spec = spec
        self.tracer = tracer
        self.calibrate = None
        self.pg = predgap
        self.ensemble = predgap.model.load_ensemble(spec["model"])
        data = spec["rows"][0] if spec["workload"] == "rank-eval" else spec["data"]
        self.dataset, _ = predgap.data.load_csv(data)

    def _timed(self, kind, i, fn, digest=lambda out: out):
        """Run one op; its output is digested outside the timed region.

        With a calibrator set, the kernel runs right before the op and its
        time is recorded as ``cal``; ``t`` is when the op started.
        """
        cal = self.calibrate() if self.calibrate is not None else None
        start = time.perf_counter()
        record = {"kind": kind, "i": i, "t": start, "cal": cal, "out": None, "error": None}
        try:
            out = fn()
        except Exception:  # an op that raises is a failed op, not a failed run
            record.update(s=time.perf_counter() - start, error=traceback.format_exc())
            return record
        record["s"] = time.perf_counter() - start
        try:
            record["out"] = digest(out)
        except Exception:
            record["error"] = traceback.format_exc()
        return record

    def _cli(self, command, argv):
        """Call ``pg2`` in process; return its stdout, raise on a non-zero exit."""
        buf = io.StringIO()
        span = contextlib.nullcontext() if self.tracer is None else self.tracer.span(f"cli.{command}")
        with span, contextlib.redirect_stdout(buf):
            code = self.pg.cli.main([command, *argv])
        if code != 0:
            raise RuntimeError(f"pg2 {command} exited with {code}")
        return buf.getvalue()

    def _set_op(self, i):
        if self.tracer is not None:
            self.tracer.op = i

    def cycle(self, c):
        return getattr(self, "_" + self.spec["workload"].replace("-", "_"))(c)

    def _exact_sweep(self, c):
        spec, exact = self.spec, self.pg.exact
        pert = self.pg.perturb.PerturbationSpec.gaussian(spec["sigma"], self.ensemble.num_features)
        pool, n = len(spec["subsets"]), spec["cycle"]
        records = []
        for i in range(n * c, n * (c + 1)):
            q = i % pool
            x, feats = self.dataset.instance(q), spec["subsets"][q]
            self._set_op(i)
            records.append(self._timed("exact", i, lambda: exact.pg2_exact(self.ensemble, x, feats, pert)))
            if spec["tables"][q // n] == q:
                records.append(self._timed(
                    "table", i, lambda: exact.leaf_pair_probabilities(self.ensemble, x, feats, pert),
                    self._table_digest,
                ))
        return records

    def _table_digest(self, table):
        values = [t.value for t in self.ensemble.trees]
        second_moment = sum(
            p * values[ti][u] * values[tj][v] for ((ti, u), (tj, v)), p in table.pair_prob.items()
        )
        return {"tree_sums": table.tree_probability_sums(), "pairs": len(table.pair_prob),
                "second_moment": second_moment}

    def _rank_eval(self, c):
        spec = self.spec
        row = spec["rows"][c % len(spec["rows"])]
        common = ["--model", spec["model"], "--data", row]
        self._set_op(c)
        rank = self._timed(
            "rank", c,
            lambda: self._cli("rank", [*common, "--sigma", str(spec["sigma"]), "--out", "rankings.csv"]),
            lambda _: Path("rankings.csv").read_text(),
        )
        ev = self._timed(
            "eval", c,
            lambda: self._cli("eval", [*common, "--rankings", "rankings.csv", "--metric", "pgi2",
                                       "--sigma-metric", str(spec["sigma_metric"])]),
        )
        return [rank, ev]

    def _sampler_nmae(self, c):
        spec = self.spec
        records = []
        common = ["--model", spec["model"], "--data", spec["data"]]
        n = spec["cycle"]
        for i in range(n * c, n * (c + 1)):
            op = spec["ops"][i % len(spec["ops"])]
            self._set_op(i)
            argv = [*common, "--workers", "1",
                    "--sigmas", ",".join(str(s) for s in spec["sigmas"]),
                    "--methods", "mc,qmc", "--pairs", str(len(op["sizes"])),
                    "--sizes", ",".join(str(k) for k in op["sizes"]),
                    "--seed", str(op["seed"]), "--out", "report.json"]
            records.append(self._timed(
                "bench", i, lambda: self._cli("benchmark", argv),
                lambda _: json.loads(Path("report.json").read_text())["entries"],
            ))
            for j, query in enumerate(op["qmc"]):
                argv = [*common, "--point-index", str(query["point"]),
                        "--features", ",".join(str(q) for q in query["features"]),
                        "--sigma", str(spec["sigmas"][0]), "--method", "qmc",
                        "--iterations", str(spec["qmc_iterations"])]
                records.append(self._timed("qmc", 2 * i + j, lambda: self._cli("pg2", argv)))
        return records


def run_cycles(primary, cycle, seconds=None, cycles=None):
    """Run ``cycle(c)`` for whole cycles until ``seconds`` (and MIN_PRIMARY ops) are done,
    or for exactly ``cycles`` cycles; return the records and the cycle count."""
    records, done, count = [], 0, 0
    start = time.perf_counter()
    while True:
        if cycles is not None:
            if done >= cycles:
                break
        elif time.perf_counter() - start >= seconds and count >= MIN_PRIMARY:
            break
        new = cycle(done)
        records += new
        count += sum(1 for r in new if r["kind"] == primary)
        done += 1
    return records, done


def traced_pass(workload, tracer, seconds, cycles):
    """Each cycle runs traced, then again untraced right after it.

    Adjacent runs see the same machine speed, so the summed difference is
    the tracing overhead rather than the machine's drift.
    """
    wall = {"traced": 0.0, "untraced": 0.0}

    def paired(c):
        tracer.install()
        workload.tracer = tracer
        start = time.perf_counter()
        traced = workload.cycle(c)
        wall["traced"] += time.perf_counter() - start
        tracer.uninstall()
        workload.tracer = None
        start = time.perf_counter()
        untraced = workload.cycle(c)
        wall["untraced"] += time.perf_counter() - start
        return traced + untraced

    records, done = run_cycles(KINDS[workload.spec["workload"]][0], paired, seconds, cycles)
    return records, done, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--cycles", type=int, default=None, help="fixed cycle count instead of --seconds")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads(Path("inputs.json").read_text())
    started = time.perf_counter()
    import predgap.cli  # noqa: F401  (imports every predgap module)

    import_s = time.perf_counter() - started
    tracer = tracing.Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()
    workload = Workload(spec, tracer)
    result = {"ready": time.monotonic()}
    primary = KINDS[spec["workload"]][0]

    if args.mode in ("setup", "run"):
        calibrate = Calibrator()
        calibrate()  # warm up
        result["cal"] = sorted(calibrate() for _ in range(3))[1]
    if args.mode == "run":
        workload.calibrate = calibrate
        result["records"], result["cycles"] = run_cycles(
            primary, workload.cycle, args.seconds, args.cycles
        )
    elif args.mode == "trace":
        tracer.uninstall()
        workload.tracer = None
        records, cycles, wall = traced_pass(workload, tracer, args.seconds, args.cycles)
        counter = tracing.Counter()
        counter.install()
        try:
            counted, _ = run_cycles(primary, workload.cycle, cycles=1)
        finally:
            counter.uninstall()
        result.update(
            records=records + counted, cycles=cycles, spans=tracer.spans,
            counts=counter.as_dict(), import_s=import_s,
            traced_s=wall["traced"], untraced_s=wall["untraced"],
        )
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

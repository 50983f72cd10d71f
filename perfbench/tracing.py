"""Spans and counters recorded from outside the predgap package.

The tracer wraps the public functions of each predgap module.  Modules
import several of them by name (``from .exact import pg2_exact``), so a
wrapper is bound in every loaded predgap module that holds the original
object, not only where the function is defined.

Hot inner calls (``Distribution.interval_prob`` and the extra
``leaf_pair_probabilities`` call behind ``live_pair_share``) are counted in
a separate pass by ``Counter``, so their wrapper cost never lands in span
times.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

SIZE_CLASSES = (1, 2, 4, 8)
CLI_COMMANDS = ("rank", "eval", "benchmark", "pg2")


def _features_size(a):
    return len(set(int(q) for q in a["features"]))


# (module, attribute, span name, attribute recorded on the span)
TRACED = (
    ("predgap.model", "load_ensemble", "model.load_ensemble", None),
    ("predgap.model", "TreeEnsemble.predict_batch", "model.predict_batch",
     lambda a: int(len(a["X"]))),
    ("predgap.data", "load_csv", "data.load_csv", None),
    ("predgap.perturb", "halton_matrix", "perturb.halton_matrix", lambda a: int(a["count"])),
    ("predgap.perturb", "Gaussian.inv_cdf_n", "perturb.inv_cdf_n", None),
    ("predgap.perturb", "Gaussian.sample_n", "perturb.sample_n", None),
    ("predgap.exact", "pg2_exact", "exact.pg2_exact", _features_size),
    ("predgap.exact", "leaf_pair_probabilities", "exact.leaf_pair_probabilities", None),
    ("predgap.sampling", "pg2_sampled", "sampling.pg2_sampled",
     lambda a: [a["config"].method, int(a["config"].iterations)]),
    ("predgap.ranking", "greedy_pg2_ranking", "ranking.greedy_pg2_ranking", None),
    ("predgap.metrics", "pgi2", "metrics.pgi2", None),
    ("predgap.metrics", "mean_pgi2", "metrics.mean_pgi2", None),
    ("predgap.metrics", "nmae", "metrics.nmae", None),
    ("predgap.cli", "run_benchmark", "cli.run_benchmark", None),
)

# Spans that must fire in each workload's ops, as (span, required ancestor).
# A refactor that rebinds a name past the wrapper fails this check.
EXPECTED = {
    "exact-sweep": (
        ("exact.pg2_exact", None),
        ("exact.leaf_pair_probabilities", None),
    ),
    "rank-eval": (
        ("model.load_ensemble", "cli.rank"),
        ("data.load_csv", "cli.rank"),
        ("exact.pg2_exact", "ranking.greedy_pg2_ranking"),
        ("ranking.greedy_pg2_ranking", "cli.rank"),
        ("exact.pg2_exact", "metrics.pgi2"),
        ("metrics.pgi2", "metrics.mean_pgi2"),
        ("metrics.mean_pgi2", "cli.eval"),
    ),
    "sampler-nmae": (
        ("model.load_ensemble", "cli.benchmark"),
        ("data.load_csv", "cli.benchmark"),
        ("cli.run_benchmark", "cli.benchmark"),
        ("exact.pg2_exact", "cli.run_benchmark"),
        ("sampling.pg2_sampled", "cli.run_benchmark"),
        ("model.predict_batch", "sampling.pg2_sampled"),
        ("perturb.halton_matrix", "sampling.pg2_sampled"),
        ("perturb.inv_cdf_n", "sampling.pg2_sampled"),
        ("perturb.sample_n", "sampling.pg2_sampled"),
        ("metrics.nmae", "cli.run_benchmark"),
        ("sampling.pg2_sampled", "cli.pg2"),
    ),
}


def _resolve(module: str, attribute: str):
    owner = sys.modules[module]
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _predgap_modules():
    return [m for n, m in list(sys.modules.items()) if n == "predgap" or n.startswith("predgap.")]


class _Patches:
    """Rebinds a function everywhere it is bound, and puts it back."""

    def __init__(self):
        self._saved = []

    def replace(self, module: str, attribute: str, make_wrapper):
        owner, name = _resolve(module, attribute)
        original = getattr(owner, name)
        wrapper = make_wrapper(original)
        targets = [owner] if isinstance(owner, type) else _predgap_modules()
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._saved.append((target, key, original))
                    setattr(target, key, wrapper)
        return original

    def restore(self):
        for target, key, original in reversed(self._saved):
            setattr(target, key, original)
        self._saved.clear()


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, op, attr."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._patches = _Patches()

    def _open(self, name, attr):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, attr])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name, None)
        try:
            yield
        finally:
            self._close(idx)

    def install(self):
        for module, attribute, name, attr_of in TRACED:
            self._patches.replace(module, attribute, lambda fn, n=name, a=attr_of: self._wrap(fn, n, a))

    def uninstall(self):
        self._patches.restore()

    def _wrap(self, fn, name, attr_of):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            attr = None
            if attr_of is not None:
                attr = attr_of(signature.bind(*args, **kwargs).arguments)
            idx = self._open(name, attr)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper


class Counter:
    """Counting pass: interval-probability calls and live leaf pairs.

    Only calls made inside ``pg2_exact`` are counted.  Each ``pg2_exact``
    call is followed, with counting paused, by a ``leaf_pair_probabilities``
    call on the same query whose nonzero entries give the live-pair share.
    """

    def __init__(self):
        self.interval_prob_calls = 0
        self.exact_calls = 0
        self.live = defaultdict(lambda: [0, 0])  # |S| -> [nonzero pairs, all pairs]
        self._active = False
        self._patches = _Patches()

    def install(self):
        table_fn = sys.modules["predgap.exact"].leaf_pair_probabilities

        def count_interval(fn):
            def wrapper(dist, lo, hi):
                if self._active:
                    self.interval_prob_calls += 1
                return fn(dist, lo, hi)
            return wrapper

        def count_exact(fn):
            def wrapper(ensemble, x, features, spec, *args, **kwargs):
                self._active = True
                try:
                    result = fn(ensemble, x, features, spec, *args, **kwargs)
                finally:
                    self._active = False
                table = table_fn(ensemble, x, features, spec)
                k = len(set(int(q) for q in features))
                entry = self.live[k]
                entry[0] += sum(1 for p in table.pair_prob.values() if p != 0.0)
                entry[1] += ensemble.leaf_count ** 2
                self.exact_calls += 1
                return result
            return wrapper

        self._patches.replace("predgap.perturb", "Distribution.interval_prob", count_interval)
        self._patches.replace("predgap.exact", "pg2_exact", count_exact)

    def uninstall(self):
        self._patches.restore()

    def as_dict(self):
        return {
            "interval_prob_calls": self.interval_prob_calls,
            "exact_calls": self.exact_calls,
            "live": {str(k): v for k, v in sorted(self.live.items())},
        }


# ---------------------------------------------------------------------------
# Analysis (runs in the benchmark driver, not in the workload process)
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for _, start, end, parent, *_rest in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, i, name) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def coverage_failures(workload, spans, counts) -> list[str]:
    """Expected spans that never fired, and counters that stayed at zero."""
    missing = []
    for name, within in EXPECTED[workload]:
        if not any(
            s[0] == name and s[4] is not None and (within is None or _has_ancestor(spans, i, within))
            for i, s in enumerate(spans)
        ):
            missing.append(f"span {name}" + (f" under {within}" if within else ""))
    if counts["exact_calls"] == 0 or counts["interval_prob_calls"] == 0:
        missing.append("counting pass saw no pg2_exact / interval_prob calls")
    return missing


def layer_metrics(spans, counts, import_s, overhead_s) -> dict[str, float]:
    """Per-layer metrics from a traced pass plus its counting pass."""
    selfs = self_times(spans)
    in_ops = defaultdict(list)  # spans of each name fired by the measured ops
    for i, s in enumerate(spans):
        if s[4] is not None:
            in_ops[s[0]].append(i)

    def calls(name):
        return len(in_ops[name])

    def self_s(name, where=lambda i: True):
        return sum(selfs[i] for i in in_ops[name] if where(i))

    def attr_sum(name, part=lambda attr: attr):
        return sum(part(spans[i][5]) for i in in_ops[name])

    def setup_s(name):
        return sum(s[2] - s[1] for s in spans if s[0] == name and s[4] is None)

    def nested(child, parent):
        return sum(1 for i in in_ops[child] if _has_ancestor(spans, i, parent))

    def duration(name, where=lambda i: True):
        return sum(spans[i][2] - spans[i][1] for i in in_ops[name] if where(i))

    def per(num, den):
        return num / den if den else 0.0

    m = {
        "cli.import_s": import_s,
        "model.load_ensemble.s": setup_s("model.load_ensemble"),
        "data.load_csv.s": setup_s("data.load_csv"),
        "model.predict_batch.calls": calls("model.predict_batch"),
        "model.predict_batch.rows": attr_sum("model.predict_batch"),
        "model.predict_batch.self_s": self_s("model.predict_batch"),
        "perturb.halton_matrix.calls": calls("perturb.halton_matrix"),
        "perturb.halton_matrix.points": attr_sum("perturb.halton_matrix"),
        "perturb.halton_matrix.self_s": self_s("perturb.halton_matrix"),
        "perturb.inv_cdf_n.self_s": self_s("perturb.inv_cdf_n"),
        "perturb.sample_n.self_s": self_s("perturb.sample_n"),
        "perturb.interval_prob.calls": counts["interval_prob_calls"],
        "perturb.interval_prob.calls_per_query": per(counts["interval_prob_calls"], counts["exact_calls"]),
        "exact.pg2_exact.calls": calls("exact.pg2_exact"),
        "exact.pg2_exact.self_s": self_s("exact.pg2_exact"),
    }
    for k in SIZE_CLASSES:
        n = sum(1 for i in in_ops["exact.pg2_exact"] if spans[i][5] == k)
        m[f"exact.pg2_exact.ms_s{k}"] = 1000.0 * per(
            duration("exact.pg2_exact", lambda i, k=k: spans[i][5] == k), n
        )
    m["exact.leaf_pair_probabilities.calls"] = calls("exact.leaf_pair_probabilities")
    m["exact.leaf_pair_probabilities.self_s"] = self_s("exact.leaf_pair_probabilities")
    live = counts["live"]
    m["exact.live_pair_share"] = per(sum(v[0] for v in live.values()), sum(v[1] for v in live.values()))
    for k in SIZE_CLASSES:
        nonzero, total = live.get(str(k), (0, 0))
        m[f"exact.live_pair_share.s{k}"] = per(nonzero, total)
    for method in ("mc", "qmc"):
        m[f"sampling.pg2_sampled.{method}.self_s"] = self_s(
            "sampling.pg2_sampled", lambda i, method=method: spans[i][5][0] == method
        )
    m["sampling.pg2_sampled.draws"] = attr_sum("sampling.pg2_sampled", lambda attr: attr[1])
    greedy = calls("ranking.greedy_pg2_ranking")
    m["ranking.greedy_pg2_ranking.calls"] = greedy
    m["ranking.greedy_pg2_ranking.self_s"] = self_s("ranking.greedy_pg2_ranking")
    m["ranking.greedy_pg2_ranking.exact_calls_per_row"] = per(
        nested("exact.pg2_exact", "ranking.greedy_pg2_ranking"), greedy
    )
    pgi2 = calls("metrics.pgi2")
    m["metrics.pgi2.calls"] = pgi2
    m["metrics.pgi2.self_s"] = self_s("metrics.pgi2")
    m["metrics.pgi2.exact_calls_per_row"] = per(nested("exact.pg2_exact", "metrics.pgi2"), pgi2)
    m["metrics.nmae.self_s"] = self_s("metrics.nmae")
    m["cli.run_benchmark.exact_share"] = per(
        duration("exact.pg2_exact", lambda i: _has_ancestor(spans, i, "cli.run_benchmark")),
        duration("cli.run_benchmark"),
    )
    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_s"] = self_s(f"cli.{command}")
    m["trace.overhead_s"] = overhead_s
    return m

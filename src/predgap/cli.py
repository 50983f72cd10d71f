"""The ``pg2`` command line: gap computation, ranking, benchmarking, eval.

All commands are deterministic given explicit seeds; the benchmark reduces
its per-pair results in pair-index order, so the worker-pool size never
changes the output bytes.  Wall-clock timings are only recorded when
``--timing`` is passed, because timing fields would break byte-identical
reports.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from multiprocessing import get_context

import numpy as np

from . import __version__
from .data import Dataset, load_csv, sample_pairs
from .errors import (
    EXIT_OK, PredgapError, ValidationError, exit_code_for, read_json, read_text, write_text,
)
from .exact import pg2_exact
from .metrics import mean_pgi2, nmae, randomization_rmse
from .model import (
    TreeEnsemble, _as_index, _as_seed, ensemble_from_xgboost_dump, load_ensemble, save_ensemble,
)
from .perturb import PerturbationSpec, spec_from_config
from .ranking import Ranking, greedy_pg2_ranking, load_attributions, ranking_from_attribution
from .sampling import EstimatorConfig, pg2_sampled, pg2_sampled_prefixes


def format_value(value: float) -> str:
    """Nine significant digits, with an all-zeros rendering for exact zero."""
    if value == 0.0:
        return "0.000000000"
    return format(value, "#.9g")


def _parse_int_list(text: str, flag: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValidationError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ValidationError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _load_spec(args, num_features: int) -> PerturbationSpec:
    if args.dist_config:
        return spec_from_config(read_json(args.dist_config, "distribution config"), num_features)
    if args.sigma is None:
        raise ValidationError("either --sigma or --dist-config is required")
    return PerturbationSpec.gaussian(args.sigma, num_features)


def _load_inputs(args) -> tuple[TreeEnsemble, Dataset, np.ndarray | None]:
    """The model, the data and its labels (None without --label-column)."""
    ensemble = load_ensemble(args.model)
    exclude = [name for name in (args.exclude_columns or "").split(",") if name]
    dataset, labels = load_csv(args.data, label_column=args.label_column, exclude=exclude)
    if dataset.num_instances < 1:
        raise ValidationError("dataset has no instances")
    if dataset.num_features != ensemble.num_features:
        raise ValidationError(
            f"data has {dataset.num_features} features, model expects {ensemble.num_features}"
        )
    return ensemble, dataset, labels


def _emit(text: str, out: str) -> None:
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is '-' or empty."""
    if out and out != "-":
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _greedy_rankings(ensemble, dataset: Dataset, spec: PerturbationSpec) -> list[Ranking]:
    return [
        greedy_pg2_ranking(ensemble, dataset.instance(i), spec)
        for i in range(dataset.num_instances)
    ]


def _rankings_from_file(path, num_features: int, num_instances: int) -> list[Ranking]:
    lines = [ln for ln in read_text(path, "rankings file").splitlines() if ln.strip()]
    try:
        rows = [tuple(int(v) for v in ln.split(",")) for ln in lines]
    except ValueError:
        raise ValidationError("rankings file rows must be comma-separated integers") from None
    rankings = [Ranking(order=row) for row in rows]
    for r in rankings:
        if r.num_features != num_features:
            raise ValidationError(
                f"ranking row has {r.num_features} entries, model has {num_features} features"
            )
    if len(rankings) != num_instances:
        raise ValidationError(
            f"{len(rankings)} ranking rows for {num_instances} data rows"
        )
    return rankings


# ---------------------------------------------------------------------------
# pg2 / convert-model
# ---------------------------------------------------------------------------

def cmd_pg2(args) -> int:
    ensemble, dataset, _ = _load_inputs(args)
    if not 0 <= args.point_index < dataset.num_instances:
        raise ValidationError(
            f"--point-index {args.point_index} outside 0..{dataset.num_instances - 1}"
        )
    x = dataset.instance(args.point_index)
    features = _parse_int_list(args.features, "--features")
    spec = _load_spec(args, ensemble.num_features)
    if args.method == "exact":
        value = pg2_exact(ensemble, x, features, spec)
    else:
        config = EstimatorConfig(
            method=args.method, iterations=args.iterations, seed=args.seed
        )
        value = pg2_sampled(ensemble, x, features, spec, config)
    print(format_value(value))
    return EXIT_OK


def cmd_convert_model(args) -> int:
    ensemble = ensemble_from_xgboost_dump(
        read_json(args.input, "model"), num_features=args.num_features, base_score=args.base_score
    )
    save_ensemble(ensemble, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def cmd_rank(args) -> int:
    ensemble, dataset, _ = _load_inputs(args)
    if args.method == "greedy-pg2":
        rankings = _greedy_rankings(ensemble, dataset, _load_spec(args, ensemble.num_features))
    else:
        if not args.attributions:
            raise ValidationError("--method from-attribution requires --attributions")
        phi = load_attributions(args.attributions)
        if phi.shape != (dataset.num_instances, ensemble.num_features):
            raise ValidationError(
                f"attribution matrix {phi.shape} does not match "
                f"({dataset.num_instances}, {ensemble.num_features})"
            )
        rankings = [ranking_from_attribution(row) for row in phi]
    _emit("\n".join(",".join(str(i) for i in r.order) for r in rankings) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    ensemble, dataset, labels = _load_inputs(args)
    if args.rankings:
        rankings = _rankings_from_file(
            args.rankings, ensemble.num_features, dataset.num_instances
        )
    elif args.method == "greedy-pg2":
        if args.sigma_rank is None:
            raise ValidationError("--method greedy-pg2 requires --sigma-rank")
        rank_spec = PerturbationSpec.gaussian(args.sigma_rank, ensemble.num_features)
        rankings = _greedy_rankings(ensemble, dataset, rank_spec)
    else:
        raise ValidationError("provide --rankings FILE or --method greedy-pg2")

    if args.metric == "pgi2":
        if args.sigma_metric is None:
            raise ValidationError("--metric pgi2 requires --sigma-metric")
        spec = PerturbationSpec.gaussian(args.sigma_metric, ensemble.num_features)
        value = mean_pgi2(ensemble, dataset, rankings, spec)
    else:
        if args.k is None:
            raise ValidationError("--metric randomize-rmse requires --k")
        against_labels = args.rmse_against == "labels"
        if against_labels and labels is None:
            raise ValidationError("--rmse-against labels requires --label-column")
        value = randomization_rmse(
            ensemble,
            dataset,
            rankings,
            k=args.k,
            samples=args.samples,
            seed=args.seed,
            labels=labels if against_labels else None,
        )
    print(format_value(value))
    return EXIT_OK


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

_BENCH: dict | None = None


def _init_bench_worker(payload: dict) -> None:
    global _BENCH
    _BENCH = payload


def _sampler_query(ensemble: TreeEnsemble, x: np.ndarray, S: tuple[int, ...]):
    """The model, point and features the sampler calls of the pair (x, S) take.

    For a non-empty S these are the ensemble conditioned on x over S's
    columns, ``x[S]`` and all of its columns.  At full width ``_conditioned``
    returns the ensemble itself, so each call draws and walks exactly as on
    (ensemble, x, S) without building the conditioned ensemble again.  An
    empty S keeps (ensemble, x, S), whose estimate is 0.0.
    """
    if not S:
        return ensemble, x, S
    return ensemble._conditioned(x, S), x[list(S)], range(len(S))


def _bench_task(task):
    """One pair's exact PG2 (``config`` None), its QMC estimate at every grid
    count (``config`` "qmc"), or one seeded MC estimate."""
    sigma_idx, pair_idx, config, rep = task
    ctx = _BENCH
    pair = ctx["pairs"][pair_idx]
    spec = ctx["specs"][sigma_idx]
    if config is None:
        x = ctx["dataset"].instance(pair.instance_index)
        return pg2_exact(ctx["ensemble"], x, pair.feature_set, spec)
    model, point, features = ctx["queries"][pair_idx]
    spec = PerturbationSpec(per_feature=tuple(spec.distribution_for(q) for q in pair.feature_set))
    if config == "qmc":
        return pg2_sampled_prefixes(model, point, features, spec, ctx["grid"])
    entropy = [ctx["seed"], sigma_idx, config.iterations, rep, pair_idx]
    seed = int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
    return pg2_sampled(model, point, features, spec, replace(config, seed=seed))


def run_benchmark(
    ensemble,
    dataset: Dataset,
    sigmas: list[float],
    iteration_grid: list[int],
    pairs: int,
    seed: int,
    repetitions: int = 1,
    methods: tuple[str, ...] = ("mc", "qmc"),
    sizes: list[int] | None = None,
    workers: int = 1,
    timing: bool = False,
) -> dict:
    """NMAE of each sampler against the exact algorithm over random pairs."""
    global _BENCH
    pairs, seed = _as_index(pairs, "pair count"), _as_seed(seed)
    repetitions, workers = _as_index(repetitions, "repetitions"), _as_index(workers, "workers")
    if not iteration_grid:
        raise ValidationError("iteration grid must be non-empty")
    if not sigmas:
        raise ValidationError("sigmas must be non-empty")
    if not methods:
        raise ValidationError("methods must be non-empty")
    # Built before any exact value, so a bad method or count fails at once.
    configs = [
        (k, EstimatorConfig(method=m, iterations=n))
        for k, n in enumerate(iteration_grid) for m in methods
    ]
    if repetitions < 1:
        raise ValidationError(f"repetitions must be >= 1, got {repetitions}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    if dataset.num_features != ensemble.num_features:
        raise ValidationError(
            f"data has {dataset.num_features} features, model expects {ensemble.num_features}"
        )
    pair_list = sample_pairs(dataset, ensemble.num_features, pairs, seed=seed, sizes=sizes)
    specs = [PerturbationSpec.gaussian(s, ensemble.num_features) for s in sigmas]
    # Built before the pool starts, so fork workers share the conditioned ensembles.
    queries = [
        _sampler_query(ensemble, dataset.instance(p.instance_index), p.feature_set)
        for p in pair_list
    ]
    payload = dict(
        ensemble=ensemble, dataset=dataset, pairs=pair_list, specs=specs, seed=seed,
        grid=iteration_grid, queries=queries,
    )
    # A fork pool starts all its workers at once; more than one per pair idles.
    workers = min(workers, pairs)
    executor = None
    if workers > 1:
        try:
            mp_context = get_context("fork")
        except ValueError:
            mp_context = get_context("spawn")
        executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=mp_context,
            initializer=_init_bench_worker,
            initargs=(payload,),
        )
    else:
        _init_bench_worker(payload)

    def map_pairs(sigma_idx, config=None, rep=0) -> np.ndarray:
        """One task result per pair, in pair order."""
        tasks = [(sigma_idx, p, config, rep) for p in range(pairs)]
        if executor is None:
            return np.asarray([_bench_task(t) for t in tasks])
        chunk = max(1, pairs // (4 * workers))
        return np.asarray(list(executor.map(_bench_task, tasks, chunksize=chunk)))

    try:
        entries = []
        for sigma_idx, sigma in enumerate(sigmas):
            started = time.perf_counter()
            truth = map_pairs(sigma_idx)
            exact_elapsed = time.perf_counter() - started
            if float(np.sum(np.abs(truth))) == 0.0:
                print(
                    f"warning: every exact value is zero for sigma={sigma}; "
                    "skipping this batch (NMAE undefined)",
                    file=sys.stderr,
                )
                continue
            if "qmc" in methods:
                # One pass at the largest count; column k holds grid count k.
                started = time.perf_counter()
                qmc = map_pairs(sigma_idx, "qmc").T
                qmc_elapsed = time.perf_counter() - started
            for k, config in configs:
                if config.method == "qmc":
                    scores = [nmae(truth, qmc[k])]
                    sampler_elapsed = qmc_elapsed
                else:
                    started = time.perf_counter()
                    scores = [
                        nmae(truth, map_pairs(sigma_idx, config, rep))
                        for rep in range(repetitions)
                    ]
                    sampler_elapsed = time.perf_counter() - started
                entry = {
                    "method": config.method,
                    "iterations": config.iterations,
                    "sigma": sigma,
                    "nmae": float(np.mean(scores)),
                    "pairs": pairs,
                }
                if timing:
                    entry["wall_time_exact"] = exact_elapsed
                    entry["wall_time_sampler"] = sampler_elapsed
                entries.append(entry)
    finally:
        if executor is not None:
            executor.shutdown()
        _BENCH = None
    return {
        "pairs": pairs,
        "seed": seed,
        "repetitions": repetitions,
        "sigmas": sigmas,
        "iteration_grid": iteration_grid,
        "methods": list(methods),
        "entries": entries,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=1) + "\n"


def report_to_csv(report: dict) -> str:
    lines = ["method,iterations,sigma,nmae"]
    for entry in report["entries"]:
        lines.append(
            f"{entry['method']},{entry['iterations']},{entry['sigma']!r},{entry['nmae']!r}"
        )
    return "\n".join(lines) + "\n"


def cmd_benchmark(args) -> int:
    ensemble, dataset, _ = _load_inputs(args)
    sigmas = _parse_float_list(args.sigmas, "--sigmas")
    grid = _parse_int_list(args.iteration_grid, "--iteration-grid")
    sizes = _parse_int_list(args.sizes, "--sizes") if args.sizes else None
    report = run_benchmark(
        ensemble,
        dataset,
        sigmas=sigmas,
        iteration_grid=grid,
        pairs=args.pairs,
        seed=args.seed,
        repetitions=args.repetitions,
        methods=tuple(args.methods.split(",")),
        sizes=sizes,
        workers=args.workers,
        timing=args.timing,
    )
    _emit(report_to_json(report), args.out)
    if args.csv_out:
        write_text(args.csv_out, report_to_csv(report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_inputs(p) -> None:
    p.add_argument("--model", required=True, help="canonical model JSON")
    p.add_argument("--data", required=True, help="dataset CSV with a header row")
    p.add_argument("--label-column", default=None, help="column to exclude from features")
    p.add_argument(
        "--exclude-columns", default=None,
        help="comma-separated columns (e.g. categorical ones) to drop",
    )


def _pg2_arguments(p) -> None:
    _add_inputs(p)
    p.add_argument("--point-index", type=int, required=True)
    p.add_argument("--features", default="", help="comma-separated feature indices (empty = none)")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--dist-config", default=None, help="JSON perturbation config")
    p.add_argument("--method", choices=["exact", "mc", "qmc"], default="exact")
    p.add_argument("--iterations", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pg2)


def _rank_arguments(p) -> None:
    _add_inputs(p)
    p.add_argument("--method", choices=["greedy-pg2", "from-attribution"], default="greedy-pg2")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--dist-config", default=None)
    p.add_argument("--attributions", default=None, help="attribution sidecar (CSV or JSON)")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.set_defaults(func=cmd_rank)


def _benchmark_arguments(p) -> None:
    _add_inputs(p)
    p.add_argument("--sigmas", default="0.1,0.3,1.0")
    p.add_argument(
        "--iteration-grid",
        default="100,500,1000,2000,4000,6000,8000,10000,15000,20000,25000,30000,35000",
    )
    p.add_argument("--pairs", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repetitions", type=int, default=1, help="MC repetitions per NMAE point")
    p.add_argument("--sizes", default=None, help="subset-size cycle (default 1..d)")
    p.add_argument("--methods", default="mc,qmc")
    p.add_argument("--workers", type=int, default=max(1, os.cpu_count() or 1))
    p.add_argument("--timing", action="store_true", help="include wall-clock fields (breaks byte determinism)")
    p.add_argument("--out", default="-", help="JSON report path, '-' for stdout")
    p.add_argument("--csv-out", default=None, help="also write plot-ready CSV")
    p.set_defaults(func=cmd_benchmark)


def _eval_arguments(p) -> None:
    _add_inputs(p)
    p.add_argument("--rankings", default=None, help="CSV of per-instance permutations")
    p.add_argument("--method", choices=["greedy-pg2"], default=None)
    p.add_argument("--sigma-rank", type=float, default=None, help="sigma for greedy ranking")
    p.add_argument("--metric", choices=["pgi2", "randomize-rmse"], required=True)
    p.add_argument("--sigma-metric", type=float, default=None, help="sigma' for the PGI2 metric")
    p.add_argument("--k", type=int, default=None, help="top-k features to randomize")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rmse-against", choices=["prediction", "labels"], default="prediction")
    p.set_defaults(func=cmd_eval)


def _convert_model_arguments(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--num-features", type=int, default=None)
    p.add_argument("--base-score", type=float, default=0.0)
    p.set_defaults(func=cmd_convert_model)


# Each subcommand's help line and the function that adds its arguments, in
# the order the top-level help lists them.  The functions set the command
# handler when they run, so a handler replaced after import is the one called.
_COMMANDS = {
    "pg2": ("compute one squared prediction gap", _pg2_arguments),
    "rank": ("write per-instance feature rankings as CSV", _rank_arguments),
    "benchmark": ("NMAE of samplers against the exact algorithm", _benchmark_arguments),
    "eval": ("aggregate PGI2 or randomization RMSE for rankings", _eval_arguments),
    "convert-model": (
        "convert an XGBoost JSON dump to the canonical format", _convert_model_arguments,
    ),
}


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The ``pg2`` parser.

    When ``command`` names a subcommand, only that subcommand is registered,
    and the usage line still names all five; otherwise every subcommand is,
    with its help line and its arguments.  Parsing an argv whose first item
    is ``command`` reads no other subcommand, so its help, usage and error
    texts are the full parser's.
    """
    # argparse builds a formatter, which reads the terminal size, on every
    # add_argument; one width read here, as HelpFormatter reads it, gives
    # every parser the same text.
    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="pg2",
        description="Exact and sampled squared prediction gaps for tree ensembles.",
        formatter_class=formatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    every = command not in _COMMANDS
    # The metavar is the choice list argparse would print for all five.
    metavar = None if every else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (summary, add_arguments) in _COMMANDS.items():
        if every or name == command:
            add_arguments(sub.add_parser(name, help=summary, formatter_class=formatter))
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full ``pg2`` parser: the top-level ``--version`` and all five
    subcommands, each with every one of its arguments."""
    return _build_parser(None)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A subcommand that argv's first item names is the only one built.
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except PredgapError as exc:
        print(f"pg2: error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())

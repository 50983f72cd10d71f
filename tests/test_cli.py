"""The pg2 command line: outputs, determinism, and exit codes."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import predgap as pg
from predgap.cli import build_parser, format_value, main, report_to_json
from predgap.errors import NumericDomainError, exit_code_for

from support import (
    benchmark_report_oracle,
    canonical_ensemble,
    lattice_point,
    leaf,
    pg2_pair_oracle,
    random_ensemble,
)


@pytest.fixture
def workdir(tmp_path):
    """A canonical depth-1 model (d=2) and a small data file."""
    model = tmp_path / "model.json"
    pg.save_ensemble(canonical_ensemble(num_features=2), model)
    data = tmp_path / "data.csv"
    data.write_text("a,b\n-1.0,0.5\n0.5,-0.3\n1.5,2.0\n-0.2,0.1\n")
    return tmp_path


def _model_arg(workdir):
    return ["--model", str(workdir / "model.json"), "--data", str(workdir / "data.csv")]


def test_format_value():
    assert format_value(0.15865525393145707) == "0.158655254"
    assert format_value(0.0) == "0.000000000"
    assert format_value(0.5) == "0.500000000"
    assert format_value(2.0) == "2.00000000"


def test_pg2_exact_canonical(workdir, capsys):
    rc = main(
        ["pg2", *_model_arg(workdir), "--point-index", "0", "--features", "0",
         "--sigma", "1.0", "--method", "exact"]
    )
    assert rc == 0
    assert capsys.readouterr().out == "0.158655254\n"


def test_pg2_empty_feature_set(workdir, capsys):
    rc = main(
        ["pg2", *_model_arg(workdir), "--point-index", "0", "--features", "",
         "--sigma", "1.0"]
    )
    assert rc == 0
    assert capsys.readouterr().out == "0.000000000\n"


def test_pg2_mc_deterministic(workdir, capsys):
    argv = ["pg2", *_model_arg(workdir), "--point-index", "0", "--features", "0,1",
            "--sigma", "0.5", "--method", "mc", "--iterations", "2000", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_pg2_dist_config(workdir, capsys):
    config = workdir / "dist.json"
    config.write_text(json.dumps({"kind": "discrete", "points": [[-1.0, 0.5], [2.0, 0.5]]}))
    rc = main(
        ["pg2", *_model_arg(workdir), "--point-index", "0", "--features", "0",
         "--dist-config", str(config)]
    )
    assert rc == 0
    assert capsys.readouterr().out == "0.500000000\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pg2_per_feature_dist_config_equals_the_library(tmp_path, capsys):
    # a list config gives each feature its own distribution object, and none
    # to feature 3, outside S: the exact engine and the QMC sampler call each
    # perturbed feature's distribution on its own rows
    rng = np.random.default_rng(41)
    model, data, config = tmp_path / "model.json", tmp_path / "data.csv", tmp_path / "dist.json"
    pg.save_ensemble(random_ensemble(rng, num_features=4, num_trees=5, max_depth=4), model)
    data.write_text("a,b,c,d\n" + ",".join(map(repr, lattice_point(rng, 4).tolist())) + "\n")
    entries = [
        {"kind": "gaussian", "sigma": 0.7},
        {"kind": "uniform", "half_width": 0.9},
        {"kind": "discrete", "points": [[-1.0, 0.25], [0.5, 0.5], [2.0, 0.25]]},
        None,
    ]
    config.write_text(json.dumps(entries))
    ens, (dataset, _) = pg.load_ensemble(model), pg.load_csv(data)
    x, S, spec = dataset.instance(0), [0, 1, 2], pg.spec_from_config(entries, 4)
    exact = pg.pg2_exact(ens, x, S, spec)
    assert exact > 0.0 and exact == pg2_pair_oracle(ens, x, S, spec)
    for method, value in (
        ("exact", exact),
        ("mc", pg.pg2_sampled(ens, x, S, spec, pg.EstimatorConfig("mc", 3000, seed=5))),
        ("qmc", pg.pg2_sampled(ens, x, S, spec, pg.EstimatorConfig("qmc", 3000))),
    ):
        argv = ["pg2", "--model", str(model), "--data", str(data), "--point-index", "0",
                "--features", "0,1,2", "--dist-config", str(config), "--method", method,
                "--iterations", "3000", "--seed", "5"]
        assert main(argv) == 0
        assert capsys.readouterr().out == format_value(value) + "\n", method


def test_pg2_uniform_noise_far_below_the_threshold_is_silent(tmp_path, capsys):
    # x0 + w is 1e10 below the split, so the CDF's quotient would overflow
    # for w = 1e-300 if v were not clamped to [-w, w] first.
    model = tmp_path / "model.json"
    model.write_text(json.dumps(
        {"num_features": 1, "trees": [{"feature": 0, "threshold": 1e10,
                                       "left": leaf(0.0), "right": leaf(1.0)}]}
    ))
    (tmp_path / "data.csv").write_text("a\n0.0\n")
    (tmp_path / "dist.json").write_text(json.dumps({"kind": "uniform", "half_width": 1e-300}))
    rc = main(["pg2", "--model", str(model), "--data", str(tmp_path / "data.csv"),
               "--point-index", "0", "--features", "0", "--method", "exact",
               "--dist-config", str(tmp_path / "dist.json")])
    assert rc == 0
    assert capsys.readouterr() == ("0.000000000\n", "")


def test_rank_greedy_single_feature_model(workdir, capsys):
    rc = main(["rank", *_model_arg(workdir), "--sigma", "1.0"])
    assert rc == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 4
    assert all(row.startswith("0,") for row in rows)  # only feature 0 is used


def test_rank_from_attribution(workdir, capsys):
    phi = workdir / "phi.csv"
    phi.write_text("0.1,-0.5\n" * 4)
    rc = main(
        ["rank", *_model_arg(workdir), "--method", "from-attribution",
         "--attributions", str(phi)]
    )
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["1,0"] * 4


def test_rank_from_attribution_three_features(tmp_path, capsys):
    model = tmp_path / "m3.json"
    pg.save_ensemble(canonical_ensemble(num_features=3), model)
    data = tmp_path / "d3.csv"
    data.write_text("a,b,c\n0.0,0.0,0.0\n")
    phi = tmp_path / "phi.csv"
    phi.write_text("0.1,-0.5,0.2\n")
    rc = main(
        ["rank", "--model", str(model), "--data", str(data),
         "--method", "from-attribution", "--attributions", str(phi)]
    )
    assert rc == 0
    assert capsys.readouterr().out == "1,2,0\n"


def test_exclude_columns_flag(tmp_path, capsys):
    model = tmp_path / "m.json"
    pg.save_ensemble(canonical_ensemble(num_features=1), model)
    data = tmp_path / "d.csv"
    data.write_text("color,x\nred,-1.0\nblue,0.5\n")
    rc = main(
        ["pg2", "--model", str(model), "--data", str(data), "--exclude-columns", "color",
         "--point-index", "0", "--features", "0", "--sigma", "1.0"]
    )
    assert rc == 0
    assert capsys.readouterr().out == "0.158655254\n"


def test_rank_single_feature_dataset(tmp_path, capsys):
    model = tmp_path / "m.json"
    pg.save_ensemble(canonical_ensemble(num_features=1), model)
    data = tmp_path / "d.csv"
    data.write_text("x\n0.5\n-0.5\n")
    rc = main(["rank", "--model", str(model), "--data", str(data), "--sigma", "1.0"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["0", "0"]


def test_benchmark_report_and_consistency(workdir):
    out = workdir / "report.json"
    rc = main(
        ["benchmark", *_model_arg(workdir), "--sigmas", "0.3",
         "--iteration-grid", "100,10000", "--pairs", "6", "--seed", "5",
         "--workers", "1", "--out", str(out)]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    nmae_at = {
        (e["method"], e["iterations"]): e["nmae"] for e in report["entries"]
    }
    assert nmae_at[("mc", 10000)] < nmae_at[("mc", 100)]
    assert all(e["pairs"] == 6 for e in report["entries"])
    # parse -> serialize gives back the identical bytes
    assert report_to_json(report) == out.read_text()


def test_benchmark_identical_invocations_byte_identical(workdir):
    args = ["benchmark", *_model_arg(workdir), "--sigmas", "0.5",
            "--iteration-grid", "100,500", "--pairs", "4", "--seed", "3",
            "--workers", "1"]
    out1, out2 = workdir / "r1.json", workdir / "r2.json"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_benchmark_csv_output(workdir):
    out = workdir / "report.json"
    csv_out = workdir / "plot.csv"
    rc = main(
        ["benchmark", *_model_arg(workdir), "--sigmas", "0.3",
         "--iteration-grid", "100", "--pairs", "2", "--seed", "1",
         "--workers", "1", "--out", str(out), "--csv-out", str(csv_out)]
    )
    assert rc == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "method,iterations,sigma,nmae"
    assert len(lines) == 3  # mc and qmc at one grid point


def test_benchmark_timing_fields(workdir):
    out = workdir / "timed.json"
    rc = main(
        ["benchmark", *_model_arg(workdir), "--sigmas", "0.3,1.0",
         "--iteration-grid", "100,300", "--pairs", "2", "--seed", "1",
         "--workers", "1", "--timing", "--out", str(out)]
    )
    assert rc == 0
    entries = json.loads(out.read_text())["entries"]
    assert entries[0]["wall_time_exact"] > 0.0
    assert entries[0]["wall_time_sampler"] > 0.0
    # every QMC entry carries the time of the one pass that all sigmas share
    for sigma in (0.3, 1.0):
        qmc = [e for e in entries if e["method"] == "qmc" and e["sigma"] == sigma]
        assert [e["iterations"] for e in qmc] == [100, 300]
        assert qmc[0]["wall_time_sampler"] == qmc[1]["wall_time_sampler"] > 0.0


def test_benchmark_excludes_all_zero_truth_batch(workdir, capsys):
    # forcing empty feature sets makes every exact value zero
    out = workdir / "degenerate.json"
    rc = main(
        ["benchmark", *_model_arg(workdir), "--sigmas", "0.3",
         "--iteration-grid", "100", "--pairs", "1", "--seed", "1",
         "--sizes", "0", "--workers", "1", "--out", str(out)]
    )
    assert rc == 0
    assert json.loads(out.read_text())["entries"] == []
    assert "skipping" in capsys.readouterr().err


def test_benchmark_pool_has_at_most_one_worker_per_pair(workdir, monkeypatch):
    import concurrent.futures

    sizes = []

    class InlinePool:
        """Records its size and runs every task in this process."""

        def __init__(self, max_workers, mp_context, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

        def shutdown(self):
            pass

    # run_benchmark imports the pool class only when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    args = ["benchmark", *_model_arg(workdir), "--sigmas", "0.3", "--iteration-grid", "100",
            "--out", str(workdir / "report.json")]
    for pairs, workers in [(1, 64), (3, 2), (2, 5)]:
        assert main([*args, "--pairs", str(pairs), "--workers", str(workers)]) == 0
    # one pair runs inline; otherwise one worker per pair at most
    assert sizes == [2, 2]


def test_benchmark_repetitions_average_mc_only(workdir):
    args = ["benchmark", *_model_arg(workdir), "--sigmas", "0.3", "--iteration-grid", "50",
            "--pairs", "4", "--seed", "2"]

    def run(repetitions, workers):
        out = workdir / f"r{repetitions}w{workers}.json"
        assert main([*args, "--repetitions", str(repetitions), "--workers", str(workers),
                     "--out", str(out)]) == 0
        return out.read_bytes()

    once = json.loads(run(1, 1))["entries"]
    thrice = json.loads(run(3, 1))["entries"]
    nmae_of = {e["method"]: e["nmae"] for e in once}
    averaged = {e["method"]: e["nmae"] for e in thrice}
    # MC averages three independently seeded runs; QMC is deterministic and runs once
    assert averaged["mc"] != nmae_of["mc"]
    assert averaged["qmc"] == nmae_of["qmc"]
    assert run(3, 3) == run(3, 1)


def test_benchmark_inline_calls_the_module_globals(monkeypatch):
    """perfbench traces `pg2 benchmark --workers 1` by rebinding cli globals by
    name and expects their spans under cli.run_benchmark in the same process, so
    every engine call, QMC's shared pass included, goes through one; the inline
    path must also leave no payload behind, even when a task raises."""
    import predgap.cli as cli_mod

    calls = {}
    for name in ("pg2_exact", "pg2_sampled", "pg2_sampled_gaussian_prefixes", "nmae"):
        def counted(*a, _real=getattr(cli_mod, name), _name=name, **kw):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*a, **kw)

        monkeypatch.setattr(cli_mod, name, counted)
    ens = canonical_ensemble(num_features=2)
    data = pg.Dataset(values=[[-1.0, 0.5], [0.5, -0.3]], feature_names=("a", "b"))
    run = dict(sigmas=[0.3, 1.0], iteration_grid=[10], pairs=3, seed=1, workers=1)
    report = cli_mod.run_benchmark(ens, data, **run)
    assert [e["method"] for e in report["entries"]] == ["mc", "qmc"] * 2
    # MC makes one call per sigma, pair and count; QMC one per pair for every
    # sigma and count
    assert calls == {
        "pg2_exact": 6, "pg2_sampled": 6, "pg2_sampled_gaussian_prefixes": 3, "nmae": 4,
    }
    assert cli_mod._BENCH is None
    # a bad sampler configuration raises before any exact value is computed
    with pytest.raises(pg.ValidationError):
        cli_mod.run_benchmark(ens, data, methods=("zz",), **run)
    # an empty grid, sigma list or method list would make a report with no
    # entries, so each raises before any exact value too
    for bad in ({"iteration_grid": [0]}, {"iteration_grid": []}, {"sigmas": []},
                {"methods": ()}, {"workers": 0}, {"workers": -2}):
        with pytest.raises(pg.ValidationError):
            cli_mod.run_benchmark(ens, data, **{**run, **bad})
    assert calls["pg2_exact"] == 6
    assert cli_mod._BENCH is None


@pytest.mark.parametrize(
    "call, bad",
    [("run_benchmark", {"pairs": 2.0}), ("run_benchmark", {"repetitions": 1.5}),
     ("run_benchmark", {"repetitions": True}), ("run_benchmark", {"workers": 1.0}),
     ("run_benchmark", {"seed": 0.5}), ("sample_pairs", {"count": 2.5}),
     ("sample_pairs", {"seed": True}), ("sample_pairs", {"sizes": [1, 2.0]}),
     ("xi_random", {"samples": 2.5}), ("randomization_rmse", {"samples": True})],
    ids=["float-pairs", "float-repetitions", "boolean-repetitions", "float-workers", "float-seed",
         "float-count", "boolean-seed", "float-size", "float-samples", "boolean-samples"],
)
def test_integer_arguments_raise_before_any_work(monkeypatch, call, bad):
    import predgap.cli as cli_mod

    exact_calls = []

    def counted(*a, **kw):
        exact_calls.append(a)
        return pg.pg2_exact(*a, **kw)

    monkeypatch.setattr(cli_mod, "pg2_exact", counted)
    ens = canonical_ensemble(num_features=2)
    data = pg.Dataset(values=[[-1.0, 0.5], [0.5, -0.3]], feature_names=("a", "b"))
    fn, kwargs = {
        "run_benchmark": (cli_mod.run_benchmark, dict(
            ensemble=ens, dataset=data, sigmas=[0.3], iteration_grid=[10], pairs=2, seed=1)),
        "sample_pairs": (pg.sample_pairs, dict(
            dataset=data, count=2, seed=0, sizes=[1, 2])),
        "xi_random": (pg.xi_random, dict(
            ensemble=ens, x=[0.0, 0.0], keep=[1], dataset=data, samples=3)),
        "randomization_rmse": (pg.randomization_rmse, dict(
            ensemble=ens, dataset=data, rankings=[pg.Ranking((0, 1))] * 2, k=1, samples=3)),
    }[call]
    fn(**kwargs)
    exact_calls.clear()
    with pytest.raises(pg.ValidationError, match="must be an integer"):
        fn(**{**kwargs, **bad})
    assert exact_calls == []


def test_benchmark_report_equals_the_per_size_oracle():
    # QMC reads every grid count from one pass per (sigma, pair); the oracle
    # makes one pg2_sampled call per count, unsorted and repeated counts too.
    import predgap.cli as cli_mod

    rng = np.random.default_rng(12)
    ens = random_ensemble(rng, num_features=3, num_trees=4, max_depth=3)
    data = pg.Dataset(values=rng.normal(size=(6, 3)).tolist(), feature_names=("a", "b", "c"))
    run = dict(sigmas=[0.3, 1.0], iteration_grid=[300, 20, 300, 1000], pairs=5, seed=4)
    for workers, repetitions in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        report = cli_mod.run_benchmark(ens, data, workers=workers, repetitions=repetitions, **run)
        assert report == benchmark_report_oracle(ens, data, repetitions=repetitions, **run)


def test_benchmark_shares_each_pairs_qmc_pass_among_the_sigmas_kept(monkeypatch, capsys):
    # at sigma = 1e-300 no draw leaves x's leaves, so every exact value is 0
    # and that sigma is skipped; each pair's one QMC pass covers the others
    import predgap.cli as cli_mod

    passes = []
    real = cli_mod.pg2_sampled_gaussian_prefixes

    def recorded(model, x, features, sigmas, counts):
        passes.append(sigmas)
        return real(model, x, features, sigmas, counts)

    monkeypatch.setattr(cli_mod, "pg2_sampled_gaussian_prefixes", recorded)
    rng = np.random.default_rng(15)
    ens = random_ensemble(rng, num_features=3, num_trees=4, max_depth=3)
    data = pg.Dataset(values=rng.normal(size=(6, 3)).tolist(), feature_names=("a", "b", "c"))
    run = dict(sigmas=[0.3, 1e-300, 1.0], iteration_grid=[50, 9], pairs=4, seed=6)
    report = cli_mod.run_benchmark(ens, data, workers=1, **run)
    assert passes == [(0.3, 1.0)] * 4
    assert "sigma=1e-300" in capsys.readouterr().err
    assert report == benchmark_report_oracle(ens, data, **run)


def test_benchmark_builds_one_conditioned_ensemble_per_pair(monkeypatch):
    # the samplers of each pair walk one x-conditioned ensemble, built before
    # any task runs, and give the per-call report of the full ensemble
    import predgap.cli as cli_mod

    builds = []
    real = pg.TreeEnsemble._conditioned

    def counted(self, vec, feats):
        cond = real(self, vec, feats)
        if cond is not self:
            builds.append(tuple(feats))
        return cond

    monkeypatch.setattr(pg.TreeEnsemble, "_conditioned", counted)
    rng = np.random.default_rng(13)
    ens = random_ensemble(rng, num_features=4, num_trees=5, max_depth=4)
    data = pg.Dataset(values=rng.normal(size=(6, 4)).tolist(), feature_names=tuple("abcd"))
    run = dict(sigmas=[0.3, 1.0], iteration_grid=[40, 7], pairs=9, seed=5, sizes=[0, 2, 1, 3])
    pairs = pg.sample_pairs(data, run["pairs"], seed=run["seed"], sizes=run["sizes"])
    for workers in (1, 2):
        builds.clear()
        report = cli_mod.run_benchmark(ens, data, workers=workers, repetitions=2, **run)
        assert builds == [p.feature_set for p in pairs if p.feature_set]
        assert report == benchmark_report_oracle(ens, data, repetitions=2, **run)


def test_benchmark_walks_each_sampler_call_once(monkeypatch):
    # f(x) rides as one more row on the walk of the draws, so the benchmark
    # makes no one-row walk: per sigma and non-empty pair, QMC walks the
    # largest count once and MC each count once per repetition
    import predgap.cli as cli_mod

    walks = []
    real = pg.TreeEnsemble.predict_batch

    def counted(self, X):
        walks.append(len(X))
        return real(self, X)

    monkeypatch.setattr(pg.TreeEnsemble, "predict_batch", counted)
    rng = np.random.default_rng(14)
    ens = random_ensemble(rng, num_features=4, num_trees=5, max_depth=4)
    data = pg.Dataset(values=rng.normal(size=(6, 4)).tolist(), feature_names=tuple("abcd"))
    run = dict(sigmas=[0.3, 1.0], iteration_grid=[40, 7], pairs=9, seed=5, sizes=[0, 2, 1, 3])
    pairs = pg.sample_pairs(data, run["pairs"], seed=run["seed"], sizes=run["sizes"])
    cli_mod.run_benchmark(ens, data, workers=1, repetitions=2, **run)
    per_pair = [41, 41, 41, 8, 8]
    busy = sum(1 for p in pairs if p.feature_set)
    assert sorted(walks) == sorted(per_pair * busy * len(run["sigmas"]))


def test_eval_pgi2_matches_library(workdir, capsys):
    rc = main(
        ["eval", *_model_arg(workdir), "--method", "greedy-pg2", "--sigma-rank", "1.0",
         "--metric", "pgi2", "--sigma-metric", "1.0"]
    )
    assert rc == 0
    printed = float(capsys.readouterr().out)
    ens = canonical_ensemble(num_features=2)
    data, _ = pg.load_csv(workdir / "data.csv")
    spec = pg.PerturbationSpec.gaussian(1.0, 2)
    rankings = [
        pg.greedy_pg2_ranking(ens, data.instance(i), spec)
        for i in range(data.num_instances)
    ]
    expected = pg.mean_pgi2(ens, data, rankings, spec)
    assert printed == pytest.approx(expected, rel=1e-8)


def test_eval_constant_model_zero(tmp_path, capsys):
    model = tmp_path / "const.json"
    pg.save_ensemble(
        pg.TreeEnsemble(trees=(pg.Tree(leaf(2.0)),), num_features=1), model
    )
    data = tmp_path / "d.csv"
    data.write_text("x\n1.0\n2.0\n")
    for metric_args in (
        ["--metric", "pgi2", "--sigma-metric", "0.5"],
        ["--metric", "randomize-rmse", "--k", "1", "--samples", "8", "--seed", "1"],
    ):
        rc = main(
            ["eval", "--model", str(model), "--data", str(data),
             "--method", "greedy-pg2", "--sigma-rank", "0.5", *metric_args]
        )
        assert rc == 0
        assert capsys.readouterr().out == "0.000000000\n"


def test_eval_randomize_rmse_k0(workdir, capsys):
    rc = main(
        ["eval", *_model_arg(workdir), "--method", "greedy-pg2", "--sigma-rank", "1.0",
         "--metric", "randomize-rmse", "--k", "0", "--seed", "2"]
    )
    assert rc == 0
    assert capsys.readouterr().out == "0.000000000\n"


def test_eval_rankings_file(workdir, capsys):
    rankings = workdir / "rankings.csv"
    rankings.write_text("0,1\n1,0\n0,1\n1,0\n")
    rc = main(
        ["eval", *_model_arg(workdir), "--rankings", str(rankings),
         "--metric", "pgi2", "--sigma-metric", "1.0"]
    )
    assert rc == 0
    assert float(capsys.readouterr().out) > 0.0


def test_convert_model(tmp_path, capsys):
    dump = tmp_path / "dump.json"
    dump.write_text(
        json.dumps(
            [
                {
                    "nodeid": 0, "split": "f0", "split_condition": 0.0,
                    "yes": 1, "no": 2, "missing": 1,
                    "children": [
                        {"nodeid": 1, "leaf": 0.0},
                        {"nodeid": 2, "leaf": 1.0},
                    ],
                }
            ]
        )
    )
    out = tmp_path / "canonical.json"
    rc = main(["convert-model", "--input", str(dump), "--output", str(out)])
    assert rc == 0
    ens = pg.load_ensemble(out)
    assert ens.predict([-1.0]) == 0.0 and ens.predict([0.0]) == 1.0


def test_exit_code_validation_error(tmp_path, capsys):
    rc = main(
        ["pg2", "--model", str(tmp_path / "missing.json"), "--data", str(tmp_path / "x.csv"),
         "--point-index", "0", "--sigma", "1.0"]
    )
    assert rc == 3
    assert "error" in capsys.readouterr().err


_HUGE = "1" + "0" * 400  # an integer literal beyond the float range
_DUMP = (
    '[{"nodeid": 0, "split": "%s", "split_condition": %s, "yes": %s, "no": %s,'
    ' "children": [{"nodeid": %s, "leaf": 0.0}, {"nodeid": 2, "leaf": 1.0}]}]'
)
_PG2 = ["pg2", "--point-index", "0", "--features", "0", "--sigma", "1.0"]
_CONVERT = ["convert-model", "--input", "{path}", "--output", "{path}.canonical"]
_DIST = ["pg2", "--point-index", "0", "--features", "0", "--dist-config", "{path}"]
_RANKINGS = ["eval", "--rankings", "{path}", "--metric", "pgi2", "--sigma-metric", "1.0"]
_ATTRIBUTIONS = ["rank", "--method", "from-attribution", "--attributions", "{path}"]
_BENCH = ["benchmark", "--pairs", "2", "--sigmas", "1.0", "--iteration-grid", "10",
          "--workers", "1"]
_LONG_INT = "1" + "0" * 5000  # past the integer string conversion limit
_DEEP = "[" * 5000 + "]" * 5000  # past the JSON decoder's recursion limit
_NOT_UTF8 = b"\xff\xfe{}"
_NO_DIR = "{path}.missing/out"  # inside a directory that does not exist
_LABELS = ["eval", "--label-column", "y", "--metric", "randomize-rmse", "--rmse-against",
           "labels", "--method", "greedy-pg2", "--sigma-rank", "1.0", "--k", "1"]
_GREEDY = ["eval", "--method", "greedy-pg2", "--sigma-rank", "0.5"]
_RMSE = [*_GREEDY, "--metric", "randomize-rmse"]
# Draw counts whose matrices cannot be allocated: 2**62 draws are past
# numpy's array size limit, and a file named _NO_MEMORY makes np.empty raise
# MemoryError, as numpy does past the machine's memory, for 10**11 draws.
# Either fails before any memory is reserved.
_NO_MEMORY = "no-memory"
_TOO_MANY = 10 ** 11
_OVERSIZED_IDS = ["mc-iterations", "qmc-iterations", "iteration-grid", "rmse-samples"]


def _oversized(count):
    count = str(count)
    return [
        [*_PG2, "--method", "mc", "--iterations", count],
        [*_PG2, "--method", "qmc", "--iterations", count],
        [*_BENCH, "--iteration-grid", count],
        [*_RMSE, "--k", "1", "--samples", count],
    ]


def _empty_without_memory(empty):
    def fake(shape, *args, **kwargs):
        if _TOO_MANY in np.ravel(shape):
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return empty(shape, *args, **kwargs)

    return fake


@pytest.mark.parametrize(
    "name, content, argv",
    [
        ("rankings.csv", "0,1\n1,x\n0,1\n1,0\n",
         ["eval", "--rankings", "{path}", "--metric", "pgi2", "--sigma-metric", "1.0"]),
        ("dist.json", '{"kind": "gaussian"}',
         ["pg2", "--point-index", "0", "--features", "0", "--dist-config", "{path}"]),
        ("dist.json", '{"kind": "uniform"}',
         ["pg2", "--point-index", "0", "--features", "0", "--dist-config", "{path}"]),
        ("dist.json", '{"kind": "gaussian", "sigma": "wide"}',
         ["pg2", "--point-index", "0", "--features", "0", "--dist-config", "{path}"]),
        ("dist.json", '{"kind": "discrete", "points": [[1.0]]}',
         ["pg2", "--point-index", "0", "--features", "0", "--dist-config", "{path}"]),
        ("model.json", '{"num_features": 2, "trees": [{"value": %s}]}' % _HUGE, _PG2),
        ("model.json", '{"num_features": 2, "trees": [{"value": 1%s}]}' % ("0" * 5000), _PG2),
        ("dump.json", '[{"nodeid": 0, "leaf": %s}]' % _HUGE, _CONVERT),
        ("dump.json", _DUMP % ("f0", _HUGE, 1, 2, 1), _CONVERT),
        ("dump.json", _DUMP % ("f0", 0.5, 1, 2, [1]), _CONVERT),
        ("dump.json", _DUMP % ("f0", 0.5, [1], 2, 1), _CONVERT),
        ("dump.json", _DUMP % ("f0", 0.5, 1, [2], 1), _CONVERT),
        ("dump.json", _DUMP % ("f\\u00b2", 0.5, 1, 2, 1), _CONVERT),
        ("model.json", _NOT_UTF8, _PG2),
        ("data.csv", b"a,b\n\xff,1\n", _PG2),
        ("dist.json", _NOT_UTF8, _DIST),
        ("rankings.csv", b"0,1\n\xff\n", _RANKINGS),
        ("attributions.csv", b"0.1,\xff\n", _ATTRIBUTIONS),
        ("dump.json", _NOT_UTF8, _CONVERT),
        ("dist.json", '{"kind": "gaussian", "sigma": %s}' % _LONG_INT, _DIST),
        ("dist.json", _DEEP, _DIST),
        ("attributions.json", "[[%s]]" % _LONG_INT, _ATTRIBUTIONS),
        ("attributions.json", _DEEP, _ATTRIBUTIONS),
        ("data.csv", "a,b\n%s,1\n" % ("1" * 200_000), _PG2),
        ("unused", "", ["rank", "--sigma", "1.0", "--out", _NO_DIR]),
        ("unused", "", [*_BENCH, "--out", _NO_DIR]),
        ("unused", "", [*_BENCH, "--csv-out", _NO_DIR]),
        ("dump.json", _DUMP % ("f0", 0.5, 1, 2, 1),
         ["convert-model", "--input", "{path}", "--output", _NO_DIR]),
        ("data.csv", "a,b,y\n-1.0,0.5,nan\n0.5,-0.3,1.0\n", _LABELS),
        ("data.csv", "a,b,y\n-1.0,0.5,1.0\n0.5,-0.3,inf\n", _LABELS),
        ("data.csv", "a,b\n", ["eval", "--method", "greedy-pg2", "--sigma-rank", "0.5",
                               "--metric", "pgi2", "--sigma-metric", "1.0"]),
        ("data.csv", "a,b\n", ["eval", "--method", "greedy-pg2", "--sigma-rank", "0.5",
                               "--metric", "randomize-rmse", "--k", "1"]),
        ("unused", "", [*_BENCH, "--iteration-grid", "0"]),
        ("unused", "", [*_BENCH, "--methods", "mc,zz"]),
        ("unused", "", [*_BENCH, "--sizes", " "]),
        ("unused", "", [*_BENCH, "--workers", "0"]),
        ("unused", "", [*_BENCH, "--workers", "-2"]),
        ("dist.json", '{"kind": "gaussian", "sigma": true}', _DIST),
        ("dist.json", '{"kind": "gaussian", "sigma": "0.3"}', _DIST),
        ("dist.json", '{"kind": "discrete", "points": [[false, true]]}', _DIST),
        ("attributions.json", "[[true, 0.5]%s]" % (", [0.1, 1]" * 3), _ATTRIBUTIONS),
        ("attributions.json", '[["2.5", 1]%s]' % (", [0.1, 1]" * 3), _ATTRIBUTIONS),
        ("unused", "", [*_PG2, "--method", "mc", "--iterations", "10", "--seed", "-1"]),
        ("unused", "", [*_BENCH, "--seed", "-1"]),
        ("unused", "", ["eval", "--method", "greedy-pg2", "--sigma-rank", "0.5",
                        "--metric", "randomize-rmse", "--k", "1", "--seed", "-1"]),
        ("unused", "", [*_PG2, "--sigma", "1.5e308"]),
        ("unused", "", [*_PG2, "--sigma", "1.5e308", "--method", "qmc"]),
        ("unused", "", [*_PG2, "--sigma", "1e-320"]),
        ("dist.json", '{"kind": "uniform", "half_width": 1e308}', _DIST),
        ("dist.json", '{"kind": "uniform", "half_width": 1e-320}', _DIST),
        ("data.csv", "a,b\n", ["rank", "--sigma", "1.0"]),
        ("unused", "", ["rank"]),
        ("unused", "", ["rank", "--method", "from-attribution"]),
        ("unused", "", ["eval", "--metric", "pgi2", "--sigma-metric", "1.0"]),
        ("unused", "", ["eval", "--method", "greedy-pg2", "--metric", "pgi2", "--sigma-metric", "1.0"]),
        ("unused", "", [*_GREEDY, "--metric", "pgi2"]),
        ("unused", "", _RMSE),
        ("unused", "", [*_RMSE, "--k", "3"]),
        ("unused", "", [*_RMSE, "--k", "1", "--rmse-against", "labels"]),
        ("unused", "", [*_BENCH, "--repetitions", "0"]),
        ("unused", "", [*_PG2, "--features", "a"]),
        ("unused", "", [*_BENCH, "--sigmas", "x"]),
        ("unused", "", [*_BENCH, "--sizes", "3"]),
        ("unused", "", [*_PG2, "--exclude-columns", "a,b"]),
        ("data.csv", "a,b\n1.0,2.0\n1.0\n", _PG2),
        ("model.json", '{"num_features": 0, "trees": [{"value": 1.0}]}', _PG2),
        ("model.json", '{"num_features": 2, "trees": []}', _PG2),
        ("dist.json", '{"kind": "discrete", "points": []}', _DIST),
        ("dist.json", '{"kind": "discrete", "points": [[Infinity, 1.0]]}', _DIST),
        *(("unused", "", argv) for argv in _oversized(2 ** 62)),
        *((_NO_MEMORY, "", argv) for argv in _oversized(_TOO_MANY)),
    ],
    ids=["non-integer-ranking", "missing-sigma", "missing-half-width", "non-numeric-sigma",
         "one-element-point", "huge-leaf-value", "over-long-integer", "huge-xgboost-leaf",
         "huge-split-condition", "list-nodeid", "list-yes", "list-no", "superscript-split",
         "non-utf8-model", "non-utf8-data", "non-utf8-dist-config", "non-utf8-rankings",
         "non-utf8-attributions", "non-utf8-dump", "over-long-integer-dist-config",
         "deep-dist-config", "over-long-integer-attributions", "deep-attributions",
         "over-long-csv-field", "unwritable-rank-out", "unwritable-benchmark-out",
         "unwritable-benchmark-csv-out", "unwritable-convert-output", "nan-label",
         "inf-label", "header-only-pgi2", "header-only-randomize-rmse", "zero-iterations",
         "unknown-method", "blank-sizes", "zero-workers", "negative-workers", "boolean-sigma",
         "string-sigma", "boolean-discrete-point", "boolean-attribution",
         "string-attribution", "negative-mc-seed", "negative-benchmark-seed",
         "negative-rmse-seed", "overflowing-sigma", "overflowing-sigma-qmc",
         "underflowing-sigma", "overflowing-half-width", "underflowing-half-width",
         "header-only-rank", "rank-without-noise", "attribution-rank-without-file",
         "eval-without-rankings", "greedy-eval-without-sigma-rank",
         "pgi2-without-sigma-metric", "randomize-rmse-without-k", "randomize-rmse-k-above-d",
         "labels-rmse-without-label-column", "zero-repetitions", "non-integer-features",
         "non-numeric-sigmas", "size-above-d", "every-column-excluded", "ragged-csv-row",
         "zero-feature-model", "treeless-model", "pointless-discrete", "infinite-discrete-offset",
         *("oversized-" + i for i in _OVERSIZED_IDS),
         *("unallocatable-" + i for i in _OVERSIZED_IDS)],
)
def test_malformed_inputs_exit_3(workdir, capsys, monkeypatch, name, content, argv):
    if name == _NO_MEMORY:
        monkeypatch.setattr(np, "empty", _empty_without_memory(np.empty))
    path = workdir / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    command, *rest = argv
    model = [] if command == "convert-model" else _model_arg(workdir)
    rc = main([command, *model, *(a.format(path=path) for a in rest)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("pg2: error: ")


@pytest.mark.parametrize("flags", [
    ["--label-column", "y", "--exclude-columns", "a"],
    ["--label-column", "a"],
])
def test_a_named_column_that_appears_twice_exits_3(workdir, capsys, flags):
    # with either column "a" dropped, two features would be left for the
    # two-feature model; the flag names the column, so neither is guessed
    (workdir / "data.csv").write_text("a,a,b,y\n-1.0,0.5,0.1,1.0\n")
    assert main([*_PG2[:1], *_model_arg(workdir), *_PG2[1:], *flags]) == 3
    assert capsys.readouterr().err == (
        f"pg2: error: {workdir / 'data.csv'}: more than one column named 'a'\n"
    )


def _chain_files(tmp_path, depth, x0):
    """A one-tree, one-feature chain model: split k sends x < k to a leaf of
    value 1 and x >= k on down the chain, whose last leaf has value 0."""
    split = '{"feature": 0, "threshold": %d, "left": {"value": 1.0}, "right": '
    (tmp_path / "model.json").write_text(
        '{"num_features": 1, "trees": ['
        + "".join(split % k for k in range(depth))
        + '{"value": 0.0}' + "}" * depth + "]}"
    )
    (tmp_path / "data.csv").write_text(f"a\n{x0}\n")
    return ["pg2", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "data.csv"),
            "--point-index", "0", "--features", "0", "--sigma", "1.0"]


def test_deep_chain_model(tmp_path, capsys):
    # x sits on the last threshold, so the gap is 1 exactly when the noise
    # is negative
    assert main(_chain_files(tmp_path, 600, 599.0)) == 0
    assert capsys.readouterr().out == "0.500000000\n"


def test_too_deeply_nested_model_is_a_format_error(tmp_path, capsys):
    assert main(_chain_files(tmp_path, 2000, 0.0)) == 3
    assert "nested too deeply" in capsys.readouterr().err


_BOM = "\ufeff"  # the UTF-8 byte-order mark that Excel's "CSV UTF-8" writes first


def test_a_csv_with_a_byte_order_mark_names_its_first_column(workdir, capsys):
    (workdir / "data.csv").write_text(_BOM + "y,a,b\n1.0,-1.0,0.5\n0.0,0.5,-0.3\n",
                                      encoding="utf-8")
    rc = main(["pg2", *_model_arg(workdir), "--label-column", "y", "--point-index", "0",
               "--features", "0", "--sigma", "1.0", "--method", "exact"])
    assert rc == 0
    assert capsys.readouterr().out == "0.158655254\n"


def test_a_model_with_a_byte_order_mark_loads(workdir, capsys):
    model = workdir / "model.json"
    model.write_text(_BOM + model.read_text(encoding="utf-8"), encoding="utf-8")
    rc = main(["pg2", *_model_arg(workdir), "--point-index", "0", "--features", "0",
               "--sigma", "1.0", "--method", "exact"])
    assert rc == 0
    assert capsys.readouterr().out == "0.158655254\n"


_TABLES_BUILT = """
import sys
import predgap.cli
from predgap import normal

# the process pool's modules load only when a benchmark starts a pool
assert not {"multiprocessing", "concurrent.futures"} & set(sys.modules)

def built():
    return normal._cdf_table.cache_info().currsize, normal._quantile_tables.cache_info().currsize

assert built() == (0, 0), built()
rc = predgap.cli.main(["pg2", "--model", sys.argv[1], "--data", sys.argv[2], "--point-index", "0",
                       "--features", "0,1", "--sigma", "0.5", "--method", sys.argv[3]])
assert rc == 0
print(*built())
"""


@pytest.mark.parametrize("method, built", [("exact", "1 0"), ("qmc", "0 1")])
def test_importing_builds_no_table_and_a_query_builds_its_own(workdir, method, built):
    # the normal CDF and quantile tables are built on first use, so a
    # process pays only for the one its method evaluates; importing the CLI
    # loads no process-pool module either
    src = str(Path(pg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", _TABLES_BUILT, str(workdir / "model.json"),
         str(workdir / "data.csv"), method],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == built


def test_exit_code_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["pg2", "--bogus-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("columns", ["60", "200"])
def test_help_text_equals_the_default_formatters(monkeypatch, columns):
    # build_parser reads the terminal width once and hands it to every
    # parser; each text equals what argparse's default HelpFormatter, which
    # reads the width on every call, makes of the same parser
    monkeypatch.setenv("COLUMNS", columns)
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsers = [parser, *commands.choices.values()]
    assert list(commands.choices) == ["pg2", "rank", "benchmark", "eval", "convert-model"]
    shared = [(p.format_help(), p.format_usage()) for p in parsers]
    for p in parsers:
        p.formatter_class = argparse.HelpFormatter
    assert [(p.format_help(), p.format_usage()) for p in parsers] == shared


_COMMAND_NAMES = ["pg2", "rank", "benchmark", "eval", "convert-model"]


@pytest.mark.parametrize("columns", ["60", "120"])
@pytest.mark.parametrize(
    "argv",
    [[], ["--help"], ["--version"], ["nosuch"]]
    + [[name, "--help"] for name in _COMMAND_NAMES]
    + [[name] for name in _COMMAND_NAMES]
    + [["eval", "--model", "m", "--data", "d", "--metric", "bad"], ["pg2", "--iter", "5"],
       ["rank", "--model", "m", "--data", "d", "--bogus"]],
    ids=lambda argv: "_".join(argv) or "no-arguments",
)
def test_main_prints_what_the_full_parser_prints(monkeypatch, columns, argv):
    # main builds only the named subcommand's arguments; its help, usage and
    # error texts and its exit code are the full parser's
    monkeypatch.setenv("COLUMNS", columns)

    def run(parse):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
        return out.getvalue(), err.getvalue(), exc.value.code

    assert run(main) == run(build_parser().parse_args)


@pytest.mark.parametrize("method", ["mc", "qmc"])
def test_noise_beyond_the_float_range_exits_4(workdir, capsys, method):
    # sigma = 1e308 is a valid Gaussian, but x + noise overflows for some
    # draws: the samplers name the feature and raise no overflow warning
    rc = main(["pg2", *_model_arg(workdir), "--point-index", "0", "--features", "0",
               "--sigma", "1e308", "--method", method, "--iterations", "500"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("pg2: error: perturbed feature 0 ")
    assert "Traceback" not in err and "RuntimeWarning" not in err


def test_exit_code_numeric_domain(workdir, monkeypatch, capsys):
    import predgap.cli as cli_mod

    def boom(args):
        raise NumericDomainError("synthetic")

    # build_parser looks the command handler up at call time
    monkeypatch.setattr(cli_mod, "cmd_pg2", boom)
    rc = main(["pg2", *_model_arg(workdir), "--point-index", "0", "--sigma", "1.0"])
    assert rc == 4
    assert "synthetic" in capsys.readouterr().err
    assert exit_code_for(NumericDomainError("x")) == 4


# The file each fuzzed flag reads, and a command that reads it beside the
# valid model and data of ``_fuzz_dir``: {path} is the fuzzed file, {d} that
# directory.
_FUZZ_INPUTS = ["--model", "{d}/model.json", "--data", "{d}/data.csv"]
_FUZZED_FLAGS = [
    ("model.json", ["pg2", "--model", "{path}", "--data", "{d}/data.csv", *_PG2[1:]]),
    ("data.csv", ["pg2", "--model", "{d}/model.json", "--data", "{path}", *_PG2[1:]]),
    ("dist.json", [_DIST[0], *_FUZZ_INPUTS, *_DIST[1:]]),
    ("rankings.csv", [_RANKINGS[0], *_FUZZ_INPUTS, *_RANKINGS[1:]]),
    ("attributions.csv", [_ATTRIBUTIONS[0], *_FUZZ_INPUTS, *_ATTRIBUTIONS[1:]]),
    ("attributions.json", [_ATTRIBUTIONS[0], *_FUZZ_INPUTS, *_ATTRIBUTIONS[1:]]),
    ("dump.json", ["convert-model", "--input", "{path}", "--output", "{d}/converted.json"]),
]
_JSON_KEYS = st.sampled_from(
    ["num_features", "trees", "feature", "threshold", "left", "right", "value", "kind",
     "sigma", "half_width", "points", "nodeid", "split", "split_condition", "yes", "no",
     "children", "leaf"]
) | st.text(max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4)
    | st.sampled_from([10**400, 2**64]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_KEYS, inner, max_size=4),
    max_leaves=8,
)
_TABLE = st.lists(st.lists(_JSON, max_size=2), max_size=3)  # the shape of most inputs
_CSV = st.lists(
    st.lists(st.sampled_from(["0", "1", "-0.5", "a", "b", "nan", "", '"', "1e999"]),
             max_size=3).map(",".join),
    max_size=5,
).map("\n".join)
_CONTENTS = (
    st.binary(max_size=40)
    | (_JSON | _TABLE).map(lambda obj: json.dumps(obj).encode())
    | _CSV.map(str.encode)
)


@pytest.fixture(scope="module")
def _fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    pg.save_ensemble(canonical_ensemble(num_features=2), root / "model.json")
    (root / "data.csv").write_text("a,b\n-1.0,0.5\n0.5,-0.3\n")
    return root


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_FUZZED_FLAGS), _CONTENTS)
def test_cli_file_contents_never_escape(_fuzz_dir, flag, content):
    name, argv = flag
    path = _fuzz_dir / "fuzzed" / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(content)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main([a.format(path=path, d=_fuzz_dir) for a in argv])
    assert rc in (0, 3, 4)
    assert rc == 0 or stderr.getvalue().startswith("pg2: error: ")

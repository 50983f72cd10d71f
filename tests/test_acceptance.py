"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The heavyweight fixtures (oracle trials, sampler error sweeps) are
shared between the criteria that assert on them.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import predgap as pg
from predgap.metrics import nmae

from support import (
    CANONICAL_PG2,
    canonical_ensemble,
    fixture_ensemble,
    lattice_point,
    perfect_tree,
    random_discrete,
    random_ensemble,
)


def _pass(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


# ---------------------------------------------------------------------------
# criteria 1 and 3 share the randomized oracle trials
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle_trials():
    rng = np.random.default_rng(20240815)
    trials = []
    started = time.perf_counter()
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        ensemble = random_ensemble(
            rng,
            num_features=d,
            num_trees=int(rng.integers(1, 6)),
            max_depth=int(rng.integers(1, 5)),
        )
        spec = pg.PerturbationSpec(
            per_feature=tuple(random_discrete(rng, max_points=4) for _ in range(d))
        )
        x = lattice_point(rng, d)
        k = int(rng.integers(0, d + 1))
        subset = tuple(sorted(int(q) for q in rng.choice(d, size=k, replace=False)))
        exact = pg.pg2_exact(ensemble, x, subset, spec)
        brute = pg.pg2_brute_force(ensemble, x, subset, spec)
        table = pg.leaf_pair_probabilities(ensemble, x, subset, spec)
        trials.append(
            {
                "exact": exact,
                "brute": brute,
                "tree_sums": table.tree_probability_sums(),
                "pair_sums": list(table.cross_tree_pair_sums().values()),
            }
        )
    return trials, time.perf_counter() - started


def test_criterion_01_oracle_equivalence(oracle_trials):
    trials, elapsed = oracle_trials
    assert len(trials) == 1000
    for t in trials:
        denom = max(abs(t["exact"]), abs(t["brute"]))
        if denom > 0.0:
            assert abs(t["exact"] - t["brute"]) / denom <= 1e-9
        else:
            assert t["exact"] == t["brute"] == 0.0
    assert elapsed < 60.0
    _pass(1, "oracle equivalence over 1000 randomized trials")


def test_criterion_02_canonical_analytic_case():
    ensemble = canonical_ensemble()
    spec = pg.PerturbationSpec.gaussian(1.0, 1)
    value = pg.pg2_exact(ensemble, [-1.0], [0], spec)
    assert value == pytest.approx(0.158655254, abs=1e-6)
    assert value == pytest.approx(CANONICAL_PG2, abs=1e-12)
    _pass(2, "canonical depth-1 value 1 - Phi(1)")


def test_criterion_03_probability_normalization(oracle_trials):
    trials, _ = oracle_trials
    for t in trials:
        for s in t["tree_sums"]:
            assert s == pytest.approx(1.0, abs=1e-9)
        for s in t["pair_sums"]:
            assert s == pytest.approx(1.0, abs=1e-9)
    _pass(3, "leaf and pair probability sums equal 1")


# ---------------------------------------------------------------------------
# criteria 4, 5, 6 share the benchmark fixture
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sampler_errors():
    ensemble, pairs = fixture_ensemble()
    spec = pg.PerturbationSpec.gaussian(0.3, 8)
    truth = np.array([pg.pg2_exact(ensemble, x, s, spec) for x, s in pairs])
    started = time.perf_counter()
    grid = (100, 1000, 10000)
    mc_err = {}
    for iterations in grid:
        scores = []
        for seed in range(50):
            estimates = np.array(
                [
                    pg.pg2_sampled(
                        ensemble, x, s, spec,
                        pg.EstimatorConfig("mc", iterations, seed=seed * 1000 + k),
                    )
                    for k, (x, s) in enumerate(pairs)
                ]
            )
            scores.append(nmae(truth, estimates))
        mc_err[iterations] = float(np.mean(scores))
    qmc_err = {
        iterations: nmae(
            truth,
            np.array(
                [
                    pg.pg2_sampled(ensemble, x, s, spec, pg.EstimatorConfig("qmc", iterations))
                    for x, s in pairs
                ]
            ),
        )
        for iterations in grid
    }
    elapsed = time.perf_counter() - started
    return {
        "ensemble": ensemble,
        "pairs": pairs,
        "spec": spec,
        "truth": truth,
        "mc": mc_err,
        "qmc": qmc_err,
        "elapsed": elapsed,
    }


def test_criterion_04_mc_convergence_trend(sampler_errors):
    mc = sampler_errors["mc"]
    assert mc[100] > mc[1000] > mc[10000]
    assert mc[10000] <= mc[100] / 5
    assert sampler_errors["elapsed"] < 300.0
    _pass(4, "seed-averaged MC error strictly decreases")


def test_criterion_05_qmc_dominance(sampler_errors):
    for iterations in (1000, 10000):
        assert sampler_errors["qmc"][iterations] <= sampler_errors["mc"][iterations]
    _pass(5, "QMC error at most MC error for i >= 1000")


def test_criterion_06_converged_sampler_agreement(sampler_errors):
    ensemble = sampler_errors["ensemble"]
    pairs = sampler_errors["pairs"]
    spec = sampler_errors["spec"]
    truth = sampler_errors["truth"]
    scores = []
    for seed in range(20):
        estimates = np.array(
            [
                pg.pg2_sampled(
                    ensemble, x, s, spec,
                    pg.EstimatorConfig("mc", 35000, seed=7777 + seed * 31 + k),
                )
                for k, (x, s) in enumerate(pairs)
            ]
        )
        scores.append(nmae(truth, estimates))
    assert float(np.mean(scores)) <= 0.02
    _pass(6, "NMAE against MC at 35000 iterations stays within 0.02")


def test_criterion_07_quadratic_scaling():
    rng = np.random.default_rng(7)
    d = 8
    base = tuple(perfect_tree(rng, d, 4) for _ in range(6))
    extra = tuple(perfect_tree(rng, d, 4) for _ in range(6))
    small = pg.TreeEnsemble(trees=base, num_features=d)
    large = pg.TreeEnsemble(trees=base + extra, num_features=d)
    assert large.node_count == 2 * small.node_count
    spec = pg.PerturbationSpec.gaussian(0.3, d)
    x = rng.normal(size=d)
    subset = (0, 2, 5, 7)

    def timed(ensemble):
        t0 = time.perf_counter()
        pg.pg2_exact(ensemble, x, subset, spec)
        return time.perf_counter() - t0

    timed(small)  # warm-up
    timed(large)
    # Calls take milliseconds, so interleave many of them: a burst of
    # machine load then hits both sizes alike and the medians skip it.
    times = [(timed(small), timed(large)) for _ in range(21)]
    small_times, large_times = zip(*times)
    ratio = statistics.median(large_times) / statistics.median(small_times)
    assert 2.5 <= ratio <= 6.0
    _pass(7, f"doubling nodes scales wall time by {ratio:.2f}")


def test_criterion_08_greedy_ranking_sanity():
    rng = np.random.default_rng(55)
    wins = 0
    total = 100
    for _ in range(total):
        d = int(rng.integers(3, 6))
        ensemble = random_ensemble(
            rng, num_features=d, num_trees=int(rng.integers(1, 4)), max_depth=3,
            lattice_p=0.0,
        )
        spec = pg.PerturbationSpec.gaussian(0.7, d)
        xs = rng.normal(size=(2, d))
        greedy_scores, reversed_scores, random_scores = [], [], []
        for x in xs:
            ranking = pg.greedy_pg2_ranking(ensemble, x, spec)
            greedy_scores.append(pg.pgi2(ensemble, x, ranking, spec))
            reversed_scores.append(pg.pgi2(ensemble, x, ranking.reversed(), spec))
            draws = [
                pg.pgi2(
                    ensemble, x,
                    pg.Ranking(order=tuple(int(i) for i in rng.permutation(d))),
                    spec,
                )
                for _ in range(10)
            ]
            random_scores.append(float(np.mean(draws)))
        mg = float(np.mean(greedy_scores))
        if mg >= float(np.mean(reversed_scores)) and mg >= float(np.mean(random_scores)):
            wins += 1
    assert wins >= 95
    _pass(8, f"greedy beats reversed and random rankings in {wins}/100 ensembles")


def test_criterion_09_topk_agreement_machinery():
    identical = [pg.Ranking(order=(2, 0, 1, 3))] * 5
    for k in range(1, 5):
        assert pg.topk_agreement(identical, identical, k) == 1.0
    a = [pg.Ranking(order=(0, 1, 2))]
    b = [pg.Ranking(order=(2, 1, 0))]
    assert pg.topk_agreement(a, b, 1) == 0.0

    rng = np.random.default_rng(99)
    d = 6
    lhs = [pg.Ranking(order=tuple(int(i) for i in rng.permutation(d))) for _ in range(1000)]
    rhs = [pg.Ranking(order=tuple(int(i) for i in rng.permutation(d))) for _ in range(1000)]
    for k in (1, 2, 3, 6):
        expected = sum(
            1 for x, y in zip(lhs, rhs) if frozenset(x.order[:k]) == frozenset(y.order[:k])
        ) / 1000
        assert pg.topk_agreement(lhs, rhs, k) == expected
    _pass(9, "top-k agreement matches the direct set-comparison oracle")


# ---------------------------------------------------------------------------
# criterion 10: CLI determinism
# ---------------------------------------------------------------------------

def _run_cli(args, cwd):
    # The child runs in ``cwd``, where a relative PYTHONPATH (such as ``src``)
    # no longer resolves, so hand it the absolute directory of the package
    # this test imported, ahead of any inherited entries.
    pkg_root = str(Path(pg.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    proc = subprocess.run(
        [sys.executable, "-m", "predgap", *args],
        capture_output=True,
        cwd=cwd,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_10_cli_determinism(tmp_path):
    model = tmp_path / "model.json"
    rng = np.random.default_rng(5)
    pg.save_ensemble(random_ensemble(rng, num_features=3, num_trees=3, max_depth=3), model)
    data = tmp_path / "data.csv"
    data.write_text(
        "a,b,c\n" + "\n".join(
            ",".join(f"{v:.6f}" for v in rng.normal(size=3)) for _ in range(5)
        ) + "\n"
    )
    commands = {
        "pg2": ["pg2", "--model", str(model), "--data", str(data), "--point-index", "1",
                "--features", "0,2", "--sigma", "0.5", "--method", "mc",
                "--iterations", "500", "--seed", "11"],
        "rank": ["rank", "--model", str(model), "--data", str(data), "--sigma", "0.5"],
        "eval": ["eval", "--model", str(model), "--data", str(data),
                 "--method", "greedy-pg2", "--sigma-rank", "0.5",
                 "--metric", "randomize-rmse", "--k", "1", "--samples", "32",
                 "--seed", "4"],
    }
    for name, argv in commands.items():
        outputs = {_run_cli(argv, tmp_path) for _ in range(3)}
        assert len(outputs) == 1, f"{name} output varies across runs"

    bench = ["benchmark", "--model", str(model), "--data", str(data),
             "--sigmas", "0.4", "--iteration-grid", "100,400", "--pairs", "4",
             "--seed", "2", "--out", "report.json"]
    blobs = set()
    for workers in ("1", "4", "1"):
        _run_cli([*bench, "--workers", workers], tmp_path)
        blobs.add((tmp_path / "report.json").read_bytes())
    assert len(blobs) == 1, "benchmark report varies across worker-pool sizes"
    report = json.loads(blobs.pop())
    assert report["entries"], "benchmark produced no entries"
    _pass(10, "CLI outputs byte-identical across runs and worker pools")

"""The exact squared-gap engine against hand derivations and the enumerator."""

import json
from pathlib import Path

import numpy as np
import pytest

import predgap as pg
from predgap.errors import ValidationError
from predgap.model import ensemble_from_dict

from support import (
    CANONICAL_PG2,
    PHI_1,
    canonical_ensemble,
    depth1_tree,
    lattice_point,
    leaf,
    random_discrete,
    random_ensemble,
    split,
)


def test_single_leaf_table():
    ens = pg.TreeEnsemble(trees=(pg.Tree(leaf(3.0)),), num_features=2)
    spec = pg.PerturbationSpec.gaussian(1.0, 2)
    table = pg.leaf_pair_probabilities(ens, [0.0, 0.0], [0, 1], spec)
    assert table.leaf_prob == {(0, 0): 1.0}
    assert table.pair_prob[((0, 0), (0, 0))] == 1.0


def test_depth1_leaf_probabilities():
    ens = canonical_ensemble()
    spec = pg.PerturbationSpec.gaussian(1.0, 1)
    table = pg.leaf_pair_probabilities(ens, [-1.0], [0], spec)
    # Pr[x0 + delta < 0] = Pr[delta < 1] = Phi(1)
    assert table.leaf_prob[(0, 1)] == pytest.approx(PHI_1, abs=1e-12)
    assert table.leaf_prob[(0, 2)] == pytest.approx(1.0 - PHI_1, abs=1e-12)


def test_depth1_no_perturbation_is_pure_indicator():
    ens = canonical_ensemble()
    spec = pg.PerturbationSpec.gaussian(1.0, 1)
    table = pg.leaf_pair_probabilities(ens, [-1.0], [], spec)
    assert table.leaf_prob[(0, 1)] == 1.0
    assert table.leaf_prob[(0, 2)] == 0.0


def test_pg2_exact_canonical_value():
    ens = canonical_ensemble()
    spec = pg.PerturbationSpec.gaussian(1.0, 1)
    assert pg.pg2_exact(ens, [-1.0], [0], spec) == pytest.approx(CANONICAL_PG2, abs=1e-6)


def test_pg2_exact_empty_set_is_exact_zero():
    rng = np.random.default_rng(0)
    ens = random_ensemble(rng, num_features=4, num_trees=3, max_depth=3)
    spec = pg.PerturbationSpec.gaussian(1.0, 4)
    assert pg.pg2_exact(ens, rng.normal(size=4), [], spec) == 0.0


def test_pg2_exact_uniform_hand_value():
    # uniform(half_width=2) at x0=-1: crossing prob = Pr[delta >= 1] = 1/4
    ens = canonical_ensemble()
    spec = pg.PerturbationSpec.same(pg.Uniform(2.0), 1)
    assert pg.pg2_exact(ens, [-1.0], [0], spec) == pytest.approx(0.25, abs=1e-12)


def test_pg2_two_tree_discrete_example():
    tree = depth1_tree()
    ens = pg.TreeEnsemble(trees=(tree, depth1_tree()), num_features=1)
    spec = pg.PerturbationSpec.same(pg.Discrete(points=((-1.0, 0.5), (2.0, 0.5))), 1)
    # the two trees flip together with prob 0.5, gap 2 -> PG2 = 0.5 * 4
    assert pg.pg2_exact(ens, [-1.0], [0], spec) == pytest.approx(2.0, abs=1e-12)
    assert pg.pg2_brute_force(ens, [-1.0], [0], spec) == 2.0


def test_brute_force_empty_set():
    ens = canonical_ensemble()
    spec = pg.PerturbationSpec.same(pg.Discrete(points=((0.0, 1.0),)), 1)
    assert pg.pg2_brute_force(ens, [-1.0], [], spec) == 0.0


def test_brute_force_requires_discrete():
    ens = canonical_ensemble()
    spec = pg.PerturbationSpec.gaussian(1.0, 1)
    with pytest.raises(ValidationError, match="discrete"):
        pg.pg2_brute_force(ens, [-1.0], [0], spec)


def test_brute_force_combination_guard():
    d = 4
    rng = np.random.default_rng(1)
    ens = random_ensemble(rng, num_features=d, num_trees=1, max_depth=2)
    dist = pg.Discrete(points=tuple((float(k), 0.1) for k in range(10)))
    spec = pg.PerturbationSpec.same(dist, d)
    with pytest.raises(ValidationError, match="guard"):
        pg.pg2_brute_force(ens, np.zeros(d), range(d), spec, max_combinations=100)


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 7))
        ens = random_ensemble(
            rng, num_features=d, num_trees=int(rng.integers(1, 6)),
            max_depth=int(rng.integers(1, 5)),
        )
        spec = pg.PerturbationSpec(
            per_feature=tuple(random_discrete(rng) for _ in range(d))
        )
        x = lattice_point(rng, d)
        k = int(rng.integers(0, d + 1))
        S = tuple(sorted(int(q) for q in rng.choice(d, size=k, replace=False)))
        e = pg.pg2_exact(ens, x, S, spec)
        b = pg.pg2_brute_force(ens, x, S, spec)
        denom = max(abs(e), abs(b))
        if denom > 0:
            worst = max(worst, abs(e - b) / denom)
    assert worst <= 1e-9


def test_probability_normalization():
    rng = np.random.default_rng(31)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        ens = random_ensemble(rng, num_features=d, num_trees=3, max_depth=3)
        spec = pg.PerturbationSpec(
            per_feature=tuple(random_discrete(rng) for _ in range(d))
        )
        S = tuple(sorted(int(q) for q in rng.choice(d, size=2, replace=False)))
        table = pg.leaf_pair_probabilities(ens, lattice_point(rng, d), S, spec)
        for s in table.tree_probability_sums():
            assert s == pytest.approx(1.0, abs=1e-9)
        for s in table.cross_tree_pair_sums().values():
            assert s == pytest.approx(1.0, abs=1e-9)


def test_unused_features_give_exact_zero():
    # model splits only on feature 0; perturbing feature 1 cannot move it
    ens = canonical_ensemble(num_features=2)
    spec = pg.PerturbationSpec.gaussian(5.0, 2)
    assert pg.pg2_exact(ens, [-1.0, 0.3], [1], spec) == 0.0


def test_off_path_single_tree_gives_exact_zero():
    # the perturbed feature appears in the tree but not on any path the
    # perturbation can reroute: x routes at a non-perturbed split first
    left = split(1, 0.0, leaf(1.0), leaf(2.0))
    root = split(0, 0.0, leaf(-1.0), left)
    ens = pg.TreeEnsemble(trees=(pg.Tree(root),), num_features=2)
    spec = pg.PerturbationSpec.gaussian(3.0, 2)
    # x goes left at the root (feature 0, unperturbed) to a plain leaf
    assert pg.pg2_exact(ens, [-1.0, 0.0], [1], spec) == 0.0


def test_pg2_nondecreasing_in_sigma():
    ens = canonical_ensemble()
    values = []
    for sigma in np.linspace(0.05, 2.0, 40):
        spec = pg.PerturbationSpec.gaussian(float(sigma), 1)
        values.append(pg.pg2_exact(ens, [-1.0], [0], spec))
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_query_validation():
    ens = canonical_ensemble()
    spec = pg.PerturbationSpec.gaussian(1.0, 1)
    with pytest.raises(ValidationError):
        pg.pg2_exact(ens, [-1.0, 2.0], [0], spec)      # wrong dimension
    with pytest.raises(ValidationError):
        pg.pg2_exact(ens, [-1.0], [1], spec)           # feature outside model
    sparse = pg.PerturbationSpec(per_feature=(None,))
    with pytest.raises(ValidationError):
        pg.pg2_exact(ens, [-1.0], [0], sparse)         # no distribution


def test_threshold_tie_queries_match_oracle():
    # x exactly on thresholds plus offsets landing exactly on thresholds
    ens = pg.TreeEnsemble(trees=(depth1_tree(threshold=1.0),), num_features=1)
    spec = pg.PerturbationSpec.same(
        pg.Discrete(points=((-1.0, 0.25), (0.0, 0.25), (1.0, 0.5))), 1
    )
    for x0 in (0.0, 1.0, 2.0):
        e = pg.pg2_exact(ens, [x0], [0], spec)
        b = pg.pg2_brute_force(ens, [x0], [0], spec)
        assert e == pytest.approx(b, abs=1e-15)


def test_gaussian_and_uniform_goldens():
    # Values frozen from the recursive double-traversal engine that preceded
    # the leaf-box engine: the benchmark fixture ensemble at its query pairs,
    # and a random lattice-threshold ensemble at lattice points, under
    # gaussian, uniform and mixed per-feature noise.
    golden = json.loads((Path(__file__).parent / "golden_exact.json").read_text())
    models = {name: ensemble_from_dict(obj) for name, obj in golden["models"].items()}
    failures = []
    for n, case in enumerate(golden["cases"]):
        ens = models[case["model"]]
        spec = pg.spec_from_config(case["dist"], ens.num_features)
        x, feats, want = np.array(case["x"]), case["features"], case["pg2"]
        got = pg.pg2_exact(ens, x, feats, spec)
        # Interval probabilities are differences of CDF values near 1, so
        # allow their rounding on top of the relative tolerance.
        spread = sum(
            sum(abs(v - tree.predict_one(x)) for v in tree.value[tree.feature < 0])
            for tree in ens.trees
        )
        tol = 1e-9 * abs(want) + 1e-15 * len(feats) * spread**2
        if not abs(got - want) <= tol:
            failures.append(f"case {n}: {got!r} vs golden {want!r}")
    assert not failures, failures

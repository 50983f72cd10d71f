"""PGI2 aggregation, NMAE, and the feature-randomization metric."""

import math

import numpy as np
import pytest

import predgap as pg
from predgap.errors import NumericDomainError, ValidationError

from support import (
    CANONICAL_PG2,
    canonical_ensemble,
    full_width_xi_random,
    lattice_point,
    leaf,
    random_ensemble,
)


def _dataset(matrix, names=None):
    matrix = np.asarray(matrix, dtype=np.float64)
    names = names or tuple(f"f{j}" for j in range(matrix.shape[1]))
    return pg.Dataset(values=matrix, feature_names=tuple(names))


def test_pgi2_single_feature():
    ens = canonical_ensemble()
    spec = pg.PerturbationSpec.gaussian(1.0, 1)
    ranking = pg.Ranking(order=(0,))
    assert pg.pgi2(ens, [-1.0], ranking, spec) == pg.pg2_exact(ens, [-1.0], [0], spec)


def test_pgi2_constant_model_is_zero():
    ens = pg.TreeEnsemble(trees=(pg.Tree(leaf(4.2)),), num_features=3)
    spec = pg.PerturbationSpec.gaussian(1.0, 3)
    assert pg.pgi2(ens, [0.0, 1.0, 2.0], pg.Ranking(order=(0, 1, 2)), spec) == 0.0


def test_pgi2_inert_second_feature():
    # feature 1 is unused, so both prefixes give the same squared gap
    ens = canonical_ensemble(num_features=2)
    spec = pg.PerturbationSpec.gaussian(1.0, 2)
    value = pg.pgi2(ens, [-1.0, 0.7], pg.Ranking(order=(0, 1)), spec)
    assert value == pytest.approx(CANONICAL_PG2, abs=1e-9)


def test_pgi2_prefix_values_survive_inert_extension():
    # widening the model with unused features must not change the squared
    # gaps of the original prefixes, so the un-normalized sum is preserved
    ens = canonical_ensemble(num_features=2)
    wide = pg.TreeEnsemble(trees=ens.trees, num_features=4)
    spec2 = pg.PerturbationSpec.gaussian(1.0, 2)
    spec4 = pg.PerturbationSpec.gaussian(1.0, 4)
    x2, x4 = [-1.0, 0.7], [-1.0, 0.7, 5.0, -3.0]
    narrow_sum = sum(
        pg.pg2_exact(ens, x2, (0, 1)[:k], spec2) for k in (1, 2)
    )
    wide_sum = sum(
        pg.pg2_exact(wide, x4, (0, 1)[:k], spec4) for k in (1, 2)
    )
    assert wide_sum == pytest.approx(narrow_sum, rel=1e-12)


def test_mean_pgi2_singleton_and_average():
    ens = canonical_ensemble(num_features=2)
    spec = pg.PerturbationSpec.gaussian(1.0, 2)
    data = _dataset([[-1.0, 0.0], [0.5, 1.0]])
    rankings = [pg.Ranking(order=(0, 1)), pg.Ranking(order=(1, 0))]
    a = pg.pgi2(ens, data.instance(0), rankings[0], spec)
    b = pg.pgi2(ens, data.instance(1), rankings[1], spec)
    single = _dataset([[-1.0, 0.0]])
    assert pg.mean_pgi2(ens, single, rankings[:1], spec) == a
    assert pg.mean_pgi2(ens, data, rankings, spec) == (a + b) / 2


def test_mean_pgi2_alignment_error():
    ens = canonical_ensemble(num_features=2)
    spec = pg.PerturbationSpec.gaussian(1.0, 2)
    with pytest.raises(ValidationError):
        pg.mean_pgi2(ens, _dataset([[0.0, 0.0]]), [], spec)


def test_metrics_reject_a_dataset_without_instances():
    # the per-instance mean over zero rows used to divide by zero
    ens = canonical_ensemble(num_features=2)
    empty = _dataset(np.empty((0, 2)))
    spec = pg.PerturbationSpec.gaussian(1.0, 2)
    with pytest.raises(ValidationError, match="no instances"):
        pg.mean_pgi2(ens, empty, [], spec)
    with pytest.raises(ValidationError, match="no instances"):
        pg.randomization_rmse(ens, empty, [], k=1)


def test_nmae_examples():
    assert pg.nmae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert pg.nmae([1.0, 2.0], [2.0, 2.0]) == pytest.approx(1 / 3)
    assert pg.nmae([0.0, 1.0], [0.5, 1.0]) == pytest.approx(0.5)


def test_nmae_scale_invariance():
    rng = np.random.default_rng(2)
    y = rng.normal(size=20)
    y_hat = y + rng.normal(scale=0.1, size=20)
    for c in (3.0, -0.25):
        assert pg.nmae(c * y, c * y_hat) == pytest.approx(pg.nmae(y, y_hat), rel=1e-12)


def test_nmae_all_zero_truth_errors():
    with pytest.raises(NumericDomainError, match="zero"):
        pg.nmae([0.0, 0.0], [1.0, 2.0])


def test_xi_random_keep_all_is_exact_prediction():
    ens = canonical_ensemble(num_features=2)
    data = _dataset(np.random.default_rng(0).normal(size=(8, 2)))
    x = [-1.0, 0.3]
    assert pg.xi_random(ens, x, [0, 1], data, samples=3, seed=0) == ens.predict(x)
    # a kept feature must be an integer: 0.9 is not truncated to feature 0
    for bad in ([0.9, 1], [True, 0]):
        with pytest.raises(ValidationError, match="integer"):
            pg.xi_random(ens, x, bad, data, samples=3, seed=0)


def test_xi_random_constant_model():
    ens = pg.TreeEnsemble(trees=(pg.Tree(leaf(2.5)),), num_features=2)
    data = _dataset(np.random.default_rng(1).normal(size=(16, 2)))
    value = pg.xi_random(ens, [0.0, 0.0], [], data, samples=50, seed=3)
    assert value == pytest.approx(2.5, abs=1e-12)


def test_xi_random_balanced_column():
    # half the empirical column falls left of the split, half right
    ens = canonical_ensemble()
    column = np.array([[-2.0], [-1.0], [-0.5], [-0.1], [0.1], [0.5], [1.0], [2.0]])
    data = _dataset(column)
    value = pg.xi_random(ens, [-1.0], [], data, samples=4000, seed=11)
    # binomial tolerance: ~5 sigma at n = 4000 is about 0.04
    assert value == pytest.approx(0.5, abs=0.04)


def test_xi_random_deterministic():
    ens = canonical_ensemble(num_features=2)
    data = _dataset(np.random.default_rng(4).normal(size=(12, 2)))
    a = pg.xi_random(ens, [0.0, 0.0], [1], data, samples=64, seed=9)
    b = pg.xi_random(ens, [0.0, 0.0], [1], data, samples=64, seed=9)
    assert a == b


def test_xi_random_equals_the_full_width_walk_bit_for_bit():
    # drawing only the randomized columns and walking x-conditioned trees
    # gives the floats of the whole ensemble walked on n full copies of x
    rng = np.random.default_rng(5)
    d = 5
    data = _dataset(np.round(rng.normal(size=(30, d)), 1))
    for lattice_p in (0.6, 1.0):
        ens = random_ensemble(rng, num_features=d, num_trees=6, max_depth=5, lattice_p=lattice_p)
        for keep in ([], [2], [0, 3, 3], [4, 1, 0, 2], list(range(d))):
            x = lattice_point(rng, d)
            for seed in (0, 17, np.random.SeedSequence(9)):
                want = full_width_xi_random(ens, x, keep, data, 200, seed)
                assert pg.xi_random(ens, x, keep, data, samples=200, seed=seed) == want


def test_xi_random_rejects_a_query_of_the_wrong_length():
    ens = canonical_ensemble(num_features=2)
    data = _dataset(np.random.default_rng(2).normal(size=(4, 2)))
    for keep in ([0], [0, 1]):
        with pytest.raises(ValidationError, match="length 2"):
            pg.xi_random(ens, [0.1], keep, data)


def test_metric_seeds_must_be_non_negative_integers():
    ens = canonical_ensemble(num_features=2)
    data = _dataset(np.random.default_rng(3).normal(size=(4, 2)))
    rankings = [pg.Ranking(order=(0, 1))] * 4
    for seed in (-1, 1.5, True):
        with pytest.raises(ValidationError, match="seed"):
            pg.xi_random(ens, [0.0, 0.0], [1], data, samples=4, seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            pg.randomization_rmse(ens, data, rankings, k=1, samples=4, seed=seed)


def test_randomization_rmse_k0_and_constant_model():
    ens = canonical_ensemble(num_features=2)
    data = _dataset(np.random.default_rng(5).normal(size=(6, 2)))
    rankings = [pg.Ranking(order=(0, 1))] * 6
    assert pg.randomization_rmse(ens, data, rankings, k=0, samples=16, seed=1) == 0.0
    const = pg.TreeEnsemble(trees=(pg.Tree(leaf(1.0)),), num_features=2)
    assert pg.randomization_rmse(const, data, rankings, k=2, samples=16, seed=1) == pytest.approx(
        0.0, abs=1e-12
    )


def test_randomization_rmse_inert_top_feature():
    # feature 1 is unused: randomizing it cannot move predictions
    ens = canonical_ensemble(num_features=2)
    data = _dataset(np.random.default_rng(6).normal(size=(10, 2)))
    rankings = [pg.Ranking(order=(1, 0))] * 10
    value = pg.randomization_rmse(ens, data, rankings, k=1, samples=32, seed=2)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_randomization_rmse_matches_column_enumeration():
    ens = canonical_ensemble()
    column = np.array([[-2.0], [-1.0], [-0.5], [-0.1], [0.1], [0.5], [1.0], [2.0]])
    data = _dataset(column)
    rankings = [pg.Ranking(order=(0,))] * data.num_instances
    value = pg.randomization_rmse(ens, data, rankings, k=1, samples=4000, seed=7)
    # enumerating the empirical column: xi* = mean prediction = 0.5, and
    # every instance predicts 0 or 1, so the exact RMSE is 0.5
    predictions = np.array([ens.predict(row) for row in column])
    xi_star = predictions.mean()
    exact = math.sqrt(np.mean((predictions - xi_star) ** 2))
    assert exact == 0.5
    assert value == pytest.approx(exact, abs=0.02)


def test_randomization_rmse_against_labels():
    const = pg.TreeEnsemble(trees=(pg.Tree(leaf(1.0)),), num_features=1)
    data = _dataset([[0.0], [1.0]])
    rankings = [pg.Ranking(order=(0,))] * 2
    # xi is always 1.0; labels 0 and 1 give squared errors 1 and 0
    value = pg.randomization_rmse(
        const, data, rankings, k=1, samples=8, seed=0, labels=np.array([0.0, 1.0])
    )
    assert value == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_randomization_rmse_rejects_non_finite_labels():
    const = pg.TreeEnsemble(trees=(pg.Tree(leaf(1.0)),), num_features=1)
    data = _dataset([[0.0], [1.0]])
    rankings = [pg.Ranking(order=(0,))] * 2
    for labels in ([float("nan")] * 2, [0.0, float("inf")]):
        with pytest.raises(ValidationError, match="non-finite"):
            pg.randomization_rmse(const, data, rankings, k=1, samples=8, labels=labels)

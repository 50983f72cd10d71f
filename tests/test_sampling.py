"""Monte Carlo and quasi-Monte Carlo estimators against exact references."""

import numpy as np
import pytest

import predgap as pg
from predgap.errors import ValidationError

from support import (
    CANONICAL_PG2,
    canonical_ensemble,
    full_width_squared_gaps,
    lattice_point,
    perturbed_inputs_oracle,
    random_discrete,
    random_ensemble,
)


def _spec():
    return pg.PerturbationSpec.gaussian(1.0, 1)


def test_empty_set_is_zero():
    ens = canonical_ensemble()
    for method in ("mc", "qmc"):
        config = pg.EstimatorConfig(method=method, iterations=100, seed=1)
        assert pg.pg2_sampled(ens, [-1.0], [], _spec(), config) == 0.0


def test_mc_close_to_exact_at_one_million():
    ens = canonical_ensemble()
    config = pg.EstimatorConfig(method="mc", iterations=1_000_000, seed=2024)
    estimate = pg.pg2_sampled(ens, [-1.0], [0], _spec(), config)
    # ~5 standard errors of the Bernoulli estimator at p = 0.159
    assert estimate == pytest.approx(CANONICAL_PG2, abs=0.002)


def test_qmc_close_to_exact_at_2_pow_14():
    ens = canonical_ensemble()
    config = pg.EstimatorConfig(method="qmc", iterations=2 ** 14)
    estimate = pg.pg2_sampled(ens, [-1.0], [0], _spec(), config)
    assert estimate == pytest.approx(CANONICAL_PG2, abs=0.001)


def test_mc_error_decreases_with_iterations():
    ens = canonical_ensemble()
    grid = [100, 1_000, 10_000, 100_000]
    errors = []
    for iterations in grid:
        errs = []
        for seed in range(50):
            config = pg.EstimatorConfig("mc", iterations, seed=seed)
            errs.append(abs(pg.pg2_sampled(ens, [-1.0], [0], _spec(), config) - CANONICAL_PG2))
        errors.append(np.mean(errs))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    # square-root rate: two decades of iterations buy at least a factor 5
    assert errors[2] <= errors[0] / 5


def test_qmc_error_at_most_mc_error():
    ens = canonical_ensemble()
    for iterations in (1_000, 10_000):
        qmc = pg.pg2_sampled(
            ens, [-1.0], [0], _spec(), pg.EstimatorConfig("qmc", iterations)
        )
        mc_errs = [
            abs(
                pg.pg2_sampled(
                    ens, [-1.0], [0], _spec(), pg.EstimatorConfig("mc", iterations, seed=s)
                )
                - CANONICAL_PG2
            )
            for s in range(50)
        ]
        assert abs(qmc - CANONICAL_PG2) <= np.mean(mc_errs)


def test_deterministic_given_config():
    ens = canonical_ensemble()
    config = pg.EstimatorConfig("mc", 5_000, seed=77)
    a = pg.pg2_sampled(ens, [-1.0], [0], _spec(), config)
    b = pg.pg2_sampled(ens, [-1.0], [0], _spec(), config)
    assert a == b
    # qmc ignores the seed entirely
    q1 = pg.pg2_sampled(ens, [-1.0], [0], _spec(), pg.EstimatorConfig("qmc", 512, seed=1))
    q2 = pg.pg2_sampled(ens, [-1.0], [0], _spec(), pg.EstimatorConfig("qmc", 512, seed=2))
    assert q1 == q2


def test_config_validation():
    with pytest.raises(ValidationError):
        pg.EstimatorConfig(method="sobol", iterations=10)
    with pytest.raises(ValidationError):
        pg.EstimatorConfig(method="mc", iterations=0)
    for iterations in (2.5, True):
        with pytest.raises(ValidationError):
            pg.EstimatorConfig(method="mc", iterations=iterations)
    for seed in (-1, 1.5, True):
        with pytest.raises(ValidationError, match="seed"):
            pg.EstimatorConfig(method="mc", iterations=10, seed=seed)
    pg.EstimatorConfig(method="mc", iterations=np.int64(10), seed=np.int64(3))


def test_qmc_multifeature_assignment_is_ascending():
    # three perturbed features get Halton bases 2, 3, 5 in feature order, in
    # matrix columns 0, 1, 2; the unperturbed feature 2 gets no column
    from predgap.sampling import perturbed_inputs

    spec = pg.PerturbationSpec.gaussian(1.0, 4)
    X = perturbed_inputs(
        np.zeros(4), (0, 1, 3), spec, pg.EstimatorConfig("qmc", 8)
    )
    assert X.shape == (8, 3)
    U = pg.halton_matrix(8, 3)
    g = pg.Gaussian(1.0)
    assert np.allclose(X[:, 0], g.inv_cdf_n(U[:, 0]))
    assert np.allclose(X[:, 1], g.inv_cdf_n(U[:, 1]))
    assert np.allclose(X[:, 2], g.inv_cdf_n(U[:, 2]))


def test_perturbed_inputs_equal_the_row_major_oracle():
    # the draws are made feature by feature into a (|S|, n) array and handed
    # out as its F-contiguous transpose, with the values of n tiled rows
    from predgap.sampling import perturbed_inputs

    rng = np.random.default_rng(33)
    d = 6
    specs = [
        pg.PerturbationSpec.gaussian(0.7, d),
        pg.PerturbationSpec(per_feature=(pg.Uniform(0.9),) * d),
        pg.PerturbationSpec(per_feature=tuple(random_discrete(rng) for _ in range(d))),
        pg.PerturbationSpec(per_feature=(
            pg.Gaussian(0.3), pg.Uniform(2.0), random_discrete(rng), pg.Gaussian(5.0),
            random_discrete(rng), pg.Uniform(0.1),
        )),
    ]
    for spec in specs:
        for feats in ((2,), (0, 3, 5), tuple(range(d))):
            x = lattice_point(rng, d)
            for n in (1, 7, 300):
                for config in (
                    pg.EstimatorConfig("mc", n, seed=int(rng.integers(1 << 32))),
                    pg.EstimatorConfig("qmc", n),
                ):
                    X = perturbed_inputs(x, feats, spec, config)
                    assert X.shape == (n, len(feats)) and X.flags.f_contiguous
                    assert np.array_equal(X, perturbed_inputs_oracle(x, feats, spec, config))


def test_qmc_makes_one_inverse_cdf_call_per_distinct_distribution(monkeypatch):
    # one Gaussian object on features 0, 2 and 4 and an equal but distinct one
    # on feature 3: each object maps all of its Halton columns in one call,
    # and the estimate is the per-feature oracle's, bit for bit
    shared, other = pg.Gaussian(0.7), pg.Gaussian(0.7)
    spec = pg.PerturbationSpec(per_feature=(shared, pg.Uniform(1.0), shared, other, shared))
    ens = random_ensemble(np.random.default_rng(5), 5, num_trees=3, max_depth=3)
    x = np.zeros(5)
    config = pg.EstimatorConfig("qmc", 500)
    want = float(np.mean(full_width_squared_gaps(ens, x, range(5), spec, config)))
    calls = []
    real = pg.Gaussian.inv_cdf_n

    def counting(self, u):
        calls.append((id(self), np.shape(u)))
        return real(self, u)

    monkeypatch.setattr(pg.Gaussian, "inv_cdf_n", counting)
    assert pg.pg2_sampled(ens, x, range(5), spec, config) == want
    # 500 draws and the spare Halton point that f(x)'s row overwrites
    assert sorted(calls) == sorted([(id(shared), (3, 501)), (id(other), (1, 501))])


def test_estimators_equal_the_full_width_walk_bit_for_bit():
    # sampling S's columns and walking x-conditioned trees gives the floats
    # of the whole ensemble walked on n full copies of x
    rng = np.random.default_rng(32)
    d = 5
    ensembles = [
        random_ensemble(rng, num_features=d, num_trees=6, max_depth=5),
        random_ensemble(rng, num_features=d, num_trees=6, max_depth=5, lattice_p=1.0),
    ]
    specs = [
        pg.PerturbationSpec.gaussian(0.7, d),
        pg.PerturbationSpec(per_feature=(pg.Uniform(0.9),) * d),
        pg.PerturbationSpec(per_feature=tuple(random_discrete(rng) for _ in range(d))),
    ]
    feature_sets = ([], [3], [4, 1, 4], [0, 2, 2, 1], list(range(d)), [4, 3, 2, 1, 0, 3])
    counts = [60, 1, 257]
    for ens in ensembles:
        for spec in specs:
            for features in feature_sets:
                x = lattice_point(rng, d)
                for method, seed in (("mc", int(rng.integers(1 << 32))), ("qmc", 0)):
                    config = pg.EstimatorConfig(method, 300, seed=seed)
                    want = float(np.mean(full_width_squared_gaps(ens, x, features, spec, config)))
                    assert pg.pg2_sampled(ens, x, features, spec, config) == want
                sq = full_width_squared_gaps(ens, x, features, spec, pg.EstimatorConfig("qmc", 257))
                assert pg.pg2_sampled_prefixes(ens, x, features, spec, counts) == [
                    float(np.mean(sq[:n])) for n in counts
                ]


def test_prefixes_equal_one_qmc_call_per_count():
    rng = np.random.default_rng(31)
    d = 4
    ens = random_ensemble(rng, num_features=d, num_trees=5, max_depth=4)
    specs = [
        pg.PerturbationSpec.gaussian(0.7, d),
        pg.PerturbationSpec(per_feature=(pg.Uniform(0.9),) * d),
        pg.PerturbationSpec(per_feature=tuple(random_discrete(rng) for _ in range(d))),
    ]
    grids = ([100, 7, 2000, 1], [500, 500, 3, 500], [1])
    for spec in specs:
        for features in ([], [2], [3, 0, 1]):
            x = lattice_point(rng, d)
            for counts in grids:
                shared = pg.pg2_sampled_prefixes(ens, x, features, spec, counts)
                assert shared == [
                    pg.pg2_sampled(ens, x, features, spec, pg.EstimatorConfig("qmc", n))
                    for n in counts
                ]
    assert pg.pg2_sampled_prefixes(ens, x, [], spec, [5, 2]) == [0.0, 0.0]


def test_prefixes_validate_counts():
    ens = canonical_ensemble()
    for counts in ([], [10, 0], [10, -3], [2.5]):
        with pytest.raises(ValidationError):
            pg.pg2_sampled_prefixes(ens, [-1.0], [0], _spec(), counts)


def _mixed_specs(rng, d):
    return [
        pg.PerturbationSpec.gaussian(0.7, d),
        pg.PerturbationSpec(per_feature=(pg.Uniform(0.9),) * d),
        pg.PerturbationSpec(per_feature=tuple(random_discrete(rng) for _ in range(d))),
        pg.PerturbationSpec(per_feature=(
            pg.Gaussian(0.3), random_discrete(rng), pg.Uniform(2.0), pg.Gaussian(5.0),
            random_discrete(rng),
        )),
    ]


def test_samplers_take_f_of_x_from_the_conditioned_walk(monkeypatch, tmp_path):
    # f(x) is the conditioned ensemble's prediction of the row x[S], walked
    # after the draws in the query's one walk: a freshly loaded ensemble keeps
    # its leaf boxes unbuilt, and the f(x) subtracted equals predict(x) with ==
    rng = np.random.default_rng(35)
    d = 5
    model = tmp_path / "model.json"
    pg.save_ensemble(random_ensemble(rng, num_features=d, num_trees=6, max_depth=5), model)
    walks = []
    predict_batch = pg.TreeEnsemble.predict_batch

    def recorded(self, X):
        out = predict_batch(self, X)
        walks.append(out)
        return out

    monkeypatch.setattr(pg.TreeEnsemble, "predict_batch", recorded)
    for spec in _mixed_specs(rng, d):
        for features in ([3], [4, 0, 2], list(range(d))):
            x = lattice_point(rng, d)
            for run in (
                lambda e: pg.pg2_sampled(e, x, features, spec, pg.EstimatorConfig("mc", 40, 3)),
                lambda e: pg.pg2_sampled(e, x, features, spec, pg.EstimatorConfig("qmc", 40)),
                lambda e: pg.pg2_sampled_prefixes(e, x, features, spec, [7, 40]),
            ):
                ens = pg.load_ensemble(model)
                walks.clear()
                run(ens)
                assert "leaf_boxes" not in vars(ens)
                assert [w.size for w in walks] == [41]
                assert walks[0][40] == ens.predict(x)


def test_oversized_draw_counts_raise_validation_error():
    from predgap.sampling import perturbed_inputs

    ens = canonical_ensemble(num_features=2)
    spec = pg.PerturbationSpec.gaussian(1.0, 2)
    for method in ("mc", "qmc"):
        config = pg.EstimatorConfig(method, 2 ** 62)
        with pytest.raises(ValidationError, match=f"iterations {2 ** 62} "):
            perturbed_inputs(np.zeros(2), [0, 1], spec, config)
    data = pg.Dataset(values=np.zeros((3, 2)), feature_names=("a", "b"))
    with pytest.raises(ValidationError, match=f"sample count {2 ** 62} "):
        pg.xi_random(ens, [0.0, 0.0], [1], data, samples=2 ** 62)

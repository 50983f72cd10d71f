"""Greedy squared-gap rankings, attribution rankings, and top-k agreement."""

import json

import numpy as np
import pytest

import predgap as pg
from predgap.errors import ValidationError
from predgap.model import ensemble_from_dict, ensemble_to_dict

from support import leaf, random_ensemble, split


def _single_feature_model(feature, num_features):
    tree = pg.Tree(split(feature, 0.0, leaf(0.0), leaf(1.0)))
    return pg.TreeEnsemble(trees=(tree,), num_features=num_features)


def test_ranking_validation():
    with pytest.raises(ValidationError):
        pg.Ranking(order=(0, 0, 1))
    with pytest.raises(ValidationError):
        pg.Ranking(order=(1, 2))
    r = pg.Ranking(order=(2, 0, 1))
    assert r.prefix(2) == (2, 0)
    assert r.prefix(np.int64(1)) == (2,)
    for bad in (True, 1.5):
        with pytest.raises(ValidationError, match="integer"):
            r.prefix(bad)
    assert r.reversed().order == (1, 0, 2)
    # entries must be integers, not truncated to one: (0.5, 1.2) is not (0, 1)
    for bad in ((0.5, 1.2), (True, 0), (0.0, 1.0)):
        with pytest.raises(ValidationError, match="integer"):
            pg.Ranking(order=bad)
    assert pg.Ranking(order=(np.int64(1), np.int64(0))).order == (1, 0)


def test_greedy_puts_the_only_used_feature_first():
    ens = _single_feature_model(3, 5)
    spec = pg.PerturbationSpec.gaussian(1.0, 5)
    ranking = pg.greedy_pg2_ranking(ens, [0.1, 0.2, -0.3, -1.0, 0.5], spec)
    # every other candidate ties at zero, so the tail keeps index order
    assert ranking.order == (3, 0, 1, 2, 4)


def test_greedy_prefers_the_large_spread_feature():
    lo = split(1, 0.0, leaf(-10.1), leaf(-9.9))
    hi = split(1, 0.0, leaf(9.9), leaf(10.1))
    ens = pg.TreeEnsemble(trees=(pg.Tree(split(0, 0.0, lo, hi)),), num_features=2)
    spec = pg.PerturbationSpec.gaussian(1.0, 2)
    ranking = pg.greedy_pg2_ranking(ens, [-1.0, -1.0], spec)
    assert ranking.order == (0, 1)


def test_greedy_single_feature_model():
    ens = _single_feature_model(0, 1)
    spec = pg.PerturbationSpec.gaussian(1.0, 1)
    assert pg.greedy_pg2_ranking(ens, [0.5], spec).order == (0,)
    # no candidate is scored here, so x is checked up front
    for bad in ([0.5, 1.0], [], [float("nan")]):
        with pytest.raises(ValidationError):
            pg.greedy_pg2_ranking(ens, bad, spec)


def test_greedy_inert_features_trail_when_used_features_help():
    # both used features strictly increase the gap at every greedy step,
    # so the unused features must fill the tail in index order
    lo = split(2, 0.0, leaf(-10.1), leaf(-9.9))
    hi = split(2, 0.0, leaf(9.9), leaf(10.1))
    ens = pg.TreeEnsemble(trees=(pg.Tree(split(1, 0.0, lo, hi)),), num_features=4)
    spec = pg.PerturbationSpec.gaussian(1.0, 4)
    ranking = pg.greedy_pg2_ranking(ens, [0.3, -1.0, -1.0, 0.4], spec)
    assert ranking.order == (1, 2, 0, 3)


def test_greedy_is_a_permutation_and_ties_keep_index_order():
    # adding a used feature can lower the squared gap, so unused features
    # need not trail it; what always holds is that exactly tied candidates
    # (here the unused features 4 and 5) are taken in index order
    rng = np.random.default_rng(8)
    ens = random_ensemble(rng, num_features=4, num_trees=3, max_depth=3)
    wide = pg.TreeEnsemble(trees=ens.trees, num_features=6)
    spec = pg.PerturbationSpec.gaussian(0.8, 6)
    ranking = pg.greedy_pg2_ranking(wide, rng.normal(size=6), spec)
    assert sorted(ranking.order) == list(range(6))
    assert ranking.order.index(4) < ranking.order.index(5)


def test_greedy_uses_exactly_the_triangular_call_count(monkeypatch):
    import predgap.ranking as ranking_mod

    calls = []
    real = ranking_mod.pg2_exact

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(ranking_mod, "pg2_exact", counting)
    rng = np.random.default_rng(13)
    d = 4
    ens = random_ensemble(rng, num_features=d, num_trees=2, max_depth=3)
    pg.greedy_pg2_ranking(ens, rng.normal(size=d), pg.PerturbationSpec.gaussian(0.5, d))
    # d + (d - 1) + ... + 2: the last lone candidate is not scored
    assert len(calls) == d * (d + 1) // 2 - 1
    assert all(len(S) < d for S in calls)


def test_greedy_invariant_under_positive_leaf_scaling():
    rng = np.random.default_rng(44)
    ens = random_ensemble(rng, num_features=4, num_trees=2, max_depth=3)
    model = ensemble_to_dict(ens)

    def scale(node):
        if "value" in node:
            node["value"] *= 7.5
        else:
            scale(node["left"])
            scale(node["right"])

    for node in model["trees"]:
        scale(node)
    scaled = ensemble_from_dict(model)
    spec = pg.PerturbationSpec.gaussian(0.6, 4)
    x = rng.normal(size=4)
    assert pg.greedy_pg2_ranking(ens, x, spec).order == pg.greedy_pg2_ranking(scaled, x, spec).order


def test_ranking_from_attribution_examples():
    assert pg.ranking_from_attribution([0.1, -0.5, 0.2]).order == (1, 2, 0)
    assert pg.ranking_from_attribution([0.0, 0.0, 0.0]).order == (0, 1, 2)
    assert pg.ranking_from_attribution([-3.0, 3.0]).order == (0, 1)


def test_ranking_from_attribution_rejects_non_finite():
    with pytest.raises(ValidationError):
        pg.ranking_from_attribution([1.0, float("nan")])


def test_topk_agreement_examples():
    a = [pg.Ranking(order=(0, 1, 2))]
    b = [pg.Ranking(order=(1, 0, 2))]
    for k in (1, 2, 3):
        assert pg.topk_agreement(a, a, k) == 1.0
    assert pg.topk_agreement(a, b, 2) == 1.0          # same top-2 set
    assert pg.topk_agreement(a, b, 1) == 0.0
    assert pg.topk_agreement(a, [pg.Ranking(order=(2, 1, 0))], 1) == 0.0


def test_topk_agreement_validation():
    a = [pg.Ranking(order=(0, 1))]
    with pytest.raises(ValidationError):
        pg.topk_agreement(a, [], 1)


def test_load_attributions_csv_and_json(tmp_path):
    from predgap.ranking import load_attributions

    csv_path = tmp_path / "phi.csv"
    csv_path.write_text("0.1,-0.5,0.2\n1.0,0.0,-1.0\n")
    mat = load_attributions(csv_path)
    assert mat.shape == (2, 3)
    json_path = tmp_path / "phi.json"
    json_path.write_text(json.dumps([[0.1, -0.5, 0.2]]))
    mat2 = load_attributions(json_path)
    assert mat2.shape == (1, 3)
    assert mat2[0, 1] == -0.5

"""Greedy squared-gap rankings, attribution rankings, and top-k agreement."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import predgap as pg
from predgap.errors import ValidationError
from predgap.model import ensemble_from_dict, ensemble_to_dict

from support import leaf, pg2_unskipped, random_ensemble, split


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


@st.composite
def _lattice_queries(draw):
    """(ensemble, x, spec): three trees over four features with integer
    thresholds and leaf values from a short list, a query on the integers,
    so x often sits on a threshold and many leaves carry x's own values, and
    Discrete noise on the lattice, with or without an atom at 0."""
    d = 4

    def node(depth):
        if depth == 3 or (depth > 0 and draw(st.booleans())):
            return leaf(draw(st.sampled_from((-1.0, 0.0, 0.5, 2.0))))
        feature, threshold = draw(st.integers(0, d - 1)), float(draw(st.integers(-2, 2)))
        return split(feature, threshold, node(depth + 1), node(depth + 1))

    ens = pg.TreeEnsemble(trees=tuple(pg.Tree(node(0)) for _ in range(3)), num_features=d)
    x = np.array([float(draw(st.integers(-2, 2))) for _ in range(d)])
    noise = []
    for _ in range(d):
        offsets = draw(st.lists(st.sampled_from((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)),
                                min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.integers(1, 4), min_size=len(offsets), max_size=len(offsets)))
        noise.append(pg.Discrete(points=tuple((o, w / sum(weights)) for o, w in zip(sorted(offsets), weights))))
    return ens, x, pg.PerturbationSpec(per_feature=tuple(noise))


def _greedy_by(score, d):
    """The greedy ranking with PG2 from ``score``: the largest score first,
    ties to the lowest feature index, the lone last candidate unscored."""
    chosen, remaining = [], list(range(d))
    while len(remaining) > 1:
        best = max(remaining, key=lambda i: (score(chosen + [i]), -i))
        chosen.append(best)
        remaining.remove(best)
    return tuple(chosen + remaining)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_lattice_queries())
def test_greedy_ranking_equals_the_unskipped_pair_sums(query):
    # pg2_exact skips leaves with y = 0 or probability 0 in its pair sums,
    # which may move a gap in its last bit.  The rankings, exact ties
    # included, are the ones the unskipped sums give, except where two
    # candidates' gaps are equal up to rounding and one of the two sums
    # splits them by an ulp while the other ties them (the test below
    # has one): there the first candidate the two rankings part on must
    # be such a near-tie.
    ens, x, spec = query
    got = pg.greedy_pg2_ranking(ens, x, spec).order
    want = _greedy_by(lambda S: pg2_unskipped(ens, x, S, spec), ens.num_features)
    if got != want:
        step = next(k for k, (a, b) in enumerate(zip(got, want)) if a != b)
        mine, theirs = (pg2_unskipped(ens, x, [*got[:step], q], spec) for q in (got[step], want[step]))
        assert math.isclose(mine, theirs, rel_tol=1e-12), (got, want, mine, theirs)


def test_an_exact_tie_the_unskipped_sums_split_by_rounding_goes_to_the_lower_index():
    # After features 2 and 1, adding feature 0 (a sure shift by 0.5 that
    # crosses no threshold) or feature 3 (unused) leaves the gap unchanged.
    # pg2_exact gives both the same bits, so the lower index, 0, is taken;
    # the unskipped sums differ in the last bit and take 3.
    trees = (
        split(1, 2.0, leaf(0.0), split(0, -2.0, split(1, 0.0, leaf(2.0), leaf(0.0)),
                                       split(2, 1.0, leaf(2.0), leaf(0.5)))),
        split(2, 2.0, leaf(-1.0), split(0, 0.0, leaf(2.0), leaf(0.5))),
        split(2, 1.0, leaf(2.0), split(2, 0.0, split(1, -2.0, leaf(0.5), leaf(2.0)), leaf(2.0))),
    )
    ens = pg.TreeEnsemble(trees=tuple(pg.Tree(t) for t in trees), num_features=4)
    x = np.array([2.0, 2.0, 2.0, -2.0])
    spec = pg.PerturbationSpec(per_feature=(
        pg.Discrete(points=((0.5, 1.0),)),
        pg.Discrete(points=((-2.0, 1 / 3), (0.0, 1 / 3), (1.0, 1 / 3))),
        pg.Discrete(points=((-2.0, 0.6), (-0.5, 0.2), (2.0, 0.2))),
        pg.Discrete(points=((-2.0, 4 / 9), (0.0, 2 / 9), (2.0, 1 / 3))),
    ))
    assert pg.pg2_exact(ens, x, [2, 1, 0], spec) == pg.pg2_exact(ens, x, [2, 1, 3], spec)
    assert pg2_unskipped(ens, x, [2, 1, 0], spec) < pg2_unskipped(ens, x, [2, 1, 3], spec)
    assert pg.greedy_pg2_ranking(ens, x, spec).order == (2, 1, 0, 3)
    assert _greedy_by(lambda S: pg2_unskipped(ens, x, S, spec), 4) == (2, 1, 3, 0)


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

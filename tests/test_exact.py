"""The exact squared-gap engine against hand derivations and the enumerator."""

import json
import pickle
import tracemalloc
from copy import deepcopy
from pathlib import Path

import numpy as np
import pytest

import predgap as pg
from predgap import exact
from predgap.errors import ValidationError
from predgap.model import ensemble_from_dict

from support import (
    CANONICAL_PG2,
    PHI_1,
    canonical_ensemble,
    depth1_tree,
    joint_table_reference,
    lattice_point,
    leaf,
    pair_table_oracle,
    perfect_tree,
    pg2_pair_oracle,
    random_discrete,
    random_ensemble,
    split,
)


def test_single_leaf_table():
    ens = pg.TreeEnsemble(trees=(pg.Tree(leaf(3.0)),), num_features=2)
    spec = pg.PerturbationSpec.gaussian(1.0, 2)
    table = pg.leaf_pair_probabilities(ens, [0.0, 0.0], [0, 1], spec)
    assert np.diagonal(table.P).tolist() == [1.0]
    assert list(table.pair_prob.items()) == [(((0, 0), (0, 0)), 1.0)]


def test_depth1_leaf_probabilities():
    ens = canonical_ensemble()
    spec = pg.PerturbationSpec.gaussian(1.0, 1)
    table = pg.leaf_pair_probabilities(ens, [-1.0], [0], spec)
    assert table.node.tolist() == [1, 2]
    # Pr[x0 + delta < 0] = Pr[delta < 1] = Phi(1)
    assert table.P[0, 0] == pytest.approx(PHI_1, abs=1e-12)
    assert table.P[1, 1] == pytest.approx(1.0 - PHI_1, abs=1e-12)


def test_depth1_no_perturbation_is_pure_indicator():
    ens = canonical_ensemble()
    spec = pg.PerturbationSpec.gaussian(1.0, 1)
    table = pg.leaf_pair_probabilities(ens, [-1.0], [], spec)
    assert table.node.tolist() == [1, 2]
    assert table.P[0, 0] == 1.0
    assert table.P[1, 1] == 0.0


def test_table_views_are_read_only_mappings():
    rng = np.random.default_rng(9)
    ens = random_ensemble(rng, num_features=3, num_trees=3, max_depth=3)
    spec = pg.PerturbationSpec.gaussian(1.0, 3)
    table = pg.leaf_pair_probabilities(ens, lattice_point(rng, 3), [0, 2], spec)
    boxes = ens.leaf_boxes
    L = boxes.value.size
    leaves = list(zip(boxes.tree.tolist(), boxes.node.tolist()))
    pairs = [((u, v), table.P[a, b]) for a, u in enumerate(leaves) for b, v in enumerate(leaves)]
    view = table.pair_prob
    assert len(view) == L * L
    assert list(view.items()) == pairs
    assert list(view.values()) == [p for _, p in pairs]
    with pytest.raises(TypeError):
        view[(leaves[0], leaves[-1])] = 0.5
    for copy in (table, pickle.loads(pickle.dumps(table)), deepcopy(table)):
        assert len(copy.pair_prob) == L * L and list(copy.pair_prob.items()) == pairs
        for name in ("P", "tree", "node"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(copy, name)[0] = 1


def test_table_memory_is_a_few_dense_matrices():
    # 16 perfect depth-5 trees, L = 512: the dense table is 8 L^2 bytes; a
    # dict entry per leaf pair costs about 17 times that.  With every feature
    # perturbed every leaf is alive, and the table is filled in place.
    rng = np.random.default_rng(3)
    d = 8
    ens = pg.TreeEnsemble(trees=tuple(perfect_tree(rng, d, 5) for _ in range(16)), num_features=d)
    L = ens.leaf_boxes.value.size
    assert L == 512
    spec = pg.PerturbationSpec.gaussian(0.3, d)
    x = rng.normal(size=d)
    for S, bound in (((0, 2, 5, 7), 2.0), (tuple(range(d)), 2.0)):
        tracemalloc.start()
        try:
            table = pg.leaf_pair_probabilities(ens, x, S, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * L * L, S
        assert np.count_nonzero(table.P) > L, S


def _table_cases():
    """(name, ensemble, x, S, spec) queries for the table fill."""
    rng = np.random.default_rng(31)
    d = 8
    sweep = pg.TreeEnsemble(trees=tuple(perfect_tree(rng, d, 5) for _ in range(12)), num_features=d)
    gauss = pg.PerturbationSpec.gaussian(0.3, d)
    x = rng.normal(size=d)
    for k in (0, 1, 2, 4, 8):
        yield f"sweep-{k}", sweep, x, tuple(range(0, d, d // k)) if k else (), gauss
    yield "one-tree", pg.TreeEnsemble((perfect_tree(rng, 3, 4),), 3), rng.normal(size=3), (0, 2), \
        pg.PerturbationSpec.gaussian(0.5, 3)
    # The second tree splits only on feature 0, outside S.
    off_s = pg.TreeEnsemble((perfect_tree(rng, 3, 3), depth1_tree(threshold=0.1)), 3)
    yield "no-split-on-S", off_s, rng.normal(size=3), (1, 2), pg.PerturbationSpec.gaussian(0.5, 3)
    shared = pg.Gaussian(0.4)
    mixed = pg.PerturbationSpec(
        per_feature=(shared, pg.Uniform(0.6), random_discrete(rng), shared, pg.Uniform(0.6), shared)
    )
    yield "mixed", random_ensemble(rng, 6, num_trees=5, max_depth=4), lattice_point(rng, 6), \
        tuple(range(6)), mixed
    # A = 1280, every leaf alive: 52 strips at the default _STRIP, the last short.
    wide = pg.TreeEnsemble(trees=tuple(perfect_tree(rng, d, 5) for _ in range(40)), num_features=d)
    yield "many-strips", wide, rng.normal(size=d), tuple(range(d)), gauss


@pytest.mark.parametrize("strip", [None, 1, 700])
def test_table_fill_equals_the_single_block_reference(monkeypatch, strip):
    # The in-place fill, strip by strip, gives the one-block values bit for
    # bit; strips of one row and of a few rows with a short last strip too.
    if strip is not None:
        monkeypatch.setattr(exact, "_STRIP", strip)
    for name, ens, x, S, spec in _table_cases():
        P = pg.leaf_pair_probabilities(ens, x, S, spec).P
        assert np.array_equal(P, joint_table_reference(ens, x, S, spec)), name
        assert np.array_equal(P, P.T), name
        same_tree = ens.leaf_boxes.tree[:, None] == ens.leaf_boxes.tree
        np.fill_diagonal(same_tree, False)
        assert (P[same_tree] == 0.0).all(), name
        assert np.count_nonzero(np.diagonal(P)) >= len(ens.trees), name


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
    # 24 two-point features give 2^24 > 10^7 combinations: the guard raises
    # before the (2^24, 24) input matrix is built
    d = 24
    rng = np.random.default_rng(1)
    ens = random_ensemble(rng, num_features=d, num_trees=1, max_depth=2)
    dist = pg.Discrete(points=((-1.0, 0.5), (1.0, 0.5)))
    spec = pg.PerturbationSpec.same(dist, d)
    with pytest.raises(ValidationError, match="guard of 10000000"):
        pg.pg2_brute_force(ens, np.zeros(d), range(d), spec)


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
    # A feature index must be an integer: 0.9 and True are not truncated
    # to features 0 and 1.
    wide = pg.TreeEnsemble(trees=ens.trees, num_features=2)
    for bad in ([0.9], [True], [np.bool_(False)], [1.0], ["0"]):
        with pytest.raises(ValidationError, match="integer"):
            pg.pg2_exact(wide, [-1.0, 0.0], bad, pg.PerturbationSpec.gaussian(1.0, 2))
    assert pg.pg2_exact(ens, [-1.0], [np.int64(0)], spec) == pg.pg2_exact(ens, [-1.0], [0], spec)


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
            sum(
                abs(v - pg.TreeEnsemble((tree,), ens.num_features).predict_batch(x[None, :])[0])
                for v in tree.value[tree.feature < 0]
            )
            for tree in ens.trees
        )
        tol = 1e-9 * abs(want) + 1e-15 * len(feats) * spread**2
        if not abs(got - want) <= tol:
            failures.append(f"case {n}: {got!r} vs golden {want!r}")
    assert not failures, failures


def _noise(rng):
    """Gaussian, uniform or discrete noise; uniform ends and half the
    discrete atoms are integers, so they meet lattice box ends."""
    kind = rng.integers(3)
    if kind == 0:
        return pg.Gaussian(float(rng.choice([0.3, 1.0, 2.5])))
    if kind == 1:
        return pg.Uniform(float(rng.choice([0.5, 1.0, 2.0])))
    return random_discrete(rng)


def _formula_cases(rng):
    """(ensemble, spec, x, S): 120 small random queries, then perfect depth-5
    trees at d = 8 with |S| = 4 and 8, so tree-pair blocks are up to 32 x 32
    and every leaf is alive at |S| = 8."""
    for n in range(120):
        d = int(rng.integers(1, 6))
        if n % 4 == 0:
            depth, num_trees = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            trees = tuple(perfect_tree(rng, d, depth) for _ in range(num_trees))
            ens = pg.TreeEnsemble(trees=trees, num_features=d)
        else:
            ens = random_ensemble(rng, d, int(rng.integers(1, 6)), int(rng.integers(1, 5)))
        spec = pg.PerturbationSpec(per_feature=tuple(_noise(rng) for _ in range(d)))
        x = lattice_point(rng, d)
        S = sorted(int(q) for q in rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
        yield ens, spec, x, S
    for size in (4, 4, 8, 8):
        ens = pg.TreeEnsemble(trees=tuple(perfect_tree(rng, 8, 5) for _ in range(6)), num_features=8)
        spec = pg.PerturbationSpec(per_feature=tuple(_noise(rng) for _ in range(8)))
        S = sorted(int(q) for q in rng.choice(8, size=size, replace=False))
        yield ens, spec, lattice_point(rng, 8), S


def test_engine_equals_the_per_pair_formula_bit_for_bit():
    # pg2_exact and leaf_pair_probabilities build each pair block from min/max
    # of per-leaf cdf_below values; the per-pair formula evaluates
    # interval_prob on the intersected boxes.  Both must agree with ==.
    rng = np.random.default_rng(4242)
    met = {"atom": False, "support end": False, "inf": False}
    for n, (ens, spec, x, S) in enumerate(_formula_cases(rng)):
        assert pg.pg2_exact(ens, x, S, spec) == pg2_pair_oracle(ens, x, S, spec), n
        table = pg.leaf_pair_probabilities(ens, x, S, spec)
        P = pair_table_oracle(ens, x, S, spec)
        assert list(table.pair_prob.values()) == P.ravel().tolist(), n
        assert np.diagonal(table.P).tolist() == np.diag(P).tolist(), n
        boxes = ens.leaf_boxes
        T = len(ens.trees)
        tree_sums = [np.diag(P)[boxes.tree == i].sum() for i in range(T)]
        assert np.allclose(table.tree_probability_sums(), tree_sums, rtol=0.0, atol=1e-12), n
        cross = table.cross_tree_pair_sums()
        assert list(cross) == [(i, j) for i in range(T) for j in range(T) if i != j], n
        for (i, j), s in cross.items():
            assert abs(s - P[np.ix_(boxes.tree == i, boxes.tree == j)].sum()) <= 1e-12, n
        for q in S:
            ends = np.concatenate((boxes.lo[:, q], boxes.hi[:, q])) - x[q]
            dist = spec.per_feature[q]
            met["inf"] |= bool(np.isinf(ends).any())
            if isinstance(dist, pg.Uniform):
                met["support end"] |= bool(np.isin(ends, [-dist.half_width, dist.half_width]).any())
            if isinstance(dist, pg.Discrete):
                met["atom"] |= bool(np.isin(ends, [o for o, _ in dist.points]).any())
    assert all(met.values()), met


def test_pg2_exact_reaches_interval_prob(monkeypatch):
    # perfbench's --trace 1 run counts Distribution.interval_prob calls made
    # inside pg2_exact and fails its trace-coverage check when there are none.
    calls = []
    real = pg.Distribution.interval_prob

    def counting(self, lo, hi):
        calls.append(1)
        return real(self, lo, hi)

    monkeypatch.setattr(pg.Distribution, "interval_prob", counting)
    rng = np.random.default_rng(5)
    ens = random_ensemble(rng, num_features=3, num_trees=3, max_depth=3)
    pg.pg2_exact(ens, lattice_point(rng, 3), [1], pg.PerturbationSpec.gaussian(1.0, 3))
    assert calls


def _cancelling_pair():
    """Two trees whose values cancel: f is 0 everywhere, so the diagonal and
    twice the (negative) cross term are equal and opposite."""
    ens = pg.TreeEnsemble(
        trees=(depth1_tree(0.0, 0.0, 1.0), depth1_tree(0.0, 0.0, -1.0)), num_features=1
    )
    return ens, [-1.0], [0], pg.PerturbationSpec.gaussian(1.0, 1)


def _scaled_mass(monkeypatch, factor):
    from predgap import exact

    real = exact._mass
    monkeypatch.setattr(exact, "_mass", lambda *a: real(*a) * factor)


def test_round_off_negative_gap_is_zero(monkeypatch):
    # A diagonal short by 1.5e-9 of itself leaves a negative result of about
    # 3e-9 * P(right), inside the slack 1e-9 * (diagonal + 2 * magnitude) =
    # 4e-9 * P(right) only because the |y| cross sum is counted in it.
    _scaled_mass(monkeypatch, 1.0 - 1.5e-9)
    assert pg.pg2_exact(*_cancelling_pair()) == 0.0


def test_negative_gap_beyond_slack_raises(monkeypatch):
    _scaled_mass(monkeypatch, 0.5)
    with pytest.raises(pg.NumericDomainError, match="negative"):
        pg.pg2_exact(*_cancelling_pair())


def _live_trees(ensemble, x, S):
    """Trees with an alive leaf whose value differs from the one x reaches:
    the only trees whose pair blocks can add anything but 0.0."""
    fixed = [q for q in range(ensemble.num_features) if q not in S]
    live = 0
    for tree in ensemble.trees:
        one = pg.TreeEnsemble((tree,), ensemble.num_features)
        boxes = one.leaf_boxes
        alive = ((boxes.lo[:, fixed] <= x[fixed]) & (x[fixed] < boxes.hi[:, fixed])).all(axis=1)
        live += bool((boxes.value[alive] != one.predict_batch(x[None, :])[0]).any())
    return live


def test_pair_loop_builds_blocks_for_live_trees_only(monkeypatch):
    # Trees 1 and 4 split only on features 2 and 3 and tree 3 is one leaf:
    # under S = {0, 1} none of them can change its value, while trees 0, 2
    # and 5 split on S at the root.  Other S and x leave more trees dead.
    from predgap import exact

    trees = (
        split(0, 0.0, leaf(1.0), leaf(2.0)),
        split(2, 0.0, leaf(1.0), split(3, 1.0, leaf(4.0), leaf(-2.0))),
        split(1, 0.5, leaf(-1.0), split(0, -0.5, leaf(3.0), leaf(0.5))),
        leaf(7.0),
        split(3, -1.0, leaf(0.25), leaf(0.75)),
        split(1, -0.5, split(0, 0.5, leaf(0.0), leaf(1.5)), leaf(-0.5)),
    )
    ens = pg.TreeEnsemble(trees=tuple(pg.Tree(t) for t in trees), num_features=4)
    calls = []
    real = exact._joint

    def counting(*blocks):
        calls.append(1)
        return real(*blocks)

    monkeypatch.setattr(exact, "_joint", counting)
    rng = np.random.default_rng(15)
    seen = set()
    for n in range(60):
        x = lattice_point(rng, 4)
        S = (0, 1) if n % 3 == 0 else tuple(
            sorted(int(q) for q in rng.choice(4, size=int(rng.integers(1, 5)), replace=False))
        )
        spec = pg.PerturbationSpec(per_feature=tuple(_noise(rng) for _ in range(4)))
        live = _live_trees(ens, x, S)
        if S == (0, 1):
            assert live == 3, n
        seen.add(live)
        calls.clear()
        got = pg.pg2_exact(ens, x, S, spec)
        assert len(calls) == live * (live - 1) // 2, n
        assert got == pg2_pair_oracle(ens, x, S, spec), n
    assert {1, 3} <= seen, seen


def _count_distribution_calls(monkeypatch):
    """Count each ``cdf_below`` and ``interval_prob`` call made from outside
    the distributions; the ``cdf_below`` calls inside ``interval_prob`` are
    not counted."""
    calls = {"cdf_below": 0, "interval_prob": 0}
    inside = []

    def counting(cls, name):
        real = cls.__dict__[name]

        def wrapper(self, *args):
            calls[name] += not inside
            inside.append(name)
            try:
                return real(self, *args)
            finally:
                inside.pop()

        monkeypatch.setattr(cls, name, wrapper)

    for cls in (pg.Gaussian, pg.Uniform, pg.Discrete):
        counting(cls, "cdf_below")
    counting(pg.Distribution, "interval_prob")
    return calls


def test_one_cdf_call_for_a_shared_distribution_else_one_per_feature(monkeypatch):
    # One Gaussian object on features 0, 2 and 5, and an equal but distinct
    # Gaussian on feature 4: when every perturbed feature has the same
    # object, the engine calls it once for all of them, otherwise it calls
    # each feature's distribution once; either way it gives the per-feature
    # values.
    rng = np.random.default_rng(23)
    shared = pg.Gaussian(0.7)
    per_feature = (shared, pg.Uniform(1.0), shared, random_discrete(rng), pg.Gaussian(0.7), shared)
    spec = pg.PerturbationSpec(per_feature=per_feature)
    d = len(per_feature)
    calls = _count_distribution_calls(monkeypatch)
    for n in range(3):
        ens = random_ensemble(rng, d, num_trees=4, max_depth=3)
        for mask in range(1, 2**d):
            S = [q for q in range(d) if mask >> q & 1]
            x = lattice_point(rng, d)
            shared_by_all = len({id(per_feature[q]) for q in S}) == 1
            want = 1 if shared_by_all else len(S)
            calls.update(cdf_below=0, interval_prob=0)
            got = pg.pg2_exact(ens, x, S, spec)
            assert calls == {"cdf_below": want, "interval_prob": want}, (n, S)
            calls.update(cdf_below=0, interval_prob=0)
            table = pg.leaf_pair_probabilities(ens, x, S, spec)
            assert calls == {"cdf_below": want, "interval_prob": 0}, (n, S)
            assert got == pg2_pair_oracle(ens, x, S, spec), (n, S)
            assert table.P.tolist() == pair_table_oracle(ens, x, S, spec).tolist(), (n, S)

"""Tree construction, routing semantics, serialization, and the importers."""

import contextlib
import pickle
import signal
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import predgap as pg
from predgap.errors import FormatError, ValidationError
from predgap.model import _walk_buffers, ensemble_from_dict, ensemble_from_xgboost_dump

from support import (
    canonical_ensemble,
    depth1_tree,
    lattice_point,
    leaf,
    perfect_tree,
    random_ensemble,
    split,
    walk_oracle,
)


def test_single_leaf_ensemble():
    ens = pg.TreeEnsemble(trees=(pg.Tree(leaf(3.0)),), num_features=2)
    assert len(ens.trees) == 1
    assert ens.node_count == 1
    assert ens.leaf_count == 1
    assert ens.predict([5.0, -2.0]) == 3.0
    assert ens.predict([0.0, 0.0]) == 3.0


def test_depth1_counts_and_routing():
    ens = canonical_ensemble()
    assert ens.node_count == 3
    assert ens.leaf_count == 2
    assert ens.predict([-1.0]) == 0.0
    # threshold ties route right: x < t goes left, otherwise right
    assert ens.predict([0.0]) == 1.0
    assert ens.predict([-1e-12]) == 0.0


def test_perfect_depth2_counts():
    inner = split(1, 0.5, leaf(1.0), leaf(2.0))
    root = split(0, 0.0, inner, split(1, -0.5, leaf(3.0), leaf(4.0)))
    ens = pg.TreeEnsemble(trees=(pg.Tree(root),), num_features=2)
    assert ens.node_count == 7
    assert ens.leaf_count == 4


def test_additivity_over_tree_partitions():
    rng = np.random.default_rng(3)
    ens = random_ensemble(rng, num_features=4, num_trees=6, max_depth=3)
    x = rng.normal(size=4)
    for cut in (1, 3, 5):
        a = pg.TreeEnsemble(trees=ens.trees[:cut], num_features=4)
        b = pg.TreeEnsemble(trees=ens.trees[cut:], num_features=4)
        assert ens.predict(x) == pytest.approx(a.predict(x) + b.predict(x), rel=1e-12)


def test_two_copies_sum():
    tree = depth1_tree()
    ens = pg.TreeEnsemble(trees=(tree, depth1_tree()), num_features=1)
    assert ens.predict([5.0]) == 2.0


def test_predict_deterministic():
    rng = np.random.default_rng(11)
    ens = random_ensemble(rng, num_features=5, num_trees=4, max_depth=4)
    x = rng.normal(size=5)
    assert ens.predict(x) == ens.predict(x)


def test_predict_batch_matches_scalar():
    rng = np.random.default_rng(12)
    ens = random_ensemble(rng, num_features=5, num_trees=4, max_depth=4)
    X = rng.normal(size=(64, 5))
    batch = ens.predict_batch(X)
    for i in range(X.shape[0]):
        assert batch[i] == ens.predict(X[i])
    # predict reads the leaf boxes and predict_batch walks the trees: compare
    # them on rows that sit exactly on split thresholds, where ties route right
    ens = random_ensemble(rng, num_features=5, num_trees=4, max_depth=4, lattice_p=1.0)
    X = np.array([lattice_point(rng, 5) for _ in range(64)])
    assert any(
        (X[:, t.feature[i]] == t.threshold[i]).any()
        for t in ens.trees
        for i in np.flatnonzero(t.feature >= 0)
    )
    batch = ens.predict_batch(X)
    for i in range(X.shape[0]):
        assert batch[i] == ens.predict(X[i])


def _chain(depth, num_features=1):
    """A chain: split k, on feature k % num_features, sends x < k to a leaf
    of value 1 and x >= k on down, to a last leaf of value 0."""
    node = leaf(0.0)
    for k in reversed(range(depth)):
        node = split(k % num_features, k, leaf(1.0), node)
    return pg.Tree(node)


def test_tree_arrays_are_read_only():
    # TreeEnsemble.leaf_boxes caches what the tree arrays say, predict reads
    # that cache and predict_batch walks the arrays, so none of them can change
    tree = pg.Tree(split(0, 0.0, leaf(0.0), leaf(1.0)))
    for copy in (tree, pickle.loads(pickle.dumps(tree)), deepcopy(tree)):
        assert copy == tree
        assert (copy.max_depth, copy.shallowest_leaf) == (1, 1)
        for name in ("feature", "threshold", "child", "value"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(copy, name)[0] = 1
    ens = pg.TreeEnsemble(trees=(tree,), num_features=1)
    assert ens.predict([0.5]) == ens.predict_batch([[0.5]])[0] == 1.0
    for copy in (ens, pickle.loads(pickle.dumps(ens)), deepcopy(ens)):
        boxes = copy.leaf_boxes
        for box in (boxes, pickle.loads(pickle.dumps(boxes)), deepcopy(boxes)):
            for name in ("lo", "hi", "value", "tree", "node"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(box, name)[0] = 1
        assert copy.predict([0.5]) == copy.predict_batch([[0.5]])[0] == 1.0


def test_leaf_boxes_compare_and_hash_by_identity():
    # a copy holds equal arrays; == compares the objects, never the arrays
    # elementwise, which would have no single truth value
    boxes = canonical_ensemble().leaf_boxes
    other = deepcopy(boxes)
    assert boxes == boxes and boxes != other
    assert len({boxes, other}) == 2


def test_predict_batch_matches_walk_oracle():
    rng = np.random.default_rng(14)
    ensembles = [
        random_ensemble(rng, num_features=4, num_trees=5, max_depth=5),
        random_ensemble(rng, num_features=4, num_trees=5, max_depth=5, lattice_p=1.0),
        # single-leaf trees, alone and among splits
        pg.TreeEnsemble(trees=(pg.Tree(leaf(2.5)),), num_features=4),
        pg.TreeEnsemble(
            trees=(pg.Tree(leaf(-1.0)), depth1_tree(), pg.Tree(leaf(0.25))), num_features=4
        ),
        # perfect trees of mixed depths, and a random tree between them
        pg.TreeEnsemble(
            trees=tuple(perfect_tree(rng, 4, depth) for depth in (3, 0, 6, 1))
            + random_ensemble(rng, num_features=4, num_trees=1, max_depth=7).trees,
            num_features=4,
        ),
    ]
    for ens in ensembles:
        X = np.array([lattice_point(rng, 4) for _ in range(200)])
        thresholds = [
            (t.feature[i], t.threshold[i])
            for t in ens.trees
            for i in np.flatnonzero(t.feature >= 0)
        ]
        for r, (q, cut) in enumerate(thresholds[:100]):
            X[r, q] = cut  # rows on the splits' thresholds, where ties route right
        want = walk_oracle(ens, X)
        assert np.array_equal(ens.predict_batch(X), want)
        assert np.array_equal(ens.predict_batch(np.asfortranarray(X)), want)
        strided = np.repeat(X, 3, axis=0)[::3]
        assert not strided.flags.c_contiguous
        assert np.array_equal(ens.predict_batch(strided), want)
        assert np.array_equal(ens.predict_batch(np.repeat(X, 2, axis=1)[:, ::2]), want)
        for n in (0, 1, 5):
            got = ens.predict_batch(X[:n])
            assert got.shape == (n,) and np.array_equal(got, want[:n])


class _CountingRows(np.ndarray):
    """A flat feature array that counts the levels a walk reads it."""

    reads = 0

    def __getitem__(self, key):
        type(self).reads += 1
        return np.asarray(self)[key]

    def take(self, *args, **kwargs):
        type(self).reads += 1
        return np.asarray(self).take(*args, **kwargs)


def _levels_walked(tree, X):
    _CountingRows.reads = 0
    flat = np.asfortranarray(X, dtype=np.float64).ravel(order="F").view(_CountingRows)
    tree.leaves(flat, np.arange(X.shape[0]), _walk_buffers(X.shape[0]))
    return _CountingRows.reads


def test_predict_batch_on_a_deep_chain():
    depth = 1500
    tree = _chain(depth)
    ens = pg.TreeEnsemble(trees=(tree,), num_features=1)
    assert (tree.max_depth, tree.shallowest_leaf) == (depth, 1)
    leave_at_once = np.array([[-3.0], [-0.5], [-1e9]])
    to_the_bottom = np.array([[depth - 1.0], [depth + 0.5], [1e9]])
    on_the_way = np.array([[0.0], [0.5], [700.0], [depth - 2.5]])
    for X in (leave_at_once, to_the_bottom, on_the_way, np.vstack((leave_at_once, to_the_bottom))):
        assert np.array_equal(ens.predict_batch(X), walk_oracle(ens, X))
    assert ens.predict_batch(leave_at_once).tolist() == [1.0, 1.0, 1.0]
    assert ens.predict_batch(to_the_bottom).tolist() == [0.0, 0.0, 0.0]
    # the walk stops at the level where every row sits on a leaf
    assert _levels_walked(tree, leave_at_once) == 1
    assert _levels_walked(tree, on_the_way) == depth - 1
    assert _levels_walked(tree, to_the_bottom) == depth
    perfect = perfect_tree(np.random.default_rng(15), 2, 4)
    assert _levels_walked(perfect, np.zeros((5, 2))) == 4


def test_conditioned_leaves_are_the_exact_engines_alive_leaves():
    # The samplers walk the x-conditioned trees and pg2_exact reads the alive
    # leaves; both must see the same leaves, in the same order, with the
    # same boxes on S.
    from predgap.exact import _alive, _check_query

    rng = np.random.default_rng(16)
    d = 5
    spec = pg.PerturbationSpec.gaussian(1.0, d)
    for lattice_p in (0.6, 1.0):
        for _ in range(15):
            ens = random_ensemble(rng, d, num_trees=4, max_depth=5, lattice_p=lattice_p)
            boxes = ens.leaf_boxes
            cuts = [
                (t.feature[i], t.threshold[i])
                for t in ens.trees
                for i in np.flatnonzero(t.feature >= 0)
            ]
            for _ in range(10):
                x = lattice_point(rng, d)
                for k in rng.choice(len(cuts), size=min(3, len(cuts)), replace=False):
                    x[cuts[k][0]] = cuts[k][1]  # x on a split's threshold
                S = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)
                vec, feats, dists = _check_query(ens, x, S, spec)
                alive = _alive(boxes, vec, feats, dists)[1]
                got = ens._conditioned(vec, feats).leaf_boxes
                assert np.array_equal(got.lo, boxes.lo[alive][:, feats])
                assert np.array_equal(got.hi, boxes.hi[alive][:, feats])
                assert np.array_equal(got.value, boxes.value[alive])
                assert np.array_equal(got.tree, boxes.tree[alive])
    assert ens._conditioned(vec, range(d)) is ens


def test_conditioning_a_deep_chain():
    depth = 5000
    alternating, on_feature_0 = _chain(depth, num_features=2), _chain(depth)
    ens = pg.TreeEnsemble(trees=(alternating, on_feature_0), num_features=2)
    # x1 goes right at every split on feature 1, so feature 0's splits remain
    cond = ens._conditioned(np.array([0.0, 1e9]), [0])
    assert cond.num_features == 1
    assert (cond.trees[0].node_count, cond.trees[0].max_depth) == (depth + 1, depth // 2)
    assert cond.trees[1] == on_feature_0
    column = np.array([[-1.0], [0.0], [2.0], [2501.0], [depth - 2.0], [1e9]])
    full = np.hstack((column, np.full_like(column, 1e9)))
    assert np.array_equal(cond.predict_batch(column), ens.predict_batch(full))
    # no split on S: the tree becomes the one leaf x reaches
    for x0, value in ((2500.5, 1.0), (1e9, 0.0)):
        cond = ens._conditioned(np.array([x0, 0.0]), [1])
        assert cond.trees[1].node_count == 1
        assert cond.trees[1].value.tolist() == [value]
        full = np.array([[x0, -1.0], [x0, 3.0], [x0, 1e9]])
        assert np.array_equal(cond.predict_batch(full[:, 1:]), ens.predict_batch(full))


def test_predict_validation():
    ens = canonical_ensemble()
    with pytest.raises(ValidationError):
        ens.predict([1.0, 2.0])
    with pytest.raises(ValidationError):
        ens.predict([float("nan")])
    with pytest.raises(ValidationError):
        ens.predict([float("inf")])


def test_node_shape_validation():
    missing_right = {"feature": 0, "threshold": 1.0, "left": leaf(0.0)}
    with pytest.raises(ValidationError):
        pg.Tree(missing_right)
    with pytest.raises(ValidationError):
        pg.Tree({"value": 1.0, "feature": 0})
    with pytest.raises(ValidationError):
        pg.Tree(split(0, float("nan"), leaf(0.0), leaf(1.0)))


def test_tree_reads_the_model_file_schema():
    root = split(1, 0.25, leaf(-1.5), split(0, -2.0, leaf(0.5), leaf(3.0)))
    loaded = ensemble_from_dict({"num_features": 2, "trees": [root]}).trees[0]
    assert pg.Tree(root) == loaded
    # numpy scalars build the same arrays as the Python numbers they hold
    numpy_root = split(
        np.int64(1), np.float32(0.25), leaf(np.float32(-1.5)),
        split(np.int64(0), np.float64(-2.0), leaf(np.float32(0.5)), leaf(np.int64(3))),
    )
    assert pg.Tree(numpy_root) == loaded


def test_feature_index_out_of_range():
    tree = pg.Tree(split(3, 0.0, leaf(0.0), leaf(1.0)))
    with pytest.raises(ValidationError, match="feature 3"):
        pg.TreeEnsemble(trees=(tree,), num_features=2)


def test_canonical_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    ens = random_ensemble(rng, num_features=6, num_trees=5, max_depth=4, lattice_p=0.2)
    path = tmp_path / "model.json"
    pg.save_ensemble(ens, path)
    loaded = pg.load_ensemble(path)
    assert loaded == ens
    x = rng.normal(size=6)
    assert loaded.predict(x) == ens.predict(x)


def test_load_single_leaf_file(tmp_path):
    path = tmp_path / "leaf.json"
    path.write_text('{"num_features": 1, "trees": [{"value": 3.0}]}')
    ens = pg.load_ensemble(path)
    assert len(ens.trees) == 1 and ens.node_count == 1
    assert ens.predict([42.0]) == 3.0


def test_load_depth1_file(tmp_path):
    path = tmp_path / "d1.json"
    path.write_text(
        '{"num_features": 1, "trees": [{"feature": 0, "threshold": 0.0,'
        ' "left": {"value": 0.0}, "right": {"value": 1.0}}]}'
    )
    ens = pg.load_ensemble(path)
    assert ens.node_count == 3
    assert ens.num_features >= 1


def test_parse_error_carries_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"num_features": 2, "trees": [{"value": 1.0}, {"weird": 1}]}')
    with pytest.raises(FormatError, match=r"trees\[1\]"):
        pg.load_ensemble(path)


def test_non_binary_node_rejected(tmp_path):
    path = tmp_path / "unary.json"
    path.write_text(
        '{"num_features": 1, "trees": [{"feature": 0, "threshold": 0.0,'
        ' "left": {"value": 0.0}}]}'
    )
    with pytest.raises(ValidationError, match="trees"):
        pg.load_ensemble(path)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"num_features": 1,\n  "trees": [}')
    with pytest.raises(FormatError, match="line 2"):
        pg.load_ensemble(path)


def test_deep_tree(tmp_path):
    depth = 1500
    tree = _chain(depth)
    assert tree.max_depth == depth
    ens = pg.TreeEnsemble(trees=(tree,), num_features=1)
    # x sits on the last threshold, so the gap is 1 exactly when the noise
    # is negative
    spec = pg.PerturbationSpec.gaussian(1.0, 1)
    assert pg.pg2_exact(ens, [depth - 1.0], [0], spec) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(FormatError, match="nested too deeply to serialize"):
        pg.save_ensemble(ens, tmp_path / "deep.json")


def test_shared_child_is_not_a_cycle():
    shared = leaf(2.0)
    half = split(1, 0.0, shared, shared)
    tree = pg.Tree(split(0, 0.0, half, half))
    assert tree.node_count == 7 and tree.leaf_count == 4


@contextlib.contextmanager
def _deadline(seconds):
    """Fail instead of hanging if the block runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_cyclic_canonical_dict_rejected():
    node = {"feature": 0, "threshold": 0.5, "left": {"value": 1.0}}
    node["right"] = node
    with _deadline(2), pytest.raises(ValidationError, match=r"trees\[0\]\.right.*cyclic"):
        ensemble_from_dict({"num_features": 1, "trees": [node]})


def test_cyclic_xgboost_dict_rejected():
    node = {"nodeid": 0, "split": "f0", "split_condition": 0.5, "yes": 1, "no": 0}
    node["children"] = [{"nodeid": 1, "leaf": 1.0}, node]
    with _deadline(2), pytest.raises(ValidationError, match=r"tree\[0\]\.no.*cyclic"):
        ensemble_from_xgboost_dump([node])


# Nested objects built from the node keys of both formats: mostly nodes
# with every key of a canonical or an XGBoost node and small ids, so that
# examples parse several levels deep, and arbitrary objects among them.
_NODE_KEYS = st.sampled_from(
    ["feature", "threshold", "left", "right", "value", "nodeid", "split", "split_condition",
     "yes", "no", "missing", "children", "leaf"]
)
_NUMBERS = (
    st.integers(-1, 3)
    | st.floats(-3, 3)
    | st.sampled_from([float("nan"), float("inf"), 10**400, -(10**400), 2**64, True, "1", None])
)
# Repeated entries weight the valid choices.
_FEATURES = st.sampled_from([0, 1, 2, 0, 1, 2, -1, 2**64, 10**400, 1.0, True, "0"])
_IDS = st.sampled_from([0, 1, 0, 1, 0, 1, 2, [1], {}, "1", 1.5])
_SPLITS = st.sampled_from(
    ["f0", "f1", 2, "f0", "f1", 2, "f", "f\u00b2", "f99999999999999999999", [0]]
)
_JUNK = st.recursive(
    _NUMBERS | st.text(max_size=3), lambda inner: st.lists(inner, max_size=2), max_leaves=3
)


def _node_trees(leaf, split):
    return st.lists(
        st.recursive(
            leaf | _JUNK,
            lambda inner: split(inner) | st.dictionaries(_NODE_KEYS, inner, max_size=6),
            max_leaves=12,
        ),
        min_size=1,
        max_size=2,
    )


_CANONICAL_TREES = _node_trees(
    st.fixed_dictionaries({"value": _NUMBERS}),
    lambda inner: st.fixed_dictionaries(
        {"feature": _FEATURES, "threshold": _NUMBERS, "left": inner, "right": inner}
    ),
)
_XGBOOST_TREES = _node_trees(
    st.fixed_dictionaries({"nodeid": _IDS, "leaf": _NUMBERS}),
    lambda inner: st.fixed_dictionaries(
        {"nodeid": _IDS, "split": _SPLITS, "split_condition": _NUMBERS, "yes": _IDS,
         "no": _IDS, "children": st.lists(inner, min_size=2, max_size=2) | st.lists(inner)},
        optional={"missing": _IDS},
    ),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_CANONICAL_TREES, _XGBOOST_TREES, st.integers(1, 3))
def test_model_loaders_raise_only_package_errors(canonical, xgboost, num_features):
    try:
        ensemble_from_dict({"num_features": num_features, "trees": canonical})
    except pg.PredgapError:
        pass
    try:
        ensemble_from_xgboost_dump(xgboost)
    except pg.PredgapError:
        pass


# ---------------------------------------------------------------------------
# XGBoost dump import
# ---------------------------------------------------------------------------

def _xgb_leaf(nodeid, value):
    return {"nodeid": nodeid, "leaf": value}


def _xgb_split(nodeid, feature, threshold, yes, no, children, missing=None):
    node = {
        "nodeid": nodeid,
        "split": f"f{feature}",
        "split_condition": threshold,
        "yes": yes,
        "no": no,
        "children": children,
    }
    if missing is not None:
        node["missing"] = missing
    return node


def test_xgboost_yes_maps_to_less_than_branch():
    dump = [
        _xgb_split(0, 2, 1.5, yes=1, no=2, missing=1,
                   children=[_xgb_leaf(1, -1.0), _xgb_leaf(2, 2.5)])
    ]
    ens = ensemble_from_xgboost_dump(dump)
    assert ens.num_features == 3
    assert ens.predict([0.0, 0.0, 1.0]) == -1.0  # x2 < 1.5 -> "yes" branch
    assert ens.predict([0.0, 0.0, 1.5]) == 2.5   # tie -> "no" branch


def test_xgboost_missing_branch_rejected():
    dump = [
        _xgb_split(0, 0, 0.5, yes=1, no=2, missing=3,
                   children=[_xgb_leaf(1, 0.0), _xgb_leaf(2, 1.0)])
    ]
    with pytest.raises(ValidationError, match="missing"):
        ensemble_from_xgboost_dump(dump)


def test_xgboost_non_binary_rejected():
    dump = [
        {
            "nodeid": 0,
            "split": "f0",
            "split_condition": 0.5,
            "yes": 1,
            "no": 2,
            "children": [_xgb_leaf(1, 0.0)],
        }
    ]
    with pytest.raises(ValidationError, match="non-binary"):
        ensemble_from_xgboost_dump(dump)


def test_xgboost_base_score_folded_as_extra_tree():
    dump = [_xgb_leaf(0, 2.0)]
    ens = ensemble_from_xgboost_dump(dump, num_features=1, base_score=0.5)
    assert len(ens.trees) == 2
    assert ens.predict([0.0]) == 2.5


def _boosted_dump(rng, num_trees, num_features, depth):
    next_id = [0]

    def build(level):
        nid = next_id[0]
        next_id[0] += 1
        if level == depth:
            return _xgb_leaf(nid, float(np.round(rng.normal(), 6)))
        left = build(level + 1)
        right = build(level + 1)
        return _xgb_split(
            nid,
            int(rng.integers(num_features)),
            float(np.round(rng.normal(), 6)),
            yes=left["nodeid"],
            no=right["nodeid"],
            missing=left["nodeid"],
            children=[left, right],
        )

    trees = []
    for _ in range(num_trees):
        next_id[0] = 0
        trees.append(build(0))
    return trees


def test_forty_tree_dump_structure(tmp_path):
    rng = np.random.default_rng(40)
    dump = _boosted_dump(rng, num_trees=40, num_features=11, depth=4)
    ens = ensemble_from_xgboost_dump(dump, num_features=11)
    assert len(ens.trees) == 40
    # every root-leaf path is at most 5 nodes long (depth <= 4)
    assert all(t.max_depth + 1 <= 5 for t in ens.trees)
    round_trip = tmp_path / "canonical.json"
    pg.save_ensemble(ens, round_trip)
    assert pg.load_ensemble(round_trip) == ens

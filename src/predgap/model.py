"""Binary regression-tree ensembles: construction, serialization, prediction.

Trees use single-feature splits with strict-less-than routing: an input goes
to the left child when ``x[feature] < threshold`` and to the right child
otherwise, so threshold ties always route right.  The ensemble prediction is
the plain sum of per-tree leaf values.

``Tree(root)`` reads the canonical model file's node schema, the same
nested dicts that ``ensemble_from_dict`` reads for each entry of a file's
``trees``: a leaf is ``{"value": v}`` and a split is ``{"feature": f,
"threshold": t, "left": node, "right": node}``.  XGBoost dumps have their
own node reader; both fill the same pre-order arrays.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FormatError, ValidationError, json_number, read_json, write_text


_MAX_FEATURE = np.iinfo(np.int64).max  # feature indices are stored as int64


def _lock(owner, fields: dict) -> None:
    """Set ``owner``'s fields, with every numpy array among them read-only.

    Unpickled and copied arrays come back writable, so each class whose
    arrays feed a cache calls this from ``__setstate__`` as well.
    """
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(owner, name, value)


class Tree:
    """A single tree stored as flat, read-only pre-order numpy arrays.

    Node 0 is the root.  A split's left child is always the next node, i + 1,
    and its right child follows the whole left subtree, so every child has a
    larger index than its parent.  ``feature[i] < 0`` marks a leaf, in which
    case ``value[i]`` holds the leaf value.  ``child[2*i + go_left]`` is the
    node after i on the path of an input x, where ``go_left`` is ``x[feature[i]]
    < threshold[i]``; a leaf is its own child on both sides.  ``max_depth``
    and ``shallowest_leaf`` are the longest and shortest root-to-leaf paths,
    counted in edges.  Building and serializing walk the nodes with explicit
    stacks or index order, so depth is not limited by Python's recursion
    limit.  The arrays are read-only because ``TreeEnsemble.leaf_boxes``
    caches what they say.
    """

    __slots__ = ("feature", "threshold", "child", "value", "max_depth", "shallowest_leaf")

    def __init__(self, root) -> None:
        """Build from a nested node dict in the model file's schema."""
        self._fill(root, _canonical_node_fields, "tree")

    def _fill(self, root, read_node, where: str) -> None:
        """Lay the nodes below ``root`` out in pre-order.

        ``read_node(obj, where)`` validates one node of the source and
        returns either its leaf value or the tuple ``(feature, threshold,
        left, left_where, right, right_where)``.
        """
        rows = []  # [feature, threshold, value, right child, left child] per node
        leaf_depths = []
        # Right children wait on the stack with the index of their parent;
        # a left child is always its parent's next node.  Each entry also
        # carries its depth, which cuts ``path`` back to the splits above it.
        stack = [(root, where, -1, 0)]
        path = {}  # ids of the splits above the current node, root first
        while stack:
            obj, where, parent, depth = stack.pop()
            while len(path) > depth:
                path.popitem()  # dicts pop their newest key
            if id(obj) in path:
                raise ValidationError(f"{where}: node is its own ancestor (a cyclic tree)")
            i = len(rows)
            if parent >= 0:
                rows[parent][3] = i
            node = read_node(obj, where)
            if not isinstance(node, tuple):
                if not math.isfinite(node):
                    raise ValidationError(f"{where}: leaf value must be finite")
                rows.append([-1, 0.0, float(node), i, i])
                leaf_depths.append(depth)
                continue
            feature, threshold, left, left_where, right, right_where = node
            if not 0 <= feature <= _MAX_FEATURE:
                raise ValidationError(f"{where}: feature index {feature} out of range")
            if not math.isfinite(threshold):
                raise ValidationError(f"{where}: split threshold must be finite")
            rows.append([feature, float(threshold), 0.0, -1, i + 1])
            path[id(obj)] = None
            stack.append((right, right_where, i, depth + 1))
            stack.append((left, left_where, -1, depth + 1))
        feature, threshold, value, right, left = zip(*rows)
        _lock(self, {
            "feature": np.array(feature, dtype=np.int64),
            "threshold": np.array(threshold, dtype=np.float64),
            "child": np.array((right, left), dtype=np.int64).T.ravel(),
            "value": np.array(value, dtype=np.float64),
            "max_depth": max(leaf_depths),
            "shallowest_leaf": min(leaf_depths),
        })

    @property
    def node_count(self) -> int:
        return self.feature.size

    @property
    def leaf_count(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    def leaves(self, flat: np.ndarray, rows: np.ndarray, work: tuple) -> np.ndarray | int:
        """The leaf each row reaches; row r's feature q is ``flat[q * n + r]``.

        ``flat`` holds the n rows column by column (feature-major), ``rows``
        is ``np.arange(n)`` and ``work`` is ``_walk_buffers(n)``, which the
        caller allocates once and shares across trees.  The walk writes every
        level into those buffers and returns the first of them, the leaf
        indices, which the next walk overwrites.  It starts at the root as
        the scalar 0: level 1 compares one column against the root's
        threshold, and a single-leaf tree returns 0 without reading ``flat``.
        Each further level moves every row one step down ``child``, with no
        mask, through ``take`` gathers: a per-call table ``feature * n``
        gives each node's column offset, and a row on a leaf reads
        ``flat[-n + r]`` (the last column's row r), which the leaf's
        self-loop discards.  Rows that all sit on leaves stop the walk early.
        That can only happen at or below the shallowest leaf, so only those
        levels check, on the offsets (negative exactly at leaves).
        """
        if self.max_depth == 0:
            return 0
        child, threshold = self.child, self.threshold
        idx, pos, value, cut, go_left = work
        n = rows.size
        start = int(self.feature[0]) * n
        # child[0] and child[1] are the root's right and left children.
        # mode="wrap" reads a negative position as indexing does, and spares
        # the copy of ``out`` that the default mode="raise" makes.
        np.less(flat[start:start + n], threshold[0], go_left)
        child.take(go_left.view(np.uint8), None, idx, "wrap")
        if self.max_depth == 1:
            return idx
        offset = self.feature * n
        for level in range(2, self.max_depth + 1):
            offset.take(idx, None, pos, "wrap")
            # max() raises on no rows, which sit on leaves vacuously.
            if self.shallowest_leaf < level and (not n or pos.max() < 0):
                break
            pos += rows
            flat.take(pos, None, value, "wrap")
            threshold.take(idx, None, cut, "wrap")
            np.less(value, cut, go_left)
            np.multiply(idx, 2, pos)
            pos += go_left
            child.take(pos, None, idx, "wrap")
        return idx

    def __setstate__(self, state) -> None:
        _lock(self, state[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.__slots__
        )

    def __repr__(self) -> str:
        return f"Tree(nodes={self.node_count}, leaves={self.leaf_count})"


def _walk_buffers(n: int) -> tuple:
    """The buffers of ``Tree.leaves`` for n rows: leaf index, gather
    position, feature value, threshold and branch, one entry per row."""
    return (np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64), np.empty(n),
            np.empty(n), np.empty(n, dtype=bool))


def _parse_tree(root, read_node, where: str) -> Tree:
    tree = Tree.__new__(Tree)
    tree._fill(root, read_node, where)
    return tree


@dataclass(frozen=True, eq=False)
class LeafBoxes:
    """Every leaf of an ensemble as the half-open box its root path allows.

    Row u describes one leaf: an input reaches it exactly when
    ``lo[u] <= x < hi[u]`` holds on every feature, so exactly one leaf per
    tree holds any finite x.  Rows run tree by tree, and in node order
    within a tree.
    """

    lo: np.ndarray  # (L, d); -inf where no split bounds the feature
    hi: np.ndarray  # (L, d); +inf likewise
    value: np.ndarray  # (L,) leaf values
    tree: np.ndarray  # (L,) tree index
    node: np.ndarray  # (L,) node index within the tree

    def __post_init__(self) -> None:
        _lock(self, vars(self))

    def __setstate__(self, state) -> None:
        _lock(self, state)

    def holds(self, vec: np.ndarray) -> np.ndarray:
        """(L, d) booleans: whether leaf u's box holds ``vec`` on feature q."""
        return (self.lo <= vec) & (vec < self.hi)


@dataclass(frozen=True)
class TreeEnsemble:
    """An additive ensemble of binary trees over ``num_features`` inputs.

    Immutable after construction (``leaf_boxes`` is derived once, on first
    use, and read-only); prediction is pure, so instances are safe to share
    across threads and processes.
    """

    trees: tuple[Tree, ...]
    num_features: int

    def __post_init__(self) -> None:
        if self.num_features < 1:
            raise ValidationError("num_features must be at least 1")
        if not self.trees:
            raise ValidationError("ensemble needs at least one tree")
        for t, tree in enumerate(self.trees):
            f = int(tree.feature.max())
            if f >= self.num_features:
                raise ValidationError(
                    f"tree {t} references feature {f}, but the ensemble "
                    f"declares only {self.num_features} features"
                )

    @property
    def node_count(self) -> int:
        return sum(t.node_count for t in self.trees)

    @property
    def leaf_count(self) -> int:
        return sum(t.leaf_count for t in self.trees)

    @cached_property
    def leaf_boxes(self) -> LeafBoxes:
        d = self.num_features
        parts = []
        for t, tree in enumerate(self.trees):
            lo = np.full((tree.node_count, d), -np.inf)
            hi = np.full((tree.node_count, d), np.inf)
            # Nodes are stored in pre-order, so a parent's box is final
            # before either child reads it.  Python scalars index faster
            # than numpy ones.
            feature, threshold, child = (
                a.tolist() for a in (tree.feature, tree.threshold, tree.child)
            )
            for i in np.flatnonzero(tree.feature >= 0).tolist():
                q, cut, a, b = feature[i], threshold[i], i + 1, child[2 * i]
                lo[a] = lo[b] = lo[i]
                hi[a] = hi[b] = hi[i]
                hi[a, q] = min(hi[i, q], cut)
                lo[b, q] = max(lo[i, q], cut)
            leaves = np.flatnonzero(tree.feature < 0)
            parts.append((lo[leaves], hi[leaves], tree.value[leaves], np.full(leaves.size, t), leaves))
        return LeafBoxes(*(np.concatenate(column) for column in zip(*parts)))

    def predict(self, x) -> float:
        """The sum, in tree order, of the values of the leaves whose box holds x."""
        vec = as_feature_vector(x, self.num_features)
        boxes = self.leaf_boxes
        return float(sum(boxes.value[boxes.holds(vec).all(axis=1)].tolist()))

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """The sum, in tree order, of the values of the leaves each row reaches.

        The trees walk X column by column (``Tree.leaves``), so an
        F-contiguous X is read in place and any other layout is copied once.
        Each tree's walk starts from a scalar root, and a single-leaf tree
        adds its value to every row as a scalar.  The trees share one set of
        walk buffers.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.num_features:
            raise ValidationError(
                f"expected a (n, {self.num_features}) matrix, got {X.shape}"
            )
        if not np.isfinite(X).all():
            raise ValidationError("feature matrix contains non-finite entries")
        flat = np.asfortranarray(X).ravel(order="F")
        n = X.shape[0]
        rows, work = np.arange(n), _walk_buffers(n)
        out = np.zeros(n, dtype=np.float64)
        for tree in self.trees:
            out += tree.value[tree.leaves(flat, rows, work)]
        return out

    def _conditioned(self, vec: np.ndarray, feats) -> TreeEnsemble:
        """This ensemble with every feature outside ``feats`` fixed at ``vec``.

        The result is an ensemble over ``len(feats)`` features: row r of a
        matrix X stands for the input that equals ``vec`` except that feature
        ``feats[j]`` is ``X[r, j]``, and ``predict_batch`` gives this
        ensemble's prediction there, bit for bit.  Each tree replaces a split
        on a feature outside ``feats`` by the child ``vec`` goes to and
        renumbers the remaining splits' features into ``feats``' columns; a
        tree with no split on ``feats`` becomes a single leaf.  ``feats`` is
        a non-empty, ascending sequence of distinct features; when it holds
        every feature, the ensemble itself is returned.
        """
        if len(feats) == self.num_features:
            return self
        column = {q: j for j, q in enumerate(feats)}
        x = vec.tolist()
        trees = []
        for tree in self.trees:
            feature, threshold, child, value = (
                a.tolist() for a in (tree.feature, tree.threshold, tree.child, tree.value)
            )

            # A node is its index; the indices come from ``child``, which
            # keeps them alive, so ``_fill``'s cycle check sees distinct ids.
            def read_node(i, where):
                q = feature[i]
                while q >= 0 and q not in column:
                    i = child[2 * i + (x[q] < threshold[i])]
                    q = feature[i]
                if q < 0:
                    return value[i]
                return column[q], threshold[i], child[2 * i + 1], where, child[2 * i], where

            trees.append(_parse_tree(0, read_node, "tree"))
        return TreeEnsemble(tuple(trees), len(feats))


def _as_index(value, what: str) -> int:
    """An index or count as an int; bools and non-integral numbers raise."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _as_seed(value) -> int:
    """A random seed as an int; negative, bool and non-integral seeds raise."""
    seed = _as_index(value, "seed")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return seed


def as_feature_vector(x, num_features: int) -> np.ndarray:
    """Coerce ``x`` to a finite float64 vector of the expected length."""
    vec = np.asarray(x, dtype=np.float64)
    if vec.shape != (num_features,):
        raise ValidationError(
            f"expected a feature vector of length {num_features}, got shape {vec.shape}"
        )
    if not np.isfinite(vec).all():
        raise ValidationError("feature vector contains non-finite entries")
    return vec


# ---------------------------------------------------------------------------
# Canonical JSON format
# ---------------------------------------------------------------------------

def _number(obj: dict, key: str, where: str) -> float:
    try:
        return json_number(obj[key])
    except (TypeError, OverflowError):
        raise FormatError(f"{where}: {key} must be a number") from None


def _canonical_node_fields(obj, where: str):
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object, got {type(obj).__name__}")
    keys = set(obj)
    if keys == {"value"}:
        return _number(obj, "value", where)
    if keys == {"feature", "threshold", "left", "right"}:
        feature = obj["feature"]
        if not isinstance(feature, (int, numbers.Integral)) or isinstance(feature, bool):
            raise FormatError(f"{where}: feature must be an integer")
        threshold = _number(obj, "threshold", where)
        return int(feature), threshold, obj["left"], where + ".left", obj["right"], where + ".right"
    if keys & {"feature", "threshold", "left", "right", "value"}:
        raise ValidationError(
            f"{where}: node is neither a complete split nor a pure leaf "
            f"(keys: {sorted(keys)})"
        )
    raise FormatError(f"{where}: unrecognized node shape (keys: {sorted(keys)})")


def ensemble_from_dict(obj) -> TreeEnsemble:
    if not isinstance(obj, dict):
        raise FormatError("model file: expected a top-level object")
    if "num_features" not in obj or "trees" not in obj:
        raise FormatError("model file: missing 'num_features' or 'trees'")
    d = obj["num_features"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise FormatError("model file: 'num_features' must be a positive integer")
    if not isinstance(obj["trees"], list) or not obj["trees"]:
        raise FormatError("model file: 'trees' must be a non-empty array")
    trees = tuple(
        _parse_tree(node, _canonical_node_fields, f"trees[{i}]")
        for i, node in enumerate(obj["trees"])
    )
    return TreeEnsemble(trees=trees, num_features=d)


def _tree_to_dict(tree: Tree) -> dict:
    feature, threshold, child, value = (
        a.tolist() for a in (tree.feature, tree.threshold, tree.child, tree.value)
    )
    # Children come after their parents, so a reverse pass meets both
    # children of a split before the split itself.
    nodes = [None] * len(feature)
    for i in reversed(range(len(feature))):
        if feature[i] < 0:
            nodes[i] = {"value": value[i]}
        else:
            nodes[i] = {
                "feature": feature[i],
                "threshold": threshold[i],
                "left": nodes[i + 1],
                "right": nodes[child[2 * i]],
            }
    return nodes[0]


def ensemble_to_dict(ensemble: TreeEnsemble) -> dict:
    return {
        "num_features": ensemble.num_features,
        "trees": [_tree_to_dict(t) for t in ensemble.trees],
    }


# ---------------------------------------------------------------------------
# XGBoost dump format
# ---------------------------------------------------------------------------

def _parse_split_feature(split, where: str) -> int:
    if isinstance(split, int) and not isinstance(split, bool):
        return split
    if isinstance(split, str):
        name = split[1:] if split.startswith("f") else split
        if name.isdigit():
            try:
                return int(name)
            except ValueError:  # a non-decimal digit, or too many digits
                pass
    raise FormatError(f"{where}: cannot map split identifier {split!r} to a feature index")


def _xgb_node_fields(obj, where: str):
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object, got {type(obj).__name__}")
    if "leaf" in obj:
        return _number(obj, "leaf", where)
    for key in ("split", "split_condition", "yes", "no", "children"):
        if key not in obj:
            raise FormatError(f"{where}: split node missing {key!r}")
    children = obj["children"]
    if not isinstance(children, list) or len(children) != 2:
        raise ValidationError(
            f"{where}: non-binary node ({len(children) if isinstance(children, list) else 0} children)"
        )
    if "missing" in obj and obj["missing"] not in (obj["yes"], obj["no"]):
        raise ValidationError(
            f"{where}: dedicated missing-value branch (missing={obj['missing']}) "
            "is unsupported; inputs must be finite"
        )
    for j, child in enumerate(children):
        if not isinstance(child, dict) or "nodeid" not in child:
            raise FormatError(f"{where}.children[{j}]: missing 'nodeid'")
    try:
        by_id = {child["nodeid"]: child for child in children}
        yes, no = by_id[obj["yes"]], by_id[obj["no"]]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise FormatError(f"{where}: 'yes'/'no' ids do not match the children") from None
    feature = _parse_split_feature(obj["split"], where)
    # "yes" is the x < threshold branch, i.e. our left child.
    return feature, _number(obj, "split_condition", where), yes, where + ".yes", no, where + ".no"


def ensemble_from_xgboost_dump(
    obj, num_features: int | None = None, base_score: float = 0.0
) -> TreeEnsemble:
    """Build an ensemble from a parsed XGBoost JSON dump (array of trees).

    ``base_score`` is not part of the dump format; when nonzero it is folded
    in as one extra single-leaf tree so that prediction stays a plain sum.
    """
    if not isinstance(obj, list) or not obj:
        raise FormatError("xgboost dump: expected a non-empty array of trees")
    trees = [_parse_tree(t, _xgb_node_fields, f"tree[{i}]") for i, t in enumerate(obj)]
    if num_features is None:
        num_features = max(max(int(t.feature.max()) for t in trees) + 1, 1)
    if base_score != 0.0:
        trees.append(Tree({"value": base_score}))
    return TreeEnsemble(trees=tuple(trees), num_features=num_features)


# ---------------------------------------------------------------------------
# File IO
# ---------------------------------------------------------------------------

def load_ensemble(path) -> TreeEnsemble:
    """Load a model file in the canonical JSON format."""
    return ensemble_from_dict(read_json(path, "model"))


def save_ensemble(ensemble: TreeEnsemble, path) -> None:
    """Write the canonical JSON format with full float round-trip precision."""
    # The JSON encoder recurses once per level of nesting.
    try:
        text = json.dumps(ensemble_to_dict(ensemble), indent=1)
    except RecursionError:
        raise FormatError("model trees nested too deeply to serialize") from None
    write_text(path, text + "\n")

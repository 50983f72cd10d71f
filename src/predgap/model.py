"""Binary regression-tree ensembles: construction, serialization, prediction.

Trees use single-feature splits with strict-less-than routing: an input goes
to the left child when ``x[feature] < threshold`` and to the right child
otherwise, so threshold ties always route right.  The ensemble prediction is
the plain sum of per-tree leaf values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import FormatError, ValidationError


@dataclass(frozen=True)
class TreeNode:
    """A split node or a leaf.  Exactly one of the two shapes is populated."""

    feature: int | None = None
    threshold: float | None = None
    left: TreeNode | None = None
    right: TreeNode | None = None
    value: float | None = None

    def __post_init__(self) -> None:
        split_fields = (self.feature, self.threshold, self.left, self.right)
        if self.value is not None:
            if any(f is not None for f in split_fields):
                raise ValidationError("a leaf node cannot carry split fields")
            if not math.isfinite(self.value):
                raise ValidationError("leaf value must be finite")
        else:
            if any(f is None for f in split_fields):
                raise ValidationError(
                    "a split node needs feature, threshold and both children"
                )
            if self.feature < 0:
                raise ValidationError(f"negative feature index {self.feature}")
            if not math.isfinite(self.threshold):
                raise ValidationError("split threshold must be finite")

    @property
    def is_leaf(self) -> bool:
        return self.value is not None

    @staticmethod
    def leaf(value: float) -> TreeNode:
        return TreeNode(value=float(value))

    @staticmethod
    def split(
        feature: int, threshold: float, left: TreeNode, right: TreeNode
    ) -> TreeNode:
        return TreeNode(
            feature=int(feature), threshold=float(threshold), left=left, right=right
        )


class Tree:
    """A single tree compiled to flat pre-order arrays.

    Node 0 is the root; children are stored by index.  ``feature[i] < 0``
    marks a leaf, in which case ``value[i]`` holds the leaf value and the
    child indices are -1.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "_np")

    def __init__(self, root: TreeNode) -> None:
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []

        def add(node: TreeNode) -> int:
            i = len(feature)
            if node.is_leaf:
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                value.append(node.value)
            else:
                feature.append(node.feature)
                threshold.append(node.threshold)
                left.append(-1)
                right.append(-1)
                value.append(0.0)
                left[i] = add(node.left)
                right[i] = add(node.right)
            return i

        add(root)
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self._np = (
            np.asarray(feature, dtype=np.int64),
            np.asarray(threshold, dtype=np.float64),
            np.asarray(left, dtype=np.int64),
            np.asarray(right, dtype=np.int64),
            np.asarray(value, dtype=np.float64),
        )

    @property
    def node_count(self) -> int:
        return len(self.feature)

    @property
    def leaf_count(self) -> int:
        return sum(1 for f in self.feature if f < 0)

    @property
    def max_depth(self) -> int:
        """Longest root-to-leaf path, counted in edges."""
        depth = [0] * self.node_count
        best = 0
        for i in range(self.node_count):
            if self.feature[i] >= 0:
                depth[self.left[i]] = depth[i] + 1
                depth[self.right[i]] = depth[i] + 1
            elif depth[i] > best:
                best = depth[i]
        return best

    def leaf_indices(self) -> Iterator[int]:
        return (i for i, f in enumerate(self.feature) if f < 0)

    def predict_one(self, x) -> float:
        feature, threshold, left, right = (
            self.feature,
            self.threshold,
            self.left,
            self.right,
        )
        i = 0
        f = feature[0]
        while f >= 0:
            i = left[i] if x[f] < threshold[i] else right[i]
            f = feature[i]
        return self.value[i]

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        feat, thr, left, right, value = self._np
        idx = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.arange(X.shape[0])
        pending = feat[idx] >= 0
        while pending.any():
            f = feat[idx]
            go_left = X[rows, np.maximum(f, 0)] < thr[idx]
            nxt = np.where(go_left, left[idx], right[idx])
            idx = np.where(pending, nxt, idx)
            pending = feat[idx] >= 0
        return value[idx]

    def to_node(self) -> TreeNode:
        def build(i: int) -> TreeNode:
            if self.feature[i] < 0:
                return TreeNode.leaf(self.value[i])
            return TreeNode.split(
                self.feature[i],
                self.threshold[i],
                build(self.left[i]),
                build(self.right[i]),
            )

        return build(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return (
            self.feature == other.feature
            and self.threshold == other.threshold
            and self.left == other.left
            and self.right == other.right
            and self.value == other.value
        )

    def __repr__(self) -> str:
        return f"Tree(nodes={self.node_count}, leaves={self.leaf_count})"


@dataclass(frozen=True)
class LeafBoxes:
    """Every leaf of an ensemble as the half-open box its root path allows.

    Row u describes one leaf: an input reaches it exactly when
    ``lo[u] <= x < hi[u]`` holds on every feature.  Rows run tree by tree,
    and in node order within a tree.
    """

    lo: np.ndarray  # (L, d); -inf where no split bounds the feature
    hi: np.ndarray  # (L, d); +inf likewise
    value: np.ndarray  # (L,) leaf values
    tree: np.ndarray  # (L,) tree index
    node: np.ndarray  # (L,) node index within the tree


@dataclass(frozen=True)
class TreeEnsemble:
    """An additive ensemble of binary trees over ``num_features`` inputs.

    Immutable after construction (``leaf_boxes`` is derived once, on first
    use); prediction is pure, so instances are safe to share across threads
    and processes.
    """

    trees: tuple[Tree, ...]
    num_features: int

    def __post_init__(self) -> None:
        if self.num_features < 1:
            raise ValidationError("num_features must be at least 1")
        if not self.trees:
            raise ValidationError("ensemble needs at least one tree")
        for t, tree in enumerate(self.trees):
            for f in tree.feature:
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
            feature, _, _, _, value = tree._np
            lo = np.full((tree.node_count, d), -np.inf)
            hi = np.full((tree.node_count, d), np.inf)
            # Nodes are stored in pre-order, so a parent's box is final
            # before either child reads it.
            for i in np.flatnonzero(feature >= 0).tolist():
                q, cut, a, b = tree.feature[i], tree.threshold[i], tree.left[i], tree.right[i]
                lo[a] = lo[b] = lo[i]
                hi[a] = hi[b] = hi[i]
                hi[a, q] = min(hi[i, q], cut)
                lo[b, q] = max(lo[i, q], cut)
            leaves = np.flatnonzero(feature < 0)
            parts.append((lo[leaves], hi[leaves], value[leaves], np.full(leaves.size, t), leaves))
        return LeafBoxes(*(np.concatenate(column) for column in zip(*parts)))

    def predict(self, x) -> float:
        vec = as_feature_vector(x, self.num_features)
        return float(sum(t.predict_one(vec) for t in self.trees))

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.num_features:
            raise ValidationError(
                f"expected a (n, {self.num_features}) matrix, got {X.shape}"
            )
        if not np.isfinite(X).all():
            raise ValidationError("feature matrix contains non-finite entries")
        out = np.zeros(X.shape[0], dtype=np.float64)
        for t in self.trees:
            out += t.predict_batch(X)
        return out


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

def _node_from_dict(obj, where: str) -> TreeNode:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object, got {type(obj).__name__}")
    keys = set(obj)
    if keys == {"value"}:
        if not isinstance(obj["value"], (int, float)) or isinstance(obj["value"], bool):
            raise FormatError(f"{where}: leaf value must be a number")
        return TreeNode.leaf(float(obj["value"]))
    if keys == {"feature", "threshold", "left", "right"}:
        if not isinstance(obj["feature"], int) or isinstance(obj["feature"], bool):
            raise FormatError(f"{where}: feature must be an integer")
        if not isinstance(obj["threshold"], (int, float)) or isinstance(
            obj["threshold"], bool
        ):
            raise FormatError(f"{where}: threshold must be a number")
        left = _node_from_dict(obj["left"], where + ".left")
        right = _node_from_dict(obj["right"], where + ".right")
        try:
            return TreeNode.split(obj["feature"], obj["threshold"], left, right)
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    if keys & {"feature", "threshold", "left", "right", "value"}:
        raise ValidationError(
            f"{where}: node is neither a complete split nor a pure leaf "
            f"(keys: {sorted(keys)})"
        )
    raise FormatError(f"{where}: unrecognized node shape (keys: {sorted(keys)})")


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"value": node.value}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


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
        Tree(_node_from_dict(node, f"trees[{i}]"))
        for i, node in enumerate(obj["trees"])
    )
    return TreeEnsemble(trees=trees, num_features=d)


def ensemble_to_dict(ensemble: TreeEnsemble) -> dict:
    return {
        "num_features": ensemble.num_features,
        "trees": [_node_to_dict(t.to_node()) for t in ensemble.trees],
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
            return int(name)
    raise FormatError(f"{where}: cannot map split identifier {split!r} to a feature index")


def _node_from_xgb(obj, where: str) -> TreeNode:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object, got {type(obj).__name__}")
    if "leaf" in obj:
        if not isinstance(obj["leaf"], (int, float)) or isinstance(obj["leaf"], bool):
            raise FormatError(f"{where}: leaf value must be a number")
        return TreeNode.leaf(float(obj["leaf"]))
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
    by_id = {}
    for j, child in enumerate(children):
        if not isinstance(child, dict) or "nodeid" not in child:
            raise FormatError(f"{where}.children[{j}]: missing 'nodeid'")
        by_id[child["nodeid"]] = child
    if obj["yes"] not in by_id or obj["no"] not in by_id:
        raise FormatError(f"{where}: 'yes'/'no' ids do not match the children")
    feature = _parse_split_feature(obj["split"], where)
    threshold = obj["split_condition"]
    if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
        raise FormatError(f"{where}: split_condition must be a number")
    # "yes" is the x < threshold branch, i.e. our left child.
    left = _node_from_xgb(by_id[obj["yes"]], where + ".yes")
    right = _node_from_xgb(by_id[obj["no"]], where + ".no")
    try:
        return TreeNode.split(feature, threshold, left, right)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def ensemble_from_xgboost_dump(
    obj, num_features: int | None = None, base_score: float = 0.0
) -> TreeEnsemble:
    """Build an ensemble from a parsed XGBoost JSON dump (array of trees).

    ``base_score`` is not part of the dump format; when nonzero it is folded
    in as one extra single-leaf tree so that prediction stays a plain sum.
    """
    if not isinstance(obj, list) or not obj:
        raise FormatError("xgboost dump: expected a non-empty array of trees")
    roots = [_node_from_xgb(t, f"tree[{i}]") for i, t in enumerate(obj)]
    trees = [Tree(r) for r in roots]
    max_feature = max((f for t in trees for f in t.feature), default=-1)
    if num_features is None:
        num_features = max(max_feature + 1, 1)
    if base_score != 0.0:
        trees.append(Tree(TreeNode.leaf(base_score)))
    return TreeEnsemble(trees=tuple(trees), num_features=num_features)


# ---------------------------------------------------------------------------
# File IO
# ---------------------------------------------------------------------------

def load_ensemble(
    path,
    format: str = "canonical",
    num_features: int | None = None,
    base_score: float = 0.0,
) -> TreeEnsemble:
    """Load a model file in the named format ('canonical' or 'xgboost-dump')."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    # The JSON decoder and the node parsers recurse once per tree level.
    try:
        obj = json.loads(text)
        if format == "canonical":
            return ensemble_from_dict(obj)
        if format == "xgboost-dump":
            return ensemble_from_xgboost_dump(
                obj, num_features=num_features, base_score=base_score
            )
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise FormatError(f"{path}: trees nested too deeply to parse") from None
    raise ValidationError(f"unknown model format {format!r}")


def save_ensemble(ensemble: TreeEnsemble, path) -> None:
    """Write the canonical JSON format with full float round-trip precision."""
    Path(path).write_text(json.dumps(ensemble_to_dict(ensemble), indent=1) + "\n")

"""Exact squared prediction gap via leaf-pair activation probabilities.

Each leaf is the half-open box ``[lo, hi)`` its root path confines the
input to (``TreeEnsemble.leaf_boxes``); threshold ties route right, so box
membership matches prediction exactly.  For a query x and a perturbed
feature set S, a leaf is *alive* when its box holds x on every feature
outside S; every other leaf fires with probability 0.  Two alive leaves
fire together with the probability

    P[u, v] = prod over q in S of Pr[delta_q in [max(lo_u, lo_v) - x_q,
                                                 min(hi_u, hi_v) - x_q)),

which for u == v is the leaf's own probability and for two different
leaves of one tree is 0.  With leaf values y shifted per tree by the value
of the leaf x reaches, the gap is

    PG2 = sum_u P[u, u] y_u^2 + 2 sum_{i<j} y_i' P_ij y_j,

where P_ij is the block of P between the alive leaves of trees i and j.
``cdf_below`` (F) is non-decreasing, so each factor of a pair is

    max(0, min(F(hi_u - x_q), F(hi_v - x_q)) - max(F(lo_u - x_q), F(lo_v - x_q))),

bit for bit ``interval_prob`` on the intersected ends, since F(min(a, b)) =
min(F(a), F(b)) and F(max(a, b)) = max(F(a), F(b)).  F is evaluated once
per alive leaf end.

Only *contributing* leaves enter the pair sums: alive leaves with y != 0
and a positive probability P[u, u] of their own.  Every other term is an
exact 0.0.  y = 0 multiplies a leaf's row by 0, and each factor of a pair
is at most the leaf's own factor (rounding is monotone), so P[u, u] == 0
makes the whole row exactly 0.  The noise reaches a leaf with probability
0 when its box is empty on a perturbed feature (lo >= hi), lies beyond the
Gaussian CDF's clamp at 6 sigma sqrt(2), or misses a Uniform or Discrete
support; the leaf x reaches has y = 0.  The contributing leaves run tree by
tree, and blocks are built one tree pair at a time: each factor broadcasts
tree i's values as a (K_i, 1) column against tree j's (K_j,) row, is
clamped at 0 in place, and the first becomes the block that each later one
is multiplied into.  The work is 2 |S| A CDF evaluations for A alive leaves
plus |S| * sum_{i<j} K_i K_j min/max/subtract/clamp/multiply, with K_i
contributing leaves in tree i; a tree with none gets no block.  The CDFs
take one ``cdf_below`` array call, and the diagonal one ``interval_prob``
array call, when every perturbed feature has the same distribution object
(``PerturbationSpec.same`` gives them all one), and one call per perturbed
feature otherwise; memory is the block and two (K_i, K_j) temporaries.

``leaf_pair_probabilities`` builds the whole of P instead.  Its rows and
columns of alive leaves with P[u, u] == 0 (y does not enter P) are exact
zeros, so it fills the (K, K) block of the other K alive leaves with the
same ``_joint``, a strip of n rows at a time.  The block is symmetric, so
each strip is the ``_joint`` block of its rows against the columns from
its first row on, and the part right of its n x n square is mirrored into
the rows below: about 5 |S| (K^2 + K n) / 2 elementwise operations (min,
max, subtract, clamp at 0, multiply in), and beside the block only a
strip's ``_joint`` block and its two temporaries of at most ``_STRIP``
entries each.  When K = L the block is P itself; otherwise it is scattered
into a zero (L, L) array.  Its ``LeafPairTable`` holds that array and the
leaves' (tree, node) keys; the iterable ``pair_prob`` view and the
per-tree sums read the array, so the table costs L^2 floats and no Python
object per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import NumericDomainError, ValidationError
from .model import TreeEnsemble, _as_index, _lock, as_feature_vector
from .perturb import Discrete, PerturbationSpec

# Most entries per strip of the leaf-pair table's fill: n = _STRIP // K rows
# of at most K columns, 256 KiB, so each strip's ``_joint`` block and its two
# temporaries stay in a typical L2 cache.  Wider strips are slower: fresh
# temporaries that outgrow the cache fault their pages in again.
_STRIP = 1 << 15

# The most offset combinations ``pg2_brute_force`` enumerates.
_MAX_COMBINATIONS = 10_000_000


class _PairProbabilities:
    """A read-only view of a table's pair probabilities, row-major over ``P``:
    ``items()`` pairs each ordered ((tree, node), (tree, node)) leaf pair with
    its probability, and ``values()`` lists the probabilities alone."""

    __slots__ = ("_table",)

    def __init__(self, table: LeafPairTable):
        self._table = table

    def __len__(self) -> int:
        return self._table.P.size

    def values(self) -> list[float]:
        return self._table.P.reshape(-1).tolist()

    def items(self) -> zip:
        leaves = list(zip(self._table.tree.tolist(), self._table.node.tolist()))
        return zip(product(leaves, repeat=2), self.values())


@dataclass(frozen=True, eq=False)
class LeafPairTable:
    """Activation probabilities for every leaf and every ordered leaf pair.

    ``P`` is the dense (L, L) matrix, rows and columns in ``leaf_boxes``
    order: ``P[u, v]`` is Pr[leaves u and v both fire], so its diagonal holds
    the single-leaf probabilities and a same-tree entry off the diagonal is
    0.  Leaf u is node ``node[u]`` of tree ``tree[u]`` (the ``leaf_boxes``
    arrays, shared): to read one pair, index ``P`` with the rows whose
    ``tree`` and ``node`` name its leaves.  The table costs L^2 floats and no
    Python object per pair; ``pair_prob`` iterates it as ((tree, node),
    (tree, node)) pairs with their probabilities.  ``P``, ``tree`` and
    ``node`` are read-only, also after pickling and copying.
    """

    P: np.ndarray  # (L, L)
    tree: np.ndarray  # (L,) tree index
    node: np.ndarray  # (L,) node index within the tree
    num_trees: int

    def __post_init__(self) -> None:
        _lock(self, vars(self))

    def __setstate__(self, state) -> None:
        _lock(self, state)

    @property
    def pair_prob(self) -> _PairProbabilities:
        """Pr[both leaves fire] for every ordered pair of (tree, node) leaf
        keys, row-major in leaf-box order."""
        return _PairProbabilities(self)

    def tree_probability_sums(self) -> list[float]:
        """Sum of the leaf probabilities of each tree, in tree order."""
        return np.bincount(self.tree, weights=np.diagonal(self.P), minlength=self.num_trees).tolist()

    def cross_tree_pair_sums(self) -> dict[tuple[int, int], float]:
        """Sum of P over each block of two different trees, keyed (i, j)
        row-major."""
        starts = np.searchsorted(self.tree, np.arange(self.num_trees))
        sums = np.add.reduceat(np.add.reduceat(self.P, starts, axis=0), starts, axis=1)
        return {
            (i, j): p
            for i, row in enumerate(sums.tolist())
            for j, p in enumerate(row)
            if i != j
        }


def _check_query(ensemble, x, features, spec):
    """The query as a vector, its sorted perturbed features and their noise."""
    vec = as_feature_vector(x, ensemble.num_features)
    feats = sorted(set(_as_index(q, "perturbed feature") for q in features))
    for q in feats:
        if not 0 <= q < ensemble.num_features:
            raise ValidationError(
                f"perturbed feature {q} outside the model's {ensemble.num_features} features"
            )
    return vec, feats, [spec.distribution_for(q) for q in feats]


def _alive(boxes, vec, feats, dists):
    """x's (L, d) box-membership matrix, the alive leaves, their boxes on S
    relative to x, and ``cdf_below`` of the box ends (F_lo, F_hi), the last
    four as (|S|, A) arrays."""
    fixed = np.ones(vec.size, dtype=bool)
    fixed[feats] = False
    holds = boxes.holds(vec)
    alive = np.flatnonzero(holds[:, fixed].all(axis=1))
    ends = (np.stack((boxes.lo[alive], boxes.hi[alive]))[..., feats] - vec[feats]).transpose(2, 0, 1)
    F = _per_distribution(dists, "cdf_below", ends)
    return holds, alive, ends[:, 0], ends[:, 1], F[:, 0], F[:, 1]


def _per_distribution(dists, method, *arrays):
    """``dists[k].<method>`` of row k of ``arrays``, as one array: one call on
    the whole arrays when every feature has the same distribution object,
    otherwise one call per feature.  The calls work elementwise, so both
    give the per-feature values."""
    if dists and all(dist is dists[0] for dist in dists):
        return getattr(dists[0], method)(*arrays)
    out = np.empty(arrays[0].shape)
    for k, dist in enumerate(dists):
        out[k] = getattr(dist, method)(*(a[k] for a in arrays))
    return out


def _mass(dists, lo, hi):
    """Elementwise product over k of ``dists[k].interval_prob(lo[k], hi[k])``,
    multiplied in k order."""
    return np.multiply.reduce(_per_distribution(dists, "interval_prob", lo, hi), axis=0)


def _joint(F_lo_a, F_hi_a, F_lo_b, F_hi_b):
    """Pair probabilities between two sets of alive leaves, shape (A_a, A_b),
    from the leaves' ``cdf_below`` values; features multiply in order.  Each
    factor broadcasts an (A_a, 1) column of the a side against the (A_b,)
    b side and is built in place; the first becomes the product and each
    later one is multiplied into it.  No features gives an (A_a, A_b) array
    of ones."""
    p = None
    for la, ha, lb, hb in zip(F_lo_a[..., None], F_hi_a[..., None], F_lo_b, F_hi_b):
        f = np.minimum(ha, hb)
        f -= np.maximum(la, lb)
        np.maximum(f, 0.0, out=f)
        if p is None:
            p = f
        else:
            p *= f
    return np.ones((F_lo_a.shape[1], F_lo_b.shape[1])) if p is None else p


def _cross(blocks):
    """Sum over tree pairs i < j of y_i' P_ij y_j, one block at a time, from
    per-tree (y, F_lo, F_hi) triples."""
    total = 0.0
    for i, (yi, loi, hii) in enumerate(blocks):
        for yj, loj, hij in blocks[i + 1:]:
            total += float(yi @ _joint(loi, hii, loj, hij) @ yj)
    return total


def _fill_joint(F_lo, F_hi):
    """``_joint(F_lo, F_hi, F_lo, F_hi)`` as a new (A, A) array, built from
    its upper triangle a strip of n rows at a time: strip [a, a + n) is the
    ``_joint`` block of its rows against the columns [a, A), copied into
    ``out[a:a + n, a:]`` and, right of its n x n square, mirrored into the
    rows below.  min and max commute, so the mirror holds the values the
    lower triangle would get, and the array is exactly symmetric."""
    size = F_lo.shape[1]
    out = np.empty((size, size))
    rows = min(max(1, _STRIP // size), size)
    for a in range(0, size, rows):
        n = min(rows, size - a)
        strip = _joint(F_lo[:, a:a + n], F_hi[:, a:a + n], F_lo[:, a:], F_hi[:, a:])
        out[a:a + n, a:] = strip
        out[a + n:, a:a + n] = strip[:, n:].T
    return out


def leaf_pair_probabilities(
    ensemble: TreeEnsemble,
    x,
    features,
    spec: PerturbationSpec,
) -> LeafPairTable:
    """Compute Pr[leaf active] and Pr[both leaves active] for all leaf pairs.

    The (K, K) block of the K alive leaves with a positive probability of
    their own is filled from its upper triangle, one ``_joint`` strip of n
    rows at a time, and mirrored: about 5 |S| (K^2 + K n) / 2 elementwise
    operations.  When K = L the block is ``P`` itself, otherwise it is
    scattered into a zero (L, L) array.  Building takes ``P``, the block
    when it is not ``P``, and a strip's ``_joint`` block and two temporaries
    of at most ``_STRIP`` entries each.
    """
    vec, feats, dists = _check_query(ensemble, x, features, spec)
    boxes = ensemble.leaf_boxes
    _, alive, _, _, F_lo, F_hi = _alive(boxes, vec, feats, dists)
    size = boxes.value.size
    # A leaf whose own probability is 0 has a row and column of exact zeros.
    positive = np.multiply.reduce(np.maximum(F_hi - F_lo, 0.0), axis=0) > 0.0
    P = block = _fill_joint(F_lo[:, positive], F_hi[:, positive])
    keep = alive[positive]
    if keep.size < size:
        P = np.zeros((size, size))
        P[np.ix_(keep, keep)] = block
    return LeafPairTable(P=P, tree=boxes.tree, node=boxes.node, num_trees=len(ensemble.trees))


def pg2_exact(
    ensemble: TreeEnsemble,
    x,
    features,
    spec: PerturbationSpec,
) -> float:
    """E[(f(x') - f(x))^2] under independent perturbation of ``features``.

    Leaf values are first shifted per tree by the leaf value the unperturbed
    input reaches; the shift cancels in the gap, so the quadratic expansion
    has no constant term.  This keeps the variance-like result from being a
    difference of large terms, and makes structurally unaffected queries
    (every alive leaf carries its tree's reached value, so y = 0) come out
    as an exact 0.0.
    """
    vec, feats, dists = _check_query(ensemble, x, features, spec)
    if not feats:
        return 0.0
    boxes = ensemble.leaf_boxes
    holds, alive, lo, hi, F_lo, F_hi = _alive(boxes, vec, feats, dists)
    # The leaf x reaches is the one leaf per tree whose box holds x on every
    # feature, so these values come in tree order.
    reached = boxes.value[holds.all(axis=1)]
    y = boxes.value[alive] - reached[boxes.tree[alive]]
    mass = _mass(dists, lo, hi)
    diagonal = float(y * y @ mass)

    # Only contributing leaves (y != 0 and mass > 0) enter the pair sums;
    # every term of another leaf is an exact 0.0.  They run tree by tree:
    # cut them into one block per tree.
    keep = np.flatnonzero((y != 0.0) & (mass > 0.0))
    y, F_lo, F_hi, tree = y[keep], F_lo[:, keep], F_hi[:, keep], boxes.tree[alive[keep]]
    bounds = [0, *(np.flatnonzero(tree[1:] != tree[:-1]) + 1).tolist(), y.size]
    blocks = [(y[a:b], F_lo[:, a:b], F_hi[:, a:b]) for a, b in zip(bounds, bounds[1:])]
    result = diagonal + 2.0 * _cross(blocks)
    if result < 0.0:
        # The same sum over |y| bounds the round-off; only this case needs it.
        magnitude = _cross([(np.abs(yb), fl, fh) for yb, fl, fh in blocks])
        slack = 1e-9 * max(diagonal + 2.0 * magnitude, 1e-300)
        if -result <= slack:
            return 0.0
        raise NumericDomainError(
            f"squared prediction gap came out negative ({result}) beyond rounding slack"
        )
    return result


def pg2_brute_force(
    ensemble: TreeEnsemble,
    x,
    features,
    spec: PerturbationSpec,
) -> float:
    """Oracle for all-discrete perturbations: enumerate every offset combo.

    Independent of the leaf boxes; it evaluates the model on each perturbed
    input and takes the probability-weighted mean of squared gaps.
    """
    vec, feats, dists = _check_query(ensemble, x, features, spec)
    if not feats:
        return 0.0
    for q, dist in zip(feats, dists):
        if not isinstance(dist, Discrete):
            raise ValidationError(
                f"brute force needs discrete distributions; feature {q} has {type(dist).__name__}"
            )
    total = math.prod(len(dist.points) for dist in dists)
    if total > _MAX_COMBINATIONS:
        raise ValidationError(f"offset combinations exceed the guard of {_MAX_COMBINATIONS}")
    c = ensemble.predict(vec)
    X = np.tile(vec, (total, 1))
    weights = np.ones(total, dtype=np.float64)
    for combo_index, combo in enumerate(product(*(d.points for d in dists))):
        for (offset, prob), q in zip(combo, feats):
            X[combo_index, q] += offset
            weights[combo_index] *= prob
    gaps = ensemble.predict_batch(X) - c
    return float(np.sum(weights * gaps * gaps))

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
per alive leaf end, and blocks are built one tree pair at a time from outer
min/max of those values.  A tree is *live* when one of its alive leaves has
y != 0; every block of any other tree adds exactly 0.0, so only pairs of
live trees get one.  The work is 2 |S| A CDF evaluations for A alive leaves
plus |S| * sum_{i<j} A_i A_j min/max/subtract over live trees i, j with A_i
alive leaves.  The CDFs take one ``cdf_below`` array call, and the diagonal
one ``interval_prob`` array call, per distinct distribution object among the
perturbed features (``PerturbationSpec.same`` gives them all one); memory is
one block.

``leaf_pair_probabilities`` builds the whole of P instead, filling the
(A, A) block of all alive leaves in place from the same factors, a strip of
rows at a time: 5 |S| A^2 elementwise operations (outer min, outer max,
subtract, clamp at 0, multiply in), and beside P only two scratch strips of
about ``_STRIP`` entries.  When every leaf is alive the block is P itself;
otherwise it is scattered into a zero (L, L) array.  Its ``LeafPairTable``
holds that array and the leaves' (tree, node) keys; the iterable
``pair_prob`` view and the per-tree sums read the array, so the table costs
L^2 floats and no Python object per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import NumericDomainError, ValidationError
from .model import TreeEnsemble, _as_index, _lock, as_feature_vector
from .perturb import Discrete, PerturbationSpec

# Entries per row strip of the leaf-pair table's fill: a strip is 256 KiB, so
# the three a feature touches stay in a typical L2 cache.
_STRIP = 1 << 15


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


def _by_distribution(dists):
    """(distribution, positions in ``dists``) for each distinct object.

    Grouping is by identity, so one call covers every feature that shares a
    distribution object (``PerturbationSpec.same`` repeats one); the calls
    work elementwise, so each value is the one a per-feature call gives.
    """
    groups = {}
    for k, dist in enumerate(dists):
        groups.setdefault(id(dist), (dist, []))[1].append(k)
    return groups.values()


def _per_distribution(dists, method, *arrays):
    """``dists[k].<method>`` of row k of ``arrays``, as one array: one call per
    distinct distribution object (``_by_distribution``) on the rows it
    covers, or on the whole arrays when one object covers them all."""
    groups = _by_distribution(dists)
    if len(groups) == 1:
        (dist, _), = groups
        return getattr(dist, method)(*arrays)
    out = np.empty(arrays[0].shape)
    for dist, ks in groups:
        out[ks] = getattr(dist, method)(*(a[ks] for a in arrays))
    return out


def _mass(dists, lo, hi):
    """Elementwise product over k of ``dists[k].interval_prob(lo[k], hi[k])``,
    multiplied in k order."""
    return np.multiply.reduce(_per_distribution(dists, "interval_prob", lo, hi), axis=0)


def _joint(F_lo_a, F_hi_a, F_lo_b, F_hi_b):
    """Pair probabilities between two sets of alive leaves, shape (A_a, A_b),
    from the leaves' ``cdf_below`` values; features multiply in order."""
    p = 1.0
    for la, ha, lb, hb in zip(F_lo_a, F_hi_a, F_lo_b, F_hi_b):
        p = p * np.maximum(np.minimum.outer(ha, hb) - np.maximum.outer(la, lb), 0.0)
    return p


def _cross(blocks):
    """Sum over tree pairs i < j of y_i' P_ij y_j, one block at a time, from
    per-tree (y, F_lo, F_hi) triples."""
    total = 0.0
    for i, (yi, loi, hii) in enumerate(blocks):
        for yj, loj, hij in blocks[i + 1:]:
            total += float(yi @ _joint(loi, hii, loj, hij) @ yj)
    return total


def _fill_joint(out, F_lo, F_hi):
    """Write ``_joint(F_lo, F_hi, F_lo, F_hi)`` into the (A, A) array ``out``
    with the same operations in the same feature order, one strip of rows at
    a time: a strip's first factor goes straight into ``out``, each later one
    into a reused scratch strip that is multiplied in.  A strip of about
    ``_STRIP`` entries keeps its factors in cache between features.  No
    features gives 1.0 everywhere."""
    if not len(F_lo):
        out.fill(1.0)
        return
    size = out.shape[0]
    rows = max(1, _STRIP // size)
    lower = np.empty((min(rows, size), size))
    scratch = np.empty_like(lower)
    for a in range(0, size, rows):
        strip = out[a:a + rows]
        n = strip.shape[0]
        low = lower[:n]
        for k, (lo, hi) in enumerate(zip(F_lo, F_hi)):
            factor = scratch[:n] if k else strip
            np.minimum.outer(hi[a:a + n], hi, out=factor)
            np.maximum.outer(lo[a:a + n], lo, out=low)
            factor -= low
            np.maximum(factor, 0.0, out=factor)
            if k:
                strip *= factor


def leaf_pair_probabilities(
    ensemble: TreeEnsemble,
    x,
    features,
    spec: PerturbationSpec,
) -> LeafPairTable:
    """Compute Pr[leaf active] and Pr[both leaves active] for all leaf pairs.

    The (A, A) block of the A alive leaves is filled in place, 5 |S| A^2
    elementwise operations; when every leaf is alive it is ``P`` itself,
    otherwise it is scattered into a zero (L, L) array.  Building takes
    ``P``, the block when it is not ``P``, and two scratch strips of about
    ``_STRIP`` entries.
    """
    vec, feats, dists = _check_query(ensemble, x, features, spec)
    boxes = ensemble.leaf_boxes
    _, alive, _, _, F_lo, F_hi = _alive(boxes, vec, feats, dists)
    size = boxes.value.size
    if alive.size == size:
        P = np.empty((size, size))
        _fill_joint(P, F_lo, F_hi)
    else:
        block = np.empty((alive.size, alive.size))
        _fill_joint(block, F_lo, F_hi)
        P = np.zeros((size, size))
        P[np.ix_(alive, alive)] = block
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
    diagonal = float(y * y @ _mass(dists, lo, hi))

    # Alive leaves run tree by tree, and every tree has one (the leaf x
    # reaches): cut them into one block per tree.  A tree whose alive leaves
    # all have y = 0 adds exactly 0.0 to every pair sum, so only trees with
    # some y != 0 get a block.
    bounds = [0, *(np.flatnonzero(np.diff(boxes.tree[alive])) + 1).tolist(), y.size]
    blocks = [
        (y[a:b], F_lo[:, a:b], F_hi[:, a:b]) for a, b in zip(bounds, bounds[1:]) if y[a:b].any()
    ]
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
    max_combinations: int = 10_000_000,
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
    total = 1
    for dist in dists:
        total *= len(dist.points)
        if total > max_combinations:
            raise ValidationError(
                f"offset combinations exceed the guard of {max_combinations}"
            )
    c = ensemble.predict(vec)
    X = np.tile(vec, (total, 1))
    weights = np.ones(total, dtype=np.float64)
    for combo_index, combo in enumerate(product(*(d.points for d in dists))):
        for (offset, prob), q in zip(combo, feats):
            X[combo_index, q] += offset
            weights[combo_index] *= prob
    gaps = ensemble.predict_batch(X) - c
    return float(np.sum(weights * gaps * gaps))

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
min/max of those values.  The work is 2 |S| A CDF evaluations for A alive
leaves plus |S| * sum_{i<j} A_i A_j min/max/subtract for A_i alive leaves
in tree i; the diagonal takes |S| ``interval_prob`` array calls; memory is
one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _cartesian

import numpy as np

from .errors import NumericDomainError, ValidationError
from .model import TreeEnsemble, _as_index, as_feature_vector
from .perturb import Discrete, PerturbationSpec


@dataclass
class LeafPairTable:
    """Activation probabilities for every leaf and every ordered leaf pair.

    Leaves are keyed by (tree index, node index).  The pair table covers all
    ordered pairs, including same-tree pairs (zero unless u == v) and the
    diagonal, whose entries equal the single-leaf probabilities.
    """

    leaf_prob: dict[tuple[int, int], float]
    pair_prob: dict[tuple[tuple[int, int], tuple[int, int]], float]
    num_trees: int

    def tree_probability_sums(self) -> list[float]:
        sums = [0.0] * self.num_trees
        for (ti, _), p in self.leaf_prob.items():
            sums[ti] += p
        return sums

    def cross_tree_pair_sums(self) -> dict[tuple[int, int], float]:
        sums: dict[tuple[int, int], float] = {}
        for ((ti, _), (tj, _)), p in self.pair_prob.items():
            if ti != tj:
                sums[(ti, tj)] = sums.get((ti, tj), 0.0) + p
        return sums


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
    F = np.array([dist.cdf_below(e) for dist, e in zip(dists, ends)]).reshape(ends.shape)
    return holds, alive, ends[:, 0], ends[:, 1], F[:, 0], F[:, 1]


def _mass(dists, lo, hi):
    """Elementwise product over k of ``dists[k].interval_prob(lo[k], hi[k])``."""
    p = 1.0
    for dist, a, b in zip(dists, lo, hi):
        p = p * dist.interval_prob(a, b)
    return p


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


def leaf_pair_probabilities(
    ensemble: TreeEnsemble,
    x,
    features,
    spec: PerturbationSpec,
) -> LeafPairTable:
    """Compute Pr[leaf active] and Pr[both leaves active] for all leaf pairs."""
    vec, feats, dists = _check_query(ensemble, x, features, spec)
    boxes = ensemble.leaf_boxes
    _, alive, _, _, F_lo, F_hi = _alive(boxes, vec, feats, dists)
    P = np.zeros((boxes.value.size, boxes.value.size))
    P[np.ix_(alive, alive)] = _joint(F_lo, F_hi, F_lo, F_hi)
    keys = list(zip(boxes.tree.tolist(), boxes.node.tolist()))
    return LeafPairTable(
        leaf_prob=dict(zip(keys, np.diag(P).tolist())),
        pair_prob={(u, v): p for u, row in zip(keys, P.tolist()) for v, p in zip(keys, row)},
        num_trees=len(ensemble.trees),
    )


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
    # reaches): cut them into one block per tree.
    bounds = [0, *(np.flatnonzero(np.diff(boxes.tree[alive])) + 1).tolist(), y.size]
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
    for combo_index, combo in enumerate(_cartesian(*(d.points for d in dists))):
        for (offset, prob), q in zip(combo, feats):
            X[combo_index, q] += offset
            weights[combo_index] *= prob
    gaps = ensemble.predict_batch(X) - c
    return float(np.sum(weights * gaps * gaps))

"""Shared model builders and reference values for the test suite."""

from __future__ import annotations

import csv
import io

import numpy as np

import predgap as pg
from predgap import exact
from predgap.perturb import _PRIMES

# Standard normal CDF at 1, to double precision.
PHI_1 = 0.8413447460685429
# PG2 of the canonical depth-1 tree (split at 0, leaves 0/1) at x0 = -1,
# S = {0}, gaussian sigma = 1: the leaf flips with probability 1 - PHI_1.
CANONICAL_PG2 = 1.0 - PHI_1


def leaf(value) -> dict:
    """A leaf node in the model file's schema."""
    return {"value": value}


def split(feature, threshold, left, right) -> dict:
    """A split node in the model file's schema: x[feature] < threshold goes left."""
    return {"feature": feature, "threshold": threshold, "left": left, "right": right}


def depth1_tree(threshold=0.0, left=0.0, right=1.0) -> pg.Tree:
    return pg.Tree(split(0, threshold, leaf(left), leaf(right)))


def canonical_ensemble(num_features=1) -> pg.TreeEnsemble:
    """The depth-1 tree used by the hand-derived examples."""
    return pg.TreeEnsemble(trees=(depth1_tree(),), num_features=num_features)


def perfect_tree(rng, num_features, depth) -> pg.Tree:
    def build(level):
        if level == depth:
            return leaf(rng.normal())
        return split(
            int(rng.integers(num_features)),
            float(rng.normal(0.0, 0.8)),
            build(level + 1),
            build(level + 1),
        )

    return pg.Tree(build(0))


def random_tree(rng, num_features, max_depth, lattice_p=0.6) -> pg.Tree:
    """A random-shaped tree; thresholds sometimes land on a small integer
    lattice so that exact threshold ties get exercised."""

    def build(depth):
        if depth >= max_depth or (depth > 0 and rng.random() < 0.3):
            return leaf(rng.normal())
        if rng.random() < lattice_p:
            t = float(rng.integers(-2, 3))
        else:
            t = float(rng.normal())
        return split(int(rng.integers(num_features)), t, build(depth + 1), build(depth + 1))

    return pg.Tree(build(0))


def random_ensemble(rng, num_features, num_trees, max_depth, lattice_p=0.6) -> pg.TreeEnsemble:
    return pg.TreeEnsemble(
        trees=tuple(random_tree(rng, num_features, max_depth, lattice_p) for _ in range(num_trees)),
        num_features=num_features,
    )


def random_discrete(rng, max_points=4) -> pg.Discrete:
    k = int(rng.integers(1, max_points + 1))
    offsets = sorted(
        set(
            float(rng.integers(-2, 3)) if rng.random() < 0.5 else float(np.round(rng.normal(), 2))
            for _ in range(k)
        )
    )
    probs = rng.random(len(offsets)) + 0.1
    probs = np.round(probs / probs.sum(), 6)
    probs[-1] = 1.0 - probs[:-1].sum()
    return pg.Discrete(points=tuple((o, float(p)) for o, p in zip(offsets, probs)))


def lattice_point(rng, num_features) -> np.ndarray:
    """A query point that hits thresholds exactly about half the time."""
    return np.where(
        rng.random(num_features) < 0.5,
        rng.integers(-2, 3, num_features).astype(float),
        rng.normal(size=num_features),
    )


def fixture_ensemble():
    """The benchmark fixture: 10 perfect depth-4 trees over 8 features,
    plus the query pairs (one per subset size) used against sigma = 0.3."""
    rng = np.random.default_rng(20240801)
    d = 8
    ensemble = pg.TreeEnsemble(
        trees=tuple(perfect_tree(rng, d, 4) for _ in range(10)), num_features=d
    )
    X = rng.normal(size=(8, d))
    pairs = [
        (X[i], tuple(sorted(int(q) for q in rng.choice(d, size=i + 1, replace=False))))
        for i in range(8)
    ]
    return ensemble, pairs


def walk_oracle(ensemble, X) -> np.ndarray:
    """``predict_batch`` as the pending-mask walk: each tree moves only the
    rows not yet on a leaf, one level at a time, until none are left; the
    leaf values are summed in tree order."""
    X = np.asarray(X, dtype=np.float64)
    out = np.zeros(X.shape[0], dtype=np.float64)
    rows = np.arange(X.shape[0])
    for tree in ensemble.trees:
        feat, thr, right = tree.feature, tree.threshold, tree.child[0::2]
        idx = np.zeros(X.shape[0], dtype=np.int64)
        pending = feat[idx] >= 0
        while pending.any():
            go_left = X[rows, np.maximum(feat[idx], 0)] < thr[idx]
            idx = np.where(pending, np.where(go_left, idx + 1, right[idx]), idx)
            pending = feat[idx] >= 0
        out += tree.value[idx]
    return out


def perturbed_inputs_oracle(vec, feats, spec, config) -> np.ndarray:
    """``sampling.perturbed_inputs`` built row-major: n copies of ``vec[feats]``,
    to whose column j feature ``feats[j]``'s noise is added, feature by
    feature (MC draws from one generator, or Halton coordinate j through the
    inverse CDF)."""
    n = config.iterations
    X = np.tile(vec[list(feats)], (n, 1))
    if config.method == "mc":
        rng = np.random.default_rng(config.seed)
        for j, q in enumerate(feats):
            X[:, j] += spec.distribution_for(q).sample_n(rng, n)
    else:
        U = pg.halton_matrix(n, len(feats))
        for j, q in enumerate(feats):
            X[:, j] += spec.distribution_for(q).inv_cdf_n(U[:, j])
    return X


def full_width_squared_gaps(ensemble, x, features, spec, config) -> np.ndarray:
    """The squared gaps behind ``pg2_sampled``, from the whole ensemble on
    n full copies of x: each perturbed feature, in ascending order, adds its
    noise (MC draws, or the Halton coordinate of its rank through the inverse
    CDF) to its own column of the n×d matrix."""
    vec = np.asarray(x, dtype=np.float64)
    feats = sorted(set(features))
    n = config.iterations
    if not feats:
        return np.zeros(n)
    X = np.tile(vec, (n, 1))
    if config.method == "mc":
        rng = np.random.default_rng(config.seed)
        for q in feats:
            X[:, q] += spec.distribution_for(q).sample_n(rng, n)
    else:
        U = pg.halton_matrix(n, len(feats))
        for j, q in enumerate(feats):
            X[:, q] += spec.distribution_for(q).inv_cdf_n(U[:, j])
    gaps = ensemble.predict_batch(X) - ensemble.predict(vec)
    return gaps * gaps


def full_width_xi_random(ensemble, x, keep, dataset, samples, seed) -> float:
    """``xi_random`` on the whole ensemble: n full copies of x whose features
    outside ``keep`` are overwritten, in ascending order, by draws from the
    dataset's column."""
    vec = np.asarray(x, dtype=np.float64)
    randomized = [q for q in range(ensemble.num_features) if q not in set(keep)]
    if not randomized:
        return ensemble.predict(vec)
    rng = np.random.default_rng(seed)
    X = np.tile(vec, (samples, 1))
    for q in randomized:
        X[:, q] = dataset.values[rng.integers(dataset.num_instances, size=samples), q]
    return float(np.mean(ensemble.predict_batch(X)))


def load_csv_oracle(text, label_column=None, exclude=()):
    """``load_csv``'s values and labels, read cell by cell with ``float``: the
    feature columns are every column but the label and ``exclude`` ones, named
    by the stripped header cells."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    header = [name.strip() for name in rows[0]]
    features = [j for j, name in enumerate(header) if name != label_column and name not in exclude]
    values = np.empty((len(rows) - 1, len(features)))
    labels = None if label_column is None else np.empty(len(rows) - 1)
    for r, row in enumerate(rows[1:]):
        for k, j in enumerate(features):
            values[r, k] = float(row[j])
        if labels is not None:
            labels[r] = float(row[header.index(label_column)])
    return values, labels


def radical_inverse(index: int, base: int) -> float:
    """Reflect the base-``base`` digits of ``index`` about the radix point."""
    inv = 0.0
    scale = 1.0 / base
    while index > 0:
        index, digit = divmod(index, base)
        inv += digit * scale
        scale /= base
    return inv


def halton_point(index: int, dim: int) -> tuple[float, ...]:
    """The ``index``-th Halton point (1-based, unscrambled), one coordinate
    at a time: the scalar oracle for ``pg.halton_matrix``."""
    return tuple(radical_inverse(index, _PRIMES[j]) for j in range(dim))


def _interval_product(dists, lo, hi):
    """Elementwise product over k of ``dists[k].interval_prob(lo[k], hi[k])``."""
    p = 1.0
    for dist, a, b in zip(dists, lo, hi):
        p = p * dist.interval_prob(a, b)
    return p


def pair_block_oracle(dists, lo_a, hi_a, lo_b, hi_b):
    """The per-pair formula for two sets of alive leaves, shape (A_a, A_b):
    over the perturbed features in order, the product of ``interval_prob``
    on the intersected boxes [max(lo_u, lo_v), min(hi_u, hi_v))."""
    return _interval_product(
        dists, map(np.maximum.outer, lo_a, lo_b), map(np.minimum.outer, hi_a, hi_b)
    )


def _alive_boxes(ensemble, x, features, spec):
    """Query, alive leaf indices, their boxes on S relative to x as (|S|, A)
    arrays, and the noise of each perturbed feature."""
    vec = np.asarray(x, dtype=np.float64)
    feats = sorted(set(features))
    fixed = [q for q in range(ensemble.num_features) if q not in feats]
    boxes = ensemble.leaf_boxes
    holds = (boxes.lo[:, fixed] <= vec[fixed]) & (vec[fixed] < boxes.hi[:, fixed])
    alive = np.flatnonzero(holds.all(axis=1))
    lo = (boxes.lo[alive][:, feats] - vec[feats]).T
    hi = (boxes.hi[alive][:, feats] - vec[feats]).T
    return vec, alive, lo, hi, [spec.distribution_for(q) for q in feats]


def pair_table_oracle(ensemble, x, features, spec) -> np.ndarray:
    """The dense leaf-pair probability matrix from ``pair_block_oracle``,
    rows and columns in ``leaf_boxes`` order."""
    _, alive, lo, hi, dists = _alive_boxes(ensemble, x, features, spec)
    size = ensemble.leaf_boxes.value.size
    P = np.zeros((size, size))
    P[np.ix_(alive, alive)] = pair_block_oracle(dists, lo, hi, lo, hi)
    return P


def joint_table_reference(ensemble, x, features, spec) -> np.ndarray:
    """The dense leaf-pair matrix as one ``_joint`` block over every alive
    leaf, scattered into zeros with ``np.ix_``: the engine's own factors,
    built with no in-place fill."""
    vec, feats, dists = exact._check_query(ensemble, x, features, spec)
    boxes = ensemble.leaf_boxes
    _, alive, _, _, F_lo, F_hi = exact._alive(boxes, vec, feats, dists)
    P = np.zeros((boxes.value.size, boxes.value.size))
    P[np.ix_(alive, alive)] = exact._joint(F_lo, F_hi, F_lo, F_hi)
    return P


def pg2_pair_oracle(ensemble, x, features, spec) -> float:
    """PG2 with every tree-pair block from ``pair_block_oracle``, summed in
    ``pg2_exact``'s order (diagonal, then blocks i < j), so that the two
    agree bit for bit when the engine's blocks equal the per-pair formula."""
    if not set(features):
        return 0.0
    vec, alive, lo, hi, dists = _alive_boxes(ensemble, x, features, spec)
    boxes = ensemble.leaf_boxes
    # Each tree's reached value comes from walking the tree, not from the boxes.
    reached = np.concatenate([
        pg.TreeEnsemble((tree,), ensemble.num_features).predict_batch(vec[None, :])
        for tree in ensemble.trees
    ])
    y = boxes.value[alive] - reached[boxes.tree[alive]]
    result = float(y * y @ _interval_product(dists, lo, hi))
    cross = 0.0
    num_trees = len(ensemble.trees)
    cut = np.searchsorted(boxes.tree[alive], np.arange(num_trees + 1)).tolist()
    for i in range(num_trees):
        for j in range(i + 1, num_trees):
            a, b = slice(cut[i], cut[i + 1]), slice(cut[j], cut[j + 1])
            P = pair_block_oracle(dists, lo[:, a], hi[:, a], lo[:, b], hi[:, b])
            cross += float(y[a] @ P @ y[b])
    result += 2.0 * cross
    return result if result >= 0.0 else 0.0


def benchmark_report_oracle(
    ensemble, dataset, sigmas, iteration_grid, pairs, seed, repetitions=1,
    methods=("mc", "qmc"), sizes=None,
) -> dict:
    """``cli.run_benchmark``'s report built the per-size way, inline: one
    ``pg2_sampled`` call per pair, grid count and method (and MC repetition),
    MC seeded from the entropy [seed, sigma index, iterations, repetition,
    pair index]."""
    pair_list = pg.sample_pairs(dataset, ensemble.num_features, pairs, seed=seed, sizes=sizes)
    queries = [(dataset.instance(p.instance_index), p.feature_set) for p in pair_list]
    entries = []
    for sigma_idx, sigma in enumerate(sigmas):
        spec = pg.PerturbationSpec.gaussian(sigma, ensemble.num_features)
        truth = [pg.pg2_exact(ensemble, x, S, spec) for x, S in queries]
        if not any(truth):
            continue
        for n in iteration_grid:
            for method in methods:
                scores = []
                for rep in range(repetitions if method == "mc" else 1):
                    estimates = []
                    for pair_idx, (x, S) in enumerate(queries):
                        entropy = [seed, sigma_idx, n, rep, pair_idx]
                        state = np.random.SeedSequence(entropy).generate_state(1, np.uint64)
                        config = pg.EstimatorConfig(method, n, seed=int(state[0]))
                        estimates.append(pg.pg2_sampled(ensemble, x, S, spec, config))
                    scores.append(pg.nmae(truth, estimates))
                entries.append({
                    "method": method,
                    "iterations": n,
                    "sigma": sigma,
                    "nmae": float(np.mean(scores)),
                    "pairs": pairs,
                })
    return {
        "pairs": pairs,
        "seed": seed,
        "repetitions": repetitions,
        "sigmas": sigmas,
        "iteration_grid": iteration_grid,
        "methods": list(methods),
        "entries": entries,
    }

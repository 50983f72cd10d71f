"""Aggregate faithfulness metrics: PGI2, NMAE, and feature randomization."""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset
from .errors import NumericDomainError, ValidationError
from .exact import pg2_exact
from .model import TreeEnsemble, _as_index, _as_seed, as_feature_vector
from .perturb import PerturbationSpec
from .ranking import Ranking
from .sampling import _draw_matrix


def pgi2(ensemble: TreeEnsemble, x, ranking: Ranking, spec: PerturbationSpec) -> float:
    """Mean exact PG2 over the d nested prefixes of the ranking."""
    d = ensemble.num_features
    if ranking.num_features != d:
        raise ValidationError(
            f"ranking covers {ranking.num_features} features, model has {d}"
        )
    total = 0.0
    for k in range(1, d + 1):
        total += pg2_exact(ensemble, x, ranking.prefix(k), spec)
    return total / d


def mean_pgi2(
    ensemble: TreeEnsemble,
    dataset: Dataset,
    rankings: list[Ranking],
    spec: PerturbationSpec,
) -> float:
    """Arithmetic mean of PGI2 over the dataset with per-instance rankings."""
    if dataset.num_instances < 1:
        raise ValidationError("dataset has no instances")
    if len(rankings) != dataset.num_instances:
        raise ValidationError(
            f"{len(rankings)} rankings for {dataset.num_instances} instances"
        )
    total = 0.0
    for i, ranking in enumerate(rankings):
        total += pgi2(ensemble, dataset.instance(i), ranking, spec)
    return total / len(rankings)


def nmae(truth, estimates) -> float:
    """Sum of absolute errors over the sum of absolute truths."""
    y = np.asarray(truth, dtype=np.float64)
    y_hat = np.asarray(estimates, dtype=np.float64)
    if y.shape != y_hat.shape or y.ndim != 1 or y.size < 1:
        raise ValidationError(
            f"truth and estimates must be equal-length vectors, got {y.shape} and {y_hat.shape}"
        )
    denom = float(np.sum(np.abs(y)))
    if denom == 0.0:
        raise NumericDomainError("NMAE is undefined when every truth value is zero")
    return float(np.sum(np.abs(y - y_hat))) / denom


def xi_random(
    ensemble: TreeEnsemble,
    x,
    keep,
    dataset: Dataset,
    samples: int = 100,
    seed: int | np.random.SeedSequence = 0,
) -> float:
    """Average prediction after replacing non-kept features with empirical draws.

    Features outside ``keep`` are resampled independently (with replacement)
    from the dataset's corresponding column; features in ``keep`` stay fixed
    at the value in ``x``.  The draws come from ``np.random.default_rng(seed)``;
    a sample count whose draws cannot be allocated raises ``ValidationError``.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = _as_seed(seed)
    rng = np.random.default_rng(seed)
    samples = _as_index(samples, "sample count")
    if samples < 1:
        raise ValidationError(f"need at least one sample, got {samples}")
    if dataset.num_instances < 1:
        raise ValidationError("dataset has no instances to draw from")
    d = ensemble.num_features
    if dataset.num_features != d:
        raise ValidationError(
            f"dataset has {dataset.num_features} features, model expects {d}"
        )
    vec = as_feature_vector(x, d)
    keep_set = set(_as_index(q, "kept feature") for q in keep)
    for q in keep_set:
        if not 0 <= q < d:
            raise ValidationError(f"kept feature {q} outside 0..{d - 1}")
    randomized = [j for j in range(d) if j not in keep_set]
    if not randomized:
        return ensemble.predict(vec)
    # One column per randomized feature; the ensemble conditioned on x fixes
    # the rest.  The draws are stored feature-major, so X.T is F-contiguous.
    X = _draw_matrix(len(randomized), samples, "sample count")
    for j, q in enumerate(randomized):
        X[j] = dataset.values[rng.integers(dataset.num_instances, size=samples), q]
    return float(np.mean(ensemble._conditioned(vec, randomized).predict_batch(X.T)))


def randomization_rmse(
    ensemble: TreeEnsemble,
    dataset: Dataset,
    rankings: list[Ranking],
    k: int,
    samples: int = 100,
    seed: int = 0,
    labels=None,
) -> float:
    """RMSE caused by randomizing each instance's top-k ranked features.

    The deviation is measured against the model's own prediction on the
    untouched instance, or against ``labels`` when given.
    """
    samples, seed = _as_index(samples, "sample count"), _as_seed(seed)
    if dataset.num_instances < 1:
        raise ValidationError("dataset has no instances")
    if len(rankings) != dataset.num_instances:
        raise ValidationError(
            f"{len(rankings)} rankings for {dataset.num_instances} instances"
        )
    if not 0 <= k <= ensemble.num_features:
        raise ValidationError(f"k={k} outside 0..{ensemble.num_features}")
    if labels is not None:
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape != (dataset.num_instances,):
            raise ValidationError("labels misaligned with the dataset")
        if not np.isfinite(labels).all():
            raise ValidationError("labels contain non-finite entries")
    root = np.random.SeedSequence(seed)
    streams = root.spawn(dataset.num_instances)
    total = 0.0
    for i, ranking in enumerate(rankings):
        x = dataset.instance(i)
        keep = [j for j in range(ensemble.num_features) if j not in ranking.prefix(k)]
        xi = xi_random(ensemble, x, keep, dataset, samples, seed=streams[i])
        reference = float(labels[i]) if labels is not None else ensemble.predict(x)
        total += (reference - xi) ** 2
    return math.sqrt(total / dataset.num_instances)

"""Monte Carlo and quasi-Monte Carlo estimators of the prediction gap.

These are the sampling baselines the exact algorithm is measured against:
plain MC draws independent noise per perturbed feature, QMC runs the Halton
sequence (restarted at index 1 for every query) through each feature's
inverse CDF.  No variance-reduction tricks on purpose.

Every draw equals x outside the perturbed set S, so a query samples only S's
columns and walks the ensemble conditioned on x (``TreeEnsemble._conditioned``),
whose trees keep only the splits on S.  The predictions are the ones the full
ensemble gives on the full perturbed inputs, bit for bit, and f(x) is the
conditioned prediction of the row ``x[S]``, walked after the draws in the
same call, so a query builds no leaf boxes and walks the ensemble once.
The draws are made and stored feature-major, one contiguous row of n values
per feature of S with ``x[S]`` after them, and handed to ``predict_batch``
as an F-contiguous (n + 1, |S|) view, which its column-major walk reads
without a copy.  A draw count whose matrix cannot be allocated raises
``ValidationError``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import NumericDomainError, ValidationError
from .exact import _check_query, _per_distribution
from .model import TreeEnsemble, _as_index, _as_seed
from .perturb import PerturbationSpec, halton_matrix

_METHODS = ("mc", "qmc")


@dataclass(frozen=True)
class EstimatorConfig:
    """How to estimate: 'mc' or 'qmc', iteration count, and the MC seed."""

    method: str
    iterations: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValidationError(f"method must be one of {_METHODS}, got {self.method!r}")
        if _as_index(self.iterations, "iterations") < 1:
            raise ValidationError(f"iterations must be >= 1, got {self.iterations}")
        _as_seed(self.seed)


@contextmanager
def _allocating(what: str, count: int):
    """Turn numpy's "array is too big" and an out-of-memory error into a
    ``ValidationError`` naming ``count``."""
    try:
        yield
    except (ValueError, MemoryError):
        raise ValidationError(
            f"{what} {count} is too large: its draws cannot be allocated"
        ) from None


def _draw_matrix(columns: int, count: int, what: str, spare: int = 0) -> np.ndarray:
    """An uninitialized (columns, count + spare) float matrix for ``count`` draws.

    A count whose matrix is too big for numpy or for memory raises
    ``ValidationError`` naming it, before any draw is made.
    """
    with _allocating(what, count):
        return np.empty((columns, count + spare))


def _draws(vec, feats, spec, config, spare: int) -> np.ndarray:
    """The draws of ``perturbed_inputs`` as the first n columns of a
    (|S|, n + spare) matrix, one row per feature of S; the ``spare`` columns
    after them hold no draw.

    MC draws each feature's noise in turn from one seeded generator and adds
    x to it in that feature's row.  QMC maps Halton points 1 .. n + spare
    through the inverse CDFs, one ``inv_cdf_n`` call per distinct
    distribution object over all of its coordinates; the result is the
    matrix, and x is added to it in place.
    """
    n = config.iterations
    dists = [spec.distribution_for(q) for q in feats]
    # A huge noise scale overflows; the check below names the feature.
    with np.errstate(over="ignore"):
        if config.method == "mc":
            X = _draw_matrix(len(feats), n, "iterations", spare)
            rng = np.random.default_rng(config.seed)
            for j, (q, dist) in enumerate(zip(feats, dists)):
                np.add(vec[q], dist.sample_n(rng, n), out=X[j, :n])
        else:
            with _allocating("iterations", n):
                U = halton_matrix(n + spare, len(feats)).T  # a contiguous row per coordinate
            X = _per_distribution(dists, "inv_cdf_n", U)
            np.add(X[:, :n], vec[list(feats)][:, None], out=X[:, :n])
    for q, row in zip(feats, X[:, :n]):
        if not np.isfinite(row).all():
            raise NumericDomainError(
                f"perturbed feature {q} leaves the float range; lower its noise scale"
            )
    return X


def perturbed_inputs(
    vec: np.ndarray, feats: tuple[int, ...], spec: PerturbationSpec, config: EstimatorConfig
) -> np.ndarray:
    """The perturbed features of one draw per iteration, as an (n, |S|) matrix.

    Column j holds ``vec[feats[j]]`` plus that feature's noise, for the
    ascending ``feats``; the features outside S keep ``vec``'s values and get
    no column.  MC draws the features in that order from one seeded
    generator.  QMC assigns Halton coordinate j to column j and ignores the
    seed; the sequence is deterministic.  The draws are laid out feature by
    feature, and the matrix is an F-contiguous view of them, which
    ``predict_batch`` walks without a copy.  A perturbed value beyond the
    float range raises ``NumericDomainError``.
    """
    return _draws(vec, feats, spec, config, 0).T


def _sampled_gaps(ensemble, x, features, spec, config):
    """f(x') - f(x) for each draw x', or None for an empty S.

    Both predictions come from one walk of the ensemble conditioned on x:
    the draws take the first n rows and ``x[S]`` the last, which reaches the
    leaves x reaches and sums them in the same tree order as
    ``ensemble.predict(x)``, bit for bit, without building the full
    ensemble's leaf boxes.
    """
    vec, feats, _ = _check_query(ensemble, x, features, spec)
    if not feats:
        return None
    n = config.iterations
    X = _draws(vec, feats, spec, config, 1)
    X[:, n] = vec[feats]
    walk = ensemble._conditioned(vec, feats).predict_batch(X.T)
    return walk[:n] - walk[n]


def pg2_sampled(
    ensemble: TreeEnsemble, x, features, spec: PerturbationSpec, config: EstimatorConfig
) -> float:
    """Mean of (f(x') - f(x))^2 over the configured draws."""
    gaps = _sampled_gaps(ensemble, x, features, spec, config)
    if gaps is None:
        return 0.0
    return float(np.mean(gaps * gaps))


def pg2_sampled_prefixes(
    ensemble: TreeEnsemble, x, features, spec: PerturbationSpec, counts
) -> list[float]:
    """The QMC ``pg2_sampled`` at each of ``counts`` draws, from one pass.

    Halton restarts at index 1 and each row's prediction stands alone, so the
    draws for n iterations are the first n of the largest count's draws:
    entry k equals ``pg2_sampled(..., EstimatorConfig("qmc", counts[k]))``.
    """
    configs = [EstimatorConfig("qmc", n) for n in counts]
    if not configs:
        raise ValidationError("counts must be non-empty")
    largest = max(configs, key=lambda c: c.iterations)
    gaps = _sampled_gaps(ensemble, x, features, spec, largest)
    if gaps is None:
        return [0.0] * len(configs)
    sq = gaps * gaps
    return [float(np.mean(sq[:c.iterations])) for c in configs]

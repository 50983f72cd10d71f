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
without a copy.  MC fills each row in place from the generator's fill
methods (``Distribution.sample_n``), with the values of numpy's ``normal``
and ``uniform`` streams.  A draw count whose matrix cannot be allocated
raises ``ValidationError``.

``pg2_sampled_prefixes`` reads every draw count from one pass at the
largest, and ``pg2_sampled_gaussian_prefixes`` does so for several Gaussian
noise scales from one Halton pass: the unit Gaussian's noise, scaled by each
sigma, is that sigma's noise bit for bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import NumericDomainError, ValidationError
from .exact import _check_query, _per_distribution
from .model import TreeEnsemble, _as_index, _as_seed
from .perturb import Gaussian, PerturbationSpec, halton_matrix

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


def _halton_rows(n: int, dim: int) -> np.ndarray:
    """Halton points 1 .. n + 1 in [0, 1)^dim as a (dim, n + 1) matrix, one
    contiguous row per coordinate.  A count too large to allocate raises
    ``ValidationError``."""
    with _allocating("iterations", n):
        return halton_matrix(n + 1, dim).T


def _with_x(X, xS, feats) -> np.ndarray:
    """The (|S|, n + 1) noise matrix ``X`` turned into draws in place: ``xS``
    is added to its first n columns and becomes its last.  A perturbed value
    beyond the float range raises ``NumericDomainError`` naming its feature
    of ``feats``."""
    n = X.shape[1] - 1
    with np.errstate(over="ignore"):
        np.add(X[:, :n], xS[:, None], out=X[:, :n])
    for q, row in zip(feats, X[:, :n]):
        if not np.isfinite(row).all():
            raise NumericDomainError(
                f"perturbed feature {q} leaves the float range; lower its noise scale"
            )
    X[:, n] = xS
    return X


def _draws(vec, feats, dists, config) -> np.ndarray:
    """One perturbed draw per iteration as the first n columns of a
    (|S|, n + 1) matrix, and ``vec[feats]`` as its last column: one row per
    feature of the ascending ``feats``, whose distributions are ``dists``.
    Row j holds ``vec[feats[j]]`` plus that feature's noise; the features
    outside S keep ``vec``'s values and get no row.  The transpose is the
    F-contiguous (n + 1, |S|) matrix ``predict_batch`` walks.  A perturbed
    value beyond the float range raises ``NumericDomainError``.

    MC fills each feature's row with its noise in turn, in place, from one
    seeded generator.  QMC maps Halton points 1 .. n + 1 through the inverse
    CDFs (``_per_distribution``), and the result is the matrix.  Either way
    x is then added to the noise in place.
    """
    n = config.iterations
    # A huge noise scale overflows; _with_x names the feature.
    with np.errstate(over="ignore"):
        if config.method == "mc":
            X = _draw_matrix(len(feats), n, "iterations", 1)
            rng = np.random.default_rng(config.seed)
            for row, dist in zip(X, dists):
                dist.sample_n(rng, row[:n])
        else:
            X = _per_distribution(dists, "inv_cdf_n", _halton_rows(n, len(feats)))
    return _with_x(X, vec[list(feats)], feats)


def _walk_gaps(model: TreeEnsemble, X: np.ndarray) -> np.ndarray:
    """f(x') - f(x) for each draw of the (|S|, n + 1) matrix ``X`` from
    ``_draws``, from one walk of ``model``, the ensemble conditioned on x.

    The draws take the first n rows of the walk and ``x[S]`` the last, which
    reaches the leaves x reaches and sums them in the same tree order as
    ``ensemble.predict(x)``, bit for bit, without building the full
    ensemble's leaf boxes.
    """
    walk = model.predict_batch(X.T)
    return walk[:-1] - walk[-1]


def _sampled_gaps(ensemble, x, features, spec, config):
    """f(x') - f(x) for each draw x', or None for an empty S."""
    vec, feats, dists = _check_query(ensemble, x, features, spec)
    if not feats:
        return None
    return _walk_gaps(ensemble._conditioned(vec, feats), _draws(vec, feats, dists, config))


def _qmc_counts(counts) -> list[int]:
    """The draw counts of a prefix pass, each checked as a QMC iteration count."""
    checked = [EstimatorConfig("qmc", n).iterations for n in counts]
    if not checked:
        raise ValidationError("counts must be non-empty")
    return checked


def _prefix_means(gaps: np.ndarray, counts: list[int]) -> list[float]:
    """The mean squared gap over the first n draws, for each n of ``counts``."""
    sq = gaps * gaps
    return [float(np.mean(sq[:n])) for n in counts]


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
    counts = _qmc_counts(counts)
    gaps = _sampled_gaps(ensemble, x, features, spec, EstimatorConfig("qmc", max(counts)))
    if gaps is None:
        return [0.0] * len(counts)
    return _prefix_means(gaps, counts)


def pg2_sampled_gaussian_prefixes(
    ensemble: TreeEnsemble, x, features, sigmas, counts
) -> list[list[float]]:
    """``pg2_sampled_prefixes`` under Gaussian noise of each of ``sigmas``,
    from one Halton pass.

    ``Gaussian(sigma).inv_cdf_n(u)`` is ``quantile(u) * sigma``, so the unit
    Gaussian's noise, scaled by each sigma into one reused matrix, is that
    sigma's noise bit for bit: entry i equals ``pg2_sampled_prefixes(...,
    PerturbationSpec.gaussian(sigmas[i], d), counts)``.
    """
    unit = Gaussian(1.0)
    vec, feats, _ = _check_query(
        ensemble, x, features, PerturbationSpec.same(unit, ensemble.num_features)
    )
    for sigma in sigmas:
        Gaussian(sigma)  # raises on a sigma the spec would reject
    counts = _qmc_counts(counts)
    if not feats:
        return [[0.0] * len(counts) for _ in sigmas]
    noise = unit.inv_cdf_n(_halton_rows(max(counts), len(feats)))
    X = np.empty_like(noise)
    model, xS = ensemble._conditioned(vec, feats), vec[feats]
    estimates = []
    for sigma in sigmas:
        with np.errstate(over="ignore"):
            np.multiply(noise, sigma, out=X)
        estimates.append(_prefix_means(_walk_gaps(model, _with_x(X, xS, feats)), counts))
    return estimates

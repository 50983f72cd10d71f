"""Independent per-feature perturbation distributions and Halton sequences.

Every distribution exposes one O(1) CDF, its inverse, and seeded sampling.
The CDF is ``cdf_below``, the left limit Pr[delta < v]: half-open interval
probabilities are built from it, and for discrete distributions it leaves
out an atom at v.  ``cdf_below`` and ``interval_prob`` work elementwise on
numpy arrays.  The Gaussian's CDF and quantile are the numpy kernels of
``predgap.normal``; the package needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import normal
from .errors import ValidationError
from .model import _as_index

_SQRT2 = math.sqrt(2.0)


def _finite_scale(scale: float) -> bool:
    """Whether ``scale`` and its reciprocal are finite.  A CDF divides by the
    scale: an infinite scale makes its values nan or 0.5, and an infinite
    reciprocal makes the division overflow."""
    return math.isfinite(scale) and math.isfinite(1.0 / scale)


class Distribution:
    """Common surface for the supported perturbation distributions."""

    def cdf_below(self, v: np.ndarray) -> np.ndarray:
        """Pr[delta < v], in [0, 1] and non-decreasing in v, at v = +-inf too.

        The exact engine relies on monotonicity: it takes min/max of this
        function's values in place of evaluating it at min/max of the ends.
        """
        raise NotImplementedError

    def interval_prob(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Pr[lo <= delta < hi] for the half-open interval [lo, hi); 0 when empty.

        One ``cdf_below`` call covers both ends, stacked.
        """
        lo, hi = np.asarray(lo), np.asarray(hi)
        if lo.shape != hi.shape:
            lo, hi = np.broadcast_arrays(lo, hi)
        F = self.cdf_below(np.array((hi, lo)))
        return np.where(hi > lo, F[0] - F[1], 0.0)

    def inv_cdf_n(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Gaussian(Distribution):
    """Centered normal noise with standard deviation ``sigma``."""

    sigma: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0 and _finite_scale(self.sigma * _SQRT2)):
            raise ValidationError(
                f"gaussian sigma must be positive, with sigma*sqrt(2) and its reciprocal finite; "
                f"got {self.sigma}"
            )

    def cdf_below(self, v: np.ndarray) -> np.ndarray:
        return normal.cdf(v, self.sigma * _SQRT2)

    def inv_cdf_n(self, u: np.ndarray) -> np.ndarray:
        x = normal.quantile(u)
        x *= self.sigma
        return x

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(0.0, self.sigma, size=n)


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform noise on [-half_width, half_width]."""

    half_width: float

    def __post_init__(self) -> None:
        if not (self.half_width > 0 and _finite_scale(2.0 * self.half_width)):
            raise ValidationError(
                f"uniform half_width must be positive, with 2*half_width and its reciprocal "
                f"finite; got {self.half_width}"
            )

    def cdf_below(self, v: np.ndarray) -> np.ndarray:
        # Clamped to [-w, w], v + w lies in [0, 2w], so the quotient is in
        # [0, 1] and never overflows.
        w = self.half_width
        return (np.clip(v, -w, w) + w) / (2.0 * w)

    def inv_cdf_n(self, u: np.ndarray) -> np.ndarray:
        return (2.0 * u - 1.0) * self.half_width

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(-self.half_width, self.half_width, size=n)


@dataclass(frozen=True)
class Discrete(Distribution):
    """A finite point distribution given as (offset, probability) pairs."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValidationError("discrete distribution needs at least one point")
        offsets = [p[0] for p in self.points]
        probs = [p[1] for p in self.points]
        if any(not math.isfinite(o) for o in offsets):
            raise ValidationError("discrete offsets must be finite")
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValidationError("discrete offsets must be strictly increasing")
        if any(not (math.isfinite(p) and p >= 0) for p in probs):
            raise ValidationError("discrete probabilities must be finite and non-negative")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValidationError(
                f"discrete probabilities must sum to 1, got {sum(probs)!r}"
            )
        object.__setattr__(self, "points", tuple((float(o), float(p)) for o, p in self.points))

    @cached_property
    def _offsets(self) -> np.ndarray:
        return np.asarray([p[0] for p in self.points], dtype=np.float64)

    @cached_property
    def _cum(self) -> np.ndarray:
        return np.cumsum([p[1] for p in self.points])

    @cached_property
    def _cum0(self) -> np.ndarray:
        """``_cum`` behind a leading zero: the mass below the i-th offset."""
        return np.concatenate(([0.0], self._cum))

    def cdf_below(self, v: np.ndarray) -> np.ndarray:
        return self._cum0[np.searchsorted(self._offsets, v, side="left")]

    def inv_cdf_n(self, u: np.ndarray) -> np.ndarray:
        # Generalized inverse: the smallest offset whose CDF reaches u.
        idx = np.minimum(
            np.searchsorted(self._cum, u, side="left"), len(self.points) - 1
        )
        return self._offsets[idx]

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self._offsets[np.searchsorted(self._cum, rng.random(n), side="right").clip(max=len(self.points) - 1)]


@dataclass(frozen=True)
class PerturbationSpec:
    """One independent noise distribution per feature.

    Entries may be None for features that are never perturbed; asking for
    such a feature's distribution raises.
    """

    per_feature: tuple[Distribution | None, ...]

    @property
    def num_features(self) -> int:
        return len(self.per_feature)

    def distribution_for(self, feature: int) -> Distribution:
        if not 0 <= feature < len(self.per_feature):
            raise ValidationError(
                f"feature {feature} outside the perturbation spec (d={len(self.per_feature)})"
            )
        dist = self.per_feature[feature]
        if dist is None:
            raise ValidationError(f"feature {feature} has no perturbation distribution")
        return dist

    @staticmethod
    def same(dist: Distribution, num_features: int) -> PerturbationSpec:
        return PerturbationSpec(per_feature=(dist,) * num_features)

    @staticmethod
    def gaussian(sigma: float, num_features: int) -> PerturbationSpec:
        return PerturbationSpec.same(Gaussian(sigma), num_features)


def distribution_from_config(obj) -> Distribution:
    """Build one distribution from its JSON-config description."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("distribution config must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "gaussian":
        return Gaussian(_config_number(obj, kind, "sigma"))
    if kind == "uniform":
        return Uniform(_config_number(obj, kind, "half_width"))
    if kind == "discrete":
        pts = obj.get("points")
        if not isinstance(pts, list):
            raise ValidationError("discrete config needs a 'points' array")
        try:
            points = tuple((_json_number(o), _json_number(p)) for o, p in pts)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                "discrete config 'points' must be [offset, probability] number pairs"
            ) from None
        return Discrete(points)
    raise ValidationError(f"unknown distribution kind {kind!r}")


def _json_number(value) -> float:
    """A JSON number (an int or a float, not a bool) as a float.

    Anything else raises ``TypeError``, and an int beyond the float range
    raises ``OverflowError``.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"not a number: {value!r}")


def _config_number(obj: dict, kind: str, key: str) -> float:
    if key not in obj:
        raise ValidationError(f"{kind} config needs {key!r}")
    try:
        return _json_number(obj[key])
    except (TypeError, OverflowError):
        raise ValidationError(f"{kind} config {key!r} must be a number, got {obj[key]!r}") from None


def spec_from_config(obj, num_features: int) -> PerturbationSpec:
    """A config is either one distribution for all features or a per-feature list."""
    if isinstance(obj, list):
        if len(obj) != num_features:
            raise ValidationError(
                f"per-feature config has {len(obj)} entries, expected {num_features}"
            )
        return PerturbationSpec(
            per_feature=tuple(
                None if entry is None else distribution_from_config(entry)
                for entry in obj
            )
        )
    return PerturbationSpec.same(distribution_from_config(obj), num_features)


# ---------------------------------------------------------------------------
# Halton sequence
# ---------------------------------------------------------------------------

def _first_primes(count: int) -> tuple[int, ...]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return tuple(primes)


_PRIMES = _first_primes(256)


def halton_matrix(count: int, dim: int) -> np.ndarray:
    """Unscrambled Halton points in [0, 1)^dim for indices 1..count, one row per index.

    Each call builds its points afresh and keeps nothing between calls.  The
    matrix is F-ordered, so each coordinate's column is contiguous.
    Coordinate j is the radical inverse in the j-th prime base, with the
    same bits as summing the digits' contributions from the lowest digit up.
    """
    count, dim = _as_index(count, "halton count"), _as_index(dim, "halton dimension")
    if count < 1:
        raise ValidationError(f"need at least one halton point, got {count}")
    if not 1 <= dim <= len(_PRIMES):
        raise ValidationError(
            f"halton dimension {dim} outside the prime-table capacity (1..{len(_PRIMES)})"
        )
    out = np.empty((count, dim), order="F")
    for j in range(dim):
        base = _PRIMES[j]
        # inv[i] is the radical inverse of index i.  Level k extends it from
        # the indices below b^k to those below b^(k+1) by
        # phi(low + b^k * d) = phi(low) + d * b^-(k+1), the lowest-digit-first
        # sum's next term, keeping only the digit rows that count + 1 needs.
        inv = np.zeros(1)
        scale = 1.0 / base
        while inv.size <= count:
            rows = min(base, -(-(count + 1) // inv.size))
            inv = (inv + np.arange(rows)[:, None] * scale).ravel()
            scale /= base
        out[:, j] = inv[1 : count + 1]
    return out

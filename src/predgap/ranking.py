"""Feature rankings: greedy squared-gap construction and attribution sorting."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError, read_json, read_text
from .exact import pg2_exact
from .model import TreeEnsemble, _as_index, as_feature_vector
from .perturb import PerturbationSpec


@dataclass(frozen=True)
class Ranking:
    """A permutation of the feature indices, most important first."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(_as_index(i, "ranking entry") for i in self.order))
        if sorted(self.order) != list(range(len(self.order))):
            raise ValidationError(
                f"ranking must be a permutation of 0..{len(self.order) - 1}, got {self.order}"
            )

    @property
    def num_features(self) -> int:
        return len(self.order)

    def prefix(self, k: int) -> tuple[int, ...]:
        """The k most important features."""
        k = _as_index(k, "prefix length")
        if not 0 <= k <= len(self.order):
            raise ValidationError(f"prefix length {k} outside 0..{len(self.order)}")
        return self.order[:k]

    def reversed(self) -> Ranking:
        return Ranking(order=self.order[::-1])


def greedy_pg2_ranking(
    ensemble: TreeEnsemble, x, spec: PerturbationSpec
) -> Ranking:
    """Rank features by greedily growing the set with the largest exact PG2.

    At step l the already chosen prefix S is extended by the candidate i
    maximizing PG2(x, S + {i}); ties go to the lowest feature index.
    """
    vec = as_feature_vector(x, ensemble.num_features)
    chosen: list[int] = []
    remaining = list(range(ensemble.num_features))
    # A lone candidate needs no score: it is last whatever its PG2.
    while len(remaining) > 1:
        best_i = remaining[0]
        best_p = -1.0
        for i in remaining:
            p = pg2_exact(ensemble, vec, chosen + [i], spec)
            if p > best_p:
                best_i, best_p = i, p
        chosen.append(best_i)
        remaining.remove(best_i)
    return Ranking(order=tuple(chosen + remaining))


def ranking_from_attribution(phi) -> Ranking:
    """Sort features by |attribution| descending, ties by lowest index."""
    vec = np.asarray(phi, dtype=np.float64)
    if vec.ndim != 1 or vec.size < 1:
        raise ValidationError(f"attribution vector must be 1-D and non-empty, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValidationError("attribution vector contains non-finite entries")
    order = sorted(range(vec.size), key=lambda i: (-abs(vec[i]), i))
    return Ranking(order=tuple(order))


def topk_agreement(
    rankings_a: list[Ranking], rankings_b: list[Ranking], k: int, ordered: bool = False
) -> float:
    """Fraction of positions whose top-k features agree.

    By default the top-k prefixes are compared as sets; ``ordered=True``
    requires the same sequence instead.
    """
    if len(rankings_a) != len(rankings_b):
        raise ValidationError(
            f"ranking lists differ in length: {len(rankings_a)} vs {len(rankings_b)}"
        )
    if not rankings_a:
        raise ValidationError("need at least one ranking pair")
    matches = 0
    for a, b in zip(rankings_a, rankings_b):
        pa, pb = a.prefix(k), b.prefix(k)
        if (pa == pb) if ordered else (set(pa) == set(pb)):
            matches += 1
    return matches / len(rankings_a)


def load_attributions(path) -> np.ndarray:
    """Read an attribution sidecar: CSV rows of d floats, or JSON array of arrays."""
    if Path(path).suffix.lower() == ".json":
        rows = read_json(path, "attributions")
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise FormatError(f"{path}: expected an array of arrays")
    else:
        text = read_text(path, "attributions")
        rows = [line.split(",") for line in text.splitlines() if line.strip()]
    try:
        matrix = np.asarray(rows, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):
        raise FormatError(f"{path}: rows are ragged or non-numeric") from None
    if matrix.ndim != 2:
        raise FormatError(f"{path}: expected one attribution vector per row")
    return matrix

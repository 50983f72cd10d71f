"""Dataset ingestion, standardization, splitting, and benchmark pair sampling."""

from __future__ import annotations

import csv
import io
import json
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import FormatError, ValidationError, read_json, read_text, write_text
from .model import _as_index

_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class Dataset:
    """An immutable table of numeric instances, one feature per column."""

    values: np.ndarray
    feature_names: tuple[str, ...]
    standardized: bool = False

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValidationError(f"dataset values must be 2-D, got shape {values.shape}")
        if values.shape[1] != len(self.feature_names):
            raise ValidationError(
                f"{values.shape[1]} columns but {len(self.feature_names)} feature names"
            )
        if not np.isfinite(values).all():
            raise ValidationError("dataset contains non-finite entries")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def num_instances(self) -> int:
        return self.values.shape[0]

    @property
    def num_features(self) -> int:
        return self.values.shape[1]

    def instance(self, i: int) -> np.ndarray:
        return self.values[i]


@dataclass(frozen=True)
class PairSample:
    """One benchmark query: a dataset row index plus a perturbed feature set."""

    instance_index: int
    feature_set: tuple[int, ...]


def load_csv(path, label_column: str | None = None, exclude: list[str] | None = None):
    """Read a headered CSV into a Dataset, optionally splitting off labels.

    Returns ``(dataset, labels)`` where labels is None unless a label column
    was named; the label column and any ``exclude`` columns (e.g. categorical
    ones, which are never dropped automatically) stay out of the features.
    """
    reader = csv.reader(io.StringIO(read_text(path, "data"), newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows or not rows[0]:
        raise FormatError(f"{path}: missing header row")
    header = [name.strip() for name in rows[0]]
    for name in [label_column, *(exclude or [])]:
        if name is not None and name not in header:
            raise ValidationError(f"{path}: no column named {name!r}")
    label_idx = None if label_column is None else header.index(label_column)
    dropped = {label_idx, *(header.index(name) for name in exclude or [])}
    feature_cols = [j for j in range(len(header)) if j not in dropped]
    if not feature_cols:
        raise ValidationError(f"{path}: no feature columns left")

    # The label, if any, is read as one more column after the features.
    columns = feature_cols + ([label_idx] if label_idx is not None else [])
    table = np.empty((len(rows) - 1, len(columns)), dtype=np.float64)
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise FormatError(f"{path}: line {r} has {len(row)} cells, expected {len(header)}")
        for out_j, j in enumerate(columns):
            try:
                table[r - 2, out_j] = float(row[j])
            except ValueError:
                raise FormatError(
                    f"{path}: line {r}, column {header[j]!r}: non-numeric cell {row[j]!r}"
                ) from None
    matrix = table[:, : len(feature_cols)]
    labels = None
    if label_idx is not None:
        labels = table[:, -1]
        bad = np.flatnonzero(~np.isfinite(labels))
        if bad.size:
            raise ValidationError(
                f"{path}: line {bad[0] + 2}, column {label_column!r}: non-finite label"
            )
    dataset = Dataset(values=matrix, feature_names=tuple(header[j] for j in feature_cols))
    return dataset, labels


def standardize(dataset: Dataset, params: dict | None = None):
    """Shift and scale each column to zero mean and unit standard deviation.

    Uses the population (divide-by-N) standard deviation.  When ``params``
    is given it is applied as-is, which is how test data gets the training
    split's statistics.  Returns ``(dataset, params)``.
    """
    if params is None:
        means = dataset.values.mean(axis=0)
        stds = dataset.values.std(axis=0)
        for j, s in enumerate(stds):
            if s <= 0.0:
                raise ValidationError(
                    f"column {dataset.feature_names[j]!r} is constant; cannot standardize"
                )
        params = {
            name: {"mean": float(m), "std": float(s)}
            for name, m, s in zip(dataset.feature_names, means, stds)
        }
    else:
        means, stds = _column_stats(params, dataset.feature_names)
    values = (dataset.values - means) / stds
    return replace(dataset, values=values, standardized=True), params


def _column_stats(params: dict, names) -> tuple[np.ndarray, np.ndarray]:
    """The mean and std that standardization params give each named column."""
    stats = np.empty((2, len(names)))
    for j, name in enumerate(names):
        if name not in params:
            raise ValidationError(f"standardization params missing column {name!r}")
        entry = params[name]
        for i, key in enumerate(("mean", "std")):
            v = entry.get(key) if isinstance(entry, dict) else None
            # An exact comparison, so an int past the float range fails too.
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not abs(v) <= _FLOAT_MAX:
                raise ValidationError(f"column {name!r}: {key} must be a finite number")
            stats[i, j] = v
        if stats[1, j] <= 0.0:
            raise ValidationError(f"column {name!r} has non-positive std in params")
    return stats[0], stats[1]


def save_standardization(params: dict, path) -> None:
    write_text(path, json.dumps(params, indent=1) + "\n")


def load_standardization(path) -> dict:
    obj = read_json(path, "standardization sidecar")
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected an object of per-column statistics")
    return obj


def split(dataset: Dataset, ratio: float = 0.8, seed: int = 0):
    """Deterministic shuffled train/test split; returns ``(train, test)``."""
    if not 0.0 < ratio < 1.0:
        raise ValidationError(f"split ratio must be in (0, 1), got {ratio}")
    n = dataset.num_instances
    n_train = int(n * ratio)
    if n_train < 1 or n_train >= n:
        raise ValidationError(f"ratio {ratio} gives a degenerate split of {n} rows")
    order = np.random.default_rng(seed).permutation(n)
    train = replace(dataset, values=dataset.values[order[:n_train]].copy())
    test = replace(dataset, values=dataset.values[order[n_train:]].copy())
    return train, test


def sample_pairs(
    dataset: Dataset,
    num_features: int,
    count: int,
    seed: int = 0,
    sizes: list[int] | None = None,
) -> list[PairSample]:
    """Draw ``count`` (instance, feature subset) pairs for benchmarking.

    Subset sizes cycle through ``sizes`` (default 1..d) so that all sizes are
    as evenly represented as possible; when the count is not divisible the
    earlier sizes in the cycle receive the extras.
    """
    count, seed = _as_index(count, "pair count"), _as_index(seed, "seed")
    if count < 1:
        raise ValidationError(f"need at least one pair, got {count}")
    if dataset.num_instances < 1:
        raise ValidationError("dataset has no instances")
    if sizes is None:
        sizes = list(range(1, num_features + 1))
    sizes = [_as_index(k, "subset size") for k in sizes]
    if not sizes:
        raise ValidationError("need at least one subset size")
    for k in sizes:
        if not 0 <= k <= num_features:
            raise ValidationError(f"subset size {k} outside 0..{num_features}")
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(count):
        k = sizes[i % len(sizes)]
        idx = int(rng.integers(dataset.num_instances))
        if k == 0:
            subset: tuple[int, ...] = ()
        else:
            subset = tuple(sorted(int(q) for q in rng.choice(num_features, size=k, replace=False)))
        pairs.append(PairSample(instance_index=idx, feature_set=subset))
    return pairs

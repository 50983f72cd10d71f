"""Dataset ingestion and benchmark pair sampling."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError, read_text
from .model import _as_index, _as_seed


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable table of numeric instances, one feature per column."""

    values: np.ndarray
    feature_names: tuple[str, ...]

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
    A named column must match exactly one header cell; unnamed columns may
    share a name, since features are positional.  Each cell is read with
    Python's ``float``.  A line with no cells is not a record, wherever it
    stands.  The rows are converted in one pass and the matrix is built
    once; a ragged row or a non-numeric cell makes a second, row-by-row scan
    raise the ``FormatError`` of the first one in file order, and a
    non-finite feature or label cell (``nan``, ``inf``, or a value such as
    ``1e400`` past the float range) raises the ``ValidationError`` of the
    first one.  Errors name the file line the record starts on.
    """
    text = read_text(path, "data")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(filter(None, reader))
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise FormatError(f"{path}: missing header row")
    header = [name.strip() for name in rows[0]]
    for name in [label_column, *(exclude or [])]:
        if name is not None and header.count(name) != 1:
            problem = "no column" if name not in header else "more than one column"
            raise ValidationError(f"{path}: {problem} named {name!r}")
    label_idx = None if label_column is None else header.index(label_column)
    dropped = {label_idx, *(header.index(name) for name in exclude or [])}
    feature_cols = [j for j in range(len(header)) if j not in dropped]
    if not feature_cols:
        raise ValidationError(f"{path}: no feature columns left")

    # The label, if any, is read as one more column after the features.
    columns = feature_cols + ([label_idx] if label_idx is not None else [])
    body = rows[1:]
    try:
        if any(len(row) != len(header) for row in body):
            raise ValueError  # a ragged row, which the scan below names
        cells = [row[j] for row in body for j in columns]
        table = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        _raise_first_bad_row(path, text, header, columns, body)
    table = table.reshape(len(body), len(columns))
    finite = np.isfinite(table)
    if not finite.all():
        _raise_first_non_finite(path, text, header, columns, label_idx, ~finite)
    dataset = Dataset(
        values=table[:, : len(feature_cols)], feature_names=tuple(header[j] for j in feature_cols)
    )
    return dataset, None if label_idx is None else table[:, -1]


def _record_lines(text) -> list[int]:
    """The file line each record of the CSV ``text`` starts on, blank lines
    skipped: a quoted cell may span lines, so records and lines differ."""
    reader = csv.reader(io.StringIO(text, newline=""))
    starts, end = [], 0
    for row in reader:
        if row:
            starts.append(end + 1)
        end = reader.line_num
    return starts


def _raise_first_non_finite(path, text, header, columns, label_idx, bad) -> None:
    """Raise the ValidationError of the first non-finite cell in file order,
    ``bad`` marking the non-finite cells of the table read from ``columns``:
    the first such row, then its leftmost header position, since the label
    column may stand before the features."""
    row = np.flatnonzero(bad.any(axis=1))[0]
    j = min(col for col, b in zip(columns, bad[row]) if b)
    what = "non-finite label" if j == label_idx else "non-finite value"
    line = _record_lines(text)[row + 1]
    raise ValidationError(f"{path}: line {line}, column {header[j]!r}: {what}")


def _raise_first_bad_row(path, text, header, columns, body) -> None:
    """Raise the FormatError of the first ragged row or non-numeric cell, in file order."""
    for r, row in zip(_record_lines(text)[1:], body):
        if len(row) != len(header):
            raise FormatError(f"{path}: line {r} has {len(row)} cells, expected {len(header)}")
        for j in columns:
            try:
                float(row[j])
            except ValueError:
                raise FormatError(
                    f"{path}: line {r}, column {header[j]!r}: non-numeric cell {row[j]!r}"
                ) from None


def sample_pairs(
    dataset: Dataset,
    count: int,
    seed: int = 0,
    sizes: list[int] | None = None,
) -> list[PairSample]:
    """Draw ``count`` (instance, feature subset) pairs for benchmarking.

    Subsets are drawn from the dataset's d features, and their sizes cycle
    through ``sizes`` (default 1..d) so that all sizes are as evenly
    represented as possible; when the count is not divisible the earlier
    sizes in the cycle receive the extras.
    """
    count, seed = _as_index(count, "pair count"), _as_seed(seed)
    if count < 1:
        raise ValidationError(f"need at least one pair, got {count}")
    if dataset.num_instances < 1:
        raise ValidationError("dataset has no instances")
    num_features = dataset.num_features
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

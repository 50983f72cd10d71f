"""CSV ingestion and pair sampling."""

import numpy as np
import pytest

import predgap as pg
from predgap.errors import FormatError, ValidationError


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "a,b\n1.0,2.0\n3.0,4.0\n")
    data, labels = pg.load_csv(path)
    assert labels is None
    assert data.num_features == 2 and data.num_instances == 2
    assert data.feature_names == ("a", "b")
    assert data.values[1, 0] == 3.0


def test_load_csv_label_column_excluded(tmp_path):
    path = _write(tmp_path, "a,quality,b\n1.0,5.0,2.0\n3.0,6.0,4.0\n")
    data, labels = pg.load_csv(path, label_column="quality")
    assert data.feature_names == ("a", "b")
    assert list(labels) == [5.0, 6.0]


def test_load_csv_exclude_columns(tmp_path):
    path = _write(tmp_path, "a,color,b\n1.0,red,2.0\n3.0,blue,4.0\n")
    data, _ = pg.load_csv(path, exclude=["color"])
    assert data.feature_names == ("a", "b")
    with pytest.raises(ValidationError, match="'shade'"):
        pg.load_csv(path, exclude=["shade"])


def test_load_csv_non_numeric_cell_named(tmp_path):
    path = _write(tmp_path, "a,b\n1.0,2.0\n3.0,abc\n")
    with pytest.raises(FormatError, match=r"line 3.*'b'.*'abc'"):
        pg.load_csv(path)


def test_load_csv_missing_header(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(FormatError, match="header"):
        pg.load_csv(path)


def test_sample_pairs_size_cycle():
    data = pg.Dataset(values=np.zeros((5, 3)), feature_names=("a", "b", "c"))
    pairs = pg.sample_pairs(data, 3, 3, seed=0)
    assert [len(p.feature_set) for p in pairs] == [1, 2, 3]
    pairs5 = pg.sample_pairs(data, 2, 5, seed=0)
    assert [len(p.feature_set) for p in pairs5] == [1, 2, 1, 2, 1]


def test_sample_pairs_deterministic_and_in_range():
    data = pg.Dataset(values=np.zeros((7, 4)), feature_names=tuple("abcd"))
    a = pg.sample_pairs(data, 4, 12, seed=9)
    b = pg.sample_pairs(data, 4, 12, seed=9)
    assert a == b
    for p in a:
        assert 0 <= p.instance_index < 7
        assert all(0 <= q < 4 for q in p.feature_set)
        assert len(set(p.feature_set)) == len(p.feature_set)


def test_sample_pairs_explicit_sizes_allow_empty():
    data = pg.Dataset(values=np.zeros((3, 2)), feature_names=("a", "b"))
    pairs = pg.sample_pairs(data, 2, 4, seed=1, sizes=[0, 2])
    assert [len(p.feature_set) for p in pairs] == [0, 2, 0, 2]


def test_sample_pairs_rejects_an_empty_size_cycle():
    data = pg.Dataset(values=np.zeros((3, 2)), feature_names=("a", "b"))
    with pytest.raises(ValidationError, match="subset size"):
        pg.sample_pairs(data, 2, 4, seed=1, sizes=[])


def test_sample_pairs_size_histogram_remainder_rule():
    data = pg.Dataset(values=np.zeros((4, 3)), feature_names=("a", "b", "c"))
    pairs = pg.sample_pairs(data, 3, 8, seed=2)
    counts = {k: 0 for k in (1, 2, 3)}
    for p in pairs:
        counts[len(p.feature_set)] += 1
    # 8 = 3 + 3 + 2: the first sizes in the cycle get the extras
    assert counts == {1: 3, 2: 3, 3: 2}

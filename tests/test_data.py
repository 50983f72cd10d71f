"""CSV ingestion, standardization, splitting, and pair sampling."""

import numpy as np
import pytest

import predgap as pg
from predgap.data import load_standardization, save_standardization
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


def test_standardize_population_convention():
    data = pg.Dataset(values=np.array([[0.0], [2.0]]), feature_names=("x",))
    out, params = pg.standardize(data)
    # population std of (0, 2) is 1, mean is 1
    assert params["x"]["mean"] == 1.0 and params["x"]["std"] == 1.0
    assert list(out.values[:, 0]) == [-1.0, 1.0]
    assert out.standardized


def test_standardize_with_identity_sidecar_is_noop():
    data = pg.Dataset(values=np.array([[-1.0], [1.0]]), feature_names=("x",))
    out, _ = pg.standardize(data, params={"x": {"mean": 0.0, "std": 1.0}})
    assert np.array_equal(out.values, data.values)


def test_standardize_constant_column_errors():
    data = pg.Dataset(values=np.array([[1.0], [1.0]]), feature_names=("c",))
    with pytest.raises(ValidationError, match="'c'"):
        pg.standardize(data)


def test_standardize_round_trip():
    rng = np.random.default_rng(10)
    data = pg.Dataset(
        values=rng.normal(5.0, 3.0, size=(30, 4)),
        feature_names=("a", "b", "c", "d"),
    )
    out, params = pg.standardize(data)
    mean = np.array([params[name]["mean"] for name in data.feature_names])
    std = np.array([params[name]["std"] for name in data.feature_names])
    assert np.abs(out.values * std + mean - data.values).max() < 1e-12


def test_standardization_sidecar_round_trip(tmp_path):
    params = {"a": {"mean": 1.5, "std": 0.25}}
    path = tmp_path / "params.json"
    save_standardization(params, path)
    assert load_standardization(path) == params


@pytest.mark.parametrize(
    "entry",
    [{"mean": 0.0}, 1.0, {"mean": "0", "std": 1.0}, {"mean": 0.0, "std": "1"},
     {"mean": True, "std": 1.0}, {"mean": float("nan"), "std": 1.0},
     {"mean": 0.0, "std": float("inf")}, {"mean": 10**400, "std": 1.0},
     {"mean": 0.0, "std": 0.0}],
    ids=["no-std", "not-an-object", "string-mean", "string-std", "bool-mean", "nan-mean",
         "infinite-std", "huge-mean", "zero-std"],
)
def test_malformed_standardization_params(entry):
    data = pg.Dataset(values=np.array([[0.0], [2.0]]), feature_names=("x",))
    with pytest.raises(ValidationError, match="'x'"):
        pg.standardize(data, {"x": entry})


def test_unreadable_standardization_sidecar(tmp_path):
    path = tmp_path / "params.json"
    path.write_bytes(b'{"x": \xff}')
    with pytest.raises(FormatError, match="standardization sidecar"):
        load_standardization(path)
    with pytest.raises(FormatError, match="cannot write"):
        save_standardization({}, tmp_path / "missing" / "params.json")


def test_split_sizes_and_determinism():
    data = pg.Dataset(
        values=np.arange(20, dtype=np.float64).reshape(10, 2),
        feature_names=("a", "b"),
    )
    train, test = pg.split(data, ratio=0.8, seed=3)
    assert train.num_instances == 8 and test.num_instances == 2
    train2, test2 = pg.split(data, ratio=0.8, seed=3)
    assert np.array_equal(train.values, train2.values)
    # a partition: every row lands in exactly one side
    joined = np.vstack([train.values, test.values])
    assert sorted(map(tuple, joined)) == sorted(map(tuple, data.values))
    with pytest.raises(ValidationError):
        pg.split(data, ratio=1.0)


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

"""CSV ingestion and pair sampling."""

import numpy as np
import pytest

import predgap as pg
from predgap.errors import FormatError, ValidationError

from support import load_csv_oracle


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


def test_load_csv_rejects_a_named_column_that_appears_twice(tmp_path):
    # naming "a" could mean either column, so neither is guessed; columns no
    # flag names may share a name, since features are positional
    path = _write(tmp_path, "a,a,y\n1.0,2.0,3.0\n")
    for kwargs in (dict(label_column="y", exclude=["a"]), dict(label_column="a")):
        with pytest.raises(ValidationError, match="more than one column named 'a'"):
            pg.load_csv(path, **kwargs)
    data, labels = pg.load_csv(path, label_column="y")
    assert data.feature_names == ("a", "a") and data.values.tolist() == [[1.0, 2.0]]
    assert labels.tolist() == [3.0]


def test_datasets_compare_and_hash_by_identity():
    # == compares the objects, never the arrays elementwise, which would
    # have no single truth value
    a = pg.Dataset(values=np.zeros((2, 2)), feature_names=("a", "b"))
    b = pg.Dataset(values=np.zeros((2, 2)), feature_names=("a", "b"))
    assert a == a and a != b
    assert len({a, b}) == 2


def test_load_csv_non_numeric_cell_named(tmp_path):
    path = _write(tmp_path, "a,b\n1.0,2.0\n3.0,abc\n")
    with pytest.raises(FormatError, match=r"line 3.*'b'.*'abc'"):
        pg.load_csv(path)


def test_load_csv_missing_header(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(FormatError, match="header"):
        pg.load_csv(path)


def _assert_same_floats(got, want):
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_load_csv_equals_the_per_cell_float_oracle(tmp_path):
    # exponents, underscores, padded cells, signed zeros, a label column and
    # excluded columns, read as Python's float reads each cell
    text = (
        " a , color,b,y ,skip\n"
        "1e3, red,-0,0.5,x\n"
        " -2.5E-3 ,blue,1_000.25, -0 ,y\n"
        "+7,green,  .5e+2  ,1_0,z\n"
        "-0.0,red,1E308,-1e-320,w\n"
    )
    path = _write(tmp_path, text)
    cases = ((None, ["color", "skip"]), ("y", ["color", "skip"]), ("y", ["skip", "color", "a"]))
    for label, exclude in cases:
        data, labels = pg.load_csv(path, label_column=label, exclude=exclude)
        values, want = load_csv_oracle(text, label, exclude)
        _assert_same_floats(data.values, values)
        if label is None:
            assert labels is None
        else:
            _assert_same_floats(labels, want)
    data, _ = pg.load_csv(_write(tmp_path, "a,b\n"))
    assert data.values.shape == (0, 2)


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b\n1,2\n1,x\n1\n", "line 3, column 'b': non-numeric cell 'x'"),
        ("a,b\n1,2\n1\n1,x\n", "line 3 has 1 cells, expected 2"),
        ("a,b\n1,2,3\n1,x\n", "line 2 has 3 cells, expected 2"),
        ("a,b\n1,2\n 2 ,\n", "line 3, column 'b': non-numeric cell ''"),
        # Errors name the file line a record starts on: blank lines are not
        # records, and a quoted cell may span lines.
        ("a,b\n1,2\n\n3,x\n", "line 4, column 'b': non-numeric cell 'x'"),
        ("a,b\n\n1,2\n\n3\n", "line 5 has 1 cells, expected 2"),
        ('a,b\n"1\n",2\nx,3\n', "line 4, column 'a': non-numeric cell 'x'"),
        ('a,b\n1,2\nx,"3\n"\n', "line 3, column 'a': non-numeric cell 'x'"),
    ],
    ids=["bad-cell-before-ragged-row", "ragged-row-before-bad-cell", "long-row-first",
         "empty-cell", "bad-cell-after-blank-line", "ragged-row-after-blank-lines",
         "bad-cell-after-two-line-cell", "bad-cell-starting-a-two-line-record"],
)
def test_load_csv_raises_the_first_error_in_file_order(tmp_path, text, message):
    path = _write(tmp_path, text)
    with pytest.raises(FormatError) as info:
        pg.load_csv(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "text",
    ["a,b\n1,2\n3,4\n\n", "a,b\n1,2\n\n3,4\n", "\na,b\n1,2\n\n\n3,4\n\n"],
    ids=["trailing-blank-line", "blank-line-between-rows", "blank-lines-everywhere"],
)
def test_load_csv_skips_blank_lines(tmp_path, text):
    data, _ = pg.load_csv(_write(tmp_path, text))
    assert data.feature_names == ("a", "b")
    assert data.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_csv_non_finite_label_names_the_file_line(tmp_path):
    path = _write(tmp_path, 'a,y\n"1\n",2\n\n3,nan\n')
    with pytest.raises(ValidationError) as info:
        pg.load_csv(path, label_column="y")
    assert str(info.value) == f"{path}: line 5, column 'y': non-finite label"


@pytest.mark.parametrize(
    "text, label, message",
    [
        ("a,b\n1,2\n3,nan\n", None, "line 3, column 'b': non-finite value"),
        # 1e400 is past the float range, so float() reads it as inf.
        ('a,b\n"1\n",2\n1e400,3\n', None, "line 4, column 'a': non-finite value"),
        # The label stands first: it is the first non-finite cell of the row.
        ("y,a,b\n1,2,3\ninf,4,-inf\n", "y", "line 3, column 'y': non-finite label"),
        ("y,a,b\n1,2,3\n4,5,-inf\nnan,6,7\n", "y", "line 3, column 'b': non-finite value"),
    ],
    ids=["nan-feature", "1e400-after-two-line-cell", "label-before-feature",
         "feature-row-before-label-row"],
)
def test_load_csv_non_finite_feature_names_the_file_line(tmp_path, text, label, message):
    path = _write(tmp_path, text)
    with pytest.raises(ValidationError) as info:
        pg.load_csv(path, label_column=label)
    assert str(info.value) == f"{path}: {message}"


def test_sample_pairs_size_cycle():
    data = pg.Dataset(values=np.zeros((5, 3)), feature_names=("a", "b", "c"))
    pairs = pg.sample_pairs(data, 3, seed=0)
    assert [len(p.feature_set) for p in pairs] == [1, 2, 3]
    data2 = pg.Dataset(values=np.zeros((5, 2)), feature_names=("a", "b"))
    pairs5 = pg.sample_pairs(data2, 5, seed=0)
    assert [len(p.feature_set) for p in pairs5] == [1, 2, 1, 2, 1]


def test_sample_pairs_deterministic_and_in_range():
    data = pg.Dataset(values=np.zeros((7, 4)), feature_names=tuple("abcd"))
    a = pg.sample_pairs(data, 12, seed=9)
    b = pg.sample_pairs(data, 12, seed=9)
    assert a == b
    for p in a:
        assert 0 <= p.instance_index < 7
        assert all(0 <= q < 4 for q in p.feature_set)
        assert len(set(p.feature_set)) == len(p.feature_set)


def test_sample_pairs_explicit_sizes_allow_empty():
    data = pg.Dataset(values=np.zeros((3, 2)), feature_names=("a", "b"))
    pairs = pg.sample_pairs(data, 4, seed=1, sizes=[0, 2])
    assert [len(p.feature_set) for p in pairs] == [0, 2, 0, 2]


def test_sample_pairs_rejects_an_empty_size_cycle():
    data = pg.Dataset(values=np.zeros((3, 2)), feature_names=("a", "b"))
    with pytest.raises(ValidationError, match="subset size"):
        pg.sample_pairs(data, 4, seed=1, sizes=[])


def test_sample_pairs_size_histogram_remainder_rule():
    data = pg.Dataset(values=np.zeros((4, 3)), feature_names=("a", "b", "c"))
    pairs = pg.sample_pairs(data, 8, seed=2)
    counts = {k: 0 for k in (1, 2, 3)}
    for p in pairs:
        counts[len(p.feature_set)] += 1
    # 8 = 3 + 3 + 2: the first sizes in the cycle get the extras
    assert counts == {1: 3, 2: 3, 3: 2}

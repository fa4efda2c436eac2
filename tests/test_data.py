"""Dataset construction, validation, CSV round-trips and the artifact cell rule."""
import math

import numpy as np
import pytest

from natgrad import (
    Dataset,
    DegenerateInputError,
    FormatError,
    load_csv,
    save_csv,
    synth_sphere,
    validate,
)
from natgrad.data import cells, csv_table, jsonable


def test_dataset_shape_checks():
    with pytest.raises(ValueError, match="2-d"):
        Dataset(np.ones(4), np.ones(4))
    with pytest.raises(ValueError, match="n >= 2"):
        Dataset(np.eye(3)[:1], np.ones(1))
    with pytest.raises(ValueError, match="length"):
        Dataset(np.eye(3), np.ones(2))


def test_dataset_casts_to_float():
    ds = Dataset(np.eye(2, dtype=int), [1, -1])
    assert ds.X.dtype == np.float64
    assert ds.y.dtype == np.float64
    assert ds.n == 2 and ds.d == 2


def test_synth_sphere_deterministic():
    a = synth_sphere(12, 5, seed=3)
    b = synth_sphere(12, 5, seed=3)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    c = synth_sphere(12, 5, seed=4)
    assert not np.array_equal(a.X, c.X)


def test_synth_sphere_rows_on_sphere():
    ds = synth_sphere(30, 7, seed=0)
    norms = np.linalg.norm(ds.X, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_synth_sphere_targets():
    ds = synth_sphere(40, 6, seed=1)
    assert set(np.unique(ds.y)) <= {-1.0, 1.0}
    lin = synth_sphere(40, 6, seed=1, target_model="signed_linear")
    assert set(np.unique(lin.y)) <= {-1.0, 1.0}
    # a linear rule must be realized by some direction: check the seed's own
    rng = np.random.default_rng(1)
    rng.standard_normal((40, 6))  # skip the X draw
    v = rng.standard_normal(6)
    v /= np.linalg.norm(v)
    s = np.sign(lin.X @ v)
    assert np.array_equal(lin.y, np.where(s == 0.0, 1.0, s))


def test_synth_sphere_rejects_bad_args():
    with pytest.raises(ValueError):
        synth_sphere(1, 4, seed=0)
    with pytest.raises(ValueError, match="target_model"):
        synth_sphere(8, 4, seed=0, target_model="constant")


def test_validate_passes_synthetic_data():
    rep = validate(synth_sphere(16, 8, seed=0))
    assert rep.passed
    assert rep.max_norm_deviation <= 1e-9
    assert rep.min_pairwise_angle_gap > 1e-12
    assert rep.max_abs_target == 1.0


def test_validate_flags_off_sphere_rows():
    ds = synth_sphere(8, 4, seed=0)
    scaled = Dataset(1.5 * ds.X, ds.y)
    rep = validate(scaled)
    assert not rep.passed
    assert rep.max_norm_deviation == pytest.approx(0.5)


def test_validate_flags_parallel_rows():
    base = synth_sphere(4, 3, seed=0)
    X = base.X.copy()
    X[1] = X[0]
    rep = validate(Dataset(X, base.y))
    assert not rep.passed
    assert rep.min_pairwise_angle_gap <= 1e-12
    # antiparallel counts as parallel too
    X[1] = -X[0]
    assert not validate(Dataset(X, base.y)).passed


def test_validate_warns_on_large_targets():
    ds = synth_sphere(4, 3, seed=0)
    big = Dataset(ds.X, 100.0 * ds.y)
    with pytest.warns(UserWarning, match="order one"):
        rep = validate(big)
    assert rep.passed  # warning only, not a failure
    assert rep.max_abs_target == 100.0


def test_csv_round_trip_exact(tmp_path):
    ds = synth_sphere(10, 4, seed=5)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


def test_load_csv_label_by_name_and_index(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,6\n")
    by_name = load_csv(path, label_column="b")
    assert np.array_equal(by_name.y, [2.0, 5.0])
    assert np.array_equal(by_name.X, [[1.0, 3.0], [4.0, 6.0]])
    by_index = load_csv(path, label_column=1)
    assert np.array_equal(by_index.y, by_name.y)
    last = load_csv(path, label_column=-1)
    assert np.array_equal(last.y, [3.0, 6.0])


def test_load_csv_format_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(FormatError, match="empty"):
        load_csv(empty)

    one_row = tmp_path / "one.csv"
    one_row.write_text("x0,x1,y\n1,2,3\n")
    with pytest.raises(FormatError, match="at least 2 data rows"):
        load_csv(one_row)

    narrow = tmp_path / "narrow.csv"
    narrow.write_text("1,2\n3,4\n")
    with pytest.raises(FormatError, match="at least 3 columns"):
        load_csv(narrow)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("x0,x1,y\n1,2,3\n4,5\n")
    with pytest.raises(FormatError, match="row 3 has 2 cells"):
        load_csv(ragged)

    junk = tmp_path / "junk.csv"
    junk.write_text("x0,x1,y\n1,2,3\n4,oops,6\n")
    with pytest.raises(FormatError, match=r"row 3, column 2.*'oops'"):
        load_csv(junk)

    # a non-finite cell is rejected like one that does not parse
    for column, cell in ((1, "nan"), (3, "inf"), (2, "-Infinity")):
        row = ["0.6", "0.8", "1"]
        row[column - 1] = cell
        nonfinite = tmp_path / "nonfinite.csv"
        nonfinite.write_text("x0,x1,y\n1,0,1\n" + ",".join(row) + "\n")
        with pytest.raises(FormatError, match=rf"row 3, column {column}.*'{cell}'"):
            load_csv(nonfinite)

    missing = tmp_path / "missing.csv"
    missing.write_text("x0,x1,y\n1,2,3\n4,5,6\n")
    with pytest.raises(FormatError, match="no column named 'z'"):
        load_csv(missing, label_column="z")
    with pytest.raises(FormatError, match="out of range"):
        load_csv(missing, label_column=7)

    headerless = tmp_path / "nohead.csv"
    headerless.write_text("1,2,3\n4,5,6\n")
    with pytest.raises(FormatError, match="no header"):
        load_csv(headerless, label_column="y")


def test_load_csv_normalize(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("x0,x1,y\n3,4,1\n0,2,-1\n")
    ds = load_csv(path, normalize=True)
    assert np.allclose(np.linalg.norm(ds.X, axis=1), 1.0)
    assert np.allclose(ds.X[0], [0.6, 0.8])

    zero = tmp_path / "zero.csv"
    zero.write_text("x0,x1,y\n3,4,1\n0,0,-1\n")
    with pytest.raises(DegenerateInputError, match="row 3"):
        load_csv(zero, normalize=True)


def test_load_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("x0,x1,y\n1,0,1\n\n0,1,-1\n\n")
    ds = load_csv(path)
    assert ds.n == 2


def test_artifact_cells_and_json():
    assert cells([None, math.nan, np.float32("nan"), True, False, 7, "gd"]) == [
        "", "", "", "1", "0", "7", "gd",
    ]
    assert cells([0.1, np.float64(1 / 3), -math.inf, np.int64(2)]) == [
        "0.1", repr(1 / 3), "-inf", "2",
    ]
    assert csv_table(("a", "b"), [(1, None), (0.5, False)]) == "a,b\n1,\n0.5,0\n"
    assert csv_table(("a",), []) == "a\n"
    doc = jsonable({1: np.arange(2), "x": (np.float64(math.inf), np.int64(3), math.nan, None)})
    assert doc == {"1": [0, 1], "x": [None, 3, None, None]}
    assert type(doc["x"][1]) is int

import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpinfer.cli import _read_new_points
from mpinfer.core import (
    Dataset, InvalidClassIndex, InvalidSpec, MissingColumn, MPConfig,
    MPInferError, NonFiniteValue, NonNumericCell, Task, TooFewRows,
    ZeroVarianceFeature, error_score, load_dataset, parse_columns, read_csv,
    save_dataset, standardize,
)
from mpinfer.rng import generator, uniform_open


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadDataset:
    def test_basic_regression(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,0.5\n3,4,1.5\n5,6,2.5\n")
        ds = load_dataset(path, Task.REGRESSION, "y")
        assert ds.n_rows == 3 and ds.n_features == 2
        assert np.array_equal(ds.Y, [0.5, 1.5, 2.5])
        assert ds.feature_names == ("a", "b")
        assert np.array_equal(ds.X, [[1, 2], [3, 4], [5, 6]])

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,0.5\n3,4,1.5\n")
        with pytest.raises(MissingColumn):
            load_dataset(path, Task.REGRESSION, "z")

    def test_first_appearance_encoding(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,2\n3,4,7\n5,6,2\n")
        ds = load_dataset(path, Task.CLASSIFICATION, "y")
        assert np.array_equal(ds.Y, [0, 1, 0])
        assert ds.n_classes == 2
        assert ds.label_names == ("2", "7")

    def test_target_by_index(self, tmp_path):
        path = write(tmp_path, "y,a,b\n9,1,2\n8,3,4\n")
        ds = load_dataset(path, Task.REGRESSION, 0)
        assert np.array_equal(ds.Y, [9.0, 8.0])
        assert ds.feature_names == ("a", "b")

    def test_non_numeric_cell_location(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,0.5\n3,oops,1.5\n")
        with pytest.raises(NonNumericCell) as exc:
            load_dataset(path, Task.REGRESSION, "y")
        assert exc.value.row == 1 and exc.value.col == "b"

    @pytest.mark.parametrize("prefix", ["\ufeff", "\n", "\r\n\n"])
    def test_bom_and_blank_first_lines_before_header(self, tmp_path, prefix):
        path = tmp_path / "data.csv"
        path.write_bytes((prefix + "a,b,y\n1,2,0.5\n3,4,1.5\n").encode("utf8"))
        ds = load_dataset(path, Task.REGRESSION, "y")
        assert ds.feature_names == ("a", "b")
        assert np.array_equal(ds.X, [[1, 2], [3, 4]])

    def test_too_few_rows(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,0.5\n")
        with pytest.raises(TooFewRows):
            load_dataset(path, Task.REGRESSION, "y")

    def test_header_only_file_warns_nothing(self, tmp_path):
        path = write(tmp_path, "a,b,y\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TooFewRows, match="no data rows"):
                load_dataset(path, Task.REGRESSION, "y")
        assert caught == []

    def test_cell_past_field_limit_is_invalid_spec(self, tmp_path):
        path = write(tmp_path, "a,b,y\n" + "1" * 140_000 + ",2,3\n4,5,6\n")
        with pytest.raises(InvalidSpec, match="data.csv: line 2: field larger"):
            load_dataset(path, Task.REGRESSION, "y")

    def test_non_finite(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,inf,0.5\n3,4,1.5\n")
        with pytest.raises(NonFiniteValue):
            load_dataset(path, Task.REGRESSION, "y")

    def test_round_trip_bit_identical(self, tmp_path):
        gen = generator(5, "roundtrip")
        X = uniform_open(gen, (6, 3)) * 1e3 - 500.0
        X[0, 0] = 0.1
        X[1, 1] = 1.0 / 3.0
        X[2, 2] = 1.2345678901234567e-13
        Y = uniform_open(gen, 6)
        ds = Dataset(X=X, Y=Y, task=Task.REGRESSION)
        p1 = tmp_path / "one.csv"
        save_dataset(ds, p1, target_name="y")
        ds2 = load_dataset(p1, Task.REGRESSION, "y")
        assert np.array_equal(ds.X, ds2.X)
        assert np.array_equal(ds.Y, ds2.Y)
        p2 = tmp_path / "two.csv"
        save_dataset(ds2, p2, target_name="y")
        assert p1.read_text() == p2.read_text()

    def test_classification_round_trip_labels(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,cat\n3,4,dog\n5,6,cat\n")
        ds = load_dataset(path, Task.CLASSIFICATION, "y")
        out = tmp_path / "back.csv"
        save_dataset(ds, out, target_name="y")
        ds2 = load_dataset(out, Task.CLASSIFICATION, "y")
        assert np.array_equal(ds.Y, ds2.Y)
        assert ds2.label_names == ("cat", "dog")


def finite_spellings(x: float) -> list[str]:
    """Ways to write ``x`` that ``float()`` reads back exactly."""
    out = [repr(x), format(x, ".17g"), format(x, ".17e"), format(x, ".16E")]
    if x >= 0:
        out.append("+" + repr(x))
    if float(int(x)) == x and abs(x) < 1e15:
        out += [f"{int(x)}.", f"{int(x)}e0"]
    if 0 < x < 1:
        out.append(repr(x).removeprefix("0"))               # ".5"
    return out


numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda x: st.sampled_from(finite_spellings(x))),
    st.integers(-10 ** 6, 10 ** 6).map(str),
)
odd_cells = st.sampled_from([
    "nan", "-inf", "inf", "1e999", "", "abc", "1.2.3", "1_0", "1__0",
    "\u0661\u0662", "\uff11", "0x1", "1\x1c", "\x1f2", "1\x00", "\udcff1"])


@st.composite
def csv_tables(draw):
    """File bytes of a small headered table whose target column is ``y``.
    Cells are finite numbers in many spellings, padded with white space
    or quoted; about half the tables also get odd cells (non-finite,
    text, spellings only ``float()`` reads, bytes that are not UTF-8),
    ragged rows and white-space-only lines; one in eight has a header
    wider than every row.  So both readers are tried."""
    width = draw(st.integers(2, 4))
    target = draw(st.integers(0, width))
    header = [f"x{j}" for j in range(width)]
    header.insert(target, "y")
    odd = draw(st.sampled_from([0, 0, 4, 30]))     # 1 in `odd` is odd

    def sometimes() -> bool:
        return odd > 0 and draw(st.integers(0, odd - 1)) == 0

    def cell() -> str:
        text = draw(odd_cells if sometimes() else numbers)
        pad = st.sampled_from(["", "", " ", "\t", " \t ", "\u3000"])
        text = draw(pad) + text + draw(pad)
        return '"' + text + '"' if draw(st.integers(0, 5)) == 0 else text

    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 5))):
        row = [cell() for _ in header]
        if sometimes():                                     # ragged
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        lines.append(",".join(row))
    if draw(st.integers(0, 7)) == 0:                # every row one short
        lines[0] += ",z"
    for _ in range(draw(st.integers(0, 2))):
        blank = [" ", "\t"] if sometimes() else [""]
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(blank)))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    text = bom + end.join(lines) + draw(st.sampled_from([end, ""]))
    return text.encode("utf8", "surrogateescape")


def outcome(read):
    """What ``read()`` returns, or the type and message of its error."""
    try:
        return read()
    except MPInferError as exc:
        return type(exc), str(exc)


def reference_dataset(path) -> Dataset:
    """``load_dataset(path, REGRESSION, "y")`` through the csv reader."""
    header, rows = read_csv(path)
    if "y" not in header:
        raise MissingColumn("no column named 'y'")
    t = header.index("y")
    features = [i for i in range(len(header)) if i != t]
    X = parse_columns(header, rows, features)
    Y = parse_columns(header, rows, [t])[:, 0]
    return Dataset(X=X, Y=Y, task=Task.REGRESSION,
                   feature_names=tuple(header[i] for i in features))


def reference_new_points(path, names) -> np.ndarray:
    header, rows = read_csv(path)
    missing = [n for n in names if n not in header]
    if missing:
        raise MissingColumn(f"{path}: no column named {missing[0]!r}")
    return parse_columns(header, rows, [header.index(n) for n in names])


def same(a, b) -> bool:
    if isinstance(a, Dataset) and isinstance(b, Dataset):
        return (a.feature_names == b.feature_names and same(a.X, b.X)
                and same(a.Y, b.Y))
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and a.dtype == b.dtype \
            and a.tobytes() == b.tobytes()
    return a == b


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(csv_tables(), st.permutations(["x0", "x1"]))
def test_readers_match_csv_reference(table, names):
    """numpy's reader and the csv reader agree bit for bit on every
    table, or raise the same error type with the same message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(table)
        assert same(outcome(lambda: load_dataset(path, Task.REGRESSION, "y")),
                    outcome(lambda: reference_dataset(path)))
        model = Dataset(X=np.eye(2), Y=np.zeros(2), task=Task.REGRESSION,
                        feature_names=tuple(names))
        assert same(outcome(lambda: _read_new_points(path, model)),
                    outcome(lambda: reference_new_points(path, names)))


def test_new_points_read_in_little_more_than_their_matrix(tmp_path):
    """20,000 x 50 new points peak under 3x the float matrix's bytes:
    no cell is held as a Python string."""
    T, M = 20_000, 50
    X = np.random.default_rng(0).standard_normal((T, M))
    names = [f"x{j}" for j in range(M)]
    path = tmp_path / "new.csv"
    np.savetxt(path, X, fmt="%.17g", delimiter=",", header=",".join(names),
               comments="")
    model = Dataset(X=np.eye(2, M), Y=np.zeros(2), task=Task.REGRESSION,
                    feature_names=tuple(names))
    tracemalloc.start()
    try:
        X_new = _read_new_points(path, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(X_new, X)
    assert peak < 3 * X.nbytes, f"peak {peak / 2 ** 20:.1f} MiB"


class TestDatasetInvariants:
    def test_rejects_single_row(self):
        with pytest.raises(TooFewRows):
            Dataset(X=np.ones((1, 2)), Y=np.array([1.0]), task=Task.REGRESSION)

    def test_rejects_nan(self):
        X = np.ones((3, 2))
        X[1, 1] = np.nan
        with pytest.raises(NonFiniteValue):
            Dataset(X=X, Y=np.zeros(3), task=Task.REGRESSION)

    def test_label_range_checked_against_declared_classes(self):
        X = np.ones((3, 2))
        with pytest.raises(InvalidClassIndex):
            Dataset(X=X, Y=np.array([0, 1, 3]), task=Task.CLASSIFICATION,
                    n_classes=3)

    def test_declared_class_count_kept(self):
        X = np.arange(6.0).reshape(3, 2)
        ds = Dataset(X=X, Y=np.array([0, 0, 1]), task=Task.CLASSIFICATION,
                     n_classes=4)
        assert ds.n_classes == 4 and ds.pred_dim == 4


class TestErrorScore:
    def test_regression_absolute(self):
        assert error_score(Task.REGRESSION, 1.0, np.array([0.25])) == 0.75
        assert error_score(Task.REGRESSION, 2.0, np.array([2.0])) == 0.0

    def test_classification_missed_probability(self):
        assert error_score(Task.CLASSIFICATION, 1, np.array([0.3, 0.7])) == pytest.approx(0.3)

    def test_invalid_class(self):
        with pytest.raises(InvalidClassIndex):
            error_score(Task.CLASSIFICATION, 5, np.array([0.5, 0.5]))

    def test_lipschitz_regression(self):
        gen = generator(11, "lipschitz-reg")
        for _ in range(1000):
            y, a, b = (uniform_open(gen, 3) * 20.0 - 10.0)
            lhs = abs(error_score(Task.REGRESSION, y, np.array([a]))
                      - error_score(Task.REGRESSION, y, np.array([b])))
            assert lhs <= abs(a - b) + 1e-12

    def test_lipschitz_classification(self):
        gen = generator(12, "lipschitz-cls")
        for _ in range(1000):
            d = int(gen.integers(2, 6))
            y = int(gen.integers(0, d))
            p1 = uniform_open(gen, d)
            p1 /= p1.sum()
            p2 = uniform_open(gen, d)
            p2 /= p2.sum()
            lhs = abs(error_score(Task.CLASSIFICATION, y, p1)
                      - error_score(Task.CLASSIFICATION, y, p2))
            assert lhs <= np.linalg.norm(p1 - p2) + 1e-12


class TestStandardize:
    def test_hand_case(self):
        ds = Dataset(X=np.array([[1.0, 9.0], [2.0, 9.5], [3.0, 10.0]]),
                     Y=np.zeros(3), task=Task.REGRESSION)
        out, rec = standardize(ds)
        assert np.allclose(out.X[:, 0], [-1.0, 0.0, 1.0], atol=1e-12)
        assert rec.feature_means[0] == 2.0 and rec.feature_scales[0] == 1.0
        assert abs(out.X.mean(axis=0)).max() < 1e-10
        assert abs(out.X.std(axis=0, ddof=1) - 1.0).max() < 1e-10

    def test_constant_column(self):
        ds = Dataset(X=np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]),
                     Y=np.zeros(3), task=Task.REGRESSION)
        with pytest.raises(ZeroVarianceFeature) as exc:
            standardize(ds)
        assert exc.value.j == 0

    def test_idempotent_on_standardized(self):
        gen = generator(3, "standardize")
        X = uniform_open(gen, (20, 4)) * 7.0
        ds, _ = standardize(Dataset(X=X, Y=np.zeros(20), task=Task.REGRESSION))
        again, _ = standardize(ds)
        assert np.max(np.abs(again.X - ds.X)) < 1e-10

    def test_inverse_recovers(self):
        gen = generator(4, "standardize-inv")
        X = uniform_open(gen, (15, 3)) * 100.0
        Y = uniform_open(gen, 15) * 10.0
        ds = Dataset(X=X, Y=Y, task=Task.REGRESSION)
        out, rec = standardize(ds, standardize_y=True)
        back = rec.inverse(out)
        assert np.max(np.abs(back.X - ds.X)) < 1e-9
        assert np.max(np.abs(back.Y - ds.Y)) < 1e-9


class TestMPConfig:
    def test_sqrt_defaults(self):
        cfg = MPConfig().resolve(N=2000, M=20)
        assert cfg.n == 45 and cfg.m == 5 and cfg.K == 10_000

    def test_exact_squares(self):
        cfg = MPConfig().resolve(N=100, M=16)
        assert cfg.n == 10 and cfg.m == 4

    def test_rejects_bad_sizes(self):
        from mpinfer.core import InvalidSize
        with pytest.raises(InvalidSize):
            MPConfig(n=5).resolve(N=5, M=4)
        with pytest.raises(InvalidSize):
            MPConfig(alpha=1.5).resolve(N=10, M=4)

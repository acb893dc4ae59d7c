import numpy as np
import pytest

from mpinfer.core import (
    Dataset, InvalidClassIndex, MissingColumn, MPConfig, NonFiniteValue,
    NonNumericCell, Task, TooFewRows, ZeroVarianceFeature, error_score,
    load_dataset, save_dataset, standardize,
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

"""Domain types, dataset handling, and the shared error functions.

Predictions everywhere in this package are 1-D float arrays of length d:
d = 1 for regression, d = number of classes for classification (a
probability vector).  Both shipped error functions are 1-Lipschitz in
the prediction under the Euclidean norm.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

__all__ = [
    "Task", "Dataset", "MPConfig", "StandardizeRecord",
    "error_score", "error_vector", "standardize", "read_csv", "parse_columns",
    "load_dataset", "save_dataset",
    "MPInferError", "MissingColumn", "NonNumericCell", "TooFewRows",
    "NonFiniteValue", "ZeroVarianceFeature", "DimensionMismatch",
    "InvalidClassIndex", "SingularSystem", "EmptyInput", "InvalidSize",
    "InvalidSpec", "CoverageFailure", "TaskMismatch",
    "DegenerateDenominator", "TooLarge", "NoSampler",
]


class MPInferError(Exception):
    """Base class for every error raised by this package."""


class MissingColumn(MPInferError):
    pass


class NonNumericCell(MPInferError):
    def __init__(self, row: int, col: str):
        self.row, self.col = row, col
        super().__init__(f"non-numeric value at data row {row}, column {col!r}")


class TooFewRows(MPInferError):
    pass


class NonFiniteValue(MPInferError):
    pass


class ZeroVarianceFeature(MPInferError):
    def __init__(self, j: int):
        self.j = j
        super().__init__(f"feature {j} has zero sample variance")


class DimensionMismatch(MPInferError):
    pass


class InvalidClassIndex(MPInferError):
    pass


class SingularSystem(MPInferError):
    pass


class EmptyInput(MPInferError):
    pass


class InvalidSize(MPInferError):
    pass


class InvalidSpec(MPInferError):
    pass


class CoverageFailure(MPInferError):
    """Some leave-out average has an empty qualifying set; raise K."""

    def __init__(self, i: int, j: int | None = None):
        self.i, self.j = i, j
        where = f"row {i}" if j is None else f"row {i}, feature {j}"
        super().__init__(
            f"no minipatch excludes {where}; increase the number of minipatches K"
        )


class TaskMismatch(MPInferError):
    pass


class DegenerateDenominator(MPInferError):
    pass


class TooLarge(MPInferError):
    pass


class NoSampler(MPInferError):
    pass


class Task(str, Enum):
    REGRESSION = "regression"
    CLASSIFICATION = "classification"


@dataclass(frozen=True)
class Dataset:
    """An N x M feature matrix with responses.

    Regression responses are floats; classification responses are integer
    class indices in [0, n_classes) with n_classes declared up front.
    ``label_names`` keeps the original labels (first-appearance order) so
    files can be written back with the encoding inverted.
    """

    X: np.ndarray
    Y: np.ndarray
    task: Task
    n_classes: int = 1
    feature_names: tuple[str, ...] | None = None
    label_names: tuple[str, ...] | None = None

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=float))
        if X.ndim != 2:
            raise DimensionMismatch("X must be a 2-D matrix")
        n, m = X.shape
        if n < 2:
            raise TooFewRows(f"need at least 2 rows, got {n}")
        if m < 2:
            raise InvalidSize(f"need at least 2 features, got {m}")
        if not np.isfinite(X).all():
            raise NonFiniteValue("X contains non-finite entries")
        if self.task == Task.REGRESSION:
            Y = np.asarray(self.Y, dtype=float)
            if not np.isfinite(Y).all():
                raise NonFiniteValue("Y contains non-finite entries")
            object.__setattr__(self, "n_classes", 1)
        else:
            Y = np.asarray(self.Y, dtype=np.int64)
            if self.n_classes < 2:
                raise InvalidClassIndex("classification needs n_classes >= 2")
            if Y.size and (Y.min() < 0 or Y.max() >= self.n_classes):
                raise InvalidClassIndex(
                    f"labels must lie in [0, {self.n_classes})"
                )
        if Y.shape != (n,):
            raise DimensionMismatch("Y length must match the number of rows")
        if self.feature_names is not None and len(self.feature_names) != m:
            raise DimensionMismatch("feature_names length must equal M")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def pred_dim(self) -> int:
        return 1 if self.task == Task.REGRESSION else self.n_classes


@dataclass(frozen=True)
class MPConfig:
    """Minipatch sampling and inference settings.

    ``n``/``m`` default to ceil(sqrt(N)) / ceil(sqrt(M)) when left unset;
    call :meth:`resolve` against a dataset shape to pin them.  ``learner``
    is any object with a ``fit(X_sub, Y_sub, task, n_classes)`` method;
    ``None`` selects the default ridge learner at training time.
    """

    n: int | None = None
    m: int | None = None
    K: int = 10_000
    seed: int = 0
    alpha: float = 0.1
    learner: object | None = None
    buffer_c: float = 0.000005
    use_buffer: bool = True

    def resolve(self, N: int, M: int) -> "MPConfig":
        n = self.n if self.n is not None else math.isqrt(N - 1) + 1
        m = self.m if self.m is not None else math.isqrt(M - 1) + 1
        cfg = replace(self, n=n, m=m)
        cfg.validate(N, M)
        return cfg

    def validate(self, N: int, M: int) -> None:
        if not (1 <= self.n < N):
            raise InvalidSize(f"need 1 <= n < N, got n={self.n}, N={N}")
        if not (1 <= self.m < M):
            raise InvalidSize(f"need 1 <= m < M, got m={self.m}, M={M}")
        if self.K < 1:
            raise InvalidSize(f"need K >= 1, got {self.K}")
        if not (0.0 < self.alpha < 1.0):
            raise InvalidSize(f"need 0 < alpha < 1, got {self.alpha}")
        if self.buffer_c < 0.0:
            raise InvalidSize(f"need buffer_c >= 0, got {self.buffer_c}")

    def settings_dict(self) -> dict:
        learner = self.learner
        return {
            "n": self.n, "m": self.m, "K": self.K, "seed": self.seed,
            "alpha": self.alpha, "buffer_c": self.buffer_c,
            "use_buffer": self.use_buffer,
            "learner": repr(learner) if learner is not None else "RidgeLearner()",
        }


def error_vector(task: Task, Y: np.ndarray, preds: np.ndarray) -> np.ndarray:
    """Nonconformity of each prediction row preds[i] against response Y[i].

    Regression: |y - yhat[0]|.  Classification: 1 - yhat[y], the predicted
    probability the true class missed.
    """
    if task == Task.REGRESSION:
        return np.abs(Y - preds[:, 0])
    return 1.0 - preds[np.arange(Y.shape[0]), Y.astype(np.int64)]


def error_score(task: Task, y, yhat: np.ndarray) -> float:
    """:func:`error_vector` of one prediction vector yhat against y."""
    yhat = np.asarray(yhat, dtype=float)
    if yhat.ndim != 1:
        raise DimensionMismatch("prediction must be a 1-D vector")
    if task == Task.REGRESSION:
        if yhat.shape[0] != 1:
            raise DimensionMismatch("regression prediction must have length 1")
        y = float(y)
    else:
        y = int(y)
        if not 0 <= y < yhat.shape[0]:
            raise InvalidClassIndex(f"class {y} outside [0, {yhat.shape[0]})")
    return float(error_vector(task, np.array([y]), yhat[None])[0])


@dataclass(frozen=True)
class StandardizeRecord:
    """Per-feature centering/scaling used, enough to invert the transform."""

    feature_means: np.ndarray
    feature_scales: np.ndarray
    y_mean: float | None = None
    y_scale: float | None = None

    def inverse(self, dataset: Dataset) -> Dataset:
        X = dataset.X * self.feature_scales + self.feature_means
        Y = dataset.Y
        if self.y_mean is not None:
            Y = Y * self.y_scale + self.y_mean
        return replace(dataset, X=X, Y=Y)


def standardize(dataset: Dataset, standardize_y: bool = False):
    """Scale every feature to sample mean 0 and variance 1 (ddof=1).

    Returns the transformed dataset and a :class:`StandardizeRecord`.
    ``standardize_y`` additionally standardizes a regression response;
    it is ignored for classification.
    """
    means = dataset.X.mean(axis=0)
    scales = dataset.X.std(axis=0, ddof=1)
    for j, s in enumerate(scales):
        if s == 0.0:
            raise ZeroVarianceFeature(j)
    X = (dataset.X - means) / scales
    y_mean = y_scale = None
    Y = dataset.Y
    if standardize_y and dataset.task == Task.REGRESSION:
        y_mean = float(Y.mean())
        y_scale = float(Y.std(ddof=1))
        if y_scale == 0.0:
            raise ZeroVarianceFeature(-1)
        Y = (Y - y_mean) / y_scale
    out = replace(dataset, X=X, Y=Y)
    return out, StandardizeRecord(means, scales, y_mean, y_scale)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header (the first non-blank row) and non-blank rows, at least one,
    of a headered CSV file, each row as wide as the header; cells stay
    text.  A leading UTF-8 byte-order mark is dropped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise TooFewRows(f"{path}: empty file")
    header, rows = rows[0], rows[1:]
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DimensionMismatch(
                f"{path}: data row {r} has {len(row)} cells, expected {len(header)}")
    if not rows:
        raise TooFewRows(f"{path}: no data rows")
    return header, rows


def _parse_cell(text: str, row: int, col: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise NonNumericCell(row, col) from None
    if not math.isfinite(value):
        raise NonFiniteValue(f"non-finite value at data row {row}, column {col!r}")
    return value


def parse_columns(header: list[str], rows: list[list[str]], cols) -> np.ndarray:
    """Float matrix (rows, cols) of the columns ``cols`` of ``rows``; no
    other cell is read.  The first cell, in file order, that is not a
    finite number raises NonNumericCell or NonFiniteValue."""
    out = np.empty((len(rows), len(cols)))
    for r, row in enumerate(rows):
        out[r] = [_parse_cell(row[c], r, header[c]) for c in cols]
    return out


def load_dataset(path, task: Task, target_column) -> Dataset:
    """Read a headered CSV into a :class:`Dataset`.

    ``target_column`` is a header name or a 0-based column index.
    Classification labels are re-encoded to 0..d-1 in order of first
    appearance; the original labels are retained on the dataset.
    """
    task = Task(task)
    header, rows = read_csv(path)
    if isinstance(target_column, int) and not isinstance(target_column, bool):
        if not 0 <= target_column < len(header):
            raise MissingColumn(f"column index {target_column} out of range")
        t_idx = target_column
    else:
        try:
            t_idx = header.index(str(target_column))
        except ValueError:
            raise MissingColumn(f"no column named {target_column!r}") from None

    features = [i for i in range(len(header)) if i != t_idx]
    X = parse_columns(header, rows, features)
    feature_names = tuple(header[i] for i in features)
    if task == Task.REGRESSION:
        Y = parse_columns(header, rows, [t_idx])[:, 0]
        return Dataset(X=X, Y=Y, task=task, feature_names=feature_names)

    encoding: dict[str, int] = {}
    labels = np.empty(len(rows), dtype=np.int64)
    for r, row in enumerate(rows):
        if row[t_idx] not in encoding:
            encoding[row[t_idx]] = len(encoding)
        labels[r] = encoding[row[t_idx]]
    if len(encoding) < 2:
        raise InvalidClassIndex("classification target has fewer than 2 classes")
    return Dataset(X=X, Y=labels, task=task, n_classes=len(encoding),
                   feature_names=feature_names,
                   label_names=tuple(encoding.keys()))


def save_dataset(dataset: Dataset, path, target_name: str = "target") -> None:
    """Write a dataset back to CSV; floats at 17 significant digits."""
    names = dataset.feature_names or tuple(f"x{j}" for j in range(dataset.n_features))
    with open(path, "w", newline="", encoding="utf8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + [target_name])
        for i in range(dataset.n_rows):
            row = [format(v, ".17g") for v in dataset.X[i]]
            if dataset.task == Task.REGRESSION:
                row.append(format(dataset.Y[i], ".17g"))
            elif dataset.label_names is not None:
                row.append(dataset.label_names[int(dataset.Y[i])])
            else:
                row.append(str(int(dataset.Y[i])))
            writer.writerow(row)

"""Base learners mapping a minipatch to a fitted predictor.

Every fitted model exposes ``predict_batch(Z) -> (T, d)`` for a block of
rows restricted to the model's feature slots, plus the model is
immutable and safe to share across threads.  Linear predictions go
through one einsum kernel so a single row predicted alone is bit-equal
to the same row inside any batch.

A process-wide fit counter records every base-learner fit; inference
code paths are required to leave it untouched.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    Task, DimensionMismatch, EmptyInput, InvalidSize, InvalidSpec, SingularSystem,
)

__all__ = [
    "FIT_CALLS", "FittedModel", "LinearModel", "TreeModel", "ConstantModel",
    "fit_least_squares", "fit_decision_tree", "fit_constant_mean", "fit_patches",
    "predict",
    "RidgeLearner", "TreeLearner", "ConstantLearner", "learner_from_name",
    "learner_to_obj", "learner_from_obj",
]


class _FitCounter:
    """Thread-safe count of base-learner fits (no-refit instrumentation)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def bump(self, fits: int = 1) -> None:
        with self._lock:
            self._count += fits

    def value(self) -> int:
        with self._lock:
            return self._count


FIT_CALLS = _FitCounter()


class FittedModel:
    """Common surface: ``feature_slots``, ``pred_dim``, ``predict_batch``."""

    feature_slots: int
    pred_dim: int

    def predict_batch(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _check_block(model: FittedModel, Z: np.ndarray) -> np.ndarray:
    # C-contiguous layout keeps the einsum accumulation order identical
    # whether a row is predicted alone or inside a batch.
    Z = np.ascontiguousarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != model.feature_slots:
        raise DimensionMismatch(
            f"expected rows of length {model.feature_slots}, got shape {Z.shape}"
        )
    return Z


@dataclass(frozen=True)
class LinearModel(FittedModel):
    """Affine predictor; classification applies row-wise softmax to scores."""

    coef: np.ndarray          # (m, d)
    intercept: np.ndarray     # (d,)
    task: Task

    @property
    def feature_slots(self) -> int:
        return self.coef.shape[0]

    @property
    def pred_dim(self) -> int:
        return self.coef.shape[1]

    def predict_batch(self, Z: np.ndarray) -> np.ndarray:
        Z = _check_block(self, Z)
        scores = np.einsum("nm,md->nd", Z, self.coef) + self.intercept
        if self.task == Task.REGRESSION:
            return scores
        # softmax, stabilised per row
        scores = scores - scores.max(axis=1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=1, keepdims=True)
        return scores


@dataclass(frozen=True)
class _Node:
    feature: int = -1            # -1 marks a leaf
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: np.ndarray | None = None


@dataclass(frozen=True)
class TreeModel(FittedModel):
    root: _Node
    n_slots: int
    d: int

    @property
    def feature_slots(self) -> int:
        return self.n_slots

    @property
    def pred_dim(self) -> int:
        return self.d

    def predict_batch(self, Z: np.ndarray) -> np.ndarray:
        Z = _check_block(self, Z)
        out = np.empty((Z.shape[0], self.d), dtype=float)
        for t in range(Z.shape[0]):
            node = self.root
            while node.feature >= 0:
                node = node.left if Z[t, node.feature] <= node.threshold else node.right
            out[t] = node.value
        return out


@dataclass(frozen=True)
class ConstantModel(FittedModel):
    """Ignores its input entirely; handy as an exact null learner."""

    value: np.ndarray
    n_slots: int

    @property
    def feature_slots(self) -> int:
        return self.n_slots

    @property
    def pred_dim(self) -> int:
        return self.value.shape[0]

    def predict_batch(self, Z: np.ndarray) -> np.ndarray:
        Z = _check_block(self, Z)
        return np.broadcast_to(self.value, (Z.shape[0], self.value.shape[0])).copy()


def predict(model: FittedModel, x) -> np.ndarray:
    """Predict a single row; identical to the same row inside a batch."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch("x must be a 1-D vector")
    if not np.isfinite(x).all():
        raise DimensionMismatch("x contains non-finite entries")
    return model.predict_batch(x[None, :])[0]


def _class_indicators(y: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((y.shape[0], n_classes), dtype=float)
    out[np.arange(y.shape[0]), y.astype(np.int64)] = 1.0
    return out


def fit_least_squares(X_sub, Y_sub, lam: float = 0.0,
                      task: Task = Task.REGRESSION, n_classes: int = 1) -> LinearModel:
    """Ridge / least squares with an unpenalised intercept.

    Minimises ||Y - X b - b0||^2 + lam ||b||^2 on centred data.  For
    classification the targets are one-vs-all class indicators and the
    fitted scores are passed through softmax at prediction time.
    """
    X = np.asarray(X_sub, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyInput("X_sub must be a non-empty 2-D matrix")
    y = np.asarray(Y_sub, dtype=float)
    return _fit_ridge_stack(X[None], y[None], lam, task, n_classes)[0]


def _fit_ridge_stack(Xs: np.ndarray, ys: np.ndarray, lam: float, task: Task,
                     n_classes: int) -> list[LinearModel]:
    """:func:`fit_least_squares` for a stack of designs Xs (B, n, m) and
    responses ys (B, n): one batched Cholesky check and one batched solve."""
    if lam < 0:
        raise InvalidSize("lambda must be >= 0")
    FIT_CALLS.bump(Xs.shape[0])
    if task == Task.REGRESSION:
        targets = ys[..., None]
    else:
        targets = _class_indicators(ys.ravel(), n_classes).reshape(*ys.shape, -1)
    x_mean = Xs.mean(axis=1, keepdims=True)
    t_mean = targets.mean(axis=1, keepdims=True)
    Xct = (Xs - x_mean).swapaxes(1, 2)
    gram = Xct @ Xct.swapaxes(1, 2)
    if lam > 0:
        gram = gram + lam * np.eye(Xs.shape[2])
    try:
        # Cholesky is the rank check, but rounding can let an exactly
        # singular gram through it, so the solve is guarded as well.
        np.linalg.cholesky(gram)
        coef = np.linalg.solve(gram, Xct @ (targets - t_mean))
    except np.linalg.LinAlgError:
        raise SingularSystem(
            "normal equations are singular; use lam > 0 or more rows"
        ) from None
    intercept = (t_mean - x_mean @ coef)[:, 0]
    return [LinearModel(coef=c, intercept=b, task=task)
            for c, b in zip(coef, intercept)]


def fit_patches(learner, X: np.ndarray, Y: np.ndarray, rows: np.ndarray,
                feats: np.ndarray, task: Task, n_classes: int) -> list[FittedModel]:
    """``learner.fit`` on each submatrix X[rows[b]][:, feats[b]] of a stack
    of patches (rows (B, n), feats (B, m)); ridge fits share one batched
    solve instead of B separate ones."""
    if type(learner) is RidgeLearner:
        return _fit_ridge_stack(X[rows[:, :, None], feats[:, None, :]],
                                np.asarray(Y[rows], dtype=float), learner.lam,
                                task, n_classes)
    return [learner.fit(X[r][:, f], Y[r], task, n_classes)
            for r, f in zip(rows, feats)]


def fit_constant_mean(X_sub, Y_sub, task: Task = Task.REGRESSION,
                      n_classes: int = 1) -> ConstantModel:
    """Predict the training mean (or class frequencies), ignoring X."""
    FIT_CALLS.bump()
    X = np.asarray(X_sub, dtype=float)
    y = np.asarray(Y_sub)
    if y.shape[0] == 0:
        raise EmptyInput("Y_sub is empty")
    if task == Task.REGRESSION:
        value = np.array([float(np.mean(np.asarray(y, dtype=float)))])
    else:
        value = _class_indicators(np.asarray(y), n_classes).mean(axis=0)
    return ConstantModel(value=value, n_slots=X.shape[1])


def _leaf_value(y: np.ndarray, task: Task, n_classes: int) -> np.ndarray:
    if task == Task.REGRESSION:
        return np.array([float(y.mean())])
    return _class_indicators(y, n_classes).mean(axis=0)


def _node_impurity_splits(col: np.ndarray, y: np.ndarray, task: Task,
                          n_classes: int, min_leaf: int):
    """Best (score, threshold) for one feature, or None.

    Regression scores are the summed child SSEs; classification scores
    are count-weighted child Gini.  Candidates are midpoints between
    consecutive distinct sorted values with both children >= min_leaf.
    Lower score is better; the caller keeps the first strict improvement,
    which implements the lowest-slot / lowest-threshold tie break.
    """
    order = np.argsort(col, kind="stable")
    xs = col[order]
    ys = y[order]
    n = xs.shape[0]

    boundaries = np.nonzero(xs[:-1] != xs[1:])[0] + 1  # left-child sizes
    boundaries = boundaries[(boundaries >= min_leaf) & (n - boundaries >= min_leaf)]
    if boundaries.size == 0:
        return None

    if task == Task.REGRESSION:
        s1 = np.cumsum(ys)
        s2 = np.cumsum(ys * ys)
        t1, t2 = s1[-1], s2[-1]
        left = boundaries.astype(float)
        sse_l = s2[boundaries - 1] - s1[boundaries - 1] ** 2 / left
        right = n - left
        sse_r = (t2 - s2[boundaries - 1]) - (t1 - s1[boundaries - 1]) ** 2 / right
        scores = sse_l + sse_r
    else:
        onehot = _class_indicators(ys, n_classes)
        counts = np.cumsum(onehot, axis=0)
        c_l = counts[boundaries - 1]
        c_r = counts[-1] - c_l
        n_l = boundaries.astype(float)
        n_r = n - n_l
        gini_l = n_l - (c_l ** 2).sum(axis=1) / n_l
        gini_r = n_r - (c_r ** 2).sum(axis=1) / n_r
        scores = gini_l + gini_r  # count-weighted: n_child * gini_child

    best = int(np.argmin(scores))  # argmin keeps the lowest threshold on ties
    threshold = 0.5 * (xs[boundaries[best] - 1] + xs[boundaries[best]])
    return float(scores[best]), float(threshold)


def _grow(X: np.ndarray, y: np.ndarray, depth: int, task: Task,
          n_classes: int, max_depth: int, min_leaf: int) -> _Node:
    n = X.shape[0]
    pure = bool(np.all(y == y[0]))
    if depth >= max_depth or pure or n < 2 * min_leaf:
        return _Node(value=_leaf_value(y, task, n_classes))

    best = None  # (score, slot, threshold)
    for slot in range(X.shape[1]):
        cand = _node_impurity_splits(X[:, slot], y, task, n_classes, min_leaf)
        if cand is not None and (best is None or cand[0] < best[0]):
            best = (cand[0], slot, cand[1])
    if best is None:
        return _Node(value=_leaf_value(y, task, n_classes))

    _, slot, threshold = best
    mask = X[:, slot] <= threshold
    left = _grow(X[mask], y[mask], depth + 1, task, n_classes, max_depth, min_leaf)
    right = _grow(X[~mask], y[~mask], depth + 1, task, n_classes, max_depth, min_leaf)
    return _Node(feature=slot, threshold=threshold, left=left, right=right)


def fit_decision_tree(X_sub, Y_sub, max_depth: int = 8, min_leaf: int = 3,
                      task: Task = Task.REGRESSION, n_classes: int = 1) -> TreeModel:
    """CART-style binary tree; deterministic given its inputs."""
    FIT_CALLS.bump()
    X = np.asarray(X_sub, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyInput("X_sub must be a non-empty 2-D matrix")
    if max_depth < 1 or min_leaf < 1:
        raise InvalidSize("max_depth and min_leaf must be >= 1")
    y = np.asarray(Y_sub, dtype=float if task == Task.REGRESSION else np.int64)
    root = _grow(X, y, 0, task, n_classes, max_depth, min_leaf)
    return TreeModel(root=root, n_slots=X.shape[1],
                     d=1 if task == Task.REGRESSION else n_classes)


@dataclass(frozen=True)
class RidgeLearner:
    """Least squares with a small ridge penalty (the default base learner)."""

    lam: float = 0.0001

    def fit(self, X_sub, Y_sub, task: Task, n_classes: int) -> FittedModel:
        return fit_least_squares(X_sub, Y_sub, lam=self.lam, task=task,
                                 n_classes=n_classes)


@dataclass(frozen=True)
class TreeLearner:
    max_depth: int = 8
    min_leaf: int = 3

    def fit(self, X_sub, Y_sub, task: Task, n_classes: int) -> FittedModel:
        return fit_decision_tree(X_sub, Y_sub, max_depth=self.max_depth,
                                 min_leaf=self.min_leaf, task=task,
                                 n_classes=n_classes)


@dataclass(frozen=True)
class ConstantLearner:
    def fit(self, X_sub, Y_sub, task: Task, n_classes: int) -> FittedModel:
        return fit_constant_mean(X_sub, Y_sub, task=task, n_classes=n_classes)


def learner_from_name(name: str, ridge_lambda: float = 0.0001,
                      max_depth: int = 8, min_leaf: int = 3):
    if name == "ridge":
        return RidgeLearner(lam=ridge_lambda)
    if name == "tree":
        return TreeLearner(max_depth=max_depth, min_leaf=min_leaf)
    if name == "constant":
        return ConstantLearner()
    raise InvalidSpec(f"unknown learner {name!r}")


_LEARNERS = {cls.__name__: cls for cls in (RidgeLearner, TreeLearner, ConstantLearner)}


def learner_to_obj(learner) -> dict | None:
    """JSON form (class name and parameters) of a shipped learner; None
    stands for the default learner and stays None."""
    if learner is None:
        return None
    if _LEARNERS.get(type(learner).__name__) is not type(learner):
        raise TypeError(f"cannot snapshot learner type {type(learner).__name__}")
    return {"name": type(learner).__name__, "params": asdict(learner)}


def learner_from_obj(obj):
    """Inverse of :func:`learner_to_obj`."""
    if obj is None:
        return None
    if obj["name"] not in _LEARNERS:
        raise InvalidSpec(f"unknown learner {obj['name']!r}")
    return _LEARNERS[obj["name"]](**obj["params"])

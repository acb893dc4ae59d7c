"""Base learners mapping a minipatch to a fitted predictor.

A fitted model is a stack: its arrays carry an optional leading patch
axis.  ``predict_batch`` maps rows (..., T, m), restricted to each
patch's feature slots, to predictions (..., T, d); ``take(idx)`` selects
patches (an integer gives a single model, with the plain shapes of one
fit) and ``join`` appends stacks.  Stacks are immutable and safe to
share across threads.  ``predict_batch`` is the single-model reference:
a row predicted alone is bit-equal to the same row in any batch or
stack.  The ensemble predicts a linear stack by one GEMM of its
scattered coefficients instead (see :mod:`mpinfer.ensemble`), equal to
``predict_batch`` up to rounding, and every other stack through
``predict_batch``.  How a model is stored is known to this module
alone; snapshots go through :func:`to_obj` and :func:`from_obj`.

A process-wide fit counter records every base-learner fit; inference
code paths are required to leave it untouched.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import (
    Task, DimensionMismatch, EmptyInput, InvalidSize, InvalidSpec, SingularSystem,
)

__all__ = [
    "FIT_CALLS", "FittedModel", "LinearModel", "TreeModel", "ConstantModel",
    "fit_least_squares", "fit_decision_tree", "fit_constant_mean", "fit_patches",
    "predict",
    "RidgeLearner", "TreeLearner", "ConstantLearner", "learner_from_name",
    "to_obj", "from_obj",
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
    """Common surface: ``feature_slots``, ``pred_dim``, ``predict_batch``,
    ``take`` and ``join``.  The defaults read ``n_slots`` and ``value``."""

    _PATCH_FIELDS: tuple[str, ...]   # array fields led by the patch axis

    @property
    def feature_slots(self) -> int:
        return self.n_slots

    @property
    def pred_dim(self) -> int:
        return self.value.shape[-1]

    def predict_batch(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def take(self, idx) -> FittedModel:
        """The patches at ``idx``; an integer gives a single model."""
        return replace(self, **{f: getattr(self, f)[idx] for f in self._PATCH_FIELDS})

    def join(self, *others: FittedModel) -> FittedModel:
        """This stack followed by ``others`` along the patch axis."""
        parts = (self, *others)
        return replace(self, **{f: np.concatenate([getattr(p, f) for p in parts])
                                for f in self._PATCH_FIELDS})


def _check_block(model: FittedModel, Z: np.ndarray) -> np.ndarray:
    # C-contiguous layout keeps the einsum accumulation order identical
    # whether a row is predicted alone or inside a batch.
    Z = np.ascontiguousarray(Z, dtype=float)
    if Z.ndim < 2 or Z.shape[-1] != model.feature_slots:
        raise DimensionMismatch(
            f"expected rows of length {model.feature_slots}, got shape {Z.shape}"
        )
    return Z


@dataclass(frozen=True)
class LinearModel(FittedModel):
    """Affine predictor; classification applies row-wise softmax to scores."""

    coef: np.ndarray          # (..., m, d)
    intercept: np.ndarray     # (..., d)
    task: Task
    _PATCH_FIELDS = ("coef", "intercept")

    @property
    def feature_slots(self) -> int:
        return self.coef.shape[-2]

    @property
    def pred_dim(self) -> int:
        return self.coef.shape[-1]

    def predict_batch(self, Z: np.ndarray) -> np.ndarray:
        Z = _check_block(self, Z)
        scores = np.einsum("...nm,...md->...nd", Z, self.coef)
        scores += self.intercept[..., None, :]
        if self.task == Task.REGRESSION:
            return scores
        # softmax, stabilised per row
        scores = scores - scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        return scores


@dataclass(frozen=True)
class TreeModel(FittedModel):
    """Binary trees as flat node arrays, each tree's nodes in pre-order.

    Node k splits on slot ``feature[k]`` (-1 marks a leaf) and sends a row
    to ``left[k]`` when its value is <= ``threshold[k]``, else to
    ``right[k]``; a leaf points to itself on both sides.  ``value[k]`` is
    the mean response (or class frequencies) of the rows reaching node k,
    and ``roots`` holds each patch's root node.
    """

    feature: np.ndarray       # (nodes,)
    threshold: np.ndarray     # (nodes,)
    left: np.ndarray          # (nodes,)
    right: np.ndarray         # (nodes,)
    value: np.ndarray         # (nodes, d)
    roots: np.ndarray         # (...,)
    n_slots: int
    _PATCH_FIELDS = ("roots",)

    def predict_batch(self, Z: np.ndarray) -> np.ndarray:
        # all rows of all patches descend one level per pass; rows at a
        # leaf stay put (a leaf's -1 feature reads a slot nobody uses)
        Z = _check_block(self, Z)
        node = np.broadcast_to(self.roots[..., None], Z.shape[:-1])
        feat = self.feature[node]
        while (feat >= 0).any():
            x = np.take_along_axis(Z, feat[..., None], axis=-1)[..., 0]
            node = np.where(x <= self.threshold[node], self.left[node],
                            self.right[node])
            feat = self.feature[node]
        return self.value[node]

    def join(self, *others: TreeModel) -> TreeModel:
        parts = (self, *others)
        offsets = np.cumsum([0] + [p.feature.size for p in parts[:-1]])
        return replace(self, **{
            f: np.concatenate([getattr(p, f) + o for p, o in zip(parts, offsets)])
            for f in ("left", "right", "roots")
        }, **{
            f: np.concatenate([getattr(p, f) for p in parts])
            for f in ("feature", "threshold", "value")
        })


@dataclass(frozen=True)
class ConstantModel(FittedModel):
    """Ignores its input entirely; handy as an exact null learner."""

    value: np.ndarray         # (..., d)
    n_slots: int
    _PATCH_FIELDS = ("value",)

    def predict_batch(self, Z: np.ndarray) -> np.ndarray:
        Z = _check_block(self, Z)
        return np.broadcast_to(self.value[..., None, :],
                               (*Z.shape[:-1], self.pred_dim)).copy()


def predict(model: FittedModel, x) -> np.ndarray:
    """Predict a single row; identical to the same row inside a batch."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch("x must be a 1-D vector")
    if not np.isfinite(x).all():
        raise DimensionMismatch("x contains non-finite entries")
    return model.predict_batch(x[None, :])[0]


def _class_indicators(y: np.ndarray, n_classes: int) -> np.ndarray:
    """One-hot rows (..., n_classes) for integer labels of any shape."""
    return np.eye(n_classes)[np.asarray(y, dtype=np.int64)]


def fit_least_squares(X_sub, Y_sub, lam: float = 0.0,
                      task: Task = Task.REGRESSION, n_classes: int = 1) -> LinearModel:
    """Ridge / least squares with an unpenalised intercept.

    Minimises ||Y - X b - b0||^2 + lam ||b||^2 on centred data.  For
    classification the targets are one-vs-all class indicators and the
    fitted scores are passed through softmax at prediction time.
    """
    return RidgeLearner(lam=lam).fit(X_sub, Y_sub, task, n_classes)


def fit_decision_tree(X_sub, Y_sub, max_depth: int = 8, min_leaf: int = 3,
                      task: Task = Task.REGRESSION, n_classes: int = 1) -> TreeModel:
    """CART-style binary tree; deterministic given its inputs."""
    return TreeLearner(max_depth=max_depth, min_leaf=min_leaf).fit(
        X_sub, Y_sub, task, n_classes)


def fit_constant_mean(X_sub, Y_sub, task: Task = Task.REGRESSION,
                      n_classes: int = 1) -> ConstantModel:
    """Predict the training mean (or class frequencies), ignoring X."""
    return ConstantLearner().fit(X_sub, Y_sub, task, n_classes)


def fit_patches(learner, X: np.ndarray, Y: np.ndarray, rows: np.ndarray,
                feats: np.ndarray, task: Task, n_classes: int) -> FittedModel:
    """``learner.fit`` on each submatrix X[rows[b]][:, feats[b]] of a stack
    of patches (rows (B, n), feats (B, m)), returned as one stack of B
    models; ridge fits share one batched solve instead of B separate ones."""
    return learner.fit_stack(X[rows[:, :, None], feats[:, None, :]], Y[rows],
                             task, n_classes)


def _mean_response(y: np.ndarray, task: Task, n_classes: int) -> np.ndarray:
    """Mean response, or class frequencies, of responses y (..., n): (..., d)."""
    if task == Task.REGRESSION:
        return np.asarray(y, dtype=float).mean(axis=-1)[..., None]
    return _class_indicators(y, n_classes).mean(axis=-2)


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


def _grow(X: np.ndarray, y: np.ndarray, depth: int, task: Task, n_classes: int,
          max_depth: int, min_leaf: int, nodes: list) -> int:
    """Append the tree grown on (X, y) to ``nodes`` in pre-order, one
    (feature, threshold, left, right, value) tuple per node, and return
    the index of its root."""
    at, value = len(nodes), _mean_response(y, task, n_classes)
    nodes.append((-1, 0.0, at, at, value))   # a leaf unless a split is found
    n = X.shape[0]
    pure = bool(np.all(y == y[0]))
    if depth >= max_depth or pure or n < 2 * min_leaf:
        return at

    best = None  # (score, slot, threshold)
    for slot in range(X.shape[1]):
        cand = _node_impurity_splits(X[:, slot], y, task, n_classes, min_leaf)
        if cand is not None and (best is None or cand[0] < best[0]):
            best = (cand[0], slot, cand[1])
    if best is None:
        return at

    _, slot, threshold = best
    mask = X[:, slot] <= threshold
    left = _grow(X[mask], y[mask], depth + 1, task, n_classes, max_depth,
                 min_leaf, nodes)
    right = _grow(X[~mask], y[~mask], depth + 1, task, n_classes, max_depth,
                  min_leaf, nodes)
    nodes[at] = (slot, threshold, left, right, value)
    return at


class _Learner:
    """A learner fits a stack of designs Xs (B, n, m) with responses
    ys (B, n) in ``fit_stack``; ``fit`` is a stack of one, taken out."""

    def fit(self, X_sub, Y_sub, task: Task, n_classes: int) -> FittedModel:
        # C order, as in a fit_patches stack, so a patch fitted alone is
        # bit-equal to the same patch fitted inside a stack
        X = np.ascontiguousarray(X_sub, dtype=float)
        if X.ndim != 2 or X.shape[0] == 0:
            raise EmptyInput("X_sub must be a non-empty 2-D matrix")
        return self.fit_stack(X[None], np.asarray(Y_sub)[None], task,
                              n_classes).take(0)


@dataclass(frozen=True)
class RidgeLearner(_Learner):
    """Least squares with a small ridge penalty (the default base learner)."""

    lam: float = 0.0001

    def fit_stack(self, Xs, ys, task: Task, n_classes: int) -> LinearModel:
        """One batched Cholesky check and one batched solve for the stack."""
        if self.lam < 0:
            raise InvalidSize("lambda must be >= 0")
        FIT_CALLS.bump(Xs.shape[0])
        if task == Task.REGRESSION:
            targets = np.asarray(ys, dtype=float)[..., None]
        else:
            targets = _class_indicators(ys, n_classes)
        x_mean = Xs.mean(axis=1, keepdims=True)
        t_mean = targets.mean(axis=1, keepdims=True)
        Xct = (Xs - x_mean).swapaxes(1, 2)
        gram = Xct @ Xct.swapaxes(1, 2)
        if self.lam > 0:
            gram = gram + self.lam * np.eye(Xs.shape[2])
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
        return LinearModel(coef=coef, intercept=intercept, task=task)


@dataclass(frozen=True)
class TreeLearner(_Learner):
    max_depth: int = 8
    min_leaf: int = 3

    def fit_stack(self, Xs, ys, task: Task, n_classes: int) -> TreeModel:
        """One tree per design, every tree's nodes in one set of arrays."""
        if self.max_depth < 1 or self.min_leaf < 1:
            raise InvalidSize("max_depth and min_leaf must be >= 1")
        FIT_CALLS.bump(Xs.shape[0])
        ys = np.asarray(ys, dtype=float if task == Task.REGRESSION else np.int64)
        nodes: list = []
        roots = [_grow(X, y, 0, task, n_classes, self.max_depth, self.min_leaf,
                       nodes) for X, y in zip(Xs, ys)]
        feature, threshold, left, right, value = zip(*nodes) if nodes else [()] * 5
        d = 1 if task == Task.REGRESSION else n_classes
        return TreeModel(
            feature=np.array(feature, dtype=np.int64),
            threshold=np.array(threshold, dtype=float),
            left=np.array(left, dtype=np.int64), right=np.array(right, dtype=np.int64),
            value=np.array(value, dtype=float).reshape(-1, d),
            roots=np.array(roots, dtype=np.int64), n_slots=Xs.shape[-1])


@dataclass(frozen=True)
class ConstantLearner(_Learner):
    def fit_stack(self, Xs, ys, task: Task, n_classes: int) -> ConstantModel:
        FIT_CALLS.bump(Xs.shape[0])
        return ConstantModel(value=_mean_response(ys, task, n_classes),
                             n_slots=Xs.shape[-1])


def learner_from_name(name: str, ridge_lambda: float = 0.0001,
                      max_depth: int = 8, min_leaf: int = 3):
    if name == "ridge":
        return RidgeLearner(lam=ridge_lambda)
    if name == "tree":
        return TreeLearner(max_depth=max_depth, min_leaf=min_leaf)
    if name == "constant":
        return ConstantLearner()
    raise InvalidSpec(f"unknown learner {name!r}")


# Every type a snapshot may name, by kind; a name read from a file is only
# ever looked up here.
_SHIPPED = {
    "learner": {cls.__name__: cls for cls in (RidgeLearner, TreeLearner,
                                              ConstantLearner)},
    "model": {cls.__name__: cls for cls in (LinearModel, TreeModel, ConstantModel)},
}


def to_obj(thing, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """JSON form (class name and scalar fields) and named array fields of
    a shipped ``kind`` ("learner" or "model" stack)."""
    name = type(thing).__name__
    if _SHIPPED[kind].get(name) is not type(thing):
        raise TypeError(f"cannot snapshot {kind} type {name}")
    values = {f.name: getattr(thing, f.name) for f in fields(thing)}
    arrays = {k: v for k, v in values.items() if isinstance(v, np.ndarray)}
    params = {k: v for k, v in values.items() if k not in arrays}
    return {"name": name, "params": params}, arrays


def from_obj(obj, kind: str, arrays: dict[str, np.ndarray] | None = None):
    """Inverse of :func:`to_obj`."""
    if obj["name"] not in _SHIPPED[kind]:
        raise InvalidSpec(f"unknown {kind} type {obj['name']!r}")
    params = dict(obj["params"])
    if "task" in params:
        params["task"] = Task(params["task"])
    return _SHIPPED[kind][obj["name"]](**params, **(arrays or {}))

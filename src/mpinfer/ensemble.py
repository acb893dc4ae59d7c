"""Minipatch sampling, ensemble training, and leave-out aggregation.

A minipatch is a random (rows, features) submatrix; the ensemble keeps
every fitted base model together with a dense K x N x d cache of each
model's prediction at every training row, plus boolean membership masks.
Every leave-one-out / leave-one-covariate-out query is then a masked
average over the cache: no model is ever refit after training.

Memory: the cache costs K*N*d doubles (e.g. K=10,000, N=2,000, d=1 is
160 MB); LOO and LOCO are one pass of mask GEMMs over blocks of patches.
Model predictions at new points, for new-point LOO and for the oracles'
targets, all go through one blocked masked sum, :func:`patch_sums`.
Training fits fixed blocks of patches at a time (ridge fits share one
batched solve per block) and worker threads take whole blocks, so output
is byte-identical for any thread count.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    CoverageFailure, Dataset, DimensionMismatch, InvalidSize, InvalidSpec,
    MPConfig, Task,
)
from .learners import (
    ConstantModel, FittedModel, LinearModel, RidgeLearner, TreeModel, _Node,
    fit_patches, learner_from_obj, learner_to_obj,
)
from .rng import generator

__all__ = [
    "Minipatch", "Ensemble", "sample_minipatches", "train_ensemble",
    "save_ensemble", "load_ensemble", "patch_sums",
]

_PATCH_STREAM = "minipatches"

# Size of one float scratch buffer in the blocked contractions: big enough
# for BLAS-sized GEMMs, small enough that the cache sets peak memory.
_BLOCK_BYTES = 4 << 20
# Size of the stacked patch designs in one batched fit.
_FIT_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class Minipatch:
    """Sorted row indices (n) and feature indices (m) of one submatrix."""

    rows: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=np.int64))
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.int64))


def sample_minipatches(N: int, M: int, n: int, m: int, K: int, seed: int) -> list[Minipatch]:
    """Draw K independent uniform (rows, features) pairs, each without
    replacement within the patch; deterministic in the seed."""
    if not (1 <= n < N) or not (1 <= m < M) or K < 1:
        raise InvalidSize(f"invalid sizes: N={N}, M={M}, n={n}, m={m}, K={K}")
    gen = generator(seed, _PATCH_STREAM)
    patches = []
    for _ in range(K):
        rows = np.sort(gen.choice(N, size=n, replace=False))
        feats = np.sort(gen.choice(M, size=m, replace=False))
        patches.append(Minipatch(rows=rows, features=feats))
    return patches


class Ensemble:
    """K fitted minipatch models plus the prediction cache and masks.

    Immutable after construction.  Query methods keep no cache of their
    own, so they are read-only and safe to call concurrently; every
    answer is recomputed from the cache and masks.
    """

    def __init__(self, dataset: Dataset, config: MPConfig,
                 patches: list[Minipatch], models: list[FittedModel],
                 cache: np.ndarray, obs_mask: np.ndarray, feat_mask: np.ndarray):
        self.dataset = dataset
        self.config = config
        self.patches = patches
        self.models = models
        self.cache = cache            # (K, N, d)
        self.obs_mask = obs_mask      # (K, N) bool, True iff row in patch
        self.feat_mask = feat_mask    # (K, M) bool, True iff feature in patch

    @property
    def K(self) -> int:
        return len(self.patches)

    # -- mask-by-cache contractions -------------------------------------
    # Hole handling: a row whose qualifying set is empty only errors when
    # that row is actually asked for; whole-matrix consumers require full
    # coverage and fail on the first hole.

    def leave_out_sums(self, features=()):
        """Sums (N, 1 + J, d) and counts (N, 1 + J) in one pass: column 0
        over the patches that exclude the row, column 1 + j over those
        that also exclude feature ``features[j]``."""
        features = np.asarray(features, dtype=np.int64)
        (K, N, d), M = self.cache.shape, self.feat_mask.shape[1]
        if features.size and not (0 <= features.min() and features.max() < M):
            raise DimensionMismatch(f"feature indices must lie in [0, {M})")
        numer = np.zeros((N, 1 + features.size, d))
        counts = np.zeros((N, 1 + features.size))
        step = max(1, _BLOCK_BYTES // (8 * N))
        for lo in range(0, K, step):
            excl = (~self.obs_mask[lo:lo + step]).astype(float)
            held = self.feat_mask[lo:lo + step, features].astype(float)
            counts[:, 0] += excl.sum(axis=0)
            counts[:, 1:] += excl.T @ held
            for c in range(d):
                part = excl * self.cache[lo:lo + step, :, c]
                numer[:, 0, c] += part.sum(axis=0)
                numer[:, 1:, c] += part.T @ held
        # LOCO is LOO minus the patches holding j, so the LOO column does
        # not depend on J and a feature no patch holds gets it exactly.
        numer[:, 1:] = numer[:, :1] - numer[:, 1:]
        counts[:, 1:] = counts[:, :1] - counts[:, 1:]
        return numer, counts

    def loo_all(self) -> np.ndarray:
        """LOO prediction for every training row, shape (N, d)."""
        numer, counts = self.leave_out_sums()
        return average(numer[:, 0], counts[:, 0])

    def _loo_new_stats(self, X_new: np.ndarray):
        X_new = np.asarray(X_new, dtype=float)
        if X_new.ndim != 2 or X_new.shape[1] != self.dataset.n_features:
            raise DimensionMismatch(
                f"new points must have {self.dataset.n_features} columns"
            )
        if not np.isfinite(X_new).all():
            raise DimensionMismatch("new points contain non-finite entries")
        excl = ~self.obs_mask
        numer = patch_sums(self.models, [p.features for p in self.patches],
                           X_new, excl)
        return numer, excl.sum(axis=0)

    def loo_new_all(self, X_new: np.ndarray) -> np.ndarray:
        """Per-row LOO predictions at new points, shape (N, T, d).

        Entry [i, t] averages models whose patch excludes row i,
        evaluated at X_new[t] restricted to each patch's features.
        """
        return average(*self._loo_new_stats(X_new))

    # -- single-index queries -------------------------------------------

    def loo_prediction(self, i: int) -> np.ndarray:
        numer, counts = self.leave_out_sums()
        return self._at_row(i, numer[:, 0], counts[:, 0])

    def loo_loco_prediction(self, i: int, j: int) -> np.ndarray:
        numer, counts = self.leave_out_sums([j])
        return self._at_row(i, numer[:, 1], counts[:, 1], j)

    def loo_prediction_new(self, i: int, x_new) -> np.ndarray:
        # a 1-D x_new becomes one row; any other shape fails the 2-D check
        numer, counts = self._loo_new_stats(np.asarray(x_new, dtype=float)[None])
        return self._at_row(i, numer[:, 0], counts)

    def _at_row(self, i: int, numer, counts, j: int | None = None) -> np.ndarray:
        if not 0 <= i < self.dataset.n_rows:
            raise DimensionMismatch(f"row index {i} out of range")
        if counts[i] == 0:
            raise CoverageFailure(i, j)
        return numer[i] / counts[i]


def patch_sums(models, feats, X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Weighted sums of patch models at points X (T, M), shape (S, T, d):
    entry [s] is sum_k W[k, s] * models[k](X[:, feats[k]]).

    One pass over blocks of patches.  Affine regression models (d = 1)
    are summed as scattered M + 1 coefficient rows (intercept last) that
    meet X once at the end; any other model adds its stacked predictions.
    """
    (T, M), (K, S) = X.shape, W.shape
    d = models[0].pred_dim
    affine = all(isinstance(m, LinearModel) and m.task == Task.REGRESSION
                 for m in models)
    width = M + 1 if affine else T * d
    acc = np.zeros((S, width))
    step = max(1, _BLOCK_BYTES // (8 * max(S, width)))
    for lo in range(0, K, step):
        blk = zip(models[lo:lo + step], feats[lo:lo + step])
        if affine:
            rows = np.zeros((min(step, K - lo), width))
            for row, (model, f) in zip(rows, blk):
                row[f], row[M] = model.coef[:, 0], model.intercept[0]
        else:
            rows = np.stack([model.predict_batch(X[:, f]).ravel()
                             for model, f in blk])
        acc += W[lo:lo + step].astype(float).T @ rows
    if affine:
        return (acc[:, :M] @ X.T + acc[:, M:])[..., None]
    return acc.reshape(S, T, d)


def average(numer: np.ndarray, counts: np.ndarray, j: int | None = None) -> np.ndarray:
    """Leave-out averages numer / counts over rows (the leading axis);
    raises CoverageFailure on the first row with no qualifying patch."""
    bad = np.nonzero(counts == 0)[0]
    if bad.size:
        raise CoverageFailure(int(bad[0]), j)
    return numer / counts.reshape(-1, *[1] * (numer.ndim - 1))


def _fit_blocks(dataset: Dataset, learner, patches, cache, models, blocks):
    X, Y = dataset.X, dataset.Y
    for lo, hi in blocks:
        models[lo:hi] = fit_patches(
            learner, X, Y, np.stack([p.rows for p in patches[lo:hi]]),
            np.stack([p.features for p in patches[lo:hi]]),
            dataset.task, dataset.n_classes)
        for k in range(lo, hi):
            cache[k] = models[k].predict_batch(X[:, patches[k].features])


def train_ensemble(dataset: Dataset, config: MPConfig, threads: int = 1,
                   check_coverage: bool = True,
                   patches: list[Minipatch] | None = None) -> Ensemble:
    """Fit one model per minipatch and cache its predictions everywhere.

    The patch list is generated serially from the seed before any
    parallel work, and patches are fitted in fixed blocks that threads
    take whole, so the result is byte-identical for any ``threads``.
    ``patches`` overrides the random draw (used by the
    exhaustive-enumeration checks).  With ``check_coverage`` every
    row must be excluded by some patch and every (row, feature) pair
    jointly excluded by some patch, otherwise :class:`CoverageFailure`
    is raised at once instead of surfacing on a later query.
    """
    if patches is None:
        config = config.resolve(dataset.n_rows, dataset.n_features)
        patches = sample_minipatches(dataset.n_rows, dataset.n_features,
                                     config.n, config.m, config.K, config.seed)
    else:
        ns = {len(p.rows) for p in patches}
        ms = {len(p.features) for p in patches}
        if len(ns) != 1 or len(ms) != 1:
            raise InvalidSize("all patches must share the same (n, m)")
        config = replace(config, n=ns.pop(), m=ms.pop(), K=len(patches))
        config.validate(dataset.n_rows, dataset.n_features)

    N, M = dataset.n_rows, dataset.n_features
    K, d = len(patches), dataset.pred_dim
    obs_mask = np.zeros((K, N), dtype=bool)
    feat_mask = np.zeros((K, M), dtype=bool)
    for k, patch in enumerate(patches):
        obs_mask[k, patch.rows] = True
        feat_mask[k, patch.features] = True

    if check_coverage:
        row_excl = ~obs_mask
        uncovered = np.nonzero(~row_excl.any(axis=0))[0]
        if uncovered.size:
            raise CoverageFailure(int(uncovered[0]))
        # joint (row, feature) exclusion counts via one matmul
        counts = row_excl.T.astype(float) @ (~feat_mask).astype(float)
        holes = np.argwhere(counts == 0)
        if holes.size:
            i, j = holes[0]
            raise CoverageFailure(int(i), int(j))

    learner = config.learner if config.learner is not None else RidgeLearner()
    cache = np.empty((K, N, d), dtype=float)
    models: list[FittedModel | None] = [None] * K

    # Fits are batched over fixed blocks of patches, so the blocks, not
    # the thread count, decide which patches are fitted together.
    step = max(1, _FIT_BLOCK_BYTES // (8 * config.n * (config.m + d)))
    blocks = [(lo, min(lo + step, K)) for lo in range(0, K, step)]
    threads = max(1, int(threads))
    if threads == 1 or len(blocks) < 2:
        _fit_blocks(dataset, learner, patches, cache, models, blocks)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_fit_blocks, dataset, learner, patches, cache,
                            models, blocks[t::threads])
                for t in range(threads)
            ]
            for fut in futures:
                fut.result()

    return Ensemble(dataset, config, patches, models, cache, obs_mask, feat_mask)


# -- snapshot --------------------------------------------------------------
# Layout (version 2, not stable across package versions): one .npz holding
# the dataset arrays, patch index matrices, masks, cache, a JSON header
# with the config echo, the learner's name and parameters, and per-model
# parameter payloads.


def _model_to_obj(model: FittedModel):
    if isinstance(model, LinearModel):
        return {"kind": "linear", "coef": model.coef.tolist(),
                "intercept": model.intercept.tolist(), "task": model.task.value}
    if isinstance(model, ConstantModel):
        return {"kind": "constant", "value": model.value.tolist(),
                "n_slots": model.n_slots}
    if isinstance(model, TreeModel):
        def walk(node):
            if node.feature < 0:
                return {"value": list(map(float, node.value))}
            return {"feature": node.feature, "threshold": node.threshold,
                    "left": walk(node.left), "right": walk(node.right)}
        return {"kind": "tree", "root": walk(model.root),
                "n_slots": model.n_slots, "d": model.d}
    raise TypeError(f"cannot snapshot model type {type(model).__name__}")


def _model_from_obj(obj) -> FittedModel:
    kind = obj["kind"]
    if kind == "linear":
        return LinearModel(coef=np.array(obj["coef"], dtype=float),
                           intercept=np.array(obj["intercept"], dtype=float),
                           task=Task(obj["task"]))
    if kind == "constant":
        return ConstantModel(value=np.array(obj["value"], dtype=float),
                             n_slots=obj["n_slots"])
    if kind == "tree":
        def walk(node):
            if "value" in node:
                return _Node(value=np.array(node["value"], dtype=float))
            return _Node(feature=node["feature"], threshold=node["threshold"],
                         left=walk(node["left"]), right=walk(node["right"]))
        return TreeModel(root=walk(obj["root"]), n_slots=obj["n_slots"], d=obj["d"])
    raise TypeError(f"unknown model kind {kind!r}")


def save_ensemble(ens: Ensemble, path) -> None:
    header = {
        "version": 2,
        "task": ens.dataset.task.value,
        "n_classes": ens.dataset.n_classes,
        "feature_names": list(ens.dataset.feature_names or []),
        "label_names": list(ens.dataset.label_names or []),
        "config": ens.config.settings_dict(),
        "learner": learner_to_obj(ens.config.learner),
        "models": [_model_to_obj(m) for m in ens.models],
    }
    rows = np.stack([p.rows for p in ens.patches])
    feats = np.stack([p.features for p in ens.patches])
    np.savez_compressed(
        path, header=np.frombuffer(json.dumps(header).encode("utf8"), dtype=np.uint8),
        X=ens.dataset.X, Y=ens.dataset.Y, rows=rows, feats=feats,
        cache=ens.cache, obs_mask=ens.obs_mask, feat_mask=ens.feat_mask,
    )


def load_ensemble(path) -> Ensemble:
    with np.load(path) as zf:
        header = json.loads(bytes(zf["header"]).decode("utf8"))
        if header.get("version") != 2:
            raise InvalidSpec(f"unsupported snapshot version {header.get('version')}")
        task = Task(header["task"])
        dataset = Dataset(
            X=zf["X"], Y=zf["Y"], task=task, n_classes=header["n_classes"],
            feature_names=tuple(header["feature_names"]) or None,
            label_names=tuple(header["label_names"]) or None,
        )
        cfg_echo = header["config"]
        config = MPConfig(n=cfg_echo["n"], m=cfg_echo["m"], K=cfg_echo["K"],
                          seed=cfg_echo["seed"], alpha=cfg_echo["alpha"],
                          buffer_c=cfg_echo["buffer_c"],
                          use_buffer=cfg_echo["use_buffer"],
                          learner=learner_from_obj(header["learner"]))
        patches = [Minipatch(rows=r, features=f)
                   for r, f in zip(zf["rows"], zf["feats"])]
        models = [_model_from_obj(o) for o in header["models"]]
        return Ensemble(dataset, config, patches, models,
                        zf["cache"].copy(), zf["obs_mask"].copy(),
                        zf["feat_mask"].copy())

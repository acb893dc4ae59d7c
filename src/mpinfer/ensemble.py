"""Minipatch sampling, ensemble training, and leave-out aggregation.

A minipatch is a random (rows, features) submatrix; the ensemble keeps
its K fitted base models as one stack (see :mod:`mpinfer.learners`,
patch k at stack index k) together with a dense K x N x d cache of each
model's prediction at every training row, plus boolean membership masks.
Every leave-one-out / leave-one-covariate-out query is then a masked
average over the cache: no model is ever refit after training.

Memory: the cache costs K*N*d doubles (e.g. K=10,000, N=2,000, d=1 is
160 MB); LOO and LOCO are one pass of mask GEMMs over blocks of patches.
Model predictions at new points, for new-point LOO and for the oracles'
targets, all go through one blocked masked sum, :func:`patch_sums`.
Every patch fit, the ensemble's and the oracles', goes through
:func:`fit_patch_models`, whose fixed blocks (one batched ridge solve
each) worker threads take whole, so output is byte-identical for any
thread count.  An affine (ridge regression) block fills its cache rows
with one GEMM, its coefficients scattered over all M features (the
scatter :func:`patch_sums` uses) times X.T, plus the intercepts; so its
cache equals single-row ``predict`` up to rounding, not bit for bit.
Any other stack fills its cache through ``predict_batch``.  A snapshot
(layout 3) keeps the stack's arrays in its .npz beside the cache and
masks.
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
    FittedModel, LinearModel, RidgeLearner, fit_patches, from_obj, to_obj,
)
from .rng import generator

__all__ = [
    "Minipatch", "Ensemble", "sample_minipatches", "train_ensemble",
    "save_ensemble", "load_ensemble", "patch_sums", "fit_patch_models",
    "thread_map",
]

_PATCH_STREAM = "minipatches"

# Size of one float scratch buffer in the blocked contractions: big enough
# for BLAS-sized GEMMs, small enough that the cache sets peak memory.
_BLOCK_BYTES = 4 << 20
# Size of the stacked patch designs (and gathered rows) in one batched fit.
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
    replacement within the patch; deterministic in the seed.

    The stream is that of ``np.sort(gen.choice(N, n, replace=False))``
    then ``np.sort(gen.choice(M, m, replace=False))`` per patch, as long
    as numpy's ``choice`` takes Floyd's algorithm (population at most
    10,000 or sample at most 1/50 of it).  For a sample of k from pop,
    ``choice`` makes k bounded draws in [0, j] for j = pop-k..pop-1
    (Floyd's rule: keep the draw, or j if the draw is taken) and then
    k-1 shuffle draws in [0, i] for i = k-1..1, which only reorder.
    Here one ``integers`` call makes those draws, with the same bounded
    routine in the same order, for a whole block of patches, and Floyd's
    rule runs column by column over the block.  Beyond that size numpy
    would tail-shuffle instead; Floyd still draws uniform subsets there,
    but not numpy's.
    """
    if not (1 <= n < N) or not (1 <= m < M) or K < 1:
        raise InvalidSize(f"invalid sizes: N={N}, M={M}, n={n}, m={m}, K={K}")
    gen = generator(seed, _PATCH_STREAM)
    # exclusive bounds of one patch's draws: rows' Floyd and shuffle
    # draws, then the features'
    highs = np.concatenate([np.arange(N - n, N), np.arange(n - 1, 0, -1),
                            np.arange(M - m, M), np.arange(m - 1, 0, -1)]) + 1
    # per patch: its int64 draws, the index arrays Floyd's rule makes from
    # them, and its row and feature masks
    step = max(1, _BLOCK_BYTES // (8 * (highs.size + 4 * (n + m)) + N + M))
    patches = []
    for lo in range(0, K, step):
        draws = gen.integers(0, np.broadcast_to(highs, (min(step, K - lo), highs.size)))
        rows = _floyd(draws[:, :n], N)
        feats = _floyd(draws[:, 2 * n - 1:2 * n - 1 + m], M)
        patches += map(Minipatch, rows, feats)
    return patches


def _floyd(draws: np.ndarray, pop: int) -> np.ndarray:
    """Sorted subsets (B, k) of range(pop) that Floyd's rule builds from
    draws[:, t] in [0, pop - k + t], one subset per row."""
    B, k = draws.shape
    base = np.arange(0, B * pop, pop)  # row starts in the flat (B, pop) mask
    taken = np.zeros(B * pop, dtype=bool)
    for t, at in enumerate((draws + base[:, None]).T.copy()):
        # keep the draw, or j = pop - k + t (never taken yet) if it is taken
        taken[np.where(taken[at], base + (pop - k + t), at)] = True
    return np.flatnonzero(taken).reshape(B, k) - base[:, None]


class Ensemble:
    """K fitted minipatch models (one stack) plus the prediction cache and masks.

    Immutable after construction.  Query methods keep no cache of their
    own, so they are read-only and safe to call concurrently; every
    answer is recomputed from the cache and masks.
    """

    def __init__(self, dataset: Dataset, config: MPConfig,
                 patches: list[Minipatch], models: FittedModel,
                 cache: np.ndarray, obs_mask: np.ndarray, feat_mask: np.ndarray):
        self.dataset = dataset
        self.config = config
        self.patches = patches
        self.models = models          # stack of K models, in patch order
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
        numer = patch_sums(self.models, np.stack([p.features for p in self.patches]),
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


def patch_sums(models: FittedModel, feats: np.ndarray, X: np.ndarray,
               W: np.ndarray) -> np.ndarray:
    """Weighted sums of a stack of patch models at points X (T, M), shape
    (S, T, d): entry [s] is sum_k W[k, s] * models[k](X[:, feats[k]]).

    One pass over blocks of patches.  Affine regression models (d = 1)
    are summed as coefficient rows (:func:`_coef_rows`) that meet X once
    at the end; any other stack adds its block's predictions.
    """
    (T, M), (K, S), m = X.shape, W.shape, feats.shape[1]
    d = models.pred_dim
    affine = _affine(models)
    width = M + 1 if affine else T * d
    acc = np.zeros((S, width))
    # per patch: a coefficient row, or a prediction row and its gathered points
    step = max(1, _BLOCK_BYTES // (8 * max(S, width if affine else T * (d + m))))
    for lo in range(0, K, step):
        blk, f = models.take(slice(lo, lo + step)), feats[lo:lo + step]
        if affine:
            rows = _coef_rows(blk, f, M)
        else:
            rows = blk.predict_batch(X[:, f].swapaxes(0, 1)).reshape(f.shape[0], -1)
        acc += W[lo:lo + step].astype(float).T @ rows
    if affine:
        return (acc[:, :M] @ X.T + acc[:, M:])[..., None]
    return acc.reshape(S, T, d)


def _affine(models: FittedModel) -> bool:
    """Whether a stack is affine in its inputs: ridge regression (d = 1)."""
    return isinstance(models, LinearModel) and models.task == Task.REGRESSION


def _coef_rows(models: LinearModel, feats: np.ndarray, M: int) -> np.ndarray:
    """A stack of affine regression models as (B, M + 1) rows: each
    model's coefficients scattered to its features, the intercept last,
    so that rows[:, :M] @ x + rows[:, M] is its prediction at x (M,)."""
    B = feats.shape[0]
    rows = np.zeros((B, M + 1))
    rows[np.arange(B)[:, None], feats] = models.coef[:, :, 0]
    rows[:, M] = models.intercept[:, 0]
    return rows


def average(numer: np.ndarray, counts: np.ndarray, j: int | None = None) -> np.ndarray:
    """Leave-out averages numer / counts over rows (the leading axis);
    raises CoverageFailure on the first row with no qualifying patch."""
    bad = np.nonzero(counts == 0)[0]
    if bad.size:
        raise CoverageFailure(int(bad[0]), j)
    return numer / counts.reshape(-1, *[1] * (numer.ndim - 1))


def thread_map(fn, items, threads: int = 1) -> list:
    """``[fn(x) for x in items]`` on up to ``threads`` worker threads,
    results in input order."""
    items, threads = list(items), max(1, int(threads))
    if threads == 1 or len(items) < 2:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def fit_patch_models(dataset: Dataset, learner, rows: np.ndarray,
                     feats: np.ndarray, threads: int = 1,
                     cache: np.ndarray | None = None) -> FittedModel:
    """A stack of ``learner`` fits, patch k on the submatrix (rows[k],
    feats[k]); with ``cache``, also cache[k] = patch k's predictions at
    every row.  Each block's stacked designs stay within
    _FIT_BLOCK_BYTES, so blocks are fixed by sizes, not by the thread
    count.  An affine block fills its cache rows with one GEMM of its
    coefficient rows against X; any other block predicts in sub-blocks
    whose gathered rows stay within _FIT_BLOCK_BYTES."""
    X, Y = dataset.X, dataset.Y
    (K, n), m, d = rows.shape, feats.shape[1], dataset.pred_dim
    N, M = X.shape
    step = max(1, _FIT_BLOCK_BYTES // (8 * n * (m + d)))
    sub = max(1, _FIT_BLOCK_BYTES // (8 * N * m))

    def fit(lo: int) -> FittedModel:
        f = feats[lo:lo + step]
        stack = fit_patches(learner, X, Y, rows[lo:lo + step], f,
                            dataset.task, dataset.n_classes)
        if cache is None:
            return stack
        out = cache[lo:lo + step]
        if _affine(stack):
            coef = _coef_rows(stack, f, M)
            np.matmul(coef[:, :M], X.T, out=out[..., 0])
            out[..., 0] += coef[:, M:]
        else:
            for a in range(0, len(f), sub):
                out[a:a + sub] = stack.take(slice(a, a + sub)).predict_batch(
                    X[:, f[a:a + sub]].swapaxes(0, 1))
        return stack

    # a stack of zero patches is still one (empty) block
    parts = thread_map(fit, range(0, max(K, 1), step), threads)
    return parts[0].join(*parts[1:])


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
    rows = np.stack([p.rows for p in patches])
    feats = np.stack([p.features for p in patches])
    obs_mask = np.zeros((K, N), dtype=bool)
    feat_mask = np.zeros((K, M), dtype=bool)
    obs_mask[np.arange(K)[:, None], rows] = True
    feat_mask[np.arange(K)[:, None], feats] = True

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
    models = fit_patch_models(dataset, learner, rows, feats, threads, cache)
    return Ensemble(dataset, config, patches, models, cache, obs_mask, feat_mask)


# -- snapshot --------------------------------------------------------------
# Layout (version 3, not stable across package versions): one .npz holding
# the dataset arrays, patch index matrices, masks, cache, the model stack's
# arrays under "model_<field>", and a JSON header with the config echo, the
# learner's name and parameters, and the stack's type name and scalars.


def save_ensemble(ens: Ensemble, path) -> None:
    model, arrays = to_obj(ens.models, "model")
    learner = ens.config.learner
    header = {
        "version": 3,
        "task": ens.dataset.task.value,
        "n_classes": ens.dataset.n_classes,
        "feature_names": list(ens.dataset.feature_names or []),
        "label_names": list(ens.dataset.label_names or []),
        "config": ens.config.settings_dict(),
        "learner": None if learner is None else to_obj(learner, "learner")[0],
        "model": model,
    }
    rows = np.stack([p.rows for p in ens.patches])
    feats = np.stack([p.features for p in ens.patches])
    np.savez_compressed(
        path, header=np.frombuffer(json.dumps(header).encode("utf8"), dtype=np.uint8),
        X=ens.dataset.X, Y=ens.dataset.Y, rows=rows, feats=feats,
        cache=ens.cache, obs_mask=ens.obs_mask, feat_mask=ens.feat_mask,
        **{f"model_{name}": a for name, a in arrays.items()},
    )


def load_ensemble(path) -> Ensemble:
    with np.load(path, allow_pickle=False) as zf:
        header = json.loads(bytes(zf["header"]).decode("utf8"))
        if header.get("version") != 3:
            raise InvalidSpec(f"unsupported snapshot version {header.get('version')}")
        task = Task(header["task"])
        dataset = Dataset(
            X=zf["X"], Y=zf["Y"], task=task, n_classes=header["n_classes"],
            feature_names=tuple(header["feature_names"]) or None,
            label_names=tuple(header["label_names"]) or None,
        )
        cfg_echo, learner = header["config"], header["learner"]
        config = MPConfig(n=cfg_echo["n"], m=cfg_echo["m"], K=cfg_echo["K"],
                          seed=cfg_echo["seed"], alpha=cfg_echo["alpha"],
                          buffer_c=cfg_echo["buffer_c"],
                          use_buffer=cfg_echo["use_buffer"],
                          learner=None if learner is None
                          else from_obj(learner, "learner"))
        patches = [Minipatch(rows=r, features=f)
                   for r, f in zip(zf["rows"], zf["feats"])]
        models = from_obj(header["model"], "model", {
            name.removeprefix("model_"): zf[name]
            for name in zf.files if name.startswith("model_")})
        return Ensemble(dataset, config, patches, models,
                        zf["cache"].copy(), zf["obs_mask"].copy(),
                        zf["feat_mask"].copy())

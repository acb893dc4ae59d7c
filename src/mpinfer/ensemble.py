"""Minipatch sampling, ensemble training, and leave-out aggregation.

A minipatch is a random (rows, features) submatrix.  The K patches are
one record array (:func:`patch_array`) whose fields ``rows`` (K, n) and
``features`` (K, m) are read whole.  The ensemble keeps its K fitted
base models as one stack (see :mod:`mpinfer.learners`, patch k at stack
index k), boolean membership masks, and the leave-out sums.  Every
leave-one-out / leave-one-covariate-out quantity is a masked average of
the models' predictions at the training rows, and only the sums are
ever read, so the fit pass builds them as it goes: each fit block
predicts at every training row into a block-sized buffer, adds its
mask-weighted sums for LOO and for every feature's LOCO into one (N, 1 +
M, d) accumulator, gathers its predictions at the B-hat pairs, and drops
the buffer.  No K x N prediction array is kept, and no model is ever
refit after training.

One function turns a block of patch models into predictions,
:func:`_block_predictions`: the fit pass, the cache rebuild and the
weighted sums at new points (:func:`patch_sums`, for new-point LOO and
the oracles) all go through it.  A linear stack predicts by one GEMM of
its coefficients scattered over all M features against X, plus the
intercepts, then a softmax for classification (:func:`_linear_scores`),
so it agrees with single-row ``predict`` up to rounding; every other
stack predicts through ``predict_batch``, the single-model reference,
bit for bit.  Weighted sums of an affine (ridge regression) stack skip
the predictions: its coefficient rows are summed first and meet the
points once (:func:`_affine_sums`).

Memory: the sums cost N*(1 + M)*d doubles and the counts N*(1 + M); a
fit block's buffer is its patches times N*d doubles.  New-point LOO
comes in balanced chunks of new points (:meth:`Ensemble.loo_new_chunks`)
whose (N, t, d) arrays, with one temporary of that size, stay within
_BLOCK_BYTES, so a call's memory does not grow with the number of new
points.  Every patch fit, the ensemble's and the oracles', goes through
:func:`fit_patch_models`, whose fixed blocks (one batched ridge solve
each) worker threads take whole and whose block sums are added in block
order, so output is byte-identical for any thread count.  A snapshot
(layout 4) keeps the stack's arrays in its .npz beside the masks, sums,
counts and B-hat pair predictions.
"""

from __future__ import annotations

import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from .core import (
    CoverageFailure, Dataset, DimensionMismatch, InvalidSize, InvalidSpec,
    MPConfig, Task,
)
from .learners import (
    FittedModel, LinearModel, RidgeLearner, fit_patches, from_obj, to_obj,
)
from .rng import generator, spawn_seed

__all__ = [
    "patch_array", "Ensemble", "sample_minipatches", "train_ensemble",
    "save_ensemble", "load_ensemble", "patch_sums", "fit_patch_models",
    "thread_map", "draw_pairs",
]

_PATCH_STREAM = "minipatches"

# Size of one float scratch buffer in the blocked contractions: big enough
# for BLAS-sized GEMMs, small next to the data and the sums.
_BLOCK_BYTES = 4 << 20
# Size of the stacked patch designs (and gathered rows) in one batched fit.
_FIT_BLOCK_BYTES = 1 << 20


def patch_array(rows, features) -> np.recarray:
    """The K patches (rows[k], features[k]) as one record array: record
    k is patch k, with fields ``rows`` (n,) and ``features`` (m,), so
    that ``patches.rows`` (K, n) and ``patches.features`` (K, m) are the
    int64 index matrices."""
    rows = np.asarray(rows, dtype=np.int64)
    features = np.asarray(features, dtype=np.int64)
    if rows.ndim != 2 or features.ndim != 2 or len(rows) != len(features):
        raise InvalidSize("patches need rows (K, n) and features (K, m)")
    patches = np.recarray(len(rows), dtype=[("rows", np.int64, rows.shape[1:]),
                                            ("features", np.int64, features.shape[1:])])
    patches.rows, patches.features = rows, features
    return patches


def sample_minipatches(N: int, M: int, n: int, m: int, K: int, seed: int) -> np.recarray:
    """Draw K independent uniform (rows, features) pairs, each without
    replacement within the patch, as one record array (:func:`patch_array`);
    deterministic in the seed.

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
    patches = patch_array(np.empty((K, n), np.int64), np.empty((K, m), np.int64))
    for lo in range(0, K, step):
        draws = gen.integers(0, np.broadcast_to(highs, (min(step, K - lo), highs.size)))
        patches.rows[lo:lo + step] = _floyd(draws[:, :n], N)
        patches.features[lo:lo + step] = _floyd(draws[:, 2 * n - 1:2 * n - 1 + m], M)
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
    """K fitted minipatch models (one stack), their masks, and the
    leave-out sums and counts of the fit pass.

    Immutable after construction.  Query methods keep no state of their
    own, so they are read-only and safe to call concurrently; every
    answer is read from the sums and counts, or recomputed from the
    stack and masks.
    """

    def __init__(self, dataset: Dataset, config: MPConfig,
                 patches: np.recarray, models: FittedModel,
                 obs_mask: np.ndarray, feat_mask: np.ndarray,
                 sums: np.ndarray, counts: np.ndarray,
                 pair_preds: np.ndarray | None):
        self.dataset = dataset
        self.config = config
        self.patches = patches        # record array of K patches
        self.models = models          # stack of K models, in patch order
        self.obs_mask = obs_mask      # (K, N) bool, True iff row in patch
        self.feat_mask = feat_mask    # (K, M) bool, True iff feature in patch
        # (N, 1 + M, d) prediction sums and (N, 1 + M) patch counts: column
        # 0 over the patches that exclude the row, column 1 + j over those
        # that also exclude feature j
        self.sums = sums
        self.counts = counts
        # (2, N, 10, d): predictions at the B-hat pairs, patches
        # draw_pairs(obs_mask, seed=spawn_seed(seed, "estimate-b")); None
        # when some row has fewer than two excluding patches
        self.pair_preds = pair_preds

    @property
    def K(self) -> int:
        return len(self.patches)

    @property
    def cache(self) -> np.ndarray:
        """Every model's predictions at every training row, (K, N, d),
        rebuilt from the stack in the fit pass's blocks, so bit-equal to
        what the pass summed.  Never stored: K*N*d doubles."""
        out = np.empty((self.K, self.dataset.n_rows, self.dataset.pred_dim))
        for lo, stack, feats in self._blocks():
            out[lo:lo + len(feats)] = _block_predictions(
                stack, feats, self.dataset.X).swapaxes(1, 2)
        return out

    def pair_predictions(self, pairs: np.ndarray) -> np.ndarray:
        """Predictions (*pairs.shape, d) of patch pairs[..., i, p] at row
        i, rebuilt from the stack as the fit pass gathered them."""
        out = np.empty(pairs.shape + (self.dataset.pred_dim,))
        for lo, stack, feats in self._blocks():
            _gather(pairs, lo,
                    _block_predictions(stack, feats, self.dataset.X).swapaxes(1, 2), out)
        return out

    def _blocks(self):
        feats = self.patches.features
        step = _fit_step(self.patches.rows.shape[1], feats.shape[1],
                         self.dataset.pred_dim)
        for lo in range(0, self.K, step):
            yield lo, self.models.take(slice(lo, lo + step)), feats[lo:lo + step]

    # -- leave-out queries -----------------------------------------------
    # Hole handling: a row whose qualifying set is empty only errors when
    # that row is actually asked for; whole-matrix consumers require full
    # coverage and fail on the first hole.

    def leave_out_sums(self, features=()):
        """Sums (N, 1 + J, d) and counts (N, 1 + J): column 0 over the
        patches that exclude the row, column 1 + j over those that also
        exclude feature ``features[j]``."""
        features = np.asarray(features, dtype=np.int64)
        M = self.feat_mask.shape[1]
        if features.size and not (0 <= features.min() and features.max() < M):
            raise DimensionMismatch(f"feature indices must lie in [0, {M})")
        cols = np.concatenate([[0], 1 + features])
        return self.sums[:, cols], self.counts[:, cols]

    def loo_all(self) -> np.ndarray:
        """LOO prediction for every training row, shape (N, d)."""
        return average(self.sums[:, 0], self.counts[:, 0])

    def _new_sums(self, X_new: np.ndarray):
        """LOO numerators (N, t, d) at balanced chunks of the new points
        X_new (T, M), in order: sizes differ by at most one point and one
        chunk plus one temporary of its size stay within _BLOCK_BYTES;
        one empty chunk when T = 0.

        An affine stack is summed once per call into excluding
        coefficient rows (N, M + 1), in the blocks :func:`patch_sums`
        uses, which meet each chunk as one GEMM with the points leading;
        any other stack is summed chunk by chunk (:func:`_point_sums`)."""
        X_new = np.asarray(X_new, dtype=float)
        if X_new.ndim != 2 or X_new.shape[1] != self.dataset.n_features:
            raise DimensionMismatch(
                f"new points must have {self.dataset.n_features} columns"
            )
        if not np.isfinite(X_new).all():
            raise DimensionMismatch("new points contain non-finite entries")
        (T, M), N, d = X_new.shape, self.dataset.n_rows, self.dataset.pred_dim
        feats = self.patches.features
        most = max(1, _BLOCK_BYTES // (16 * N * d))        # points per chunk
        parts = -(-T // most) or 1
        bounds = (np.arange(parts + 1) * T // parts).tolist()
        chunks, W = zip(bounds[:-1], bounds[1:]), ~self.obs_mask
        if _affine(self.models):
            acc = _affine_sums(self.models, feats, W, M)
            coef, intercept = acc[:, :M].T, acc[:, M]    # coef: a view
            for a, b in chunks:
                yield (X_new[a:b] @ coef + intercept).T[..., None]
        else:
            for a, b in chunks:
                yield _point_sums(self.models, feats, X_new[a:b], W)

    def loo_new_chunks(self, X_new: np.ndarray):
        """Per-row LOO predictions at new points, as (N, t, d) arrays for
        consecutive balanced chunks of X_new's T rows (one empty chunk
        when T = 0), so that a caller's memory does not grow with T.

        Entry [i, t] of a chunk averages the models whose patch excludes
        row i, evaluated at its point restricted to each patch's
        features.  Each chunk is the caller's to modify.
        """
        counts = self.counts[:, 0]
        for numer in self._new_sums(X_new):
            yield average(numer, counts, out=numer)

    def loo_new_all(self, X_new: np.ndarray) -> np.ndarray:
        """Per-row LOO predictions at new points, shape (N, T, d): the
        chunks of :meth:`loo_new_chunks`, joined."""
        return np.concatenate(list(self.loo_new_chunks(X_new)), axis=1)

    # -- single-index queries -------------------------------------------

    def loo_prediction(self, i: int) -> np.ndarray:
        return self._at_row(i, self.sums[:, 0], self.counts[:, 0])

    def loo_loco_prediction(self, i: int, j: int) -> np.ndarray:
        numer, counts = self.leave_out_sums([j])
        return self._at_row(i, numer[:, 1], counts[:, 1], j)

    def loo_prediction_new(self, i: int, x_new) -> np.ndarray:
        # a 1-D x_new becomes one row; any other shape fails the 2-D check
        numer = next(self._new_sums(np.asarray(x_new, dtype=float)[None]))
        return self._at_row(i, numer[:, 0], self.counts[:, 0])

    def _at_row(self, i: int, numer, counts, j: int | None = None) -> np.ndarray:
        if not 0 <= i < self.dataset.n_rows:
            raise DimensionMismatch(f"row index {i} out of range")
        if counts[i] == 0:
            raise CoverageFailure(i, j)
        return numer[i] / counts[i]


def draw_pairs(obs_mask: np.ndarray, pairs_per_sample: int = 10,
               seed: int = 0) -> np.ndarray:
    """Patch indices (2, N, pairs_per_sample): for each row, uniform pairs
    of distinct patches that exclude it; deterministic in the masks and
    the seed.  Raises CoverageFailure on the first row that fewer than
    two patches exclude."""
    K, N = obs_mask.shape
    flat = np.flatnonzero(obs_mask)                     # k * N + i
    return _draw_pairs(flat % N * K + flat // N, K, N, pairs_per_sample, seed)


def _draw_pairs(held: np.ndarray, K: int, N: int, pairs_per_sample: int,
                seed: int) -> np.ndarray:
    """:func:`draw_pairs` from the codes i * K + k of the (patch k, row
    i) memberships, in any order."""
    if pairs_per_sample < 1:
        raise InvalidSize("pairs_per_sample must be >= 1")
    held = np.sort(held)                                # i * K + k, by row
    starts = np.searchsorted(held, np.arange(N) * K)
    counts = K - np.diff(starts, append=held.size)      # patches excluding i
    short = np.nonzero(counts < 2)[0]
    if short.size:
        raise CoverageFailure(int(short[0]))
    # With s_0 < s_1 < ... the patches holding row i, the (r+1)-th patch
    # excluding it is r + #{j : s_j - j <= r}; keys hold i * (K+1) + s_j - j.
    rows = held // K
    keys = held + rows - np.arange(held.size) + starts[rows]
    base = np.arange(N)[:, None] * (K + 1)

    def excluding(ranks):
        return ranks + np.searchsorted(keys, base + ranks, side="right") - starts[:, None]

    gen = generator(seed, "pair-gaps")
    size = (N, pairs_per_sample)
    first = gen.integers(0, counts[:, None], size=size)
    second = gen.integers(0, counts[:, None] - 1, size=size)
    second += second >= first
    return np.stack([excluding(first), excluding(second)])


def _gather(pairs: np.ndarray, lo: int, preds: np.ndarray, out: np.ndarray) -> None:
    """out[..., i, p, :] = preds[pairs[..., i, p] - lo, i] for the pairs
    whose patch lies in the block of patches lo.. that preds (B, N, d)
    holds."""
    P, N = pairs.shape[-1], preds.shape[1]
    hit = np.flatnonzero((pairs >= lo) & (pairs < lo + preds.shape[0]))
    out.reshape(-1, preds.shape[2])[hit] = preds[pairs.ravel()[hit] - lo, hit // P % N]


def patch_sums(models: FittedModel, feats: np.ndarray, X: np.ndarray,
               W: np.ndarray) -> np.ndarray:
    """Weighted sums of a stack of patch models at points X (T, M), shape
    (S, T, d): entry [s] is sum_k W[k, s] * models[k](X[:, feats[k]]).

    One pass over blocks of patches.  Affine regression models (d = 1)
    are summed as coefficient rows (:func:`_affine_sums`) that meet X
    once at the end; any other stack adds its blocks' predictions
    (:func:`_point_sums`).
    """
    M = X.shape[1]
    if _affine(models):
        acc = _affine_sums(models, feats, W, M)
        return (acc[:, :M] @ X.T + acc[:, M:])[..., None]
    return _point_sums(models, feats, X, W)


def _affine_sums(models: LinearModel, feats: np.ndarray, W: np.ndarray,
                 M: int) -> np.ndarray:
    """Weighted sums (S, M + 1) of an affine stack's coefficient rows
    (:func:`_coef_rows`): row s meets a point x (M,) as
    acc[s, :M] @ x + acc[s, M]."""
    K, S = W.shape
    acc = np.zeros((S, M + 1))
    # per patch: a weight column and a coefficient row
    step = max(1, _BLOCK_BYTES // (8 * max(S, M + 1)))
    for lo in range(0, K, step):
        rows = _coef_rows(models.take(slice(lo, lo + step)), feats[lo:lo + step], M)
        acc += W[lo:lo + step].astype(float).T @ rows[:, 0]
    return acc


def _point_sums(models: FittedModel, feats: np.ndarray, X: np.ndarray,
                W: np.ndarray) -> np.ndarray:
    """:func:`patch_sums` of a non-affine stack at points X, in blocks of
    patches that each hold their predictions (:func:`_block_predictions`)
    and their coefficient rows or gathered points at X.  The sums are
    formed class-major, predictions.T @ weights."""
    (T, M), (K, S), d = X.shape, W.shape, models.pred_dim
    inputs = d * (M + 1) if isinstance(models, LinearModel) else T * feats.shape[1]
    # per patch: a weight column, or its predictions and inputs
    step = max(1, _BLOCK_BYTES // (8 * max(S, d * T + inputs)))
    acc = np.zeros((d, T, S))
    flat = acc.reshape(-1, S)
    for lo in range(0, K, step):
        preds = _block_predictions(models.take(slice(lo, lo + step)),
                                   feats[lo:lo + step], X)
        flat += preds.reshape(len(preds), -1).T @ W[lo:lo + step].astype(float)
    return acc.transpose(2, 1, 0)


def _affine(models: FittedModel) -> bool:
    """Whether a stack is affine in its inputs: ridge regression (d = 1)."""
    return isinstance(models, LinearModel) and models.task == Task.REGRESSION


def _coef_rows(models: LinearModel, feats: np.ndarray, M: int) -> np.ndarray:
    """A stack of linear models as (B, d, M + 1) rows: each model's
    coefficients for output c scattered to its features, the intercept
    last, so that rows[b, c, :M] @ x + rows[b, c, M] is model b's score
    c at x (M,)."""
    B, d = models.intercept.shape
    rows = np.zeros((B, d, M + 1))
    rows[np.arange(B)[:, None], :, feats] = models.coef
    rows[:, :, M] = models.intercept
    return rows


def average(numer: np.ndarray, counts: np.ndarray, j: int | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """Leave-out averages numer / counts over rows (the leading axis),
    into ``out`` if given; raises CoverageFailure on the first row with
    no qualifying patch."""
    bad = np.nonzero(counts == 0)[0]
    if bad.size:
        raise CoverageFailure(int(bad[0]), j)
    return np.divide(numer, counts.reshape(-1, *[1] * (numer.ndim - 1)), out=out)


def thread_map(fn, items, threads: int = 1):
    """Iterator over ``fn(x) for x in items`` on up to ``threads`` worker
    threads, in input order, with at most ``threads`` results pending."""
    items, threads = list(items), max(1, int(threads))
    if threads == 1 or len(items) < 2:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque(pool.submit(fn, x) for x in items[:threads])
        for x in items[threads:]:
            done = pending.popleft()
            pending.append(pool.submit(fn, x))
            yield done.result()
        while pending:
            yield pending.popleft().result()


def _fit_step(n: int, m: int, d: int) -> int:
    """Patches per fit block: their stacked designs stay within
    _FIT_BLOCK_BYTES."""
    return max(1, _FIT_BLOCK_BYTES // (8 * n * (m + d)))


def _block_predictions(stack: FittedModel, feats: np.ndarray,
                       X: np.ndarray) -> np.ndarray:
    """Predictions (B, d, T) of a block of patch models at every row of
    X (T, M), class-major.  A linear block is one GEMM
    (:func:`_linear_scores`); any other block predicts through
    ``predict_batch`` in sub-blocks whose gathered rows stay within
    _FIT_BLOCK_BYTES."""
    if isinstance(stack, LinearModel):
        return _linear_scores(stack, feats, X)
    T, (B, m) = len(X), feats.shape
    out = np.empty((B, stack.pred_dim, T))
    sub = max(1, _FIT_BLOCK_BYTES // (8 * max(T * m, 1)))
    for a in range(0, B, sub):
        out[a:a + sub] = stack.take(slice(a, a + sub)).predict_batch(
            X[:, feats[a:a + sub]].swapaxes(0, 1)).swapaxes(1, 2)
    return out


def _linear_scores(models: LinearModel, feats: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Predictions (B, d, T) of a block of linear models at points X
    (T, M): one GEMM of the scattered coefficient rows against X plus
    the intercepts, then for classification a softmax over the classes,
    in place and stabilised as in ``predict_batch``; equal to it up to
    rounding."""
    (B, d), (T, M) = models.intercept.shape, X.shape
    # the output before the rows: in the other order glibc's heap peaks
    # about 1 MB higher in a ridge `bench coverage` run
    scores = np.empty((B, d, T))
    rows = _coef_rows(models, feats, M)
    np.matmul(rows[..., :M].reshape(B * d, M), X.T, out=scores.reshape(B * d, T))
    scores += rows[..., M:]
    if models.task == Task.CLASSIFICATION:
        scores -= scores.max(axis=1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=1, keepdims=True)
    return scores


def fit_patch_models(dataset: Dataset, learner, rows: np.ndarray,
                     feats: np.ndarray, threads: int = 1,
                     each_block=None) -> FittedModel:
    """A stack of ``learner`` fits, patch k on the submatrix (rows[k],
    feats[k]).  Each block's stacked designs stay within
    _FIT_BLOCK_BYTES, so blocks are fixed by sizes, not by the thread
    count.  With ``each_block``, each block also predicts at every
    training row (:func:`_block_predictions`, on its worker thread) and
    ``each_block(lo, preds)`` takes those (B, N, d) predictions of
    patches lo.. on the calling thread, in block order; the buffer is
    dropped after the call."""
    X, Y = dataset.X, dataset.Y
    step = _fit_step(rows.shape[1], feats.shape[1], dataset.pred_dim)

    def fit(lo: int):
        f = feats[lo:lo + step]
        stack = fit_patches(learner, X, Y, rows[lo:lo + step], f,
                            dataset.task, dataset.n_classes)
        return lo, stack, (None if each_block is None
                           else _block_predictions(stack, f, X).swapaxes(1, 2))

    parts = []
    # a stack of zero patches is still one (empty) block
    for lo, stack, preds in thread_map(fit, range(0, max(rows.shape[0], 1), step), threads):
        if each_block is not None:
            each_block(lo, preds)
        parts.append(stack)
        del preds                   # before the next block's buffer exists
    return parts[0].join(*parts[1:])


def _leave_out_counts(rows: np.ndarray, feats: np.ndarray, N: int,
                      M: int) -> np.ndarray:
    """Patch counts (N, 1 + M) of patches (rows, feats): column 0 counts
    the patches that exclude the row, column 1 + j those that also
    exclude feature j, i.e. K minus those holding the row, minus those
    holding j, plus those holding both.  Exact integer counts; the
    (row, feature) codes of a block of patches stay within _BLOCK_BYTES."""
    (K, n), m = rows.shape, feats.shape[1]
    held_i = np.bincount(rows.ravel(), minlength=N)
    held_j = np.bincount(feats.ravel(), minlength=M)
    both = np.zeros(N * M, dtype=np.int64)
    step = max(1, _BLOCK_BYTES // (8 * n * m))
    for lo in range(0, K, step):
        pairs = rows[lo:lo + step, :, None] * M + feats[lo:lo + step, None, :]
        both += np.bincount(pairs.ravel(), minlength=N * M)
    counts = np.empty((N, 1 + M))
    counts[:, 0] = K - held_i
    counts[:, 1:] = (K - held_i[:, None] - held_j) + both.reshape(N, M)
    return counts


def train_ensemble(dataset: Dataset, config: MPConfig, threads: int = 1,
                   check_coverage: bool = True,
                   patches: np.recarray | None = None) -> Ensemble:
    """Fit one model per minipatch and sum its predictions into the
    leave-out sums in the same pass.

    The patches and the B-hat pairs are drawn serially from the seed
    before any parallel work, and patches are fitted in fixed blocks
    that threads take whole and whose sums are added in block order, so
    the result is byte-identical for any ``threads``.  ``patches``, a
    record array (:func:`patch_array`), overrides the random draw (used
    by the exhaustive-enumeration checks); its row indices must increase
    strictly within [0, N) and its feature indices within [0, M), or
    :class:`InvalidSize` is raised.  With ``check_coverage`` every row
    must be excluded by some patch and every (row, feature) pair jointly
    excluded by some patch, otherwise :class:`CoverageFailure` is raised
    before any fit instead of surfacing on a later query.
    """
    N, M, d = dataset.n_rows, dataset.n_features, dataset.pred_dim
    if patches is None:
        config = config.resolve(N, M)
        patches = sample_minipatches(N, M, config.n, config.m, config.K, config.seed)
    else:
        config = replace(config, n=patches.rows.shape[1],
                         m=patches.features.shape[1], K=len(patches))
        config.validate(N, M)
        for idx, top in ((patches.rows, N), (patches.features, M)):
            if idx.min() < 0 or idx.max() >= top or (np.diff(idx, axis=1) <= 0).any():
                raise InvalidSize(f"patch indices must increase strictly within [0, {top})")
    rows, feats, K = patches.rows, patches.features, len(patches)
    feat_mask = np.zeros((K, M), dtype=bool)
    feat_mask[np.arange(K)[:, None], feats] = True

    counts = _leave_out_counts(rows, feats, N, M)
    if check_coverage:
        uncovered = np.nonzero(counts[:, 0] == 0)[0]
        if uncovered.size:
            raise CoverageFailure(int(uncovered[0]))
        holes = np.argwhere(counts[:, 1:] == 0)
        if holes.size:
            i, j = holes[0]
            raise CoverageFailure(int(i), int(j))
    try:
        pairs = _draw_pairs((rows * K + np.arange(K)[:, None]).ravel(), K, N, 10,
                            spawn_seed(config.seed, "estimate-b"))
        pair_preds = np.empty(pairs.shape + (d,))
    except CoverageFailure:
        pairs = pair_preds = None   # B-hat fails if asked for

    sums = np.zeros((N, 1 + M, d))

    def add(lo: int, preds: np.ndarray) -> None:
        block = slice(lo, lo + len(preds))
        if pairs is not None:
            _gather(pairs, lo, preds, pair_preds)
        # the block's buffer is ours: zero the rows each patch holds
        preds[np.arange(len(preds))[:, None], rows[block]] = 0.0
        sums[:, 0] += preds.sum(axis=0)
        held = feat_mask[block].astype(float)
        for c in range(d):
            sums[:, 1:, c] += preds[:, :, c].T @ held

    learner = config.learner if config.learner is not None else RidgeLearner()
    models = fit_patch_models(dataset, learner, rows, feats, threads, add)
    sums[:, 1:] = sums[:, :1] - sums[:, 1:]
    # built after the pass, so that the pass's peak does not hold it
    obs_mask = np.zeros((K, N), dtype=bool)
    obs_mask[np.arange(K)[:, None], rows] = True
    return Ensemble(dataset, config, patches, models, obs_mask, feat_mask,
                    sums, counts, pair_preds)


# -- snapshot --------------------------------------------------------------
# Layout (version 4, not stable across package versions): one .npz holding
# the dataset arrays, patch index matrices, masks, leave-out sums and
# counts, the B-hat pair predictions (absent when there are none), the
# model stack's arrays under "model_<field>", and a JSON header with the
# config echo, the learner's name and parameters, and the stack's type
# name and scalars.


def save_ensemble(ens: Ensemble, path) -> None:
    model, arrays = to_obj(ens.models, "model")
    learner = ens.config.learner
    header = {
        "version": 4,
        "task": ens.dataset.task.value,
        "n_classes": ens.dataset.n_classes,
        "feature_names": list(ens.dataset.feature_names or []),
        "label_names": list(ens.dataset.label_names or []),
        "config": ens.config.settings_dict(),
        "learner": None if learner is None else to_obj(learner, "learner")[0],
        "model": model,
    }
    pairs = {} if ens.pair_preds is None else {"pair_preds": ens.pair_preds}
    np.savez_compressed(
        path, header=np.frombuffer(json.dumps(header).encode("utf8"), dtype=np.uint8),
        X=ens.dataset.X, Y=ens.dataset.Y, rows=ens.patches.rows,
        feats=ens.patches.features,
        obs_mask=ens.obs_mask, feat_mask=ens.feat_mask, sums=ens.sums,
        counts=ens.counts, **pairs,
        **{f"model_{name}": a for name, a in arrays.items()},
    )


def load_ensemble(path) -> Ensemble:
    with np.load(path, allow_pickle=False) as zf:
        header = json.loads(bytes(zf["header"]).decode("utf8"))
        if header.get("version") != 4:
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
        patches = patch_array(zf["rows"], zf["feats"])
        models = from_obj(header["model"], "model", {
            name.removeprefix("model_"): zf[name]
            for name in zf.files if name.startswith("model_")})
        return Ensemble(dataset, config, patches, models, zf["obs_mask"],
                        zf["feat_mask"], zf["sums"], zf["counts"],
                        zf["pair_preds"] if "pair_preds" in zf.files else None)

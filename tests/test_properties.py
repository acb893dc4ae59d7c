"""Property tests: the fit pass's leave-out sums against the exhaustive
ensemble, the B-hat pair sampler against a per-row loop, and model stacks
against per-patch fits, on random tiny shapes."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mpinfer import ensemble as ensemble_mod
from mpinfer.core import CoverageFailure, Dataset, MPConfig, Task
from mpinfer.ensemble import draw_pairs, train_ensemble
from mpinfer.learners import (
    ConstantLearner, RidgeLearner, TreeLearner, fit_patches,
)
from mpinfer.loco import estimate_B, infer_all, mean_pair_gap, occlusion_scores
from mpinfer.oracle import ExhaustiveEnsemble
from mpinfer.rng import generator, spawn_seed

TOL = 1e-12
LEARNERS = {
    "ridge": RidgeLearner(lam=0.1),
    "constant": ConstantLearner(),
    "tree": TreeLearner(max_depth=2, min_leaf=1),
}
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def instances(draw):
    """A tiny dataset, patch sizes small enough to enumerate, and a learner."""
    N = draw(st.integers(4, 6))
    M = draw(st.integers(3, 4))
    n = draw(st.integers(1, N - 1))
    m = draw(st.integers(1, M - 1))
    task = draw(st.sampled_from([Task.REGRESSION, Task.CLASSIFICATION]))
    learner = LEARNERS[draw(st.sampled_from(sorted(LEARNERS)))]
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = gen.standard_normal((N, M))
    if task == Task.REGRESSION:
        ds = Dataset(X=X, Y=X @ gen.standard_normal(M) + gen.standard_normal(N),
                     task=task)
    else:
        d = draw(st.integers(2, 3))
        ds = Dataset(X=X, Y=gen.integers(0, d, N), task=task, n_classes=d)
    return ds, n, m, learner, gen.standard_normal((3, M))


@SETTINGS
@given(instances(), st.sampled_from([8, 100, 4 << 20]))
def test_masked_cache_matches_exhaustive(instance, block_bytes):
    # small scratch and fit-block sizes force many patch blocks, down to
    # one patch each, in the fit pass and in the new-point sums
    ds, n, m, learner, X_new = instance
    bf = ExhaustiveEnsemble(ds, n, m, learner)
    N, M = ds.n_rows, ds.n_features
    with mock.patch.object(ensemble_mod, "_BLOCK_BYTES", block_bytes), \
            mock.patch.object(ensemble_mod, "_FIT_BLOCK_BYTES", block_bytes):
        ens = train_ensemble(ds, MPConfig(seed=0, learner=learner),
                             patches=bf.enumeration())
        loo = ens.loo_all()
        numer, counts = ens.leave_out_sums(range(M))
        loo_new = ens.loo_new_all(X_new)
    for i in range(N):
        assert np.allclose(loo[i], bf.loo_prediction(i), rtol=0, atol=TOL)
        assert np.allclose(ens.loo_prediction(i), loo[i], rtol=0, atol=TOL)
        for j in range(M):
            want = bf.loo_loco_prediction(i, j)
            assert np.allclose(numer[i, 1 + j] / counts[i, 1 + j], want,
                               rtol=0, atol=TOL)
            assert np.allclose(ens.loo_loco_prediction(i, j), want,
                               rtol=0, atol=TOL)
        for t in range(X_new.shape[0]):
            assert np.allclose(loo_new[i, t], bf.loo_prediction_new(i, X_new[t]),
                               rtol=0, atol=TOL)


@st.composite
def patch_stacks(draw):
    """A learner and task, a tiny dataset, 0-6 random patches and new points."""
    name, task = draw(st.sampled_from([
        ("ridge", Task.REGRESSION), ("ridge", Task.CLASSIFICATION),
        ("tree", Task.REGRESSION), ("tree", Task.CLASSIFICATION),
        ("constant", Task.REGRESSION)]))
    N, M, B = draw(st.integers(4, 8)), draw(st.integers(2, 5)), draw(st.integers(0, 6))
    n, m = draw(st.integers(1, N - 1)), draw(st.integers(1, M - 1))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = gen.standard_normal((N, M))
    d = 1 if task == Task.REGRESSION else draw(st.integers(2, 3))
    Y = gen.standard_normal(N) if d == 1 else gen.integers(0, d, N)
    rows = np.array([np.sort(gen.choice(N, n, replace=False)) for _ in range(B)],
                    dtype=np.int64).reshape(B, n)
    feats = np.array([np.sort(gen.choice(M, m, replace=False)) for _ in range(B)],
                     dtype=np.int64).reshape(B, m)
    return LEARNERS[name], task, d, X, Y, rows, feats, gen.standard_normal((3, M))


@SETTINGS
@given(patch_stacks(), st.integers(0, 1000))
def test_stack_matches_per_patch_fits(case, seed):
    learner, task, d, X, Y, rows, feats, X_new = case
    B = rows.shape[0]
    stack = fit_patches(learner, X, Y, rows, feats, task, d)
    points = X_new[:, feats].swapaxes(0, 1)               # (B, T, m)
    preds = stack.predict_batch(points)
    assert preds.shape == (B, X_new.shape[0], d)
    for b in range(B):
        # a C-ordered submatrix, like the stacked designs (BLAS rounding
        # in a ridge fit depends on the memory layout)
        one = learner.fit(X[np.ix_(rows[b], feats[b])], Y[rows[b]], task, d)
        assert np.array_equal(preds[b], one.predict_batch(X_new[:, feats[b]]))
        assert np.array_equal(stack.take(b).predict_batch(X_new[:, feats[b]]),
                              preds[b])
    # selecting and joining keep every prediction, zero-patch stacks included
    gen = np.random.default_rng(seed)
    first = gen.choice(B, gen.integers(0, B + 1), replace=False)
    second = gen.integers(0, B, gen.integers(0, 4)) if B else first
    for picks in ([first], [first, second], [second, first, first[:0]]):
        joined = stack.take(picks[0]).join(*(stack.take(p) for p in picks[1:]))
        order = np.concatenate(picks).astype(np.int64)
        assert np.array_equal(joined.predict_batch(points[order]), preds[order])


@SETTINGS
@given(instances())
def test_infer_all_agrees_with_single_feature_scores(instance):
    ds, n, m, learner, _ = instance
    bf = ExhaustiveEnsemble(ds, n, m, learner)
    ens = train_ensemble(ds, MPConfig(seed=0, learner=learner, use_buffer=False),
                         patches=bf.enumeration())
    report = infer_all(ens)
    for j, iv in enumerate(report.intervals):
        res = occlusion_scores(ens, j)
        assert abs(iv.mean - res.mean) <= TOL and abs(iv.sd - res.sd) <= TOL


@st.composite
def masks(draw, min_excluded=2):
    """A (K, N) membership mask with at least ``min_excluded`` patches
    excluding each row, plus a generator for the cache."""
    K = draw(st.integers(2, 40))
    N = draw(st.integers(2, 12))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    obs = gen.random((K, N)) < draw(st.floats(0.0, 0.95))
    for i in range(N):
        short = min_excluded - (~obs[:, i]).sum()
        if short > 0:
            obs[gen.choice(np.flatnonzero(obs[:, i]), short, replace=False), i] = False
    return obs, gen


def _b_hat(obs: np.ndarray, cache: np.ndarray, pairs: int = 10,
           seed: int = 0) -> float:
    """estimate_B's pair draw on membership mask obs (K, N), gathered from
    a literal prediction array cache (K, N, d)."""
    k = draw_pairs(obs, pairs, seed)
    return mean_pair_gap(cache[k, np.arange(obs.shape[1])[:, None]])


def _estimate_B_loop(obs: np.ndarray, cache: np.ndarray, pairs: int,
                     seed: int) -> float:
    # Reference: the same rank draws, mapped to patches row by row.
    excl = ~obs
    counts = excl.sum(axis=0)
    gen = generator(seed, "pair-gaps")
    N = counts.shape[0]
    first = gen.integers(0, counts[:, None], size=(N, pairs))
    second = gen.integers(0, counts[:, None] - 1, size=(N, pairs))
    second += second >= first
    row_means = []
    for i in range(N):
        qualifying = np.flatnonzero(excl[:, i])
        gaps = [math.sqrt(float(np.sum((cache[qualifying[a], i]
                                        - cache[qualifying[b], i]) ** 2)))
                for a, b in zip(first[i], second[i])]
        row_means.append(np.mean(gaps))
    return float(np.mean(row_means))


@SETTINGS
@given(masks(), st.integers(1, 6), st.integers(0, 1000))
def test_estimate_B_matches_row_loop(mask_gen, pairs, seed):
    obs, gen = mask_gen
    cache = gen.standard_normal(obs.shape + (2,))
    got = _b_hat(obs, cache, pairs, seed)
    assert got == pytest.approx(_estimate_B_loop(obs, cache, pairs, seed), abs=TOL)


@SETTINGS
@given(masks(), st.integers(1, 6), st.integers(0, 1000))
def test_estimate_B_draws_only_qualifying_patches(mask_gen, pairs, seed):
    obs, gen = mask_gen
    # patches holding the row carry a huge value, so a bad draw would show
    cache = np.where(obs, 1e9, gen.random(obs.shape))[:, :, None]
    assert 0.0 <= _b_hat(obs, cache, pairs, seed) < 1.0
    constant = np.full(obs.shape + (1,), 3.5)
    assert _b_hat(obs, constant, pairs, seed) == 0.0


@SETTINGS
@given(st.integers(2, 40), st.integers(2, 12), st.integers(1, 6),
       st.integers(0, 1000))
def test_estimate_B_pairs_are_distinct(K, N, pairs, seed):
    # exactly two patches exclude each row, carrying 0 and 1: a distinct
    # pair always has gap 1, a repeated patch gap 0, any other gap 1e9
    gen = np.random.default_rng(seed)
    obs = np.ones((K, N), dtype=bool)
    cache = np.full((K, N, 1), 1e9)
    for i in range(N):
        a, b = gen.choice(K, 2, replace=False)
        obs[[a, b], i] = False
        cache[a, i], cache[b, i] = 0.0, 1.0
    assert _b_hat(obs, cache, pairs, seed) == 1.0


@SETTINGS
@given(masks(min_excluded=0), st.integers(0, 1000))
def test_estimate_B_needs_two_qualifying_patches(mask_gen, seed):
    obs, gen = mask_gen
    counts = (~obs).sum(axis=0)
    cache = gen.standard_normal(obs.shape + (1,))
    short = np.flatnonzero(counts < 2)
    if short.size:
        with pytest.raises(CoverageFailure) as exc:
            _b_hat(obs, cache, seed=seed)
        assert exc.value.i == short[0]
    else:
        assert _b_hat(obs, cache, seed=seed) >= 0.0


@SETTINGS
@given(instances(), st.integers(1, 6), st.integers(0, 1000))
def test_estimate_B_from_the_stack_matches_row_loop(instance, pairs, seed):
    ds, n, m, learner, _ = instance
    ens = train_ensemble(ds, MPConfig(n=n, m=m, K=40, seed=seed, learner=learner),
                         check_coverage=False)
    assume(((~ens.obs_mask).sum(axis=0) >= 2).all())
    got = estimate_B(ens, pairs, seed)
    assert got == pytest.approx(
        _estimate_B_loop(ens.obs_mask, ens.cache, pairs, seed), abs=TOL)
    # the fit pass gathered the pairs of its own draw bit for bit
    assert mean_pair_gap(ens.pair_preds) == estimate_B(
        ens, 10, spawn_seed(seed, "estimate-b"))

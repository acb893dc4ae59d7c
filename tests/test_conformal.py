import math

import numpy as np
import pytest

from mpinfer.conformal import (
    LooResiduals, loo_residuals, predict_interval, predict_intervals_batch,
    predict_set, quantile_minus, quantile_plus, sample_K_binomial,
)
from mpinfer.core import (
    Dataset, EmptyInput, InvalidSize, MPConfig, Task, TaskMismatch,
)
from mpinfer.ensemble import Ensemble, Minipatch, train_ensemble
from mpinfer.learners import ConstantModel, RidgeLearner
from mpinfer.rng import generator, standard_normal, uniform_open


def reference_plus(values, alpha):
    values = sorted(values)
    rank = math.ceil(round((1 - alpha) * (len(values) + 1), 9))
    return values[rank - 1] if rank <= len(values) else math.inf


def reference_minus(values, alpha):
    values = sorted(values)
    rank = math.floor(round(alpha * (len(values) + 1), 9))
    return values[rank - 1] if rank >= 1 else -math.inf


class TestQuantiles:
    def test_plus_examples(self):
        assert quantile_plus(np.arange(1.0, 11.0), 0.1) == 10.0
        assert quantile_plus([1.0, 2.0, 3.0], 0.2) == math.inf
        assert quantile_plus([4.0, 4.0, 4.0, 4.0], 0.3) == 4.0

    def test_minus_examples(self):
        assert quantile_minus(np.arange(1.0, 11.0), 0.1) == 1.0
        assert quantile_minus([1.0, 2.0, 3.0], 0.2) == -math.inf
        assert quantile_minus([5.0, 5.0, 5.0, 7.0], 0.4) == 5.0

    def test_alpha_representation_does_not_shift_rank(self):
        # (1-0.1)*10 lands a hair above 9 in floating point
        assert quantile_plus(np.arange(1.0, 10.0), 0.1) == 9.0
        assert quantile_minus(np.arange(1.0, 10.0), 0.3) == 3.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            quantile_plus([], 0.1)
        with pytest.raises(EmptyInput):
            quantile_minus([], 0.1)

    def test_matches_sort_reference_on_random_vectors(self):
        gen = generator(17, "quantile-oracle")
        for _ in range(1000):
            n = int(gen.integers(1, 40))
            if gen.integers(0, 2) == 0:
                values = gen.integers(-3, 4, n).astype(float)  # duplicates
            else:
                values = standard_normal(gen, n)
            alpha = float(uniform_open(gen)) * 0.98 + 0.01
            assert quantile_plus(values, alpha) == reference_plus(values, alpha)
            assert quantile_minus(values, alpha) == reference_minus(values, alpha)


def interval_fixture(N=25, M=6, seed=0, K=150):
    gen = generator(seed, "conformal-fixture")
    X = standard_normal(gen, (N, M))
    Y = X @ np.linspace(1.0, 2.0, M) + standard_normal(gen, N)
    ds = Dataset(X=X, Y=Y, task=Task.REGRESSION)
    ens = train_ensemble(ds, MPConfig(n=5, m=2, K=K, seed=seed,
                                      learner=RidgeLearner()))
    return ds, ens, loo_residuals(ens)


def handmade_classifier(prob_vector, N=9, n_classes=2):
    """Ensemble whose every LOO prediction is the given probability vector."""
    X = np.arange(N * 2.0).reshape(N, 2)
    ds = Dataset(X=X, Y=np.zeros(N, dtype=int), task=Task.CLASSIFICATION,
                 n_classes=n_classes)
    K = 4
    patches = [Minipatch(rows=np.array([0]), features=np.array([0]))
               for _ in range(K)]
    models = ConstantModel(value=np.tile(np.asarray(prob_vector, dtype=float),
                                         (K, 1)), n_slots=1)
    cache = np.tile(np.asarray(prob_vector, dtype=float), (K, N, 1))
    obs = np.zeros((K, N), dtype=bool)
    feat = np.zeros((K, 2), dtype=bool)
    feat[:, 0] = True
    return Ensemble(ds, MPConfig(n=1, m=1, K=K, seed=0), patches, models,
                    cache, obs, feat)


class TestPredictInterval:
    def test_hand_sorted_residuals(self):
        # all LOO predictions of the new point are 0; R = 0.1..0.9
        ens = handmade_regressor_zero(N=9)
        res = LooResiduals(R=np.arange(0.1, 0.95, 0.1))
        iv = predict_interval(ens, res, np.zeros(2), alpha=0.1)
        assert iv.lo == pytest.approx(-0.9)
        assert iv.hi == pytest.approx(0.9)

    def test_zero_residuals_collapse(self):
        ens = handmade_regressor_zero(N=30, level=2.5)
        res = LooResiduals(R=np.zeros(30))
        iv = predict_interval(ens, res, np.zeros(2), alpha=0.1)
        assert iv.lo == iv.hi == pytest.approx(2.5)

    def test_small_n_clamps_to_infinite(self):
        ens = handmade_regressor_zero(N=3)
        res = LooResiduals(R=np.array([0.1, 0.2, 0.3]))
        iv = predict_interval(ens, res, np.zeros(2), alpha=0.2)
        assert iv.lo == -math.inf and iv.hi == math.inf

    def test_task_mismatch(self):
        ens = handmade_classifier([0.5, 0.5])
        with pytest.raises(TaskMismatch):
            predict_interval(ens, LooResiduals(R=np.zeros(9)), np.zeros(2), 0.1)

    def test_contained_in_naive_envelope(self):
        ds, ens, res = interval_fixture(N=40, seed=3, K=200)
        gen = generator(5, "envelope")
        X_new = standard_normal(gen, (10, ds.n_features))
        loo_new = ens.loo_new_all(X_new)[:, :, 0]
        for t, iv in enumerate(predict_intervals_batch(ens, res, X_new, 0.1)):
            naive_lo = float((loo_new[:, t] - res.R).min())
            naive_hi = float((loo_new[:, t] + res.R).max())
            assert naive_lo <= iv.lo <= iv.hi <= naive_hi

    def test_alpha_monotonicity(self):
        ds, ens, res = interval_fixture(N=35, seed=4, K=180)
        x = ds.X.mean(axis=0)
        prev = predict_interval(ens, res, x, 0.05)
        for alpha in (0.1, 0.2, 0.3):
            cur = predict_interval(ens, res, x, alpha)
            assert cur.lo >= prev.lo - 1e-12
            assert cur.hi <= prev.hi + 1e-12
            prev = cur


def handmade_regressor_zero(N, level=0.0):
    """Regression ensemble predicting `level` everywhere, all rows excluded."""
    X = np.arange(N * 2.0).reshape(N, 2)
    ds = Dataset(X=X, Y=np.zeros(N), task=Task.REGRESSION)
    K = 3
    patches = [Minipatch(rows=np.array([0]), features=np.array([0]))
               for _ in range(K)]
    models = ConstantModel(value=np.full((K, 1), level), n_slots=1)
    cache = np.full((K, N, 1), level)
    obs = np.zeros((K, N), dtype=bool)
    feat = np.zeros((K, 2), dtype=bool)
    feat[:, 0] = True
    return Ensemble(ds, MPConfig(n=1, m=1, K=K, seed=0), patches, models,
                    cache, obs, feat)


class TestPredictSet:
    def test_confident_candidate_included(self):
        # per-row probability 0.6 for label 1 -> err 0.4 < R 0.5 everywhere
        ens = handmade_classifier([0.4, 0.6], N=9)
        res = LooResiduals(R=np.full(9, 0.5))
        ps = predict_set(ens, res, np.zeros(2), alpha=0.1)
        assert 1 in ps.labels

    def test_weak_candidate_excluded(self):
        # probability 0.4 -> err 0.6 >= 0.5 for all 9 rows; 9 > (0.8)(10)
        ens = handmade_classifier([0.6, 0.4], N=9)
        res = LooResiduals(R=np.full(9, 0.5))
        ps = predict_set(ens, res, np.zeros(2), alpha=0.2)
        assert 1 not in ps.labels
        assert 0 in ps.labels

    def test_maximal_residuals_admit_every_label(self):
        ens = handmade_classifier([0.3, 0.7], N=9)
        res = LooResiduals(R=np.ones(9))
        ps = predict_set(ens, res, np.zeros(2), alpha=0.1)
        assert ps.labels == (0, 1)

    def test_alpha_monotonicity(self):
        gen = generator(9, "set-mono")
        X = standard_normal(gen, (30, 4))
        ds = Dataset(X=X, Y=(X[:, 0] > 0).astype(int),
                     task=Task.CLASSIFICATION, n_classes=2)
        ens = train_ensemble(ds, MPConfig(n=6, m=2, K=150, seed=2,
                                          learner=RidgeLearner()))
        res = loo_residuals(ens)
        x = X.mean(axis=0)
        prev = set(predict_set(ens, res, x, 0.02).labels)
        for alpha in (0.1, 0.3, 0.6):
            cur = set(predict_set(ens, res, x, alpha).labels)
            assert cur.issubset(prev)
            prev = cur

    def test_task_mismatch(self):
        ds, ens, res = interval_fixture()
        with pytest.raises(TaskMismatch):
            predict_set(ens, res, np.zeros(ds.n_features), 0.1)


class TestLooResiduals:
    def test_nonnegative_and_bounded(self):
        ds, ens, res = interval_fixture(N=30, seed=6)
        assert np.all(res.R >= 0)
        gen = generator(10, "res-cls")
        Xc = standard_normal(gen, (25, 4))
        dsc = Dataset(X=Xc, Y=(Xc[:, 0] > 0).astype(int),
                      task=Task.CLASSIFICATION, n_classes=2)
        ensc = train_ensemble(dsc, MPConfig(n=5, m=2, K=120, seed=3,
                                            learner=RidgeLearner()))
        Rc = loo_residuals(ensc).R
        assert np.all(Rc >= 0) and np.all(Rc <= 1)


class TestBinomialPatchCount:
    def test_expectation(self):
        draws = [sample_K_binomial(100, 10, 99, seed=s) for s in range(10_000)]
        assert abs(np.mean(draws) - 90.0) <= 1.0

    def test_determinism(self):
        assert sample_K_binomial(100, 10, 99, seed=7) == \
            sample_K_binomial(100, 10, 99, seed=7)

    def test_n_equals_N(self):
        # success probability drops to 1/(N+1) when n = N
        draws = [sample_K_binomial(50, 9, 9, seed=s) for s in range(2000)]
        assert abs(np.mean(draws) - 5.0) < 0.2

    def test_invalid(self):
        with pytest.raises(InvalidSize):
            sample_K_binomial(0, 1, 5, seed=0)
        with pytest.raises(InvalidSize):
            sample_K_binomial(10, 6, 5, seed=0)

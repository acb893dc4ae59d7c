import itertools

import numpy as np
import pytest

from mpinfer.core import Task, DimensionMismatch, SingularSystem
from mpinfer.learners import (
    FIT_CALLS, ConstantLearner, RidgeLearner, TreeLearner,
    fit_constant_mean, fit_decision_tree, fit_least_squares, fit_patches,
    predict,
)
from mpinfer.rng import generator, standard_normal, uniform_open


class TestLeastSquares:
    def test_two_point_line(self):
        model = fit_least_squares([[1.0], [2.0]], [2.0, 4.0], lam=0.0)
        assert model.coef[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert model.intercept[0] == pytest.approx(0.0, abs=1e-12)
        assert predict(model, [3.0])[0] == pytest.approx(6.0, abs=1e-12)

    def test_constant_response(self):
        gen = generator(0, "ls-const")
        X = uniform_open(gen, (10, 3))
        model = fit_least_squares(X, np.full(10, 4.5), lam=0.0001)
        assert np.max(np.abs(model.coef)) < 1e-8
        assert model.intercept[0] == pytest.approx(4.5, abs=1e-8)

    def test_rank_deficient_raises(self):
        with pytest.raises(SingularSystem):
            fit_least_squares([[1.0, 2.0]], [3.0], lam=0.0)

    def test_collinear_columns_raise(self):
        # the Cholesky check can round this gram to a tiny positive pivot
        with pytest.raises(SingularSystem):
            fit_least_squares([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]],
                              [1.0, 2.0, 3.0], lam=0.0)

    def test_ridge_shrinkage_monotone(self):
        gen = generator(1, "ls-shrink")
        X = standard_normal(gen, (30, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + standard_normal(gen, 30)
        norms = [np.linalg.norm(fit_least_squares(X, y, lam=lam).coef)
                 for lam in (0.0, 0.1, 1.0, 10.0)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_classification_probability_vector(self):
        gen = generator(2, "ls-cls")
        X = standard_normal(gen, (40, 3))
        y = (X[:, 0] > 0).astype(int)
        model = fit_least_squares(X, y, lam=0.0001,
                                  task=Task.CLASSIFICATION, n_classes=2)
        p = predict(model, [1.0, 0.0, 0.0])
        assert p.shape == (2,)
        assert np.all(p >= 0) and np.all(p <= 1)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert p[1] > p[0]


class TestDecisionTree:
    def test_pure_node_single_leaf(self):
        model = fit_decision_tree([[0.4], [1.2], [2.0]], [7.0, 7.0, 7.0],
                                  min_leaf=1)
        for x in (-10.0, 0.0, 99.0):
            assert predict(model, [x])[0] == 7.0

    def test_two_point_split_at_midpoint(self):
        model = fit_decision_tree([[0.0], [1.0]], [0.0, 10.0],
                                  max_depth=1, min_leaf=1)
        assert model.threshold[model.roots] == pytest.approx(0.5)
        assert predict(model, [0.2])[0] == 0.0
        assert predict(model, [0.9])[0] == 10.0

    def test_classification_leaf_frequencies(self):
        model = fit_decision_tree([[1.0], [1.0], [1.0]], [0, 0, 1],
                                  task=Task.CLASSIFICATION, n_classes=2,
                                  min_leaf=1)
        p = predict(model, [1.0])
        assert p == pytest.approx([2.0 / 3.0, 1.0 / 3.0])

    def test_min_leaf_respected(self):
        X = np.arange(6.0)[:, None]
        y = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
        model = fit_decision_tree(X, y, max_depth=5, min_leaf=3)
        # only the 3/3 split is admissible
        root = model.roots
        assert model.threshold[root] == pytest.approx(2.5)
        assert model.feature[model.left[root]] == -1 and model.feature[model.right[root]] == -1

    def test_tie_break_lowest_slot(self):
        # identical columns: the split must use slot 0
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0.0, 0.0, 5.0, 5.0])
        model = fit_decision_tree(X, y, max_depth=1, min_leaf=1)
        assert model.feature[model.roots] == 0

    # leaf values and, per grid point, the leaf it reaches ("0".."6"),
    # recorded from the recursive node-object trees this predictor replaced
    PINNED = {
        Task.REGRESSION: (
            [[-2.6412125675221976], [-0.8876114878720451], [-0.7165424756820916],
             [-0.2281830879563863], [0.576115291436321], [1.0869007740930998],
             [3.5135022148802793]],
            "3266321132113011326632443244304432663244324430445266524452445044"),
        Task.CLASSIFICATION: (
            [[0.0, 0.5, 0.5], [0.0, 0.6, 0.4], [0.0, 1.0, 0.0],
             [0.09090909090909091, 0.09090909090909091, 0.8181818181818182],
             [0.2777777777777778, 0.2777777777777778, 0.4444444444444444],
             [0.4117647058823529, 0.5294117647058824, 0.058823529411764705]],
            "5522552255225522553355335533551144334433443344112233223322330011"),
    }

    @pytest.mark.parametrize("task", [Task.REGRESSION, Task.CLASSIFICATION])
    def test_pinned_depth3_predictions(self, task):
        gen = generator(7, "tree-pin")
        X = standard_normal(gen, (80, 3))
        noise = standard_normal(gen, (80, 2))
        if task == Task.REGRESSION:
            y = X[:, 0] * X[:, 1] + np.sin(2 * X[:, 2]) + 0.3 * noise[:, 0]
        else:
            y = (X[:, 0] + noise[:, 0] > 0).astype(int) + (X[:, 2] + noise[:, 1] > 0)
        model = fit_decision_tree(X, y, max_depth=3, min_leaf=2, task=task,
                                  n_classes=3 if task == Task.CLASSIFICATION else 1)
        grid = np.array(list(itertools.product((-2.0, -0.5, 0.5, 2.0), repeat=3)))
        leaves, reached = self.PINNED[task]
        want = np.array(leaves)[[int(c) for c in reached]]
        assert np.array_equal(model.predict_batch(grid), want)

    def test_bounded_predictions_from_clipped_responses(self):
        gen = generator(3, "tree-bound")
        c = 2.5
        X = standard_normal(gen, (50, 3))
        y = np.clip(standard_normal(gen, 50) * 3.0, -c, c)
        model = fit_decision_tree(X, y)
        probes = standard_normal(gen, (200, 3))
        preds = model.predict_batch(probes)[:, 0]
        assert preds.min() >= -c and preds.max() <= c


class TestConstantMean:
    def test_regression_mean(self):
        model = fit_constant_mean(np.zeros((3, 2)), [1.0, 2.0, 9.6])
        assert predict(model, [123.0, -4.0])[0] == pytest.approx(4.2)

    def test_classification_frequencies(self):
        model = fit_constant_mean(np.zeros((4, 2)), [0, 1, 1, 1],
                                  task=Task.CLASSIFICATION, n_classes=2)
        assert predict(model, [0.0, 0.0]) == pytest.approx([0.25, 0.75])


class TestPredictContract:
    def test_dimension_mismatch(self):
        model = fit_least_squares([[1.0], [2.0]], [1.0, 2.0], lam=0.1)
        with pytest.raises(DimensionMismatch):
            predict(model, [1.0, 2.0])

    def test_single_row_equals_batch_row(self):
        gen = generator(4, "predict-consistency")
        X = standard_normal(gen, (25, 4))
        y = standard_normal(gen, 25)
        probes = standard_normal(gen, (64, 4))
        for model in (fit_least_squares(X, y, lam=0.001),
                      fit_decision_tree(X, y, min_leaf=2),
                      fit_constant_mean(X, y)):
            batch = model.predict_batch(probes)
            for i in (0, 7, 63):
                assert np.array_equal(predict(model, probes[i]), batch[i])


@pytest.mark.parametrize("make", [
    lambda X, y: fit_least_squares(X, y, lam=0.0001),
    lambda X, y: fit_decision_tree(X, y, max_depth=6, min_leaf=2),
])
def test_row_permutation_invariance(make):
    gen = generator(5, "perm")
    X = standard_normal(gen, (40, 3))
    y = X @ np.array([2.0, -1.0, 0.3]) + standard_normal(gen, 40)
    probes = standard_normal(gen, (20, 3))
    base = make(X, y).predict_batch(probes)
    for _ in range(100):
        order = gen.permutation(40)
        permuted = make(X[order], y[order]).predict_batch(probes)
        assert np.max(np.abs(permuted - base)) < 1e-10


def test_fit_counter_counts_every_fit():
    before = FIT_CALLS.value()
    X, y = np.ones((4, 2)) + np.arange(8.0).reshape(4, 2), np.arange(4.0)
    RidgeLearner().fit(X, y, Task.REGRESSION, 1)
    TreeLearner().fit(X, y, Task.REGRESSION, 1)
    ConstantLearner().fit(X, y, Task.REGRESSION, 1)
    assert FIT_CALLS.value() == before + 3


@pytest.mark.parametrize("task", [Task.REGRESSION, Task.CLASSIFICATION])
def test_batched_ridge_fits_match_single_fits(task):
    gen = generator(6, "fit-patches", task.value)
    X = standard_normal(gen, (30, 6))
    Y = ((X[:, 0] > 0).astype(float) + (X[:, 1] > 0.5)
         if task == Task.CLASSIFICATION else standard_normal(gen, 30))
    n_classes = 3 if task == Task.CLASSIFICATION else 1
    rows = np.stack([np.sort(gen.choice(30, 9, replace=False)) for _ in range(7)])
    feats = np.stack([np.sort(gen.choice(6, 3, replace=False)) for _ in range(7)])
    learner = RidgeLearner(lam=0.001)
    before = FIT_CALLS.value()
    models = fit_patches(learner, X, Y, rows, feats, task, n_classes)
    assert FIT_CALLS.value() == before + 7
    for k, (r, f) in enumerate(zip(rows, feats)):
        model = models.take(k)
        one = learner.fit(X[r][:, f], Y[r], task, n_classes)
        assert np.max(np.abs(model.coef - one.coef)) < 1e-12
        assert np.max(np.abs(model.intercept - one.intercept)) < 1e-12


def test_batched_ridge_fit_rejects_any_singular_patch():
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 3.0],
                  [1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])   # rows 3-5 equal
    rows = np.array([[0, 1, 2], [3, 4, 5]])
    feats = np.array([[0, 1], [0, 1]])
    fit_patches(RidgeLearner(lam=0.0), X, np.arange(6.0), rows[:1], feats[:1],
                Task.REGRESSION, 1)
    with pytest.raises(SingularSystem):
        fit_patches(RidgeLearner(lam=0.0), X, np.arange(6.0), rows, feats,
                    Task.REGRESSION, 1)


@pytest.mark.parametrize("task", [Task.REGRESSION, Task.CLASSIFICATION])
def test_empty_ridge_stack(task):
    X, Y = np.arange(12.0).reshape(4, 3) ** 2, np.array([0, 1, 2, 1])
    d = 3 if task == Task.CLASSIFICATION else 1
    empty = fit_patches(RidgeLearner(), X, Y, np.empty((0, 3), dtype=np.int64),
                        np.empty((0, 2), dtype=np.int64), task, d)
    assert empty.predict_batch(np.zeros((0, 5, 2))).shape == (0, 5, d)
    one = fit_patches(RidgeLearner(), X, Y, np.array([[0, 1, 3]]),
                      np.array([[0, 2]]), task, d)
    Z = X[None, :, [0, 2]]
    assert np.array_equal(empty.join(one).predict_batch(Z), one.predict_batch(Z))

import math

import numpy as np
import pytest

from mpinfer import ensemble as ensemble_mod
from mpinfer.core import (
    Dataset, DimensionMismatch, MPConfig, NoSampler, Task, TooLarge, error_vector,
)
from mpinfer.ensemble import train_ensemble
from mpinfer.learners import ConstantLearner, RidgeLearner, TreeLearner
from mpinfer.oracle import (
    LinearTargetParams, brute_force_predictor, correlated_closed_form_limits,
    ensemble_conditional_target, linear_closed_form_target, monte_carlo_target,
)
from mpinfer.rng import generator, spawn_seed, standard_normal
from mpinfer.simgen import SimSpec, generate, sampler


def small_dataset(N=5, M=3, seed=0):
    gen = generator(seed, "oracle-toy")
    X = standard_normal(gen, (N, M))
    Y = X @ np.linspace(1.0, 0.2, M) + standard_normal(gen, N)
    return Dataset(X=X, Y=Y, task=Task.REGRESSION)


class TestBruteForce:
    def test_constant_mean_hand_enumeration(self):
        # n=1 singleton patches: full prediction = mean(Y); leave-0-out
        # averages the other rows
        X = np.arange(8.0).reshape(4, 2)
        ds = Dataset(X=X, Y=np.array([1.0, 2.0, 3.0, 4.0]),
                     task=Task.REGRESSION)
        bf = brute_force_predictor(ds, n=1, m=1, learner=ConstantLearner())
        assert bf.full_prediction(X[0])[0] == pytest.approx(2.5, abs=1e-12)
        assert bf.loo_prediction(0)[0] == pytest.approx(3.0, abs=1e-12)

    def test_enumeration_count(self):
        ds = small_dataset(N=5, M=3)
        bf = brute_force_predictor(ds, n=2, m=1, learner=ConstantLearner())
        assert len(bf.fits) == math.comb(5, 2) * math.comb(3, 1) == 30

    def test_guard(self):
        gen = generator(1, "guard")
        X = standard_normal(gen, (40, 20))
        ds = Dataset(X=X, Y=X[:, 0], task=Task.REGRESSION)
        with pytest.raises(TooLarge):
            brute_force_predictor(ds, n=20, m=10, learner=ConstantLearner())

    def test_matches_enumerated_ensemble_on_all_queries(self):
        ds = small_dataset(N=5, M=3, seed=2)
        learner = RidgeLearner(lam=0.001)
        bf = brute_force_predictor(ds, n=2, m=1, learner=learner)
        ens = train_ensemble(ds, MPConfig(seed=0, learner=learner),
                             patches=bf.enumeration())
        gen = generator(3, "probe")
        x_new = standard_normal(gen, 3)
        for i in range(5):
            assert bf.loo_prediction(i)[0] == pytest.approx(
                ens.loo_prediction(i)[0], abs=1e-12)
            assert bf.loo_prediction_new(i, x_new)[0] == pytest.approx(
                ens.loo_prediction_new(i, x_new)[0], abs=1e-12)
            for j in range(3):
                assert bf.loo_loco_prediction(i, j)[0] == pytest.approx(
                    ens.loo_loco_prediction(i, j)[0], abs=1e-12)


class TestClosedForms:
    def test_zero_coefficients(self):
        p = LinearTargetParams(beta=np.zeros(5), gamma=0.2, M=5, j=0)
        assert linear_closed_form_target(p) == 0.0

    def test_null_feature_hand_value(self):
        p = LinearTargetParams(beta=[0, 1, 1, 1, 1], gamma=0.2, M=5, j=0)
        assert linear_closed_form_target(p) == pytest.approx(-0.31, abs=1e-12)

    def test_null_feature_alternative_form(self):
        # same case through the specialised null-coefficient expression
        gamma, M = 0.2, 5
        rest = 4.0
        alt = -gamma * (2 * (1 - gamma) * M - 2 + gamma) * rest / (M - 1) ** 2
        p = LinearTargetParams(beta=[0, 1, 1, 1, 1], gamma=gamma, M=M, j=0)
        assert linear_closed_form_target(p) == pytest.approx(alt, abs=1e-12)

    def test_lone_signal_hand_value(self):
        p = LinearTargetParams(beta=[2, 0, 0, 0, 0], gamma=0.2, M=5, j=0)
        assert linear_closed_form_target(p) == pytest.approx(1.44, abs=1e-12)

    def test_correlated_limit_hand_value(self):
        lim0, lim1 = correlated_closed_form_limits([1, 1, 0, 0, 0], m=1, M=5, j=0)
        assert lim1 == pytest.approx(0.81, abs=1e-12)

    def test_correlated_cancellation(self):
        _, lim1 = correlated_closed_form_limits([1.5, -1.5, 0, 0, 0], m=1,
                                                M=5, j=0)
        assert lim1 == pytest.approx(0.0, abs=1e-12)

    def test_rho_zero_limit_equals_independent_target(self):
        beta = np.array([2.0, 0.7, -0.4, 0.1, 0.9, 0.0])
        m, M = 2, 6
        lim0, _ = correlated_closed_form_limits(beta, m=m, M=M, j=0)
        p = LinearTargetParams(beta=beta, gamma=m / M, M=M, j=0)
        assert lim0 == pytest.approx(linear_closed_form_target(p), abs=1e-12)

    def test_symmetry_between_pair_features(self):
        beta = np.array([1.0, 2.0, 0.5, 0.0, 0.0])
        a0, a1 = correlated_closed_form_limits(beta, m=1, M=5, j=0)
        b0, b1 = correlated_closed_form_limits(beta, m=1, M=5, j=1)
        assert a1 == pytest.approx(b1, abs=1e-12)   # grouped limit is shared
        assert a0 != b0                              # marginal limits differ


class TestMonteCarloTarget:
    def test_constant_learner_exact_zero(self):
        ds = small_dataset(N=8, M=4, seed=5)
        cfg = MPConfig(n=3, m=2, K=100, learner=ConstantLearner())
        mc = monte_carlo_target(ds, cfg, 1, lambda n, s: small_dataset(n, 4, s),
                                n_test=20, seed=1)
        assert mc.value == 0.0 and mc.se == 0.0

    def test_deterministic_in_seed(self):
        spec = SimSpec(model="linear", task="regression", N=80, M=10, snr=2.0,
                       seed=4)
        ds = generate(spec)
        cfg = MPConfig(n=9, m=3, K=300, learner=RidgeLearner())
        a = monte_carlo_target(ds, cfg, 0, sampler(spec), n_test=500, seed=9)
        b = monte_carlo_target(ds, cfg, 0, sampler(spec), n_test=500, seed=9)
        assert (a.value, a.se) == (b.value, b.se)

    @pytest.mark.parametrize("model, learner, want", [
        ("linear", RidgeLearner(), (-0.15172972947501695, 0.17467992847757016)),
        ("nonlinear", TreeLearner(max_depth=3, min_leaf=2),
         (0.07093239007034705, 0.10130916162584395)),
    ])
    def test_pinned_values(self, model, learner, want):
        # pinned: a change in summation order may move these only in the last bits
        spec = SimSpec(model=model, task="regression", N=60, M=10, snr=3.0,
                       seed=2)
        cfg = MPConfig(n=12, m=3, K=120, learner=learner)
        mc = monte_carlo_target(generate(spec), cfg, 0, sampler(spec),
                                n_test=300, seed=5)
        assert mc.value == pytest.approx(want[0], rel=0, abs=1e-12)
        assert mc.se == pytest.approx(want[1], rel=0, abs=1e-12)

    @pytest.mark.parametrize("block_bytes", [500, 3000])
    @pytest.mark.parametrize("task, learner", [
        ("regression", RidgeLearner()),
        ("classification", RidgeLearner()),
        ("regression", TreeLearner(max_depth=3, min_leaf=2)),
        ("regression", ConstantLearner()),
    ], ids=["ridge-regression", "ridge-classification", "tree", "constant"])
    def test_fit_blocks_do_not_move_target(self, monkeypatch, task, learner,
                                           block_bytes):
        # small fit blocks split the full and the refit stacks into many
        # fits (one or a few patches each) against one block by default
        spec = SimSpec(model="linear", task=task, N=60, M=10, snr=3.0, seed=2)
        ds, cfg = generate(spec), MPConfig(n=12, m=3, K=120, learner=learner)
        want = monte_carlo_target(ds, cfg, 0, sampler(spec), n_test=300, seed=5)
        monkeypatch.setattr(ensemble_mod, "_FIT_BLOCK_BYTES", block_bytes)
        got = monte_carlo_target(ds, cfg, 0, sampler(spec), n_test=300, seed=5)
        assert (got.value, got.se) == (want.value, want.se)

    def test_requires_sampler(self):
        ds = small_dataset()
        with pytest.raises(NoSampler):
            monte_carlo_target(ds, MPConfig(n=2, m=1, K=10), 0, None)

    def test_rejects_bad_feature(self):
        ds = small_dataset()
        with pytest.raises(DimensionMismatch):
            monte_carlo_target(ds, MPConfig(n=2, m=1, K=10), 7,
                               lambda n, s: ds)

    def test_more_test_points_shrink_reported_error(self):
        spec = SimSpec(model="linear", task="regression", N=60, M=10, snr=0.0,
                       seed=6)
        ds = generate(spec)
        cfg = MPConfig(n=8, m=3, K=400, learner=RidgeLearner())
        small = [monte_carlo_target(ds, cfg, 0, sampler(spec), n_test=500,
                                    seed=s).se for s in range(3)]
        big = [monte_carlo_target(ds, cfg, 0, sampler(spec), n_test=4000,
                                  seed=s).se for s in range(3)]
        assert np.mean(big) < np.mean(small)

    def test_null_targets_mostly_negative(self):
        # null-feature importance is negative for nearly every draw
        negatives = 0
        reps = 50
        for rep in range(reps):
            spec = SimSpec(model="linear", task="regression", N=250, M=50,
                           snr=0.0, seed=3000 + rep)
            ds = generate(spec)
            cfg = MPConfig(K=10_000, learner=RidgeLearner(lam=0.0001))
            mc = monte_carlo_target(ds, cfg, 0, sampler(spec), n_test=2000,
                                    seed=4000 + rep)
            negatives += mc.value < 0
        assert negatives >= int(0.9 * reps)

    def test_grouping_of_strongly_correlated_pair(self):
        # covariance with a single correlated pair at rho = 0.95; both
        # members carry the pairs grouped signal
        rho, M, N = 0.95, 10, 400
        beta = np.zeros(M)
        beta[0] = beta[1] = 5.0

        def draw(n, seed):
            gen = generator(seed, "pair-sim")
            Z = standard_normal(gen, (n, M))
            X = Z.copy()
            X[:, 1] = rho * Z[:, 0] + math.sqrt(1 - rho * rho) * Z[:, 1]
            Y = X @ beta + standard_normal(gen, n)
            return Dataset(X=X, Y=Y, task=Task.REGRESSION)

        train = draw(N, 11)
        cfg = MPConfig(n=20, m=3, K=4000, learner=RidgeLearner(lam=0.0001))
        for j in (0, 1):
            mc = monte_carlo_target(train, cfg, j, draw, n_test=4000,
                                    seed=12 + j)
            assert mc.value > 0, f"feature {j} target {mc.value}"


class TestConditionalTarget:
    def test_constant_learner_zero_under_enumeration(self):
        # the occluded subset average only collapses to the full average
        # (input-ignoring learner) when the feature marginal is uniform,
        # i.e. under full enumeration
        ds = small_dataset(N=6, M=3, seed=7)
        bf = brute_force_predictor(ds, n=2, m=1, learner=ConstantLearner())
        ens = train_ensemble(ds, MPConfig(seed=0, learner=ConstantLearner()),
                             patches=bf.enumeration())
        mc = ensemble_conditional_target(ens, 0, lambda n, s: small_dataset(n, 3, s),
                                         n_test=30, seed=3)
        assert abs(mc.value) < 1e-12

    def test_tracks_its_own_ensemble(self):
        spec = SimSpec(model="linear", task="regression", N=100, M=10,
                       snr=4.0, seed=8)
        ds = generate(spec)
        ens = train_ensemble(ds, MPConfig(K=800, seed=3,
                                          learner=RidgeLearner()))
        mc = ensemble_conditional_target(ens, 0, sampler(spec), n_test=2000,
                                         seed=4)
        again = ensemble_conditional_target(ens, 0, sampler(spec), n_test=2000,
                                            seed=4)
        assert mc.value == again.value


    @pytest.mark.parametrize("task, learner", [
        ("regression", RidgeLearner()),
        ("classification", RidgeLearner()),
        ("regression", TreeLearner(max_depth=3, min_leaf=2)),
    ], ids=["ridge-regression", "ridge-classification", "tree"])
    def test_matches_plain_average_of_model_predictions(self, task, learner):
        # both paths of the summing kernel (ridge regression in parameter
        # space, the rest through predictions) against a plain average of
        # independently refitted patch models
        spec = SimSpec(model="linear", task=task, N=60, M=10, snr=3.0, seed=2)
        ds = generate(spec)
        ens = train_ensemble(ds, MPConfig(K=200, seed=5, learner=learner))
        mc = ensemble_conditional_target(ens, 0, sampler(spec), n_test=300,
                                         seed=6)
        test = sampler(spec)(300, spawn_seed(6, "testdata"))
        preds = np.stack([
            learner.fit(ds.X[p.rows][:, p.features], ds.Y[p.rows], ds.task,
                        ds.n_classes).predict_batch(test.X[:, p.features])
            for p in ens.patches])
        keep = ~ens.feat_mask[:, 0]
        diffs = (error_vector(ds.task, test.Y, preds[keep].mean(axis=0))
                 - error_vector(ds.task, test.Y, preds.mean(axis=0)))
        assert abs(mc.value - diffs.mean()) < 1e-12


class TestRandomEnsembleConvergence:
    def test_more_patches_track_exhaustive_average(self):
        # random ensembles approach the full enumeration as K grows;
        # majority vote across seeds on a tiny instance
        ds = small_dataset(N=5, M=3, seed=9)
        learner = RidgeLearner(lam=0.001)
        bf = brute_force_predictor(ds, n=2, m=1, learner=learner)
        exact = np.array([bf.loo_prediction(i)[0] for i in range(5)])

        wins = 0
        seeds = 20
        for s in range(seeds):
            errs = {}
            for K in (2000, 50_000):
                ens = train_ensemble(ds, MPConfig(n=2, m=1, K=K, seed=100 + s,
                                                  learner=learner))
                got = np.array([ens.loo_prediction(i)[0] for i in range(5)])
                errs[K] = float(np.max(np.abs(got - exact)))
            wins += errs[50_000] < errs[2000]
        assert wins > seeds // 2

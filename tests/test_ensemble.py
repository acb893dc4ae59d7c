import hashlib
import json
from dataclasses import dataclass

import numpy as np
import pytest

from mpinfer.core import (
    CoverageFailure, Dataset, InvalidSize, InvalidSpec, MPConfig, Task,
)
from mpinfer import ensemble
from mpinfer.ensemble import (
    Minipatch, load_ensemble, sample_minipatches, save_ensemble,
    train_ensemble,
)
from mpinfer.learners import (
    ConstantLearner, ConstantModel, LinearModel, RidgeLearner, TreeLearner,
    predict,
)
from mpinfer.rng import generator, standard_normal


def toy_dataset(N=12, M=5, seed=0, task=Task.REGRESSION):
    gen = generator(seed, "toy")
    X = standard_normal(gen, (N, M))
    if task == Task.REGRESSION:
        Y = X @ np.linspace(1.0, 2.0, M) + standard_normal(gen, N)
        return Dataset(X=X, Y=Y, task=task)
    labels = (X[:, 0] > 0).astype(int)
    return Dataset(X=X, Y=labels, task=task, n_classes=2)


class TestSampling:
    def test_invalid_sizes(self):
        with pytest.raises(InvalidSize):
            sample_minipatches(N=5, M=4, n=5, m=2, K=3, seed=0)
        with pytest.raises(InvalidSize):
            sample_minipatches(N=5, M=4, n=2, m=4, K=3, seed=0)

    def test_deterministic_in_seed(self):
        a = sample_minipatches(10, 6, 3, 2, 50, seed=42)
        b = sample_minipatches(10, 6, 3, 2, 50, seed=42)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.rows, pb.rows)
            assert np.array_equal(pa.features, pb.features)
        c = sample_minipatches(10, 6, 3, 2, 50, seed=43)
        assert any(not np.array_equal(pa.rows, pc.rows) for pa, pc in zip(a, c))

    def test_sorted_distinct_in_range(self):
        for patch in sample_minipatches(9, 7, 4, 3, 25, seed=1):
            assert np.all(np.diff(patch.rows) > 0)
            assert np.all(np.diff(patch.features) > 0)
            assert patch.rows.min() >= 0 and patch.rows.max() < 9
            assert patch.features.min() >= 0 and patch.features.max() < 7

    def test_row_frequency_concentration(self):
        # each row appears in K/N patches up to binomial noise (3 sigma)
        patches = sample_minipatches(3, 2, 1, 1, 1000, seed=7)
        counts = np.zeros(3)
        for p in patches:
            counts[p.rows[0]] += 1
        assert np.all(np.abs(counts - 1000 / 3) <= 60)


# -- patch stream guard ----------------------------------------------------
# sample_minipatches must make exactly the draws of the per-patch choice
# loop below wherever numpy's choice runs Floyd's algorithm.

def choice_patches(N, M, n, m, K, seed):
    gen = generator(seed, "minipatches")
    return gen, [(np.sort(gen.choice(N, n, replace=False)),
                  np.sort(gen.choice(M, m, replace=False))) for _ in range(K)]


def assert_same_patches(got, want):
    assert len(got) == len(want)
    for p, (rows, feats) in zip(got, want):
        assert p.rows.dtype == np.int64 and p.features.dtype == np.int64
        assert np.array_equal(p.rows, rows) and np.array_equal(p.features, feats)


class TestPatchStream:
    @pytest.mark.parametrize("N,M,n,m,K", [
        (2000, 100, 45, 10, 300), (250, 50, 16, 8, 200), (5, 3, 2, 1, 500),
        (3, 2, 1, 1, 40), (10_000, 30, 200, 29, 20), (20_000, 9000, 400, 180, 15),
    ])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_choice_loop(self, N, M, n, m, K, seed):
        assert_same_patches(sample_minipatches(N, M, n, m, K, seed),
                            choice_patches(N, M, n, m, K, seed)[1])

    @pytest.mark.parametrize("block_bytes", [1, 900, 5000])
    def test_equals_choice_loop_over_many_blocks(self, monkeypatch, block_bytes):
        # K = 97 is no multiple of any of these block sizes
        monkeypatch.setattr(ensemble, "_BLOCK_BYTES", block_bytes)
        assert_same_patches(sample_minipatches(30, 12, 7, 4, 97, seed=3),
                            choice_patches(30, 12, 7, 4, 97, seed=3)[1])

    def test_equals_choice_loop_through_rejections(self):
        # About 12 bounded draws are rejected and redrawn in this stream:
        # it consumes more 32-bit words than it makes draws.
        N, M, n, m, K = 10_000, 4, 5000, 2, 1000
        gen, want = choice_patches(N, M, n, m, K, seed=1)
        words = generator(1, "minipatches")
        words.integers(0, 1 << 32, size=K * (2 * n - 1 + 2 * m - 1), dtype=np.uint64)
        assert gen.integers(0, 1 << 32, 4).tolist() != words.integers(0, 1 << 32, 4).tolist()
        assert_same_patches(sample_minipatches(N, M, n, m, K, seed=1), want)

    def test_tail_shuffle_regime_draws_uniform_patches(self):
        # N > 10,000 and n > N // 50, where numpy's choice would shuffle
        # instead: still sorted, distinct, in range, and uniform per row.
        from scipy.stats import binom
        N, M, n, m, K = 20_000, 6, 1000, 3, 300
        patches = sample_minipatches(N, M, n, m, K, seed=5)
        rows = np.stack([p.rows for p in patches])
        feats = np.stack([p.features for p in patches])
        assert rows.shape == (K, n) and feats.shape == (K, m)
        assert (np.diff(rows, axis=1) > 0).all() and (np.diff(feats, axis=1) > 0).all()
        assert rows.min() >= 0 and rows.max() < N and feats.min() >= 0 and feats.max() < M
        # each row's count is Binomial(K, n / N); two-sided 1e-3 over all rows
        counts = np.bincount(rows.ravel(), minlength=N)
        lo, hi = binom.ppf([0.5e-3 / N, 1 - 0.5e-3 / N], K, n / N)
        assert lo <= counts.min() and counts.max() <= hi

    def test_stream_is_pinned(self):
        got = [(p.rows.tolist(), p.features.tolist())
               for p in sample_minipatches(12, 7, 4, 3, 3, seed=11)]
        assert got == [([0, 1, 8, 11], [0, 1, 5]), ([2, 3, 6, 8], [0, 4, 6]),
                       ([5, 8, 9, 11], [0, 1, 3])]
        patches = sample_minipatches(2000, 100, 45, 10, 2500, seed=1)
        digest = hashlib.sha256(np.stack([p.rows for p in patches]).tobytes()
                                + np.stack([p.features for p in patches]).tobytes())
        assert digest.hexdigest() == (
            "264cf4e12742edae1e8389c9d3e664500a9699bdb86a92b1c8378a5adf23bc16")


class TestTraining:
    def test_constant_learner_cache(self):
        ds = toy_dataset()
        ens = train_ensemble(ds, MPConfig(n=3, m=2, K=20, seed=5,
                                          learner=ConstantLearner()))
        for k, patch in enumerate(ens.patches):
            want = ds.Y[patch.rows].mean()
            assert np.allclose(ens.cache[k, :, 0], want)

    @staticmethod
    def cache_against_predict(task, learner):
        """Pairs (single-row predict, cache entry) at 50 random (k, i)."""
        ds = toy_dataset(N=30, M=6, seed=2, task=task)
        ens = train_ensemble(ds, MPConfig(n=6, m=3, K=80, seed=9, learner=learner))
        gen = generator(0, "cache-check")
        for _ in range(50):
            k = int(gen.integers(0, ens.K))
            i = int(gen.integers(0, ds.n_rows))
            yield (predict(ens.models.take(k), ds.X[i, ens.patches[k].features]),
                   ens.cache[k, i])

    def test_cache_consistency_exact(self):
        # every cache filled through predict_batch equals single-row predict
        for task, learner in [(Task.REGRESSION, TreeLearner(max_depth=3)),
                              (Task.REGRESSION, ConstantLearner()),
                              (Task.CLASSIFICATION, RidgeLearner(lam=0.001)),
                              (Task.CLASSIFICATION, TreeLearner(max_depth=3))]:
            for again, cached in self.cache_against_predict(task, learner):
                assert np.array_equal(again, cached), learner

    def test_ridge_regression_cache_matches_predict(self):
        # an affine cache is one GEMM, equal to single-row predict up to
        # rounding only
        for again, cached in self.cache_against_predict(
                Task.REGRESSION, RidgeLearner(lam=0.001)):
            assert np.allclose(again, cached, rtol=0, atol=1e-12)

    def test_ridge_regression_cache_skips_predict_batch(self, monkeypatch):
        def refuse(self, Z):
            raise AssertionError("affine cache filled through predict_batch")
        monkeypatch.setattr(LinearModel, "predict_batch", refuse)
        ds = toy_dataset(N=30, M=6, seed=2)
        ens = train_ensemble(ds, MPConfig(n=6, m=3, K=80, seed=9,
                                          learner=RidgeLearner()))
        assert np.isfinite(ens.cache).all()

    def test_thread_count_determinism(self):
        ds = toy_dataset(N=40, M=8, seed=3)
        runs = [train_ensemble(ds, MPConfig(n=6, m=3, K=120, seed=21,
                                            learner=TreeLearner(max_depth=4)),
                               threads=t) for t in (1, 4, 8)]
        base = runs[0]
        for other in runs[1:]:
            assert base.cache.tobytes() == other.cache.tobytes()
            assert base.obs_mask.tobytes() == other.obs_mask.tobytes()

    def test_ridge_thread_count_determinism(self, monkeypatch):
        # small fit blocks, so the threads split the patches between them
        monkeypatch.setattr(ensemble, "_FIT_BLOCK_BYTES", 2000)
        for task in (Task.REGRESSION, Task.CLASSIFICATION):
            ds = toy_dataset(N=40, M=8, seed=3, task=task)
            runs = [train_ensemble(ds, MPConfig(n=6, m=3, K=120, seed=21,
                                                learner=RidgeLearner()),
                                   threads=t) for t in (1, 3, 8)]
            for other in runs[1:]:
                assert runs[0].cache.tobytes() == other.cache.tobytes()

    @pytest.mark.parametrize("block_bytes", [2500, 4500])
    @pytest.mark.parametrize("task, learner", [
        (Task.REGRESSION, TreeLearner(max_depth=4)),
        (Task.REGRESSION, ConstantLearner()),
        (Task.CLASSIFICATION, RidgeLearner()),
    ], ids=["tree", "constant", "ridge-classification"])
    def test_fit_blocks_do_not_move_cache(self, monkeypatch, task, learner,
                                          block_bytes):
        # prediction sub-blocks that do not divide the fit blocks
        ds = toy_dataset(N=40, M=8, seed=3, task=task)
        config = MPConfig(n=6, m=3, K=120, seed=21, learner=learner)
        want = train_ensemble(ds, config).cache
        monkeypatch.setattr(ensemble, "_FIT_BLOCK_BYTES", block_bytes)
        assert train_ensemble(ds, config).cache.tobytes() == want.tobytes()

    def test_coverage_failure_at_build(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        ds = Dataset(X=X, Y=np.array([1.0, 2.0]), task=Task.REGRESSION)
        patches = [Minipatch(rows=np.array([0]), features=np.array([0]))]
        with pytest.raises(CoverageFailure):
            train_ensemble(ds, MPConfig(seed=0, learner=ConstantLearner()),
                           patches=patches)

    def test_uncovered_row_fails_only_when_queried(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        ds = Dataset(X=X, Y=np.array([1.0, 2.0]), task=Task.REGRESSION)
        patches = [Minipatch(rows=np.array([0]), features=np.array([0]))]
        ens = train_ensemble(ds, MPConfig(seed=0, learner=ConstantLearner()),
                             patches=patches, check_coverage=False)
        assert ens.loo_prediction(1)[0] == 1.0  # trained on row 0 only
        with pytest.raises(CoverageFailure):
            ens.loo_prediction(0)

    def test_pair_coverage_failure_names_pair(self):
        ds = toy_dataset(N=6, M=3, seed=4)
        # every patch uses feature 0, so (i, 0) is never jointly excluded
        patches = [Minipatch(rows=np.array([k % 6]), features=np.array([0]))
                   for k in range(6)]
        with pytest.raises(CoverageFailure) as exc:
            train_ensemble(ds, MPConfig(seed=0, learner=ConstantLearner()),
                           patches=patches)
        assert exc.value.j == 0


class TestAggregation:
    def test_loo_hand_enumeration(self):
        # patches {1} and {2} with mean-of-rows models: loo(0) = (2+3)/2
        X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        ds = Dataset(X=X, Y=np.array([1.0, 2.0, 3.0]), task=Task.REGRESSION)
        patches = [Minipatch(rows=np.array([1]), features=np.array([0, 1])),
                   Minipatch(rows=np.array([2]), features=np.array([0, 1]))]
        with pytest.raises(InvalidSize):
            # m must stay below M; use single-feature patches instead
            train_ensemble(ds, MPConfig(seed=0, learner=ConstantLearner()),
                           patches=patches)
        patches = [Minipatch(rows=np.array([1]), features=np.array([0])),
                   Minipatch(rows=np.array([2]), features=np.array([0]))]
        ens = train_ensemble(ds, MPConfig(seed=0, learner=ConstantLearner()),
                             patches=patches, check_coverage=False)
        assert ens.loo_prediction(0)[0] == pytest.approx(2.5, abs=1e-12)

    def test_single_qualifying_patch_verbatim(self):
        ds = toy_dataset(N=8, M=4, seed=6)
        patches = [Minipatch(rows=np.array([0, 1, 2, 3, 4, 5, 6]),
                             features=np.array([0, 1])),
                   Minipatch(rows=np.array([1, 2, 3, 4, 5, 6, 7]),
                             features=np.array([2, 3]))]
        ens = train_ensemble(ds, MPConfig(seed=0, learner=RidgeLearner()),
                             patches=patches, check_coverage=False)
        assert np.array_equal(ens.loo_prediction(7), ens.cache[0, 7])
        assert np.array_equal(ens.loo_prediction(0), ens.cache[1, 0])

    def test_loco_equals_loo_when_feature_absent_everywhere(self):
        ds = toy_dataset(N=10, M=4, seed=8)
        patches = sample_minipatches(10, 3, 3, 2, 40, seed=3)  # features < 3
        ens = train_ensemble(ds, MPConfig(seed=0, learner=ConstantLearner()),
                             patches=patches, check_coverage=False)
        for i in range(10):
            assert np.array_equal(ens.loo_loco_prediction(i, 3),
                                  ens.loo_prediction(i))

    def test_constant_models_average_to_constant(self):
        ds = toy_dataset(N=9, M=4, seed=9)
        ds = Dataset(X=ds.X, Y=np.full(9, 3.25), task=Task.REGRESSION)
        ens = train_ensemble(ds, MPConfig(n=3, m=2, K=30, seed=2,
                                          learner=ConstantLearner()))
        for i in range(9):
            assert ens.loo_prediction(i)[0] == pytest.approx(3.25, abs=1e-12)
            assert ens.loo_loco_prediction(i, 1)[0] == pytest.approx(3.25, abs=1e-12)

    def test_loo_new_consistency_with_training_row(self):
        ds = toy_dataset(N=12, M=5, seed=10)
        ens = train_ensemble(ds, MPConfig(n=4, m=2, K=60, seed=3,
                                          learner=RidgeLearner()))
        loo = ens.loo_all()
        for i in (0, 5, 11):
            through_new = ens.loo_prediction_new(i, ds.X[i])
            assert np.max(np.abs(through_new - loo[i])) < 1e-12

    def test_aggregation_linearity(self):
        ds = toy_dataset(N=10, M=4, seed=11)
        ens = train_ensemble(ds, MPConfig(n=3, m=2, K=40, seed=4,
                                          learner=RidgeLearner()))
        i = 2
        qualifying = np.nonzero(~ens.obs_mask[:, i])[0]
        half = len(qualifying) // 2
        a, b = qualifying[:half], qualifying[half:]
        mean_a = ens.cache[a, i, 0].mean()
        mean_b = ens.cache[b, i, 0].mean()
        pooled = (len(a) * mean_a + len(b) * mean_b) / len(qualifying)
        assert pooled == pytest.approx(ens.loo_prediction(i)[0], abs=1e-12)


class TestSnapshot:
    @pytest.mark.parametrize("learner", [RidgeLearner(lam=0.01),
                                         TreeLearner(max_depth=3, min_leaf=2),
                                         ConstantLearner(), None])
    def test_round_trip(self, tmp_path, learner):
        ds = toy_dataset(N=15, M=5, seed=12)
        ens = train_ensemble(ds, MPConfig(n=4, m=2, K=25, seed=8,
                                          learner=learner))
        path = tmp_path / "snap.npz"
        save_ensemble(ens, path)
        back = load_ensemble(path)
        assert back.config.learner == learner
        assert back.config.settings_dict() == ens.config.settings_dict()
        assert np.array_equal(back.cache, ens.cache)
        assert np.array_equal(back.obs_mask, ens.obs_mask)
        assert np.array_equal(back.feat_mask, ens.feat_mask)
        for i in range(ds.n_rows):
            assert np.array_equal(back.loo_prediction(i), ens.loo_prediction(i))
        x_new = ds.X.mean(axis=0)
        assert np.allclose(back.loo_prediction_new(0, x_new),
                           ens.loo_prediction_new(0, x_new), atol=1e-12)

    def test_classification_round_trip(self, tmp_path):
        ds = toy_dataset(N=16, M=5, seed=13, task=Task.CLASSIFICATION)
        ens = train_ensemble(ds, MPConfig(n=5, m=2, K=30, seed=1,
                                          learner=TreeLearner(max_depth=3)))
        path = tmp_path / "snap.npz"
        save_ensemble(ens, path)
        back = load_ensemble(path)
        assert np.array_equal(back.cache, ens.cache)
        assert back.dataset.n_classes == 2

    @staticmethod
    def _edit_header(path, edit):
        with np.load(path) as zf:
            arrays = {name: zf[name] for name in zf.files}
        header = json.loads(bytes(arrays["header"]).decode("utf8"))
        edit(header)
        arrays["header"] = np.frombuffer(json.dumps(header).encode("utf8"),
                                         dtype=np.uint8)
        np.savez_compressed(path, **arrays)

    def _saved(self, tmp_path):
        ds = toy_dataset(N=15, M=5, seed=12)
        ens = train_ensemble(ds, MPConfig(n=4, m=2, K=25, seed=8))
        path = tmp_path / "snap.npz"
        save_ensemble(ens, path)
        return ens, path

    def test_old_layout_refused(self, tmp_path):
        _, path = self._saved(tmp_path)
        self._edit_header(path, lambda h: h.update(version=2))
        with pytest.raises(InvalidSpec):
            load_ensemble(path)

    @pytest.mark.parametrize("name", ["Minipatch", "Ensemble", "FittedModel"])
    def test_unknown_model_type_refused(self, tmp_path, name):
        # names that exist on the package's modules are refused all the same
        _, path = self._saved(tmp_path)
        self._edit_header(path, lambda h: h["model"].update(name=name))
        with pytest.raises(InvalidSpec):
            load_ensemble(path)

    def test_unshipped_model_type_not_saved(self, tmp_path):
        @dataclass(frozen=True)
        class OwnModel(ConstantModel):
            pass

        ens, path = self._saved(tmp_path)
        ens.models = OwnModel(value=np.zeros((ens.K, 1)), n_slots=2)
        with pytest.raises(TypeError):
            save_ensemble(ens, path)
